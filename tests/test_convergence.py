import math

import numpy as np
import pytest

from pqss.analysis import error_grid
from pqss.catalog import build_catalog
from pqss.convergence import (
    ROUNDOFF_ULPS_PER_DEGREE,
    AxisShape,
    SequenceSpec,
    build_operator,
    convergence_table,
    empirical_order,
    korovkin_suite,
    one_minus_c_over_n,
    tabulated_sequence,
)
from pqss.moments import first_moment_shift, first_moment_univariate, second_moment_univariate
from pqss.operators import AxisConfig, BivariateOperator, apply_bivariate
from pqss.pq_core import PQPair, pq_integer


def family_ops(spec, ns, shape):
    # the diagonal of a family, both axes on one shape, as cli's converge builds it
    return [build_operator(spec, n, shape, shape) for n in ns]


def test_one_minus_family_values_and_limits():
    spec = one_minus_c_over_n(0.5, 1.0)
    assert spec.a == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert spec.b == pytest.approx(math.exp(-1.0), rel=1e-15)
    pq = spec.pq_at(10)
    assert pq.p == 0.95
    assert pq.q == 0.9
    with pytest.raises(ValueError, match="0 <= c_p < c_q"):
        one_minus_c_over_n(1.0, 0.5)
    with pytest.raises(ValueError, match="0 <= c_p < c_q"):
        one_minus_c_over_n(0.5, 0.5)


@pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 3.0])
def test_one_minus_family_limits_are_exp_minus_c(c):
    # (1 - c/n)^n = exp(n log(1 - c/n)) misses exp(-c) by about c^2 / (2n)
    spec = one_minus_c_over_n(c, c + 1.0)
    assert (spec.a, spec.b) == (math.exp(-c), math.exp(-(c + 1.0)))
    n = 10 ** 6
    assert spec.pq_of(n)[0] ** n == pytest.approx(spec.a, rel=1e-5)
    assert spec.pq_of(n)[1] ** n == pytest.approx(spec.b, rel=1e-5)


def test_one_minus_family_refuses_non_finite_constants():
    for c_p, c_q in ((0.5, math.inf), (0.0, math.inf)):
        with pytest.raises(ValueError, match="requires finite c_p and c_q"):
            one_minus_c_over_n(c_p, c_q)
    # nan fails the ordering first, as before
    with pytest.raises(ValueError, match="0 <= c_p < c_q"):
        one_minus_c_over_n(math.nan, 1.0)
    # large finite constants build a family that is invalid at small n
    spec = one_minus_c_over_n(1e7, 2e7)
    with pytest.raises(ValueError, match="invalid at n=8"):
        spec.pq_at(8)


def test_family_invalid_at_small_n():
    # q_1 = 1 - 1/1 = 0 leaves the admissible region
    spec = one_minus_c_over_n(0.5, 1.0)
    with pytest.raises(ValueError, match="invalid at n=1"):
        spec.pq_at(1)


def test_tabulated_sequence():
    spec = tabulated_sequence({4: (0.95, 0.9), 8: (0.97, 0.94)}, a=0.9, b=0.8)
    assert spec.pq_at(4).p == 0.95
    assert spec.pq_at(8).q == 0.94
    with pytest.raises(ValueError, match="no entry for n=16"):
        spec.pq_at(16)
    with pytest.raises(ValueError, match="nonempty"):
        tabulated_sequence({}, a=1.0, b=1.0)
    assert tabulated_sequence({4: (0.95, 0.9)}, a=1.0, b=1.0).b == 1.0
    for a, b in ((0.0, 0.8), (0.9, -0.1), (1.5, 0.8), (0.9, float("nan"))):
        with pytest.raises(ValueError, match=r"requires limits a, b in \(0, 1\]"):
            tabulated_sequence({4: (0.95, 0.9)}, a=a, b=b)


def test_build_operator_shapes():
    spec = one_minus_c_over_n(0.5, 1.0)
    op = build_operator(spec, 8, AxisShape(l=1, alpha=0.5, beta=1.0), AxisShape())
    assert op.axis1.n == 8
    assert op.axis1.l == 1
    assert op.axis2.l == 0
    assert op.axis1.pq.p == 1.0 - 0.5 / 8


def test_korovkin_rows_match_closed_forms():
    spec = one_minus_c_over_n(0.5, 1.0)
    shape = AxisShape(l=1, alpha=0.5, beta=1.0)
    table = korovkin_suite(family_ops(spec, [4, 16, 64], shape), 21)
    assert isinstance(table, list)
    assert [r.n for r in table] == [4, 16, 64]
    xs = np.linspace(0.0, 1.0, 21)
    for row in table:
        op = build_operator(spec, row.n, shape, shape)
        assert row.sup_e00 == 0.0
        want_e10 = float(np.max(np.abs(first_moment_univariate(op.axis1, xs) - xs)))
        assert row.sup_e10 == pytest.approx(want_e10, rel=1e-14)
        r1 = second_moment_univariate(op.axis1, xs) - xs ** 2
        want_sq = float(np.max(np.abs(r1[:, None] + r1[None, :])))
        assert row.sup_e20_e02 == pytest.approx(want_sq, rel=1e-13)


def test_korovkin_degenerate_linear_reproduction():
    # l=0, alpha=beta=0 reproduces t exactly; only the square condition decays
    spec = one_minus_c_over_n(0.5, 1.0)
    table = korovkin_suite(family_ops(spec, [8, 32, 128], AxisShape()), 21)
    for row in table:
        assert row.sup_e10 <= 1e-14
        assert row.sup_e01 <= 1e-14
        assert row.sup_e20_e02 > 1e-4


def test_korovkin_errors_shrink_along_family():
    spec = one_minus_c_over_n(0.5, 1.0)
    shape = AxisShape(l=1, alpha=0.5, beta=1.0)
    table = korovkin_suite(family_ops(spec, [16, 32, 64, 128, 256], shape), 21)
    e10 = [r.sup_e10 for r in table]
    sq = [r.sup_e20_e02 for r in table]
    assert all(b < a for a, b in zip(e10, e10[1:]))
    assert all(b < a for a, b in zip(sq, sq[1:]))


def test_p_equal_one_reduction_matches_q_closed_forms():
    # with p pinned at 1 the first moment must equal ([m]_q x + alpha)/([n]_q + beta)
    # with plain q-brackets (1 - q^k)/(1 - q)
    spec = tabulated_sequence({5: (1.0, 0.8), 9: (1.0, 0.9)}, a=1.0, b=1.0,
                              name="p-pinned")
    for n in (5, 9):
        shape = AxisShape(l=2, alpha=0.5, beta=1.0)
        op = build_operator(spec, n, shape, shape)
        q = op.axis1.pq.q
        qb = lambda k: (1.0 - q ** k) / (1.0 - q)
        m = n + 2
        for x in (0.2, 0.7):
            want = (qb(m) * x + 0.5) / (qb(n) + 1.0)
            got = apply_bivariate(op, ((lambda t: t, lambda t: 1.0),), x, 0.5)
            assert got == pytest.approx(want, rel=1e-12)
            assert pq_integer(m, op.axis1.pq) == pytest.approx(qb(m), rel=1e-13)


def test_convergence_table_const_and_bounds():
    spec = one_minus_c_over_n(0.5, 1.0)
    cat = build_catalog(2.0, 2.0)
    shape = AxisShape(l=1, alpha=0.5, beta=1.0)
    table = convergence_table(family_ops(spec, [8, 32], shape), cat["const1"], 11)
    for row in table:
        assert row.sup_err <= 1e-13

    table = convergence_table(family_ops(spec, [8, 32, 128], shape), cat["e20"], 11)
    sups = [r.sup_err for r in table]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    for row in table:
        assert row.bound_at_worst is not None
        assert row.ratio is not None
        assert row.ratio <= 1.0


def test_triangle_inequality_for_sum():
    # sup|S(t1+t2) - (x1+x2)| <= sup_e10 + sup_e01 on the same grid
    spec = one_minus_c_over_n(0.5, 1.0)
    cat = build_catalog(2.0, 2.0)
    shape = AxisShape(l=1, alpha=0.5, beta=1.0)
    ops = family_ops(spec, [16, 64], shape)
    k_table = korovkin_suite(ops, 21)
    c_table = convergence_table(ops, cat["sum"], 21)
    for krow, crow in zip(k_table, c_table):
        assert crow.sup_err <= krow.sup_e10 + krow.sup_e01 + 1e-12


def test_tables_take_operators_whose_axes_differ():
    # axes that differ in n, l, alpha, beta and (p, q): each row's n, p and q
    # are axis 1's, e01 reads axis 2, and sup_err is the error grid's maximum
    ops = [
        BivariateOperator(
            AxisConfig(n=n, l=1, pq=PQPair(1.0 - 0.5 / n, 1.0 - 1.0 / n), alpha=0.5, beta=1.0),
            AxisConfig(n=3 * n, l=2, pq=PQPair(0.99, 0.9), alpha=0.25, beta=2.0),
        )
        for n in (8, 32)
    ]
    cat = build_catalog(2.0, 3.0)
    xs = np.linspace(0.0, 1.0, 11)
    k_rows = korovkin_suite(ops, 11)
    for name in ("sum", "sinprod"):
        c_rows = convergence_table(ops, cat[name], 11)
        for op, krow, crow in zip(ops, k_rows, c_rows, strict=True):
            for row in (krow, crow):
                assert (row.n, row.p, row.q) == (op.axis1.n, op.axis1.pq.p, op.axis1.pq.q)
            assert krow.sup_e10 == float(np.max(np.abs(first_moment_shift(op.axis1, xs))))
            assert krow.sup_e01 == float(np.max(np.abs(first_moment_shift(op.axis2, xs))))
            assert krow.sup_e01 != krow.sup_e10
            assert crow.sup_err == float(np.max(error_grid(op, cat[name], xs, xs)))


def test_empirical_order():
    ns = [16, 32, 64, 128]
    assert empirical_order([(n, 3.0 / n) for n in ns]) == pytest.approx(-1.0, abs=1e-12)
    assert empirical_order([(n, 5.0 / n ** 2) for n in ns]) == pytest.approx(-2.0, abs=1e-12)
    assert empirical_order([(n, 0.0) for n in ns]) == -math.inf
    # roundoff-level errors, as on the exactly reproducing default shape
    assert empirical_order([(n, 1.11e-16) for n in ns]) == -math.inf
    # the full evaluation path's roundoff grows with n; at the floor it is exact,
    # above it a (noise) slope is fitted
    eps = np.finfo(float).eps
    floor = ROUNDOFF_ULPS_PER_DEGREE
    assert empirical_order([(n, floor * n * eps) for n in ns]) == -math.inf
    assert empirical_order([(n, 2 * floor * n * eps) for n in ns]) == pytest.approx(1.0)
    # a small but genuine error is still fitted
    assert empirical_order([(n, 1e-9 / n) for n in ns]) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError, match="at least 3 points"):
        empirical_order([(10, 1.0), (20, 0.5)])
    # repeated degrees leave fewer than 3 distinct log n to fit
    with pytest.raises(ValueError, match="at least 3 points at distinct n"):
        empirical_order([(8, 1.0), (8, 0.5), (8, 0.25)])
    with pytest.raises(ValueError, match="at least 3 points at distinct n"):
        empirical_order([(8, 1.0), (16, 0.5), (16, 0.25), (8, 0.5)])


def test_square_condition_order_is_one():
    spec = one_minus_c_over_n(0.5, 1.0)
    table = korovkin_suite(family_ops(spec, [16, 32, 64, 128, 256, 512], AxisShape()), 21)
    order = empirical_order([(r.n, r.sup_e20_e02) for r in table])
    assert -1.3 <= order <= -0.7


def test_first_moment_order_with_shift():
    spec = one_minus_c_over_n(0.5, 1.0)
    shape = AxisShape(l=1, alpha=0.5, beta=1.0)
    table = korovkin_suite(family_ops(spec, [16, 32, 64, 128, 256, 512], shape), 21)
    order = empirical_order([(r.n, r.sup_e10) for r in table])
    assert -1.3 <= order <= -0.7
