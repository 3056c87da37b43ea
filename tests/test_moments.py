import decimal
import json
import math
import sys

import numpy as np
import pytest

import pqss.moments as moments
from pqss.convergence import one_minus_c_over_n
from pqss.moments import (
    MOMENT_CSV_HEADER,
    MomentEntry,
    MomentReport,
    central_moment,
    delta,
    first_moment_shift,
    first_moment_univariate,
    literal_first_moment_factor,
    moment_closed,
    moment_csv_rows,
    moment_oracle,
    oracle_weight_vector,
    second_moment_univariate,
    standard_sweep,
    sweep_grid,
    verify_moments,
)
from pqss.operators import (
    AxisConfig,
    BivariateOperator,
    apply_on_grid,
    nodes,
    sample_at_nodes,
    weight_vector,
)
from pqss.pq_core import PQPair
from pqss.serialize import fmt_float


def test_first_moment_worked(worked_axis):
    # ([3] x + alpha)/([1] + beta) = (1.75 x + 1)/3.5
    assert first_moment_univariate(worked_axis, 0.5) == pytest.approx(1.875 / 3.5, rel=1e-14)
    xs = np.array([0.0, 0.5, 1.0])
    got = first_moment_univariate(worked_axis, xs)
    assert got == pytest.approx([1.0 / 3.5, 1.875 / 3.5, 2.75 / 3.5], rel=1e-14)


def test_second_moment_worked(worked_axis):
    # ([3](p^2 + 2 alpha) x + q [3][2] x^2 + alpha^2) / D^2
    # = (5.25 x + 1.3125 x^2 + 1) / 12.25 -> x=0.5: 3.953125/12.25
    assert second_moment_univariate(worked_axis, 0.5) == pytest.approx(
        3.953125 / 12.25, rel=1e-14
    )


def test_central_coefficients_match_expansion(worked_axis):
    for x in np.linspace(0.0, 1.0, 9):
        direct = (
            second_moment_univariate(worked_axis, x)
            - 2.0 * x * first_moment_univariate(worked_axis, x)
            + x * x
        )
        assert central_moment(worked_axis, x) == pytest.approx(direct, abs=1e-14)


def test_moment_closed_names(worked_op):
    assert moment_closed(worked_op, 0, 0, 0.3, 0.9) == 1.0
    e10 = moment_closed(worked_op, 1, 0, 0.5, 0.9)
    assert e10 == pytest.approx(1.875 / 3.5, rel=1e-14)
    e11 = moment_closed(worked_op, 1, 1, 0.5, 0.5)
    assert e11 == pytest.approx((1.875 / 3.5) ** 2, rel=1e-14)
    e02 = moment_closed(worked_op, 0, 2, 0.3, 0.5)
    assert e02 == pytest.approx(3.953125 / 12.25, rel=1e-14)
    with pytest.raises(ValueError, match="requires \\(i, j\\)"):
        moment_closed(worked_op, 2, 1, 0.5, 0.5)


def test_closed_moments_refuse_a_subnormal_square():
    # D = [n] = 2^(2 - n) at (p, q) = (0.5, 0.25).  The closed forms once
    # divided by D^2, which is subnormal from n = 514 and 0 from n = 540, and
    # refused it; in the affine form nothing divides by D^2, so they run there,
    # to the exact values.  The shift still divides by D itself, which is
    # subnormal from n = 1025 and 0 from n = 1077: that is refused, naming D
    for n in (514, 540, 600, 1024):
        axis = AxisConfig(n=n, l=1, pq=PQPair(0.5, 0.25))
        want = _exact_shift_and_central(axis, 0.5)
        got = (first_moment_shift(axis, 0.5), central_moment(axis, 0.5))
        assert got == pytest.approx(want, rel=1e-14), n
        assert delta(axis, 0.5) == math.sqrt(got[1])
    for n, den in ((1025, r"1\.11\d*e-308"), (1100, r"0\.0")):
        axis = AxisConfig(n=n, l=1, pq=PQPair(0.5, 0.25))
        for fn in (first_moment_shift, central_moment, delta):
            with pytest.raises(ValueError, match=rf"requires \[n\] \+ beta to be a normal double "
                                                 rf"\(got \[n\] \+ beta = {den} at n={n}, "):
                fn(axis, 0.5)
        # the raw moments read only (A, B, [m]_r)
        assert first_moment_univariate(axis, 0.5) == pytest.approx(0.25, rel=1e-15)
        assert math.isfinite(second_moment_univariate(axis, 0.5))


def test_central_moment_closed(worked_axis):
    want = 3.953125 / 12.25 - 2.0 * 0.5 * (1.875 / 3.5) + 0.25
    assert central_moment(worked_axis, 0.5) == pytest.approx(want, abs=1e-15)
    # an array of x gives the scalar values bit for bit
    xs = np.linspace(0.0, 1.0, 7)
    np.testing.assert_array_equal(
        central_moment(worked_axis, xs), [central_moment(worked_axis, float(x)) for x in xs]
    )


def test_delta_values_and_clamping(worked_axis):
    # exact: sqrt(e20 - 2 x e10 + x^2) at x=0.5
    want = math.sqrt(3.953125 / 12.25 - 1.875 / 3.5 + 0.25)
    assert delta(worked_axis, 0.5) == pytest.approx(want, rel=1e-13)
    # alpha=0 axis at x=0: central second moment is exactly 0
    axis0 = AxisConfig(n=3, l=0, pq=PQPair(0.9, 0.6))
    assert delta(axis0, 0.0) == 0.0

    # an array of x gives the scalar results bit for bit; a scalar gives a float
    xs = np.linspace(0.0, 1.0, 23)
    other = AxisConfig(n=25, l=3, pq=PQPair(0.99, 0.95), alpha=0.5, beta=0.5)
    for axis in (worked_axis, axis0, other):
        assert type(delta(axis, 0.5)) is float
        np.testing.assert_array_equal(delta(axis, xs), [delta(axis, float(x)) for x in xs])

    # outside [0, 1] the central moment's x (1 - x) term is negative: refused
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"requires x in \[0, 1\]"):
            delta(worked_axis, bad)
        with pytest.raises(ValueError, match=r"requires x in \[0, 1\]"):
            delta(worked_axis, np.array([0.5, bad]))


def _exact_shift_and_central(axis: AxisConfig, x: float) -> tuple[float, float]:
    """S(t; x) - x and S((t - x)^2; x) from the raw closed moments, in decimal at
    60 digits from the same doubles, each rounded once."""
    with decimal.localcontext(decimal.Context(prec=60)):
        p, q, alpha, beta, x = map(decimal.Decimal, (axis.pq.p, axis.pq.q, axis.alpha,
                                                     axis.beta, x))
        bracket = lambda k: (p ** k - q ** k) / (p - q)
        m = axis.degree
        den = bracket(axis.n) + beta
        first = (bracket(m) * x + alpha) / den
        second = (bracket(m) * (p ** (m - 1) + 2 * alpha) * x
                  + q * bracket(m) * bracket(m - 1) * x * x + alpha ** 2) / den ** 2
        return float(first - x), float(second - 2 * x * first + x * x)


def _exact_cases():
    for op in standard_sweep():
        for x in sweep_grid(11):
            yield op.axis1, float(x)
    family = one_minus_c_over_n(0.5, 1.0)
    for n in (16, 64, 256, 1024, 2048, 8192, 65536):
        for l, alpha, beta in ((0, 0.0, 0.0), (1, 0.5, 1.0), (3, 1.0, 2.0)):
            axis = AxisConfig(n=n, l=l, pq=family.pq_at(n), alpha=alpha, beta=beta)
            for x in (0.001, 0.1, 0.37, 0.5, 0.83, 0.999):
                yield axis, x


def test_shift_and_central_match_exact_closed_forms():
    # relative error against the exact value, absolute where it is 0 (the
    # reference's own roundoff is near 1e-59, so below 1e-40 it reads 0).  The
    # expansion A x^2 + B x + C that central_moment replaced missed by 6.5e-14
    # inside the sweep, by 0.40 at an x = 1 where the moment is 4.4e-16, and by
    # 5.0e-9 at n = 65536.  The shift changes sign at
    # x = -alpha/gap, and near there the rounding of gap x alone costs digits:
    # 3.4e-14 at n=2, l=1, (0.99, 0.95), alpha=1, beta=2, x=0.9, where the
    # shift is 1.3e-3 and gap x is 1.0; S(t; x) - x by subtraction misses by
    # 6.4e-12 at n = 65536
    worst = {"shift": 0.0, "central": 0.0}
    for axis, x in _exact_cases():
        want = _exact_shift_and_central(axis, x)
        got = (first_moment_shift(axis, x), central_moment(axis, x))
        for name, g, w in zip(worst, got, want):
            worst[name] = max(worst[name], abs(g - w) / (abs(w) if abs(w) > 1e-40 else 1.0))
    assert worst["shift"] <= 1e-13, worst
    assert worst["central"] <= 1e-14, worst


def test_oracle_weight_vector_matches_production(worked_axis):
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        w_prod = weight_vector(worked_axis, x)
        w_orac = oracle_weight_vector(worked_axis, x)
        assert w_prod == pytest.approx(w_orac, abs=1e-13)
    axis = AxisConfig(n=25, l=3, pq=PQPair(0.99, 0.95), alpha=0.5, beta=0.5)
    for x in (0.1, 0.6, 0.95):
        assert weight_vector(axis, x) == pytest.approx(
            oracle_weight_vector(axis, x), abs=1e-13
        )


def test_oracle_stays_off_the_production_kernels(monkeypatch, worked_axis):
    # oracle independence: no libm, no log-factorial kernel and no
    # weight_matrix, even for a new row
    from pqss import _clibm, catalog, operators, pq_core

    op = BivariateOperator(worked_axis, worked_axis)
    table = sample_at_nodes(op, lambda a, b: a * b)
    want = moment_oracle(op, [table], [0.3], [0.8])

    def refuse(*args):
        raise AssertionError("the oracle called a production kernel")

    # libm in its own module and in every module that imports it
    with_libm = [module for name, module in sys.modules.items()
                 if name.partition(".")[0] == "pqss" and getattr(module, "libm", None) is _clibm.libm]
    assert {_clibm, catalog, operators} <= set(with_libm)
    for module in with_libm:
        monkeypatch.setattr(module, "libm", refuse)
    for module in (_clibm, pq_core):
        monkeypatch.setattr(module, "bracket_logs", refuse)
    monkeypatch.setattr(operators, "weight_matrix", refuse)
    moments._oracle_row.cache_clear()
    np.testing.assert_array_equal(moment_oracle(op, [table], [0.3], [0.8]), want)


def test_oracle_weight_vector_beyond_double_range():
    # p^(-m(m-1)/2) overflows a double at m = 117 for p = 0.9; the decimal
    # rows have no such limit and match production to 1e-11 relative
    axis = AxisConfig(n=200, l=0, pq=PQPair(0.9, 0.6))
    for x in (0.0, 0.1, 0.5, 0.9, 1.0):
        w = oracle_weight_vector(axis, x)
        assert not w.flags.writeable
        np.testing.assert_allclose(weight_vector(axis, x), w, rtol=1e-11, atol=0.0)


def test_oracle_digits_suffice_on_the_sweep(monkeypatch):
    # twice the digits round every sweep row to the same doubles
    assert moments._ORACLE_DIGITS == 60
    keys = {(op.axis1.degree, op.axis1.pq.p, op.axis1.pq.q) for op in standard_sweep()}
    keys = [(*key, float(x)) for key in sorted(keys) for x in sweep_grid(11)]
    assert len(keys) == 429
    moments._oracle_row.cache_clear()
    rows = [moments._oracle_row(*key) for key in keys]
    monkeypatch.setattr(moments, "_ORACLE_CONTEXT", moments._ORACLE_CONTEXT.copy())
    moments._ORACLE_CONTEXT.prec = 2 * moments._ORACLE_DIGITS
    moments._oracle_row.cache_clear()
    for key, row in zip(keys, rows):
        np.testing.assert_array_equal(moments._oracle_row(*key), row, err_msg=str(key))
    moments._oracle_row.cache_clear()


def _oracle_at(op, f, x1, x2):
    return moment_oracle(op, [sample_at_nodes(op, f)], [x1], [x2])[0, 0, 0]


def test_oracle_values(worked_op):
    assert _oracle_at(worked_op, lambda a, b: 1.0, 0.7, 0.2) == pytest.approx(1.0, abs=1e-14)
    got = _oracle_at(worked_op, lambda a, b: a, 0.5, 0.9)
    assert got == pytest.approx(1.875 / 3.5, rel=1e-13)
    got = _oracle_at(worked_op, lambda a, b: a * a, 0.5, 0.1)
    assert got == pytest.approx(3.953125 / 12.25, rel=1e-13)

    # a stack of tables over a grid: shape (tables, xs1, xs2), and every
    # entry is the one-point oracle's value
    xs1, xs2 = [0.0, 0.5, 1.0], [0.2, 0.9]
    fns = [lambda a, b: 1.0, lambda a, b: a, lambda a, b: a * a * b]
    grid = moment_oracle(worked_op, [sample_at_nodes(worked_op, f) for f in fns], xs1, xs2)
    assert grid.shape == (3, 3, 2)
    for k, f in enumerate(fns):
        for a, x1 in enumerate(xs1):
            for b, x2 in enumerate(xs2):
                assert grid[k, a, b] == _oracle_at(worked_op, f, x1, x2)


def test_oracle_tensor_factorization(worked_op):
    # (t1-x1)^2 (t2-x2)^2 factors into the product of univariate central
    # seconds; the per-point tables broadcast over the grid
    xs1, xs2 = np.array([0.3, 0.6]), np.array([0.8, 0.1, 0.45])
    t1, t2 = nodes(worked_op.axis1), nodes(worked_op.axis2)
    table = (((t1 - xs1[:, None]) ** 2)[:, None, :, None]
             * ((t2 - xs2[:, None]) ** 2)[None, :, None, :])
    got = moment_oracle(worked_op, [table], xs1, xs2)[0]
    want = np.outer(central_moment(worked_op.axis1, xs1), central_moment(worked_op.axis2, xs2))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_oracle_matches_production(worked_op):
    # e^(a - b) as its one product, sampled by the oracle and factored in production
    f = lambda a, b: np.exp(a) * np.exp(-b)
    factors = ((np.exp, lambda t: np.exp(-t)),)
    xs1, xs2 = np.linspace(0.0, 1.0, 4), np.array([0.6, 0.05])
    np.testing.assert_allclose(
        moment_oracle(worked_op, [sample_at_nodes(worked_op, f)], xs1, xs2)[0],
        apply_on_grid(worked_op, factors, xs1, xs2), rtol=0.0, atol=1e-14,
    )


def test_literal_factor_is_p_to_l():
    axis = AxisConfig(n=5, l=2, pq=PQPair(0.9, 0.6), alpha=0.5, beta=1.0)
    factor = literal_first_moment_factor(axis, 0.7)
    assert factor == pytest.approx(0.9 ** 2, rel=1e-12)
    axis0 = AxisConfig(n=5, l=0, pq=PQPair(0.9, 0.6))
    assert literal_first_moment_factor(axis0, 0.7) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="x in \\(0, 1\\]"):
        literal_first_moment_factor(axis, 0.0)


def test_literal_factor_refuses_a_slope_below_one_ulp():
    # p^(m-nu) [nu] is below 1e-29 at (0.5, 0.25), n = 100, so every node rounds
    # to alpha / D = 0.5 and the measured slope is 0: nothing to divide by
    axis = AxisConfig(n=100, l=0, pq=PQPair(0.5, 0.25), alpha=1, beta=2)
    with pytest.raises(ValueError, match=r"differs from alpha/D at x=0\.5 .*n=100, l=0"):
        literal_first_moment_factor(axis, 0.5)


def test_verify_moments_clean_subset():
    ops = standard_sweep()[:6]
    res = verify_moments(ops, sweep_grid(3), tolerance=1e-10)
    assert res.ok
    assert res.n_checks == 6 * 9 * 8
    assert res.failures == []
    assert len(res.reports) == 6
    assert max(r.max_absdiff for r in res.reports) < 1e-12


def test_verify_moments_asymmetric_axes(asymmetric_sweep):
    # the symmetric sweep cannot tell the axes apart; pairing axis i with
    # axis (i + 67) mod 135 changes n, l, (p, q) and (alpha, beta) at once,
    # so a moment taken from the wrong axis fails here
    ops = asymmetric_sweep
    for op in ops:
        a1, a2 = op.axis1, op.axis2
        assert a1.n != a2.n and a1.l != a2.l
        assert a1.pq != a2.pq and (a1.alpha, a1.beta) != (a2.alpha, a2.beta)
    res = verify_moments(ops, sweep_grid(3), tolerance=1e-10)
    assert res.ok, res.failures[:3]
    assert res.n_checks == 135 * 9 * 8


def _verify_per_point(ops, xs, tolerance):
    """The per-point loop verify_moments replaced, kept as its reference:
    an fsum per moment per grid point, a report per point, the first worst
    report per operator kept.  Returns (failures, n_checks, reports)."""
    failures, n_checks, reports = [], 0, []
    xs = np.asarray(xs, dtype=float)
    x1s, x2s = xs[:, None], xs[None, :]
    shape = (xs.size, xs.size)
    for op in ops:
        t1 = nodes(op.axis1)
        t2 = nodes(op.axis2)
        ones1 = np.ones_like(t1)
        ones2 = np.ones_like(t2)
        mono_samples = [np.outer(t1 ** i, t2 ** j) for _, i, j in moments.MOMENT_NAMES]
        closed = [
            (name, np.broadcast_to(moment_closed(op, i, j, x1s, x2s), shape))
            for name, i, j in moments.MOMENT_NAMES
        ] + [
            ("central1", np.broadcast_to(central_moment(op.axis1, x1s), shape)),
            ("central2", np.broadcast_to(central_moment(op.axis2, x2s), shape)),
        ]
        w1s = [oracle_weight_vector(op.axis1, x) for x in xs]
        w2s = [oracle_weight_vector(op.axis2, x) for x in xs]
        worst = None
        for i1, x1 in enumerate(xs):
            for i2, x2 in enumerate(xs):
                outer = np.outer(w1s[i1], w2s[i2])
                samples = mono_samples + [
                    np.outer((t1 - x1) ** 2, ones2),
                    np.outer(ones1, (t2 - x2) ** 2),
                ]
                entries = [
                    MomentEntry(name, values[i1, i2],
                                math.fsum((outer * smp).ravel().tolist()))
                    for (name, values), smp in zip(closed, samples)
                ]
                n_checks += len(entries)
                report = MomentReport(op, (float(x1), float(x2)), tuple(entries))
                if worst is None or report.max_absdiff > worst.max_absdiff:
                    worst = report
                for e in entries:
                    if e.absdiff > tolerance * max(1.0, abs(e.oracle)):
                        failures.append(
                            f"{e.name} closed={fmt_float(e.closed)} oracle={fmt_float(e.oracle)} "
                            f"absdiff={e.absdiff:.3e} at (x1={x1}, x2={x2}) for "
                            f"axis1={moments.axis_params(op.axis1)} "
                            f"axis2={moments.axis_params(op.axis2)}"
                        )
        reports.append(worst)
    return failures, n_checks, reports


@pytest.mark.parametrize("case", ["sweep-tol-1e-17", "literal", "asymmetric"])
def test_verify_moments_matches_per_point_reference(case, asymmetric_sweep):
    # the first two fail at many points, so the failure order is compared
    ops, tolerance, fails = {
        "sweep-tol-1e-17": (standard_sweep(), 1e-17, True),
        "literal": (standard_sweep("literal"), 1e-10, True),
        "asymmetric": (asymmetric_sweep, 1e-10, False),
    }[case]
    xs = sweep_grid(3)
    res = verify_moments(ops, xs, tolerance)
    failures, n_checks, reports = _verify_per_point(ops, xs, tolerance)
    assert bool(failures) == fails
    assert res.failures == failures
    assert res.n_checks == n_checks
    assert len(res.reports) == len(reports)

    def bits(r):
        return (r.op, r.point, [(e.name, float(e.closed).hex(), float(e.oracle).hex())
                                for e in r.entries])

    for got, want in zip(res.reports, reports):
        assert bits(got) == bits(want)


def test_verify_moments_flags_literal_nodes():
    axis = AxisConfig(n=5, l=2, pq=PQPair(0.9, 0.6), alpha=0.5, beta=1.0,
                      node_exponent="literal")
    res = verify_moments([BivariateOperator(axis, axis)], sweep_grid(3), tolerance=1e-10)
    assert not res.ok
    assert any("e10" in f for f in res.failures)


def test_standard_sweep_shape():
    ops = standard_sweep()
    assert len(ops) == 135
    assert all(isinstance(op, BivariateOperator) for op in ops)
    assert ops == standard_sweep()


def test_moment_report_roundtrip(worked_op):
    res = verify_moments([worked_op], sweep_grid(3), tolerance=1e-10)
    assert res.n_checks == 9 * 8
    report = res.reports[0]
    assert isinstance(report, MomentReport)
    back = json.loads(json.dumps(report.to_json_obj()))
    assert back["axis1"]["n"] == 2
    assert back["axis1"]["alpha"] == 1.0
    assert len(back["entries"]) == 8
    assert back["max_absdiff"] == report.max_absdiff

    rows = moment_csv_rows(res.reports)
    assert len(rows) == 8
    assert all(len(row) == len(MOMENT_CSV_HEADER) for row in rows)
    names = {row[MOMENT_CSV_HEADER.index("name")] for row in rows}
    assert names == {"e00", "e10", "e01", "e11", "e20", "e02", "central1", "central2"}
