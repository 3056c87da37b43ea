import json
import math

import numpy as np
import pytest

import pqss.moments as moments
from pqss.moments import (
    MOMENT_CSV_HEADER,
    MomentReport,
    central_moment,
    delta,
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
from pqss.operators import AxisConfig, BivariateOperator, apply_bivariate, weight_vector
from pqss.pq_core import PQPair


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


def test_central_moment_closed(worked_axis):
    want = 3.953125 / 12.25 - 2.0 * 0.5 * (1.875 / 3.5) + 0.25
    assert central_moment(worked_axis, 0.5) == pytest.approx(want, abs=1e-15)
    # an array of x gives the scalar values bit for bit
    xs = np.linspace(0.0, 1.0, 7)
    np.testing.assert_array_equal(
        central_moment(worked_axis, xs), [central_moment(worked_axis, float(x)) for x in xs]
    )


def test_delta_values_and_clamping(worked_axis, monkeypatch):
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

    monkeypatch.setattr(moments, "central_moment", lambda *a: -5e-14)
    assert delta(worked_axis, 0.5) == 0.0
    monkeypatch.setattr(moments, "central_moment", lambda *a: -1e-3)
    with pytest.raises(ArithmeticError, match="unexpectedly negative"):
        delta(worked_axis, 0.5)
    monkeypatch.setattr(moments, "central_moment", lambda *a: np.array([0.25, -5e-14]))
    np.testing.assert_array_equal(delta(worked_axis, xs[:2]), [0.5, 0.0])
    monkeypatch.setattr(moments, "central_moment", lambda *a: np.array([0.25, -1e-3]))
    with pytest.raises(ArithmeticError, match="unexpectedly negative"):
        delta(worked_axis, xs[:2])


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


def test_oracle_values(worked_op):
    assert moment_oracle(worked_op, lambda a, b: 1.0, 0.7, 0.2) == pytest.approx(1.0, abs=1e-14)
    got = moment_oracle(worked_op, lambda a, b: a, 0.5, 0.9)
    assert got == pytest.approx(1.875 / 3.5, rel=1e-13)
    got = moment_oracle(worked_op, lambda a, b: a * a, 0.5, 0.1)
    assert got == pytest.approx(3.953125 / 12.25, rel=1e-13)


def test_oracle_tensor_factorization(worked_op):
    # (t1-x1)^2 (t2-x2)^2 factors into the product of univariate central seconds
    x1, x2 = 0.3, 0.8
    f = lambda a, b: (a - x1) ** 2 * (b - x2) ** 2
    got = moment_oracle(worked_op, f, x1, x2)
    c1 = central_moment(worked_op.axis1, x1)
    c2 = central_moment(worked_op.axis2, x2)
    assert got == pytest.approx(c1 * c2, rel=1e-12)


def test_oracle_matches_production(worked_op):
    f = lambda a, b: np.exp(a - b)
    assert moment_oracle(worked_op, f, 0.4, 0.6) == pytest.approx(
        apply_bivariate(worked_op, f, 0.4, 0.6), abs=1e-14
    )


def test_literal_factor_is_p_to_l():
    axis = AxisConfig(n=5, l=2, pq=PQPair(0.9, 0.6), alpha=0.5, beta=1.0)
    factor = literal_first_moment_factor(axis, 0.7)
    assert factor == pytest.approx(0.9 ** 2, rel=1e-12)
    axis0 = AxisConfig(n=5, l=0, pq=PQPair(0.9, 0.6))
    assert literal_first_moment_factor(axis0, 0.7) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="x in \\(0, 1\\]"):
        literal_first_moment_factor(axis, 0.0)


def test_verify_moments_clean_subset():
    ops = standard_sweep()[:6]
    res = verify_moments(ops, sweep_grid(3), tolerance=1e-10)
    assert res.ok
    assert res.n_checks == 6 * 9 * 8
    assert res.failures == []
    assert len(res.reports) == 6
    assert max(r.max_absdiff for r in res.reports) < 1e-12


def test_verify_moments_asymmetric_axes():
    # the symmetric sweep cannot tell the axes apart; pairing axis i with
    # axis (i + 67) mod 135 changes n, l, (p, q) and (alpha, beta) at once,
    # so a moment taken from the wrong axis fails here
    sweep = standard_sweep()
    ops = [BivariateOperator(sweep[i].axis1, sweep[(i + 67) % 135].axis2) for i in range(135)]
    for op in ops:
        a1, a2 = op.axis1, op.axis2
        assert a1.n != a2.n and a1.l != a2.l
        assert a1.pq != a2.pq and (a1.alpha, a1.beta) != (a2.alpha, a2.beta)
    res = verify_moments(ops, sweep_grid(3), tolerance=1e-10)
    assert res.ok, res.failures[:3]
    assert res.n_checks == 135 * 9 * 8


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
