import dataclasses
import math

import numpy as np
import pytest

from pqss import analysis, operators
from pqss.analysis import (
    BOUND_SLACK,
    BoundResult,
    LipschitzSpec,
    MembershipError,
    MetadataError,
    auxiliary_apply,
    k_functional_upper,
    lipschitz_bound,
    lipschitz_violations,
    local_smoothness_report,
    second_modulus,
    shift_point,
    total_modulus,
    total_modulus_bound,
    total_modulus_bound_grid,
)
from pqss.catalog import build_catalog
from pqss.moments import first_moment_univariate
from pqss.operators import AxisConfig, BivariateOperator, apply_on_grid, sample_at_nodes
from pqss.pq_core import PQPair

CAT = build_catalog(2.0, 2.0)
CAT11 = build_catalog(1.0, 1.0)


def test_total_modulus_exactness_flag():
    v = total_modulus(CAT["sum"], 0.1, 0.2)
    assert v.exact
    assert v.value == pytest.approx(0.3, abs=1e-15)
    est = total_modulus(CAT["sinprod"], 0.25, 0.25, grid_k=41)
    assert not est.exact
    assert 0.0 < est.value <= 2.0


def test_second_modulus():
    # affine slices have zero second differences up to roundoff
    assert second_modulus(lambda t: 3.0 * t - 1.0, 0.4) <= 1e-14
    # f = t^2: |f(x+2h) - 2f(x+h) + f(x)| = 2h^2, maximal at h = delta
    got = second_modulus(lambda t: t * t, 0.25, 0.0, 1.0, grid_k=101)
    assert got == pytest.approx(2.0 * 0.25 ** 2, rel=1e-12)
    assert second_modulus(lambda t: math.sin(t), 0.0) == 0.0
    with pytest.raises(ValueError, match="delta >= 0"):
        second_modulus(lambda t: t, -0.1)
    with pytest.raises(ValueError, match="hi > lo"):
        second_modulus(lambda t: t, 0.1, 1.0, 1.0)


def test_shift_point_matches_first_moments(worked_op):
    p1, p2 = shift_point(worked_op, 0.3, 0.9)
    assert p1 == first_moment_univariate(worked_op.axis1, 0.3)
    assert p2 == first_moment_univariate(worked_op.axis2, 0.9)


def test_auxiliary_annihilates_centered_coordinates(worked_op):
    for x1, x2 in ((0.0, 0.0), (0.3, 0.8), (1.0, 0.5)):
        g1 = auxiliary_apply(worked_op, lambda a, b: a - x1, x1, x2)
        g2 = auxiliary_apply(worked_op, lambda a, b: b - x2, x1, x2)
        assert abs(g1) <= 1e-14
        assert abs(g2) <= 1e-14
    assert auxiliary_apply(worked_op, lambda a, b: 4.0, 0.4, 0.6) == pytest.approx(
        4.0, abs=1e-13
    )


def test_bound_result_slack():
    assert BoundResult(1e-12, 0.0).holds
    assert not BoundResult(1e-10, 0.0).holds
    assert BoundResult(2.0, 3.0).holds
    assert not BoundResult(3.0, 2.0).holds


def test_total_modulus_bound_worked(worked_op):
    tf = CAT["e11"]
    res = total_modulus_bound(worked_op, tf, 0.5, 0.5)
    assert res.holds
    assert res.lhs > 0.0
    assert res.rhs > res.lhs


def test_total_modulus_bound_refuses_estimate_only(worked_op):
    with pytest.raises(MetadataError, match="sinprod"):
        total_modulus_bound(worked_op, CAT["sinprod"], 0.5, 0.5)
    with pytest.raises(MetadataError, match="sinprod"):
        total_modulus_bound_grid(worked_op, CAT["sinprod"], [0.5], [0.5])


def test_bound_grid_matches_pointwise(worked_op):
    tf = CAT["exp_sum"]
    xs1 = np.linspace(0.0, 1.0, 4)
    xs2 = np.linspace(0.0, 1.0, 3)
    lhs, rhs = total_modulus_bound_grid(worked_op, tf, xs1, xs2)
    assert lhs.shape == rhs.shape == (4, 3)
    for i, x1 in enumerate(xs1):
        for j, x2 in enumerate(xs2):
            res = total_modulus_bound(worked_op, tf, x1, x2)
            assert lhs[i, j] == pytest.approx(res.lhs, abs=1e-13)
            assert rhs[i, j] == pytest.approx(res.rhs, rel=1e-13)
    assert np.all(lhs <= rhs + BOUND_SLACK)


class _Counting:
    """A broadcasting callable that counts its calls and the points it got."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.points = 0

    def __call__(self, a, b):
        self.calls += 1
        self.points += np.broadcast(a, b).size
        return self.fn(a, b)


@pytest.mark.parametrize("n,grid", [(4, 3), (60, 25)])
def test_grid_paths_call_f_once_per_grid(n, grid, monkeypatch):
    # per-point callbacks must not come back: each grid costs a fixed number
    # of calls, whatever the degree and the grid size; weights come from one
    # weight_matrix per axis, never from per-point weight_vector rows, and
    # delta is evaluated once per axis
    axis = AxisConfig(n=n, l=1, pq=PQPair(0.95, 0.7), alpha=0.5, beta=1.0)
    op = BivariateOperator(axis, axis)
    xs = np.linspace(0.0, 1.0, grid)
    tf = CAT["exp_sum"]
    want = total_modulus_bound_grid(op, tf, xs, xs)

    def no_rows(*args):
        raise AssertionError("per-point weight_vector call on a grid path")

    monkeypatch.setattr(operators, "weight_vector", no_rows)
    delta_axes = []
    real_delta = analysis.delta
    monkeypatch.setattr(analysis, "delta", lambda *a: delta_axes.append(a[1]) or real_delta(*a))

    f = _Counting(tf.fn)
    sample_at_nodes(op, f)
    assert f.calls == 1 and f.points == (n + 2) ** 2

    f = _Counting(tf.fn)
    apply_on_grid(op, f, xs, xs)
    assert f.calls == 1

    f, om = _Counting(tf.fn), _Counting(tf.total_modulus)
    counted = dataclasses.replace(tf, fn=f, total_modulus=om)
    lhs, rhs = total_modulus_bound_grid(op, counted, xs, xs)
    assert (f.calls, om.calls, delta_axes) == (2, 1, [1, 2])
    np.testing.assert_array_equal((lhs, rhs), want)


def test_k_functional_upper():
    smooth = [CAT["const1"], CAT["e11"], CAT["e20"], CAT["sum"]]
    # f itself C^2 and in the candidate set: K(d) <= 0 + d * ||f||_CB2
    v = k_functional_upper(CAT["e11"], 0.01, smooth)
    assert v <= 0.01 * CAT["e11"].cb2_norm + 1e-12
    # delta = 0 with f among candidates collapses to 0
    assert k_functional_upper(CAT["sum"], 0.0, smooth) == 0.0
    with pytest.raises(ValueError, match="nonempty"):
        k_functional_upper(CAT["e11"], 0.1, [])
    with pytest.raises(MetadataError, match="abs_ramp"):
        k_functional_upper(CAT["e11"], 0.1, [CAT["abs_ramp"]])
    with pytest.raises(ValueError, match="same rectangle"):
        k_functional_upper(CAT["e11"], 0.1, [CAT11["sum"]])


def test_lipschitz_spec_validation():
    LipschitzSpec(1.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="M > 0"):
        LipschitzSpec(0.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="gamma in \\(0, 1\\]"):
        LipschitzSpec(1.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="gamma in \\(0, 1\\]"):
        LipschitzSpec(1.0, 0.5, 1.5)


def test_product_class_collapses_to_constants():
    spec = LipschitzSpec(1.0, 0.7, 0.9)
    # e11 varies along a shared-coordinate pair, where the product rhs is 0
    viols = lipschitz_violations(CAT["e11"], spec)
    assert viols
    (a, b, lhs, rhs) = viols[0]
    assert lhs > rhs
    assert a[0] == b[0] or a[1] == b[1]
    # constants are the only genuine members
    assert lipschitz_violations(CAT["const1"], spec) == []


def test_additive_class_accepts_sum():
    spec = LipschitzSpec(1.0, 1.0, 1.0)
    assert lipschitz_violations(CAT["sum"], spec, additive=True) == []
    assert lipschitz_violations(CAT["sum"], spec, additive=False)


def test_lipschitz_bound(worked_op):
    spec = LipschitzSpec(1.0, 0.7, 0.9)
    res = lipschitz_bound(worked_op, CAT["const1"], spec, 0.4, 0.6)
    assert res.holds
    assert res.lhs <= 1e-13
    with pytest.raises(MembershipError, match="product Lipschitz class"):
        lipschitz_bound(worked_op, CAT["e11"], spec, 0.4, 0.6)
    add = LipschitzSpec(1.0, 1.0, 1.0)
    res = lipschitz_bound(worked_op, CAT["sum"], add, 0.4, 0.6, additive=True)
    assert res.holds


def test_local_smoothness_report(worked_op):
    rep = local_smoothness_report(worked_op, CAT["e20"], 0.5, 0.5)
    for key in (
        "lhs", "delta1", "delta2", "central_sum", "shift_radius",
        "k_argument", "omega_shift", "omega_shift_exact",
        "omega2_axis1", "omega2_axis2",
    ):
        assert key in rep
    assert rep["omega_shift_exact"]
    assert rep["delta1"] > 0.0
    # sum has affine coordinate slices, so both second moduli vanish (to roundoff)
    rep_sum = local_smoothness_report(worked_op, CAT["sum"], 0.5, 0.5, grid_k=41)
    assert rep_sum["omega2_axis1"] <= 1e-14
    assert rep_sum["omega2_axis2"] <= 1e-14

    smooth = [CAT["const1"], CAT["e11"], CAT["e20"], CAT["sum"], CAT["exp_sum"]]
    rep_k = local_smoothness_report(worked_op, CAT["e20"], 0.5, 0.5, candidates=smooth, grid_k=41)
    assert rep_k["k_upper"] >= 0.0
    assert rep_k["k_line_rhs"] == pytest.approx(
        4.0 * rep_k["k_upper"] + rep_k["omega_shift"], rel=1e-14
    )
    assert rep_k["k_line_observed_ok"]


def test_bound_sweep_over_catalog(worked_op):
    # every exact-modulus entry, worked operator, a small grid: no violations
    xs = np.linspace(0.0, 1.0, 7)
    for tf in CAT.values():
        if tf.total_modulus is None:
            continue
        lhs, rhs = total_modulus_bound_grid(worked_op, tf, xs, xs)
        assert np.all(lhs <= rhs + BOUND_SLACK), tf.name
