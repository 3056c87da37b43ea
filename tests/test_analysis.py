import dataclasses

import numpy as np
import pytest

from pqss import analysis, operators
from pqss.analysis import (
    BOUND_SLACK,
    LipschitzSpec,
    MembershipError,
    MetadataError,
    auxiliary_apply,
    k_functional_upper,
    lipschitz_bound,
    lipschitz_violations,
    total_modulus_bound_grid,
)
from pqss.catalog import build_catalog
from pqss.moments import delta, moment_oracle
from pqss.operators import AxisConfig, BivariateOperator, apply_bivariate, sample_at_nodes
from pqss.pq_core import PQPair

CAT = build_catalog(2.0, 2.0)
CAT11 = build_catalog(1.0, 1.0)


def total_modulus_bound(op, f, x1, x2):
    """Pointwise reference for total_modulus_bound_grid: |S(f) - f| against
    4 omega_total(f; delta1(x1), delta2(x2)), with S(f) from the oracle."""
    s = moment_oracle(op, [sample_at_nodes(op, f.fn)], [x1], [x2])[0, 0, 0]
    lhs = abs(s - f.fn(x1, x2))
    return lhs, 4.0 * f.total_modulus(delta(op.axis1, x1), delta(op.axis2, x2))


def lipschitz_bound_at(op, f, spec, x1, x2):
    """Pointwise reference for lipschitz_bound: |S(f) - f| from apply_bivariate
    against spec.rhs at the scalar deltas of the two axes."""
    lhs = abs(apply_bivariate(op, f.factors, x1, x2) - f.fn(x1, x2))
    return lhs, spec.rhs(delta(op.axis1, x1), delta(op.axis2, x2))


def test_auxiliary_annihilates_centered_coordinates(worked_op):
    for x1, x2 in ((0.0, 0.0), (0.3, 0.8), (1.0, 0.5)):
        g1 = auxiliary_apply(worked_op, ((lambda t: t - x1, lambda t: 1.0),), x1, x2)
        g2 = auxiliary_apply(worked_op, ((lambda t: 1.0, lambda t: t - x2),), x1, x2)
        assert abs(g1) <= 1e-14
        assert abs(g2) <= 1e-14
    assert auxiliary_apply(worked_op, ((lambda t: 4.0, lambda t: 1.0),), 0.4, 0.6) == pytest.approx(
        4.0, abs=1e-13
    )


def test_total_modulus_bound_worked(worked_op):
    tf = CAT["e11"]
    lhs, rhs = total_modulus_bound(worked_op, tf, 0.5, 0.5)
    assert 0.0 < lhs < rhs


def test_total_modulus_bound_refuses_estimate_only(worked_op):
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
            want_lhs, want_rhs = total_modulus_bound(worked_op, tf, x1, x2)
            assert lhs[i, j] == pytest.approx(want_lhs, abs=1e-13)
            assert rhs[i, j] == pytest.approx(want_rhs, rel=1e-13)
    assert np.all(lhs <= rhs + BOUND_SLACK)


class _Counting:
    """A broadcasting callable that counts its calls and the points it got."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.points = 0

    def __call__(self, *args):
        self.calls += 1
        self.points += np.broadcast(*args).size
        return self.fn(*args)


@pytest.mark.parametrize("n,grid", [(4, 3), (60, 25)])
def test_grid_paths_call_f_once_per_grid(n, grid, monkeypatch):
    # per-point callbacks must not come back: each grid costs a fixed number
    # of calls, whatever the degree and the grid size; the bound samples fn
    # on the x grid only and each factor once, at one axis's nodes (the node
    # grid is never built); weights come from one
    # weight_matrix per axis, never from per-point weight_vector rows, and
    # delta is evaluated once per axis, on that axis's own points.  The two
    # axes differ in every parameter and the two grids in size, so a swap of
    # axes or of grids shows in the recorded delta calls.
    axis1 = AxisConfig(n=n, l=1, pq=PQPair(0.95, 0.7), alpha=0.5, beta=1.0)
    axis2 = AxisConfig(n=n + 1, l=2, pq=PQPair(0.9, 0.6), alpha=0.25, beta=0.5)
    op = BivariateOperator(axis1, axis2)
    xs1 = np.linspace(0.0, 1.0, grid)
    xs2 = np.linspace(0.0, 1.0, grid + 2)
    tf = CAT["exp_sum"]
    want = total_modulus_bound_grid(op, tf, xs1, xs2)

    def no_rows(*args):
        raise AssertionError("per-point weight_vector call on a grid path")

    monkeypatch.setattr(operators, "weight_vector", no_rows)
    delta_calls = []
    real_delta = analysis.delta
    monkeypatch.setattr(
        analysis, "delta", lambda *a: delta_calls.append((a[0], a[1].size)) or real_delta(*a)
    )

    f = _Counting(tf.fn)
    sample_at_nodes(op, f)
    assert f.calls == 1 and f.points == (axis1.degree + 1) * (axis2.degree + 1)

    f, om = _Counting(tf.fn), _Counting(tf.total_modulus)
    factors = tuple((_Counting(g), _Counting(h)) for g, h in tf.factors)
    counted = dataclasses.replace(tf, fn=f, total_modulus=om, factors=factors)
    lhs, rhs = total_modulus_bound_grid(op, counted, xs1, xs2)
    assert (f.calls, f.points, om.calls) == (1, grid * (grid + 2), 1)
    for g, h in factors:
        assert (g.calls, g.points, h.calls, h.points) == (
            1, axis1.degree + 1, 1, axis2.degree + 1)
    assert delta_calls == [(axis1, grid), (axis2, grid + 2)]
    assert lhs.shape == rhs.shape == (grid, grid + 2)
    np.testing.assert_array_equal((lhs, rhs), want)
    for i in (0, grid // 2, grid - 1):
        for j in (0, (grid + 2) // 2, grid + 1):
            assert rhs[i, j] == 4.0 * tf.total_modulus(
                real_delta(axis1, xs1[i]), real_delta(axis2, xs2[j])
            )


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
    assert lipschitz_violations(CAT["sum"], LipschitzSpec(1.0, 1.0, 1.0, additive=True)) == []
    assert lipschitz_violations(CAT["sum"], LipschitzSpec(1.0, 1.0, 1.0))


def test_lipschitz_bound(worked_op):
    xs = np.linspace(0.0, 1.0, 5)
    spec = LipschitzSpec(1.0, 0.7, 0.9)
    lhs, rhs = lipschitz_bound(worked_op, CAT["const1"], spec, xs, xs)
    assert lhs.shape == rhs.shape == (5, 5)
    assert np.all(lhs <= 1e-13)
    assert np.all(lhs <= rhs + BOUND_SLACK)
    with pytest.raises(MembershipError, match="product Lipschitz class"):
        lipschitz_bound(worked_op, CAT["e11"], spec, xs, xs)
    add = LipschitzSpec(1.0, 1.0, 1.0, additive=True)
    with pytest.raises(MembershipError, match="additive Lipschitz class"):
        lipschitz_bound(worked_op, CAT["e11"], add, xs, xs)
    lhs, rhs = lipschitz_bound(worked_op, CAT["sum"], add, xs, xs)
    assert np.all(lhs <= rhs + BOUND_SLACK)


@pytest.mark.parametrize("additive,name", [(False, "const1"), (True, "sum"), (True, "e10")])
def test_lipschitz_bound_grid_matches_pointwise(additive, name, monkeypatch):
    # the grid bound is the pointwise one at every point; the two axes differ
    # in every parameter and the two grids in size, and delta is evaluated
    # once per axis on that axis's own points, so a swap of axes or grids
    # shows in the values and in the recorded delta calls
    axis1 = AxisConfig(n=7, l=1, pq=PQPair(0.95, 0.7), alpha=0.5, beta=1.0)
    axis2 = AxisConfig(n=12, l=2, pq=PQPair(0.9, 0.6), alpha=0.25, beta=0.5)
    op = BivariateOperator(axis1, axis2)
    xs1 = np.linspace(0.0, 1.0, 4)
    xs2 = np.array([0.0, 0.15, 0.5, 0.7, 0.95, 1.0])
    spec = LipschitzSpec(1.5, 0.7, 0.9, additive=additive)
    tf = build_catalog(2.0, 3.0)[name]
    delta_calls = []
    real_delta = analysis.delta
    monkeypatch.setattr(
        analysis, "delta", lambda *a: delta_calls.append((a[0], a[1].size)) or real_delta(*a)
    )
    lhs, rhs = lipschitz_bound(op, tf, spec, xs1, xs2)
    assert delta_calls == [(axis1, 4), (axis2, 6)]
    assert lhs.shape == rhs.shape == (4, 6)
    for i, x1 in enumerate(xs1):
        for j, x2 in enumerate(xs2):
            want_lhs, want_rhs = lipschitz_bound_at(op, tf, spec, x1, x2)
            assert lhs[i, j] == want_lhs
            assert rhs[i, j] == pytest.approx(want_rhs, rel=1e-15, abs=0.0)
    assert np.all(lhs <= rhs + BOUND_SLACK)


def test_bound_sweep_over_catalog(worked_op):
    # every exact-modulus entry, worked operator, a small grid: no violations
    xs = np.linspace(0.0, 1.0, 7)
    for tf in CAT.values():
        if tf.total_modulus is None:
            continue
        lhs, rhs = total_modulus_bound_grid(worked_op, tf, xs, xs)
        assert np.all(lhs <= rhs + BOUND_SLACK), tf.name
