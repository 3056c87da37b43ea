import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqss.moments import SWEEP_AB, SWEEP_L, SWEEP_N, SWEEP_PQ, standard_sweep
from pqss.operators import (
    AxisConfig,
    BivariateOperator,
    apply_bivariate,
    apply_on_grid,
    apply_univariate,
    nodes,
    reduce_operator,
    weight_vector,
)
from pqss.pq_core import PQPair, pq_integer


def sweep_axes(node_exponent="canonical"):
    return [
        AxisConfig(n=n, l=l, pq=PQPair(p, q), alpha=a, beta=b, node_exponent=node_exponent)
        for n in SWEEP_N for l in SWEEP_L for p, q in SWEEP_PQ for a, b in SWEEP_AB
    ]


def test_axis_config_validation():
    pq = PQPair(0.9, 0.6)
    with pytest.raises(ValueError, match="n >= 1"):
        AxisConfig(n=0, l=0, pq=pq)
    with pytest.raises(ValueError, match="l >= 0"):
        AxisConfig(n=1, l=-1, pq=pq)
    with pytest.raises(ValueError, match="0 <= alpha <= beta"):
        AxisConfig(n=1, l=0, pq=pq, alpha=2.0, beta=1.0)
    with pytest.raises(ValueError, match="node_exponent"):
        AxisConfig(n=1, l=0, pq=pq, node_exponent="other")
    with pytest.raises(ValueError, match="integer n and l"):
        AxisConfig(n=2.5, l=0, pq=pq)
    with pytest.raises(ValueError, match="integer n and l"):
        AxisConfig(n=2, l=1.0, pq=pq)
    with pytest.raises(ValueError, match="finite 0 <= alpha <= beta"):
        AxisConfig(n=1, l=0, pq=pq, alpha=math.inf, beta=math.inf)
    with pytest.raises(ValueError, match="finite 0 <= alpha <= beta"):
        AxisConfig(n=1, l=0, pq=pq, alpha=0.0, beta=math.inf)


def test_endpoint_weights_are_exact_unit_vectors(worked_axis):
    w0 = weight_vector(worked_axis, 0.0)
    w1 = weight_vector(worked_axis, 1.0)
    assert list(w0) == [1.0, 0.0, 0.0, 0.0]
    assert list(w1) == [0.0, 0.0, 0.0, 1.0]


def test_worked_weight_vector(worked_axis):
    # p=1, q=0.5, m=3, x=0.5: binomials 1, 1.75, 1.75, 1;
    # s_0=(1-x)(1-qx)(1-q^2 x), s_1=1.75 x (1-x)(1-qx), s_2=1.75 x^2 (1-x), s_3=x^3
    w = weight_vector(worked_axis, 0.5)
    assert w == pytest.approx([0.328125, 0.328125, 0.21875, 0.125], rel=1e-13)


def test_weight_vector_validation(worked_axis):
    with pytest.raises(ValueError, match="x in \\[0, 1\\]"):
        weight_vector(worked_axis, -0.1)


@settings(max_examples=60)
@given(
    n=st.integers(1, 12),
    l=st.integers(0, 3),
    p=st.floats(0.05, 1.0),
    frac=st.floats(0.01, 0.99),
    x=st.floats(0.0, 1.0),
)
def test_partition_of_unity_and_nonnegativity(n, l, p, frac, x):
    axis = AxisConfig(n=n, l=l, pq=PQPair(p, p * frac))
    w = weight_vector(axis, x)
    assert abs(math.fsum(w.tolist()) - 1.0) <= 1e-12
    assert w.min() >= 0.0


def test_node_values(worked_axis):
    # [0]=0, [1]=1, [2]=1.5, [3]=1.75; D=3.5; p=1 so powers drop out
    t = nodes(worked_axis)
    assert t == pytest.approx([1.0 / 3.5, 2.0 / 3.5, 2.5 / 3.5, 2.75 / 3.5], rel=1e-14)


def test_nodes_monotone_for_both_conventions():
    for exponent in ("canonical", "literal"):
        for axis in sweep_axes(exponent):
            t = nodes(axis)
            assert np.all(np.diff(t) > -1e-14), (axis, exponent)


def test_canonical_nodes_stay_inside_extended_domain():
    # [n+l] + alpha <= (l+1)([n] + beta) puts every node in [0, l+1];
    # the top is attained only at l=0 with alpha=beta, where node_m = 1 exactly
    for axis in sweep_axes():
        t = nodes(axis)
        assert t[0] >= 0.0
        assert t[-1] <= axis.l + 1.0


def test_literal_nodes_are_canonical_over_p_to_l():
    axis = AxisConfig(n=4, l=3, pq=PQPair(0.9, 0.6), alpha=0.5, beta=1.0)
    lit = AxisConfig(n=4, l=3, pq=PQPair(0.9, 0.6), alpha=0.5, beta=1.0,
                     node_exponent="literal")
    den = pq_integer(4, axis.pq) + 1.0
    base = 0.5 / den
    scale = 0.9 ** -3
    t_can = nodes(axis)
    t_lit = nodes(lit)
    assert t_lit - base == pytest.approx((t_can - base) * scale, rel=1e-12)


def test_apply_univariate(worked_axis):
    assert apply_univariate(worked_axis, lambda t: 4.25, 0.37) == pytest.approx(4.25, abs=1e-12)
    # first moment: ([3] x + 1)/3.5 at x = 0.5
    want = (1.75 * 0.5 + 1.0) / 3.5
    assert apply_univariate(worked_axis, lambda t: t, 0.5) == pytest.approx(want, rel=1e-13)
    # x = 0 short-circuits to the first node
    assert apply_univariate(worked_axis, lambda t: t * t, 0.0) == (1.0 / 3.5) ** 2


def test_apply_bivariate_basics(worked_op):
    assert apply_bivariate(worked_op, lambda a, b: 1.0, 0.3, 0.8) == pytest.approx(1.0, abs=1e-12)
    fm = lambda x: (1.75 * x + 1.0) / 3.5
    got = apply_bivariate(worked_op, lambda a, b: a * b, 0.3, 0.8)
    assert got == pytest.approx(fm(0.3) * fm(0.8), rel=1e-12)


def test_corner_evaluations_are_exact():
    axis = AxisConfig(n=3, l=1, pq=PQPair(0.9, 0.6))
    op = BivariateOperator(axis, axis)
    f = lambda a, b: math.sin(a) + b * b
    # alpha=0: the x=0 weight row is the exact e_0 and node 0 is exactly 0
    assert apply_bivariate(op, f, 0.0, 0.0) == f(0.0, 0.0)
    # x=1 concentrates at the last node pair
    t_last = nodes(axis)[-1]
    assert apply_bivariate(op, f, 1.0, 1.0) == f(t_last, t_last)


def test_tensor_product_separates(worked_op):
    g = lambda t: math.sin(t)
    h = lambda t: math.exp(-t)
    got = apply_bivariate(worked_op, lambda a, b: g(a) * h(b), 0.4, 0.7)
    want = apply_univariate(worked_op.axis1, g, 0.4) * apply_univariate(worked_op.axis2, h, 0.7)
    assert got == pytest.approx(want, rel=1e-12)


def test_apply_on_grid_matches_pointwise(worked_op):
    f = lambda a, b: math.exp(a) * math.cos(b)
    xs1 = np.linspace(0.0, 1.0, 5)
    xs2 = np.linspace(0.0, 1.0, 7)
    grid = apply_on_grid(worked_op, f, xs1, xs2)
    assert grid.shape == (5, 7)
    for i, x1 in enumerate(xs1):
        for j, x2 in enumerate(xs2):
            assert grid[i, j] == pytest.approx(apply_bivariate(worked_op, f, x1, x2), abs=1e-13)


def test_positivity_on_nonnegative_samples(worked_op):
    rng = np.random.default_rng(7)
    t1, t2 = nodes(worked_op.axis1), nodes(worked_op.axis2)
    samples = rng.uniform(0.0, 5.0, size=(len(t1), len(t2)))
    table = {(a, b): samples[i, j] for i, a in enumerate(t1) for j, b in enumerate(t2)}
    for x1 in (0.0, 0.3, 1.0):
        for x2 in (0.1, 0.9):
            assert apply_bivariate(worked_op, lambda a, b: table[a, b], x1, x2) >= 0.0


def test_reduce_operator_parameter_cuts():
    axis = AxisConfig(n=5, l=2, pq=PQPair(0.9, 0.6), alpha=1.0, beta=1.5)
    op = BivariateOperator(axis, axis)

    red_q = reduce_operator(op, "q-schurer-stancu")
    assert red_q.axis1.pq == PQPair(1.0, 0.6)
    assert (red_q.axis1.l, red_q.axis1.alpha, red_q.axis1.beta) == (2, 1.0, 1.5)

    red_bs = reduce_operator(op, "pq-bernstein-schurer")
    assert red_bs.axis1.pq == axis.pq
    assert (red_bs.axis1.alpha, red_bs.axis1.beta) == (0.0, 0.0)
    assert red_bs.axis1.l == 2

    red_b = reduce_operator(op, "pq-bernstein")
    assert (red_b.axis1.l, red_b.axis1.alpha, red_b.axis1.beta) == (0, 0.0, 0.0)

    with pytest.raises(ValueError, match="target"):
        reduce_operator(op, "nope")


def test_bernstein_reduction_interpolates_endpoints():
    axis = AxisConfig(n=6, l=2, pq=PQPair(0.95, 0.7), alpha=0.5, beta=0.9)
    op = reduce_operator(BivariateOperator(axis, axis), "pq-bernstein")
    f = lambda a, b: math.cos(a + b)
    # l=0, alpha=beta=0: node_m = [n]/[n] = 1 exactly, node_0 = 0 exactly
    assert apply_bivariate(op, f, 0.0, 0.0) == f(0.0, 0.0)
    assert apply_bivariate(op, f, 1.0, 1.0) == f(1.0, 1.0)
    assert apply_bivariate(op, f, 0.0, 1.0) == f(0.0, 1.0)


def test_large_degree_weights_stay_normalized():
    axis = AxisConfig(n=2000, l=0, pq=PQPair(0.999, 0.998))
    for x in (0.15, 0.5, 0.97):
        w = weight_vector(axis, x)
        assert w.min() >= 0.0
        assert abs(math.fsum(w.tolist()) - 1.0) < 1e-9


def test_standard_sweep_is_deterministic():
    a = standard_sweep()
    b = standard_sweep()
    assert len(a) == 135
    assert a == b
