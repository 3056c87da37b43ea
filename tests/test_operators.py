import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqss.moments import (
    SWEEP_AB,
    SWEEP_L,
    SWEEP_N,
    SWEEP_PQ,
    oracle_weight_vector,
    standard_sweep,
)
from pqss.operators import (
    AxisConfig,
    BivariateOperator,
    apply_bivariate,
    apply_on_grid,
    nodes,
    reduce_operator,
    weight_matrix,
    weight_vector,
)
from pqss.pq_core import PQPair, pq_integer


def apply_univariate(axis, f, x):
    """Reference one-axis operator: sum_nu s_nu(x) f(t_nu); f broadcasts over the nodes."""
    t = nodes(axis)
    return float(weight_vector(axis, x) @ np.broadcast_to(f(t), t.shape))


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
    # the nodes t = A u + B take no [n] and no p^m: with beta = 0, A = p^l [m]_r / [n]_r,
    # so axes whose [n] (0 at n = 8000, subnormal at 7000) or p^m (subnormal from
    # m = 6724) leave the normal range build, with every node in [0, l + 1]
    assert pq_integer(8000, pq) == 0.0
    assert 0.0 < pq_integer(7000, pq) < sys.float_info.min
    for n, l in ((8000, 0), (7000, 0), (6735, 0), (6700, 24), (6700, 400)):
        t = nodes(AxisConfig(n=n, l=l, pq=pq))
        assert t[0] == 0.0 and np.all(np.diff(t) >= 0.0) and t[-1] <= l + 1.0, (n, l)


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
    for bad in (1.5, math.nan):
        with pytest.raises(ValueError, match=f"x in \\[0, 1\\] \\(got x={bad}\\)"):
            weight_matrix(worked_axis, [0.2, bad, 0.7])


def scalar_weight_vector(axis, x):
    """Log-space weights one x at a time, with scalar loops: the reference
    weight_matrix must reproduce bit for bit."""
    m = axis.degree
    out = np.zeros(m + 1)
    if x == 0.0:
        out[0] = 1.0
        return out
    if x == 1.0:
        out[m] = 1.0
        return out
    lam = math.log1p((axis.pq.q - axis.pq.p) / axis.pq.p)   # log r, r = q/p

    def neumaier(values):
        acc = np.zeros(len(values) + 1)
        s = c = 0.0
        for i, v in enumerate(values):
            t = s + v
            c += (s - t) + v if abs(s) >= abs(v) else (v - t) + s
            s = t
            acc[i + 1] = s + c
        return acc

    # the r-brackets [j]_r = (1 - r^j) / (1 - r) and the factors 1 - r^j x
    lf = neumaier([math.log(math.expm1(j * lam) / math.expm1(lam)) for j in range(1, m + 1)])
    log_binom = lf[m] - lf - lf[::-1]
    log_x = math.log(x)
    rising = neumaier([math.log(-math.expm1(j * lam + log_x)) for j in range(m)])
    nu = np.arange(m + 1)
    log_w = log_binom + nu * log_x + rising[::-1]
    return np.array([math.exp(v) for v in log_w])


@pytest.mark.parametrize("m", [1, 2, 28, 257, 2049])
def test_weight_matrix_rows_are_the_scalar_weights_bit_for_bit(m):
    xs = np.concatenate(([0.0, 1.0, 1e-300, 1.0 - 1e-16], np.linspace(0.0, 1.0, 41)))
    c = max(m, 8)
    for p, q, l in ((1.0, 0.5, 0), (0.9, 0.6, min(m - 1, 2)),
                    (1.0 - 0.4 / c, 1.0 - 1.3 / c, min(m - 1, 1))):
        axis = AxisConfig(n=m - l, l=l, pq=PQPair(p, q), alpha=0.5, beta=1.0)
        w = weight_matrix(axis, xs)
        assert w.shape == (xs.size, m + 1)
        for row, x in zip(w, xs):
            np.testing.assert_array_equal(row, scalar_weight_vector(axis, float(x)))
        np.testing.assert_array_equal(weight_vector(axis, 0.3), scalar_weight_vector(axis, 0.3))


def test_small_p_weights_against_the_decimal_rows():
    # the weights are computed at r = q/p, so a small p costs no accuracy: the
    # log-space (p,q) form read 3.61e-11 at m = 600 on (0.5, 0.25) and 8.2e-13 at
    # m = 200 on (0.9, 0.6); relative error over weights > 1e-200
    xs = (0.1, 0.37, 0.5, 0.83, 0.999)
    for n, l, p, q, tol in ((600, 0, 0.5, 0.25, 1e-12), (200, 0, 0.9, 0.6, 1e-12),
                            (6700, 23, 0.9, 0.6, 1e-11)):
        axis = AxisConfig(n=n, l=l, pq=PQPair(p, q))
        for x, w in zip(xs, weight_matrix(axis, xs)):
            ref = oracle_weight_vector(axis, x)
            big = ref > 1e-200
            worst = float(np.max(np.abs(w[big] - ref[big]) / ref[big]))
            assert worst <= tol, (n, l, p, q, x, worst)


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
    one = ((lambda t: 1.0, lambda t: 1.0),)
    assert apply_bivariate(worked_op, one, 0.3, 0.8) == pytest.approx(1.0, abs=1e-12)
    fm = lambda x: (1.75 * x + 1.0) / 3.5
    got = apply_bivariate(worked_op, ((lambda t: t, lambda t: t),), 0.3, 0.8)
    assert got == pytest.approx(fm(0.3) * fm(0.8), rel=1e-12)


def test_corner_evaluations_are_exact():
    axis = AxisConfig(n=3, l=1, pq=PQPair(0.9, 0.6))
    op = BivariateOperator(axis, axis)
    factors = ((np.sin, lambda t: 1.0), (lambda t: 1.0, lambda t: t * t))
    f = lambda a, b: np.sin(a) + b * b
    # alpha=0: the x=0 weight row is the exact e_0 and node 0 is exactly 0
    assert apply_bivariate(op, factors, 0.0, 0.0) == f(0.0, 0.0)
    # x=1 concentrates at the last node pair
    t_last = nodes(axis)[-1]
    assert apply_bivariate(op, factors, 1.0, 1.0) == f(t_last, t_last)


def test_tensor_product_separates(worked_op):
    g = np.sin
    h = lambda t: np.exp(-t)
    got = apply_bivariate(worked_op, ((g, h),), 0.4, 0.7)
    want = apply_univariate(worked_op.axis1, g, 0.4) * apply_univariate(worked_op.axis2, h, 0.7)
    assert got == pytest.approx(want, rel=1e-12)


def test_apply_on_grid_matches_pointwise(worked_op):
    f = ((np.exp, np.cos),)
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
    # the sample at node (t1[i], t2[j]) is samples[i, j]: the sum over i of
    # the indicator of node i on axis 1 times row i looked up on axis 2
    assert np.all(np.diff(t1) > 0.0) and np.all(np.diff(t2) > 0.0)

    def indicator(i):
        return lambda a: (a == t1[i]).astype(float)

    def row(i):
        def lookup(b):
            j = np.searchsorted(t2, b)
            assert np.array_equal(t2[j], b)
            return samples[i, j]
        return lookup

    table = tuple((indicator(i), row(i)) for i in range(len(t1)))
    for x1 in (0.0, 0.3, 1.0):
        for x2 in (0.1, 0.9):
            assert apply_bivariate(worked_op, table, x1, x2) >= 0.0


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
    # cos(a + b) as its sum of products, so S and f round alike
    factors = ((np.cos, np.cos), (lambda t: -np.sin(t), np.sin))
    f = lambda a, b: np.cos(a) * np.cos(b) - np.sin(a) * np.sin(b)
    # l=0, alpha=beta=0: node_m = [n]/[n] = 1 exactly, node_0 = 0 exactly
    assert apply_bivariate(op, factors, 0.0, 0.0) == f(0.0, 0.0)
    assert apply_bivariate(op, factors, 1.0, 1.0) == f(1.0, 1.0)
    assert apply_bivariate(op, factors, 0.0, 1.0) == f(0.0, 1.0)


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
