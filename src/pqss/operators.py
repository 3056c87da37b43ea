"""Bivariate Schurer-Stancu operators on (p,q)-integers.

The operator is a tensor product of two univariate positive linear operators.
On each axis, with m = n + l,

    S(f; x) = sum_{nu=0}^{m} s_nu(x) f(t_nu),

    s_nu(x) = p^{-m(m-1)/2} binom(m, nu) p^{nu(nu-1)/2} x^nu
              prod_{j=0}^{m-nu-1} (p^j - q^j x),

    t_nu = (p^{m-nu} [nu] + alpha) / ([n] + beta),

for x in [0, 1], 0 < q < p <= 1 and 0 <= alpha <= beta, with binom the
(p,q)-binomial [m]! / ([nu]! [m-nu]!).  With r = q/p, [k] = p^(k-1) [k]_r,
so binom = p^(nu(m-nu)) binom_r, and p^j - q^j x = p^j (1 - r^j x).  The
powers of p then add up to (-m(m-1) + 2 nu(m-nu) + nu(nu-1) + (m-nu)(m-nu-1))/2
= 0, and the weights are the q-Bernstein basis at r:

    s_nu(x) = binom_r(m, nu) x^nu prod_{j=0}^{m-nu-1} (1 - r^j x).

The nodes are an affine map of that basis's own nodes u_nu = [nu]_r / [m]_r:
p^(m-nu) [nu] = p^(m-1) [nu]_r, so t_nu = A u_nu + B with A = p^(m-1) [m]_r / D,
B = alpha / D and D = [n] + beta, and each axis is Phillips' q-Bernstein
operator at r composed with phi(u) = A u + B.  _axis_form computes A and B
in ratio form, with no power p^m, so no axis is refused for a small p^m or
[n]; it is the one home of every per-axis constant, the closed moments' too.
The weights form a partition of unity and are nonnegative on [0, 1], so
the operator is positive and reproduces constants up to roundoff.  Functions
are only ever sampled at the nodes, which live in [0, l + 1).

apply_on_grid takes f as a factor tuple ((g, h), ...) whose sum of products
g(t1) h(t2) is f, and costs O(k m) on a k-point axis of degree m: each factor
is sampled at one axis's m + 1 nodes, contracted with the weight rows in index
order (_clibm.weighted_sums: the same sum on every CPU, with any BLAS), and
the grid is the sum of the outer products.  Every catalog function carries its factors.  The node
grid itself is built only as the oracle's table (sample_at_nodes).

Weights come from (m, log r) alone, for a vector of x at once, by the ratios
s_(k+1) / s_k = [m - k]_r x / ([k + 1]_r (1 - r^(m-1-k) x)) outward from each
row's largest weight, all rows in one _clibm.weight_ratio_rows call, which
writes the rows x = 0 and 1 as the unit vectors e_0 and e_m, so endpoints are
exact.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from ._clibm import libm, weight_ratio_rows, weighted_sums
from .pq_core import PQPair, pq_integer

NODE_EXPONENTS = ("canonical", "literal")

GridFn = Callable[..., Any]
"""The contract for every sampled function: f(t1, t2) on floats or on arrays.

Given a column t1 and a row t2, f returns an array that broadcasts to their
grid; a constant, or a result that depends on one axis only, is stretched by
tabulate.  Given two floats, f returns a float.
"""

AxisFn = Callable[[np.ndarray], Any]
"""A function of one axis: g(t) on a float array returns an array of t's shape
or a constant, which is stretched to it."""

Factors = tuple[tuple[AxisFn, AxisFn], ...]
"""f(t1, t2) = sum over the pairs (g, h) of g(t1) h(t2), in the tuple's order."""


@dataclass(frozen=True)
class AxisConfig:
    """One axis of the tensor product.

    node_exponent selects the exponent on p inside the node formula:
    "canonical" uses m - nu (this is the form whose first moment has the
    closed expression ([m]x + alpha)/([n] + beta)); "literal" uses n - nu,
    kept for comparison only.  The two node sets differ by the constant
    factor p^l.
    """

    n: int
    l: int
    pq: PQPair
    alpha: float = 0.0
    beta: float = 0.0
    node_exponent: str = "canonical"

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and isinstance(self.l, numbers.Integral)):
            raise ValueError(f"requires integer n and l (got n={self.n!r}, l={self.l!r})")
        if self.n < 1:
            raise ValueError(f"requires n >= 1 (got n={self.n})")
        if self.l < 0:
            raise ValueError(f"requires l >= 0 (got l={self.l})")
        if not (0.0 <= self.alpha <= self.beta < math.inf):
            raise ValueError(
                f"requires finite 0 <= alpha <= beta (got alpha={self.alpha}, beta={self.beta})"
            )
        if self.node_exponent not in NODE_EXPONENTS:
            raise ValueError(
                f"requires node_exponent in {NODE_EXPONENTS} (got {self.node_exponent!r})"
            )

    @property
    def degree(self) -> int:
        return self.n + self.l


_AxisForm = namedtuple("_AxisForm", "a a_literal b bm gap den slope")


@lru_cache(maxsize=256)  # the sweep's 135 axes fit
def _axis_form(axis: AxisConfig) -> _AxisForm:
    """Every per-axis constant: the nodes' map t_nu = A u_nu + B, u_nu = [nu]_r / [m]_r,
    and the closed moments' [m]_r, gap, D and D-free shift slope.

    With [k] = p^(k-1) [k]_r and D = [n] + beta, t_nu = (p^(base-nu) [nu] + alpha) / D
    gives A = p^(base-1) [m]_r / D and B = alpha / D (base is m, or n for the
    literal nodes' a_literal).  A is taken as p^(base-n) [m]_r / ([n]_r + beta / h / h)
    with h = p^((n-1)/2): it is 1 exactly at l = 0, alpha = beta = 0, and h stays a
    normal double far past where p^(n-1) underflows; where h rounds to 0, A is
    0, against a true A below m 1.3e-324.  gap = [m] - D = q^n [l] + expm1(l log p)
    [n] - beta, and slope = p^l r^n [l]_r / [n]_r + expm1(l log p) is the shift
    (S(t) - x) / x at beta = 0, which needs no D.
    """
    n, l, lam, p = axis.n, axis.l, axis.pq.log_ratio, axis.pq.p
    unit, e_n = math.expm1(lam), math.expm1(n * lam)
    bracket_n, bracket_m = e_n / unit, math.expm1(axis.degree * lam) / unit
    bn = pq_integer(n, axis.pq)
    den, ratio_den, b = bn + axis.beta, bracket_n, 0.0
    if axis.beta:
        half = p ** ((n - 1) / 2)
        ratio_den += axis.beta / half / half if half else math.inf
        b = axis.alpha / den
    lead, shrink = p ** l, math.expm1(l * math.log(p))
    gap = axis.pq.q ** n * pq_integer(l, axis.pq) + shrink * bn
    slope = lead * math.exp(n * lam) * math.expm1(l * lam) / e_n + shrink
    return _AxisForm(lead * bracket_m / ratio_den, bracket_m / ratio_den, b, bracket_m,
                     gap - axis.beta, den, slope)


@lru_cache(maxsize=4)  # the two axes of an operator
def _expm1_table(m: int, lam: float) -> np.ndarray:
    """expm1(nu lam), nu = 0..m, read-only: the table an axis's nodes and weights share."""
    e = libm(math.expm1, np.arange(m + 1.0) * lam)
    e.flags.writeable = False
    return e


def nodes(axis: AxisConfig) -> np.ndarray:
    """All nodes t_0..t_m as an array; increasing, contained in [0, l + 1).

    t_nu = A u_nu + B with (A, B) from _axis_form, and u_nu = expm1(nu lam) /
    expm1(m lam) from _expm1_table: u_0 = 0 and u_m = 1 exactly.
    """
    form = _axis_form(axis)
    a = form.a if axis.node_exponent == "canonical" else form.a_literal
    u = _expm1_table(axis.degree, axis.pq.log_ratio)
    return a * (u / u[-1]) + form.b


def weight_matrix(axis: AxisConfig, xs) -> np.ndarray:
    """Weights s_0(x)..s_m(x) for every x in xs, one row per x.

    Ratio evaluation at r = q/p (_clibm.weight_ratio_rows, one kernel call
    for the whole matrix, from nodes' _expm1_table), with no transcendental
    per weight: each row is the product of the ratios s_(k+1) / s_k outward
    from its largest weight, divided by its sum, so a weight's rounding grows
    with its distance from it, not with log([m]_r!).  Rows at 0, 1: e_0, e_m.
    """
    xs = np.asarray(xs, dtype=float)
    outside = ~((0.0 <= xs) & (xs <= 1.0))
    if outside.any():
        raise ValueError(f"requires x in [0, 1] (got x={xs[outside][0]})")
    return weight_ratio_rows(_expm1_table(axis.degree, axis.pq.log_ratio), xs)


def weight_vector(axis: AxisConfig, x: float) -> np.ndarray:
    """All weights s_0(x)..s_m(x): the one row of weight_matrix(axis, [x])."""
    return weight_matrix(axis, [x])[0]


@dataclass(frozen=True)
class BivariateOperator:
    """Tensor product of two axis operators."""

    axis1: AxisConfig
    axis2: AxisConfig


def tabulate(fn: GridFn, xs, ys) -> np.ndarray:
    """Matrix F[i, j] = fn(xs[i], ys[j]) from one call fn(xs[:, None], ys[None, :]).

    Every sampled matrix in the package comes from here; fn is a GridFn.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    out = np.empty((xs.size, ys.size))
    out[...] = fn(xs[:, None], ys[None, :])
    return out


def sample_at_nodes(op: BivariateOperator, f: GridFn) -> np.ndarray:
    """Matrix F[i, j] = f(t1_i, t2_j) over the node grid: the oracle's table."""
    return tabulate(f, nodes(op.axis1), nodes(op.axis2))


def apply_on_grid(op: BivariateOperator, f: Factors, xs1, xs2) -> np.ndarray:
    """S(f) on a product grid, M[i, j] = S(f; xs1[i], xs2[j]): the sum over
    f's pairs of outer(W1 g(t1), W2 h(t2)), each product summed in index order.

    A grid point where S(f) is not a finite double (f's values at the nodes
    too large, or not finite) raises ArithmeticError.
    """
    xs1, xs2 = np.asarray(xs1, dtype=float), np.asarray(xs2, dtype=float)
    w1, w2 = weight_matrix(op.axis1, xs1), weight_matrix(op.axis2, xs2)
    t1, t2 = nodes(op.axis1), nodes(op.axis2)
    out = np.zeros((len(w1), len(w2)))
    with np.errstate(over="ignore", invalid="ignore"):
        for g, h in f:
            out += np.outer(weighted_sums(w1, g(t1)), weighted_sums(w2, h(t2)))
    bad = ~np.isfinite(out)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ArithmeticError(
            f"S(f) is not a finite double at {bad.sum()} of {bad.size} grid points: "
            f"{out[i, j]} at (x1, x2) = ({xs1[i]:g}, {xs2[j]:g})"
        )
    return out


def apply_bivariate(op: BivariateOperator, f: Factors, x1: float, x2: float) -> float:
    """S(f; x1, x2) = sum s_nu1(x1) s_nu2(x2) f(t1_nu1, t2_nu2), on a one-point grid."""
    return float(apply_on_grid(op, f, [x1], [x2])[0, 0])


REDUCTION_TARGETS = ("q-schurer-stancu", "pq-bernstein-schurer", "pq-bernstein")


def reduce_operator(op: BivariateOperator, target: str) -> BivariateOperator:
    """Specialize parameters to a named classical family.

    q-schurer-stancu:     p -> 1 on both axes (q-weights, Stancu shifts kept)
    pq-bernstein-schurer: alpha, beta -> 0
    pq-bernstein:         l -> 0 and alpha, beta -> 0
    """
    def cut(axis: AxisConfig) -> AxisConfig:
        if target == "q-schurer-stancu":
            return dataclasses.replace(axis, pq=PQPair(1.0, axis.pq.q))
        if target == "pq-bernstein-schurer":
            return dataclasses.replace(axis, alpha=0.0, beta=0.0)
        if target == "pq-bernstein":
            return dataclasses.replace(axis, l=0, alpha=0.0, beta=0.0)
        raise ValueError(
            f"requires target in {REDUCTION_TARGETS} (got {target!r})"
        )

    return BivariateOperator(cut(op.axis1), cut(op.axis2))
