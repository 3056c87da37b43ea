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

p is left only in the nodes, whose powers of p AxisConfig keeps normal
doubles (it refuses p^m below the smallest normal double).  The weights form
a partition of unity and are nonnegative on [0, 1], so the operator is
positive and reproduces constants up to roundoff.  Functions are only ever
sampled at the nodes, which live in [0, l + 1).

apply_on_grid takes f as a factor tuple ((g, h), ...) whose sum of products
g(t1) h(t2) is f, and costs O(k m) on a k-point axis of degree m: each factor
is sampled at one axis's m + 1 nodes, contracted with the weight rows in index
order (_clibm.weighted_sums: the same sum on every CPU, with any BLAS), and
the grid is the sum of the outer products.  Every catalog function carries its factors.  The node
grid itself is built only as the oracle's table (sample_at_nodes).

Weights are evaluated from (m, log r) alone in log space, for a whole vector
of x at once, and exponentiated once at the end, every interior row in one
call to the compiled kernel (_clibm.weight_rows); the endpoint rows x = 0 and
x = 1 are the exact unit vectors e_0 and e_m, so endpoint evaluations are
exact.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from ._clibm import libm, weight_rows, weighted_sums
from .pq_core import PQPair, cumulative_log_factorials, pq_integer

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
        bracket_n = pq_integer(self.n, self.pq)
        if bracket_n < sys.float_info.min:
            raise ValueError(
                f"requires [n] to be a normal double (got [n] = {bracket_n!r} at n={self.n}, "
                f"p={self.pq.p}, q={self.pq.q})"
            )
        # the nodes take p^(base-nu) [nu] in (p,q) form, and [nu] takes p^nu: powers
        # p^k for k from -l (literal nodes) to m, all normal doubles while p^m is
        scale = self.pq.p ** self.degree
        if scale < sys.float_info.min:
            raise ValueError(
                f"requires the node scale p^m to be a normal double (got p^m = {scale!r} at "
                f"m={self.degree}, p={self.pq.p}, q={self.pq.q})"
            )

    @property
    def degree(self) -> int:
        return self.n + self.l


def nodes(axis: AxisConfig) -> np.ndarray:
    """All nodes t_0..t_m as an array; increasing, contained in [0, l + 1).

    pq_integer's own formula on whole arrays, so every node has its bits:
    one libm pow over the exponents base - m..m (base is m, or n for the
    literal nodes) gives both p^nu (its tail) and p^(base - nu) (its head,
    reversed), and one libm expm1 gives the brackets
    [nu] = -p^nu expm1(nu lam) / (p - q), with [0] = 0 and [1] = 1 exact.
    """
    m, n = axis.degree, axis.n
    p, q = axis.pq.p, axis.pq.q
    base = m if axis.node_exponent == "canonical" else n
    powers = libm(partial(math.pow, p), np.arange(base - m, m + 1.0))
    nu = np.arange(m + 1.0)
    brackets = -powers[m - base:] * libm(math.expm1, nu * axis.pq.log_ratio) / (p - q)
    brackets[:2] = 0.0, 1.0
    return (powers[m::-1] * brackets + axis.alpha) / (brackets[n] + axis.beta)


def weight_matrix(axis: AxisConfig, xs) -> np.ndarray:
    """Weights s_0(x)..s_m(x) for every x in xs, one row per x.

    Log-space evaluation at r = q/p (_clibm.weight_rows): log binomials come
    from the compensated log-factorial table of the r-brackets, the rising
    products from expm1-stabilized factor logs summed along each row, and
    each weight is one exp; the compiled kernel writes every interior row
    into the returned matrix in one C loop, in one call.  Rows for x = 0 and
    x = 1 are the exact unit vectors e_0 and e_m (the weight mass
    concentrates at nu = 0 and nu = m).
    """
    xs = np.asarray(xs, dtype=float)
    outside = ~((0.0 <= xs) & (xs <= 1.0))
    if outside.any():
        raise ValueError(f"requires x in [0, 1] (got x={xs[outside][0]})")
    m, lam = axis.degree, axis.pq.log_ratio
    out = np.zeros((xs.size, m + 1))
    out[xs == 0.0, 0] = 1.0
    out[xs == 1.0, m] = 1.0
    if ((0.0 < xs) & (xs < 1.0)).any():
        weight_rows(cumulative_log_factorials(m, lam), xs, lam, out)
    return out


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
