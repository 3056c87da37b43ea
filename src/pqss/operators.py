"""Bivariate Schurer-Stancu operators on (p,q)-integers.

The operator is a tensor product of two univariate positive linear operators.
On each axis, with m = n + l,

    S(f; x) = sum_{nu=0}^{m} s_nu(x) f(t_nu),

    s_nu(x) = p^{-m(m-1)/2} binom(m, nu) p^{nu(nu-1)/2} x^nu
              prod_{j=0}^{m-nu-1} (p^j - q^j x),

    t_nu = (p^{m-nu} [nu] + alpha) / ([n] + beta),

for x in [0, 1], 0 < q < p <= 1 and 0 <= alpha <= beta.  The weights form a
partition of unity and are nonnegative on [0, 1], so the operator is positive
and reproduces constants up to roundoff.  Functions are only ever sampled at
the nodes, which live in [0, l + 1); the caller provides an f defined there.

Weights are evaluated in log space and exponentiated once at the end; the
endpoint rows x = 0 and x = 1 short-circuit to the exact unit vectors e_0 and
e_m, so endpoint evaluations are exact.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pq_core import (
    PQPair,
    _log_rising_terms,
    compensated_cumsum,
    cumulative_log_factorials,
    pq_integer,
)

NODE_EXPONENTS = ("canonical", "literal")


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


def nodes(axis: AxisConfig) -> np.ndarray:
    """All nodes t_0..t_m as an array; increasing, contained in [0, l + 1)."""
    m = axis.degree
    p = axis.pq.p
    brackets = np.array([pq_integer(nu, axis.pq) for nu in range(m + 1)])
    base = m if axis.node_exponent == "canonical" else axis.n
    exps = base - np.arange(m + 1)
    den = pq_integer(axis.n, axis.pq) + axis.beta
    return (p ** exps.astype(float) * brackets + axis.alpha) / den


def weight_vector(axis: AxisConfig, x: float) -> np.ndarray:
    """All weights s_0(x)..s_m(x).

    Log-space evaluation: log binomials come from compensated cumulative
    log-factorials, the rising product from expm1-stabilized factor logs, and
    the vector is exponentiated once.  x = 0 and x = 1 return exact unit
    vectors (the weight mass concentrates at nu = 0 and nu = m).
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"requires x in [0, 1] (got x={x})")
    m = axis.degree
    out = np.zeros(m + 1)
    if x == 0.0:
        out[0] = 1.0
        return out
    if x == 1.0:
        out[m] = 1.0
        return out
    p, q = axis.pq.p, axis.pq.q
    log_p = math.log(p)
    lf = cumulative_log_factorials(m, p, q)
    log_binom = lf[m] - lf - lf[::-1]
    rising_prefix = np.zeros(m + 1)
    if m >= 1:
        rising_prefix[1:] = compensated_cumsum(_log_rising_terms(m, x, axis.pq))
    nu = np.arange(m + 1)
    log_w = (
        -0.5 * m * (m - 1) * log_p
        + log_binom
        + 0.5 * nu * (nu - 1) * log_p
        + nu * math.log(x)
        + rising_prefix[::-1]
    )
    return np.exp(log_w)


def apply_univariate(axis: AxisConfig, f: Callable[[float], float], x: float) -> float:
    """sum_nu s_nu(x) f(t_nu)."""
    w = weight_vector(axis, x)
    t = nodes(axis)
    return float(w @ np.array([f(tv) for tv in t]))


@dataclass(frozen=True)
class BivariateOperator:
    """Tensor product of two axis operators."""

    axis1: AxisConfig
    axis2: AxisConfig


def tabulate(fn: Callable[[float, float], float], xs, ys) -> np.ndarray:
    """Matrix F[i, j] = fn(xs[i], ys[j]) over a product grid.

    The one place a scalar callback meets a grid: every sampled matrix in the
    package comes from here, in row-major order.
    """
    return np.array([[fn(a, b) for b in ys] for a in xs])


def sample_at_nodes(op: BivariateOperator, f: Callable[[float, float], float]) -> np.ndarray:
    """Matrix F[i, j] = f(t1_i, t2_j) over the node grid."""
    return tabulate(f, nodes(op.axis1), nodes(op.axis2))


def apply_bivariate(
    op: BivariateOperator, f: Callable[[float, float], float], x1: float, x2: float
) -> float:
    """S(f; x1, x2) = sum_{nu1, nu2} s_nu1(x1) s_nu2(x2) f(t1_nu1, t2_nu2)."""
    w1 = weight_vector(op.axis1, x1)
    w2 = weight_vector(op.axis2, x2)
    return float(w1 @ sample_at_nodes(op, f) @ w2)


def apply_on_grid(
    op: BivariateOperator,
    f: Callable[[float, float], float],
    xs1,
    xs2,
) -> np.ndarray:
    """S(f) on a product grid, M[i, j] = S(f; xs1[i], xs2[j]).

    The nodes do not depend on x, so f is sampled once and the grid reduces
    to two matrix products.
    """
    samples = sample_at_nodes(op, f)
    w1 = np.array([weight_vector(op.axis1, x) for x in xs1])
    w2 = np.array([weight_vector(op.axis2, x) for x in xs2])
    return w1 @ samples @ w2.T


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
