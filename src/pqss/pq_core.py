"""Arithmetic layer for (p,q)-integers.

Everything downstream (basis weights, moments, convergence tables) reduces to
the bracket numbers

    [k] = (p^k - q^k) / (p - q) = p^(k-1) [k]_r,      [0] = 0,

with r = q/p and [k]_r = 1 + r + ... + r^(k-1).  Of an axis's constants
(operators._axis_form), the closed moments' D and gap and the nodes' offset
B = alpha / D use [k]; the nodes' map otherwise takes [k]_r, and the weights
only the ratios [m - k]_r / [k + 1]_r of neighbouring r-binomials
(_clibm.weight_ratio_rows), not the log-factorial table below, which nothing
in the package calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._clibm import libm


@dataclass(frozen=True)
class PQPair:
    """A validated parameter pair with 0 < q < p <= 1."""

    p: float
    q: float

    def __post_init__(self):
        if not (0.0 < self.q < self.p <= 1.0):
            raise ValueError(
                f"requires 0 < q < p <= 1 (got p={self.p}, q={self.q})"
            )
        if not (self.q - self.p) / self.p > -1.0:
            raise ValueError(
                f"requires a finite log(q/p), but (q - p)/p rounds to -1 "
                f"(got p={self.p}, q={self.q})"
            )

    @cached_property
    def log_ratio(self) -> float:
        """log(q/p), taken as log1p((q - p)/p) so that nearby p and q do not
        cancel; computed once per pair (the fields, ==, hash and asdict do
        not see the cached value)."""
        return math.log1p((self.q - self.p) / self.p)


def pq_integer(k: int, pq: PQPair) -> float:
    """Bracket number [k] = (p^k - q^k)/(p - q), with [0] = 0.

    Evaluated as p^k * (1 - (q/p)^k) / (p - q) through expm1/log1p so that
    nearby p and q do not cancel; the naive difference loses ~3 digits at
    p=0.999, q=0.998 and that error compounds over long factorial sums.
    """
    if k < 0:
        raise ValueError(f"requires k >= 0 (got k={k})")
    if k == 0:
        return 0.0
    if k == 1:
        return 1.0
    p, q = pq.p, pq.q
    return -(p ** k) * math.expm1(k * pq.log_ratio) / (p - q)


def compensated_cumsum(values) -> np.ndarray:
    """Running prefix sums with Neumaier compensation, along the last axis
    (naive sums of ~2000 log-factorial terms drift around 1e-10, these stay
    near 1e-13).  Each row is the sequential loop

        t = s + v;  c += (s - t) + v if |s| >= |v| else (v - t) + s;  s = t;
        out = s + c

    run by np.cumsum, which accumulates left to right (each error term
    depends only on its own s, v and t), with the loop's bits, inf and nan
    included.
    """
    v = np.ascontiguousarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.cumsum(v, axis=-1)
        prev = np.zeros_like(s)
        prev[..., 1:] = s[..., :-1]
        err = np.where(np.abs(prev) >= np.abs(v), (prev - s) + v, (v - s) + prev)
        return s + np.cumsum(err, axis=-1)


@lru_cache(maxsize=8)
def cumulative_log_factorials(kmax: int, lam: float) -> np.ndarray:
    """Read-only lf with lf[k] = log([k]_r!), k = 0..kmax, r = e^lam, lam < 0:
    compensated sums of log [k]_r = log(expm1(k lam) / expm1(lam)), each finite
    as [k]_r >= 1, the last 8 cached on (kmax, lam).  Uncalled; kept, with
    compensated_cumsum, for bench/tracer.py until ROADMAP item 3.
    """
    brackets = libm(math.expm1, np.arange(1.0, kmax + 1) * lam) / math.expm1(lam)
    lf = np.zeros(kmax + 1)
    lf[1:] = compensated_cumsum(libm(math.log, brackets))
    lf.setflags(write=False)
    return lf
