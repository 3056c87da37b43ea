"""Arithmetic layer for (p,q)-integers.

Everything downstream (basis weights, moments, convergence tables) reduces to
the bracket numbers

    [k] = (p^k - q^k) / (p - q) = p^(k-1) [k]_r,      [0] = 0,

with r = q/p and [k]_r = 1 + r + ... + r^(k-1).  The closed moments' D and
gap, and the nodes' offset B = alpha / D, use [k]; the nodes' map otherwise
takes [k]_r, and the weights only the ratios [m - k]_r / [k + 1]_r of
neighbouring r-binomials (_clibm.weight_ratio_rows), not the table below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._clibm import bracket_logs, compensated_cumsum


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


@lru_cache(maxsize=8)
def cumulative_log_factorials(kmax: int, lam: float) -> np.ndarray:
    """Read-only lf with lf[k] = log([k]_r!), k = 0..kmax, r = e^lam: compensated
    sums of _clibm.bracket_logs, the last 8 cached on (kmax, lam).  Uncalled;
    kept, with compensated_cumsum, for bench/tracer.py until ROADMAP item 3.
    """
    lf = np.zeros(kmax + 1)
    lf[1:] = compensated_cumsum(bracket_logs(kmax, lam))
    lf.setflags(write=False)
    return lf
