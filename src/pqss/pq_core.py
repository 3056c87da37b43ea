"""Arithmetic layer for (p,q)-integers.

Everything downstream (basis weights, moments, convergence tables) reduces to
the bracket numbers

    [k] = (p^k - q^k) / (p - q),      [0] = 0,

and their log-factorials.  A single bracket is plain double precision; the
log-factorial table is the Neumaier prefix sum (_clibm.compensated_cumsum)
of the bracket logs (_clibm.bracket_logs), so it stays finite where the
direct products under- or overflow.
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


@lru_cache(maxsize=512)
def cumulative_log_factorials(kmax: int, p: float, q: float) -> np.ndarray:
    """Array lf with lf[k] = log([k]!) for k = 0..kmax, compensated sums.

    Keyed on raw floats for caching; construct the PQPair internally so the
    usual validation still applies.  The bracket logs come from
    _clibm.bracket_logs, which has the bits of log(pq_integer(k)) and raises
    on a bracket below the smallest normal double.  The returned array is
    read-only.
    """
    pq = PQPair(p, q)
    lf = np.zeros(kmax + 1)
    if kmax >= 1:
        lf[1:] = compensated_cumsum(bracket_logs(kmax, pq))
    lf.setflags(write=False)
    return lf
