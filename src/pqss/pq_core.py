"""Arithmetic layer for (p,q)-integers.

Everything downstream (basis weights, moments, convergence tables) reduces to
the bracket numbers

    [k] = (p^k - q^k) / (p - q),      [0] = 0,

their log-factorials, and the logs of the rising-product factors
p^j - q^j x that appear in the operator weights.  A single bracket is plain
double precision; the tables are built in log space (Neumaier prefix sums of
log magnitudes, _clibm.compensated_cumsum), so they stay finite where the
direct products under- or overflow.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from ._clibm import compensated_cumsum, libm


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

    @property
    def log_ratio(self) -> float:
        """log(q/p), taken as log1p((q - p)/p) so that nearby p and q do not cancel."""
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


def _log_rising_terms(m: int, xs, pq: PQPair) -> np.ndarray:
    """Logs of the factors p^j - q^j x for j = 0..m-1, one row per x in xs.

    Every x lies in (0, 1) and every factor is > 0.  Factor j is rewritten
    as p^j * (1 - x (q/p)^j) and the parenthesis taken through expm1, which
    stays accurate when x (q/p)^j is close to 1 (x near 1 with p - q small),
    exactly where the direct subtraction cancels.
    """
    j = np.arange(m, dtype=float)
    log_x = libm(math.log, np.asarray(xs, dtype=float))[:, None]
    return j * math.log(pq.p) + libm(math.log, -libm(math.expm1, j * pq.log_ratio + log_x))


@lru_cache(maxsize=512)
def cumulative_log_factorials(kmax: int, p: float, q: float) -> np.ndarray:
    """Array lf with lf[k] = log([k]!) for k = 0..kmax, compensated sums.

    Keyed on raw floats for caching; construct the PQPair internally so the
    usual validation still applies.  The brackets [1..kmax] are pq_integer's
    formula on a whole array, with the same libm calls, so the table has the
    bits of summing log(pq_integer(j)).  A bracket below the smallest normal
    double raises: at 0 it has no log, and a subnormal one keeps too few bits
    for its log to be right (at p = 0.9, q = 0.6 a table over the subnormal
    brackets is off by 2.8e-4 at k = 7000).  The returned array is read-only.
    """
    pq = PQPair(p, q)
    lf = np.zeros(kmax + 1)
    if kmax >= 1:
        k = np.arange(2.0, kmax + 1)
        brackets = np.empty(kmax)
        brackets[0] = 1.0
        p_k = libm(partial(math.pow, p), k)
        brackets[1:] = -p_k * libm(math.expm1, k * pq.log_ratio) / (p - q)
        if brackets.min() < sys.float_info.min:
            k0 = int(np.argmax(brackets < sys.float_info.min)) + 1
            raise ValueError(
                f"bracket [{k0}] = {brackets[k0 - 1]:.4g} is below the smallest normal "
                f"double at p={pq.p}, q={pq.q}"
            )
        lf[1:] = compensated_cumsum(libm(math.log, brackets))
    lf.setflags(write=False)
    return lf
