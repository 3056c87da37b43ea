"""Korovkin-style convergence tables over parameter sequences p_n, q_n.

Uniform convergence of S_n(f) -> f on [0, 1]^2 needs p_n, q_n -> 1 with
p_n^n and q_n^n approaching declared limits a, b in (0, 1]; the operator
then converges for every continuous f as soon as the four test errors

    |S(1) - 1|, |S(t1) - x1|, |S(t2) - x2|, |S(t1^2 + t2^2) - (x1^2 + x2^2)|

vanish uniformly.  Both tables take the operators they tabulate, which
build_operator makes from a family at each n.  korovkin_suite gives one row
per operator of exactly those four sup errors (via the verified closed moment
forms, so rows for n = 512 cost the same as n = 4); convergence_table one row
per operator for a single catalog function through the full operator
evaluation, with the 4*omega_total bound alongside; empirical_order fits the
decay slope of any error column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .catalog import TestFunction
from .analysis import error_grid, total_modulus_bound_grid
from .moments import central_moment, first_moment_shift
from .operators import AxisConfig, BivariateOperator
from .pq_core import PQPair


@dataclass(frozen=True)
class AxisShape:
    """Per-axis parameters that stay fixed while n runs through a sequence."""

    l: int = 0
    alpha: float = 0.0
    beta: float = 0.0


@dataclass(frozen=True)
class SequenceSpec:
    """A parameter family n -> (p_n, q_n) = pq_of(n) with declared limits a, b for p_n^n, q_n^n."""

    name: str
    pq_of: Callable[[int], tuple[float, float]]
    a: float
    b: float

    def pq_at(self, n: int) -> PQPair:
        """(p_n, q_n) as a validated pair; raises when pq_of has no entry at n (it raises
        LookupError) or the family leaves 0 < q < p <= 1."""
        try:
            return PQPair(*self.pq_of(n))
        except LookupError:
            raise ValueError(f"family {self.name!r} has no entry for n={n}") from None
        except ValueError as exc:
            raise ValueError(f"family {self.name!r} invalid at n={n}: {exc}") from exc


def one_minus_c_over_n(c_p: float = 0.5, c_q: float = 1.0) -> SequenceSpec:
    """The family p_n = 1 - c_p/n, q_n = 1 - c_q/n with finite 0 <= c_p < c_q.

    Its limits are p_n^n -> exp(-c_p) and q_n^n -> exp(-c_q), since
    n log(1 - c/n) -> -c.
    """
    if not (0.0 <= c_p < c_q):
        raise ValueError(f"requires 0 <= c_p < c_q (got c_p={c_p}, c_q={c_q})")
    if not (math.isfinite(c_p) and math.isfinite(c_q)):
        raise ValueError(f"requires finite c_p and c_q (got c_p={c_p}, c_q={c_q})")
    return SequenceSpec(
        name=f"one-minus-c-over-n(cp={c_p:g},cq={c_q:g})",
        pq_of=lambda n: (1.0 - c_p / n, 1.0 - c_q / n),
        a=math.exp(-c_p),
        b=math.exp(-c_q),
    )


def tabulated_sequence(
    pairs: dict[int, tuple[float, float]], a: float, b: float, name: str = "tabulated"
) -> SequenceSpec:
    """A family given by an explicit table n -> (p_n, q_n).

    The limits a, b are declared, not checked against the table: a finite
    table cannot be extrapolated.  They must lie in (0, 1], the range the
    Korovkin hypotheses allow.  A degree outside the table has no entry.
    """
    if not pairs:
        raise ValueError("requires a nonempty table")
    if not (0.0 < a <= 1.0 and 0.0 < b <= 1.0):
        raise ValueError(f"requires limits a, b in (0, 1] (got a={a}, b={b})")
    table = {int(k): (float(p), float(q)) for k, (p, q) in pairs.items()}
    return SequenceSpec(name=name, pq_of=table.__getitem__, a=a, b=b)


def build_operator(
    spec: SequenceSpec,
    n: int,
    shape1: AxisShape,
    shape2: AxisShape,
) -> BivariateOperator:
    pq = spec.pq_at(n)
    ax1 = AxisConfig(n=n, l=shape1.l, pq=pq, alpha=shape1.alpha, beta=shape1.beta)
    ax2 = AxisConfig(n=n, l=shape2.l, pq=pq, alpha=shape2.alpha, beta=shape2.beta)
    return BivariateOperator(ax1, ax2)


@dataclass(frozen=True)
class KorovkinRow:
    n: int
    p: float
    q: float
    sup_e00: float
    sup_e10: float
    sup_e01: float
    sup_e20_e02: float


def korovkin_suite(ops: Iterable[BivariateOperator], grid_k: int) -> list[KorovkinRow]:
    """Sup errors of the four convergence test conditions, one row per operator.

    Each row's n, p and q are axis 1's; e10 reads axis 1 and e01 axis 2, so
    the two axes may differ in every parameter.  Errors come from the closed
    shift S(t) - x and central moment (S(t^2) - x^2 = central + 2 x shift), so
    no column cancels; the oracle checks these closed moments up to m = 8195
    (high-degree-moments) and the weights up to m = 16384 (high-degree-weights).
    """
    xs = np.linspace(0.0, 1.0, grid_k)
    rows = []
    for op in ops:
        s1, s2 = (first_moment_shift(axis, xs) for axis in (op.axis1, op.axis2))
        r1, r2 = (central_moment(a, xs) + 2.0 * xs * s for a, s in ((op.axis1, s1), (op.axis2, s2)))
        # partition of unity: the closed e00 is identically 1, sup error 0
        rows.append(KorovkinRow(
            n=op.axis1.n,
            p=op.axis1.pq.p,
            q=op.axis1.pq.q,
            sup_e00=0.0,
            sup_e10=float(np.max(np.abs(s1))),
            sup_e01=float(np.max(np.abs(s2))),
            sup_e20_e02=float(np.max(np.abs(r1[:, None] + r2[None, :]))),
        ))
    return rows


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    p: float
    q: float
    sup_err: float
    worst_x1: float
    worst_x2: float
    bound_at_worst: float | None
    ratio: float | None


def convergence_table(
    ops: Iterable[BivariateOperator], f: TestFunction, grid_k: int
) -> list[ConvergenceRow]:
    """Actual sup error of S(f) on [0,1]^2, one row per operator, with the modulus bound alongside.

    Each row's n, p and q are axis 1's.  The bound column is 4 omega_total at
    the worst grid point when f carries exact modulus metadata, else empty;
    ratio = sup_err / bound.
    """
    xs = np.linspace(0.0, 1.0, grid_k)
    rows = []
    for op in ops:
        if f.total_modulus is None:
            errs, rhs = error_grid(op, f, xs, xs), None
        else:
            errs, rhs = total_modulus_bound_grid(op, f, xs, xs)
        flat = int(np.argmax(errs))
        i1, i2 = divmod(flat, len(xs))
        sup_err = float(errs[i1, i2])
        bound = None if rhs is None else float(rhs[i1, i2])
        ratio = sup_err / bound if bound and bound > 0.0 else None
        rows.append(ConvergenceRow(
            n=op.axis1.n, p=op.axis1.pq.p, q=op.axis1.pq.q, sup_err=sup_err,
            worst_x1=float(xs[i1]), worst_x2=float(xs[i2]),
            bound_at_worst=bound, ratio=ratio,
        ))
    return rows


# Largest error that empirical_order treats as exact: 64 ulps per unit of
# degree, 64 n eps at degree n.  Where the operator is exact in exact
# arithmetic, the closed moments miss by about an ulp, but the full evaluation
# path sums m + 1 weights per axis and its roundoff grows with n: sup|S(1) - 1|
# on the default shape at grid 41 is 4.1e-15 at n = 16, 2.6e-14 at 64, 1.6e-13
# at 256, 5.2e-13 at 512, 5.4e-13 at 1024 and 7.9e-13 at 2048, at most 5 n eps.
# A fixed floor would either let that noise through at high n or hide genuine
# errors at low n.  64 keeps a 13x margin and stays below ~270, above which a
# genuine 1e-9/n at n = 128 would count as exact.  Genuine errors along the
# families sit far above (first-moment errors 5e-4 to 2e-3 at n = 512, floor
# 7.3e-12).
ROUNDOFF_ULPS_PER_DEGREE = 64


def empirical_order(pairs: Iterable[tuple[float, float]]) -> float:
    """Least-squares slope of log(err) against log(n), in closed form with
    fsum sums rather than a LAPACK fit, whose BLAS order depends on the CPU.

    Requires at least three distinct n.  Any error at or below its roundoff
    floor ROUNDOFF_ULPS_PER_DEGREE * n * eps (zero included) short-circuits
    to -inf: the sequence is exact to machine precision and no finite decay
    order is meaningful.
    """
    pts = [(float(n), float(e)) for n, e in pairs]
    distinct = len({n for n, _ in pts})
    if distinct < 3:
        raise ValueError(
            f"requires at least 3 points at distinct n "
            f"(got {len(pts)} points, {distinct} distinct n)"
        )
    eps = np.finfo(float).eps
    if any(e <= ROUNDOFF_ULPS_PER_DEGREE * n * eps for n, e in pts):
        return -math.inf
    logs_n = [math.log(n) for n, _ in pts]
    logs_e = [math.log(e) for _, e in pts]
    mean_n = math.fsum(logs_n) / len(pts)
    mean_e = math.fsum(logs_e) / len(pts)
    return (math.fsum((a - mean_n) * (b - mean_e) for a, b in zip(logs_n, logs_e))
            / math.fsum((a - mean_n) ** 2 for a in logs_n))
