"""Korovkin-style convergence tables over parameter sequences p_n, q_n.

Uniform convergence of S_n(f) -> f on [0, 1]^2 needs p_n, q_n -> 1 with
p_n^n and q_n^n approaching declared limits a, b in (0, 1]; the operator
then converges for every continuous f as soon as the four test errors

    |S(1) - 1|, |S(t1) - x1|, |S(t2) - x2|, |S(t1^2 + t2^2) - (x1^2 + x2^2)|

vanish uniformly.  korovkin_suite tabulates exactly those four sup errors
(via the verified closed moment forms, so rows for n = 512 cost the same as
n = 4); convergence_table tracks a single catalog function through the full
operator evaluation with the 4*omega_total bound alongside; empirical_order
fits the decay slope of any error column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .catalog import TestFunction
from .moments import delta, first_moment_univariate, second_moment_univariate
from .operators import AxisConfig, BivariateOperator, apply_on_grid, tabulate
from .pq_core import PQPair


@dataclass(frozen=True)
class AxisShape:
    """Per-axis parameters that stay fixed while n runs through a sequence."""

    l: int = 0
    alpha: float = 0.0
    beta: float = 0.0


@dataclass(frozen=True)
class SequenceSpec:
    """A parameter family n -> (p_n, q_n) with declared limits a, b for p_n^n, q_n^n."""

    name: str
    p_of: Callable[[int], float]
    q_of: Callable[[int], float]
    a: float
    b: float

    def pq_at(self, n: int) -> PQPair:
        """(p_n, q_n) as a validated pair; raises when the family leaves 0 < q < p <= 1."""
        try:
            return PQPair(self.p_of(n), self.q_of(n))
        except ValueError as exc:
            raise ValueError(f"family {self.name!r} invalid at n={n}: {exc}") from exc


def one_minus_c_over_n(c_p: float = 0.5, c_q: float = 1.0) -> SequenceSpec:
    """The family p_n = 1 - c_p/n, q_n = 1 - c_q/n with 0 <= c_p < c_q.

    Limits p_n^n -> exp(-c_p), q_n^n -> exp(-c_q); both are validated
    numerically at n = 10^6 to 1e-3 before the family is returned.
    """
    if not (0.0 <= c_p < c_q):
        raise ValueError(f"requires 0 <= c_p < c_q (got c_p={c_p}, c_q={c_q})")
    spec = SequenceSpec(
        name=f"one-minus-c-over-n(cp={c_p:g},cq={c_q:g})",
        p_of=lambda n: 1.0 - c_p / n,
        q_of=lambda n: 1.0 - c_q / n,
        a=math.exp(-c_p),
        b=math.exp(-c_q),
    )
    n_check = 10 ** 6
    for label, seq, lim in (("p_n^n", spec.p_of(n_check), spec.a),
                            ("q_n^n", spec.q_of(n_check), spec.b)):
        if abs(seq ** n_check - lim) > 1e-3:
            raise ValueError(
                f"declared limit for {label} off by more than 1e-3 at n={n_check}"
            )
    return spec


def tabulated_sequence(
    pairs: dict[int, tuple[float, float]], a: float, b: float, name: str = "tabulated"
) -> SequenceSpec:
    """A family given by an explicit table n -> (p_n, q_n).

    The limits a, b are declared, not checked: a finite table cannot be
    extrapolated.  Lookups outside the table raise.
    """
    if not pairs:
        raise ValueError("requires a nonempty table")
    table = {int(k): (float(p), float(q)) for k, (p, q) in pairs.items()}

    def pick(n: int, idx: int) -> float:
        if n not in table:
            raise ValueError(f"family {name!r} has no entry for n={n}")
        return table[n][idx]

    return SequenceSpec(
        name=name,
        p_of=lambda n: pick(n, 0),
        q_of=lambda n: pick(n, 1),
        a=a,
        b=b,
    )


def build_operator(
    spec: SequenceSpec,
    n: int,
    shape1: AxisShape,
    shape2: AxisShape,
    node_exponent: str = "canonical",
) -> BivariateOperator:
    pq = spec.pq_at(n)
    ax1 = AxisConfig(n=n, l=shape1.l, pq=pq, alpha=shape1.alpha, beta=shape1.beta,
                     node_exponent=node_exponent)
    ax2 = AxisConfig(n=n, l=shape2.l, pq=pq, alpha=shape2.alpha, beta=shape2.beta,
                     node_exponent=node_exponent)
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


@dataclass
class KorovkinTable:
    family: str
    grid_k: int
    shape1: AxisShape
    shape2: AxisShape
    rows: list[KorovkinRow] = field(default_factory=list)

    CSV_HEADER = ["n", "p", "q", "sup_e00", "sup_e10", "sup_e01", "sup_e20_e02"]

    def csv_rows(self) -> list[list]:
        return [
            [r.n, r.p, r.q, r.sup_e00, r.sup_e10, r.sup_e01, r.sup_e20_e02]
            for r in self.rows
        ]

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "grid_k": self.grid_k,
            "shape1": vars(self.shape1),
            "shape2": vars(self.shape2),
            "rows": [vars(r) for r in self.rows],
        }


def korovkin_suite(
    spec: SequenceSpec,
    n_list: Iterable[int],
    shape1: AxisShape = AxisShape(),
    shape2: AxisShape | None = None,
    grid_k: int = 41,
) -> KorovkinTable:
    """Sup errors of the four convergence test conditions per n.

    Both axes share n (the sweep convention); the moment layer itself
    supports n1 != n2.  Errors come from the closed moment forms, which the
    oracle comparison elsewhere certifies.
    """
    if shape2 is None:
        shape2 = shape1
    xs = np.linspace(0.0, 1.0, grid_k)
    table = KorovkinTable(spec.name, grid_k, shape1, shape2)
    for n in n_list:
        op = build_operator(spec, n, shape1, shape2)
        e10 = np.abs(first_moment_univariate(op.axis1, xs) - xs)
        e01 = np.abs(first_moment_univariate(op.axis2, xs) - xs)
        r1 = second_moment_univariate(op.axis1, xs) - xs ** 2
        r2 = second_moment_univariate(op.axis2, xs) - xs ** 2
        # partition of unity: the closed e00 is identically 1, sup error 0
        table.rows.append(KorovkinRow(
            n=n,
            p=op.axis1.pq.p,
            q=op.axis1.pq.q,
            sup_e00=0.0,
            sup_e10=float(np.max(e10)),
            sup_e01=float(np.max(e01)),
            sup_e20_e02=float(np.max(np.abs(r1[:, None] + r2[None, :]))),
        ))
    return table


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


@dataclass
class ConvergenceTable:
    family: str
    function: str
    grid_k: int
    shape1: AxisShape
    shape2: AxisShape
    rows: list[ConvergenceRow] = field(default_factory=list)

    CSV_HEADER = ["n", "p", "q", "sup_err", "worst_x1", "worst_x2", "bound_at_worst", "ratio"]

    def csv_rows(self) -> list[list]:
        out = []
        for r in self.rows:
            out.append([
                r.n, r.p, r.q, r.sup_err, r.worst_x1, r.worst_x2,
                "" if r.bound_at_worst is None else r.bound_at_worst,
                "" if r.ratio is None else r.ratio,
            ])
        return out

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "function": self.function,
            "grid_k": self.grid_k,
            "shape1": vars(self.shape1),
            "shape2": vars(self.shape2),
            "rows": [vars(r) for r in self.rows],
        }


def convergence_table(
    spec: SequenceSpec,
    f: TestFunction,
    n_list: Iterable[int],
    shape1: AxisShape = AxisShape(),
    shape2: AxisShape | None = None,
    grid_k: int = 41,
) -> ConvergenceTable:
    """Actual sup error of S_n(f) on [0,1]^2 per n, with the modulus bound alongside.

    The bound column is 4 omega_total at the worst grid point when f carries
    exact modulus metadata, else empty; ratio = sup_err / bound.
    """
    if shape2 is None:
        shape2 = shape1
    xs = np.linspace(0.0, 1.0, grid_k)
    f_grid = tabulate(f.fn, xs, xs)
    table = ConvergenceTable(spec.name, f.name, grid_k, shape1, shape2)
    for n in n_list:
        op = build_operator(spec, n, shape1, shape2)
        errs = np.abs(apply_on_grid(op, f.fn, xs, xs) - f_grid)
        flat = int(np.argmax(errs))
        i1, i2 = divmod(flat, len(xs))
        sup_err = float(errs[i1, i2])
        bound = None
        ratio = None
        if f.total_modulus is not None:
            d1 = delta(op, 1, float(xs[i1]))
            d2 = delta(op, 2, float(xs[i2]))
            bound = 4.0 * f.total_modulus(d1, d2)
            if bound > 0.0:
                ratio = sup_err / bound
        table.rows.append(ConvergenceRow(
            n=n, p=op.axis1.pq.p, q=op.axis1.pq.q, sup_err=sup_err,
            worst_x1=float(xs[i1]), worst_x2=float(xs[i2]),
            bound_at_worst=bound, ratio=ratio,
        ))
    return table


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
    """Least-squares slope of log(err) against log(n).

    Requires at least three points.  Any error at or below its roundoff
    floor ROUNDOFF_ULPS_PER_DEGREE * n * eps (zero included) short-circuits
    to -inf: the sequence is exact to machine precision and no finite decay
    order is meaningful.
    """
    pts = [(float(n), float(e)) for n, e in pairs]
    if len(pts) < 3:
        raise ValueError(f"requires at least 3 points (got {len(pts)})")
    eps = np.finfo(float).eps
    if any(e <= ROUNDOFF_ULPS_PER_DEGREE * n * eps for n, e in pts):
        return -math.inf
    log_n = np.log([n for n, _ in pts])
    log_e = np.log([e for _, e in pts])
    slope = np.polyfit(log_n, log_e, 1)[0]
    return float(slope)
