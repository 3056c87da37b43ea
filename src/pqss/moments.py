"""Closed-form moments and the brute-force oracle that checks them.

The six monomial moments e_ij(t1, t2) = t1^i t2^j for (i, j) in
{(0,0), (1,0), (0,1), (1,1), (2,0), (0,2)} have closed forms under the
canonical node convention; per axis, with m = n + l and D = [n] + beta:

    S(1; x)   = 1
    S(t; x)   = ([m] x + alpha) / D
    S(t^2; x) = [m](p^{m-1} + 2 alpha) x / D^2 + q [m][m-1] x^2 / D^2
                + alpha^2 / D^2

and the second central moment S((t - x)^2; x) expands to the quadratic
A x^2 + B x + C with

    A = (q [m][m-1] - 2 [m] D + D^2) / D^2
    B = ([m](p^{m-1} + 2 alpha) - 2 alpha D) / D^2
    C = alpha^2 / D^2.

The oracle below recomputes everything as a literal double sum in plain
double precision: Pascal-recurrence binomials, cumulative-product rising
factors, Shewchuk-exact fsum accumulation.  It shares no code with the
log-space production path in operators.py, so agreement between the two is
meaningful evidence.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .operators import AxisConfig, BivariateOperator, nodes, tabulate
from .pq_core import PQPair, pq_integer
from .serialize import fmt_float

MOMENT_NAMES = (
    ("e00", 0, 0),
    ("e10", 1, 0),
    ("e01", 0, 1),
    ("e11", 1, 1),
    ("e20", 2, 0),
    ("e02", 0, 2),
)

_VALID_IJ = {(i, j) for _, i, j in MOMENT_NAMES}


def first_moment_univariate(axis: AxisConfig, x):
    """([m] x + alpha) / ([n] + beta); accepts scalars or arrays."""
    m = axis.degree
    den = pq_integer(axis.n, axis.pq) + axis.beta
    return (pq_integer(m, axis.pq) * x + axis.alpha) / den


def second_moment_univariate(axis: AxisConfig, x):
    """Closed second raw moment; accepts scalars or arrays."""
    p, q = axis.pq.p, axis.pq.q
    m = axis.degree
    den = pq_integer(axis.n, axis.pq) + axis.beta
    bm = pq_integer(m, axis.pq)
    bm1 = pq_integer(m - 1, axis.pq)
    return (
        bm * (p ** (m - 1) + 2.0 * axis.alpha) * x
        + q * bm * bm1 * x * x
        + axis.alpha ** 2
    ) / den ** 2


def central_second_coefficients(axis: AxisConfig) -> tuple[float, float, float]:
    """(A, B, C) of the central-moment quadratic A x^2 + B x + C."""
    p, q = axis.pq.p, axis.pq.q
    m = axis.degree
    den = pq_integer(axis.n, axis.pq) + axis.beta
    bm = pq_integer(m, axis.pq)
    bm1 = pq_integer(m - 1, axis.pq)
    a = (q * bm * bm1 - 2.0 * bm * den + den * den) / den ** 2
    b = (bm * (p ** (m - 1) + 2.0 * axis.alpha) - 2.0 * axis.alpha * den) / den ** 2
    c = axis.alpha ** 2 / den ** 2
    return a, b, c


def moment_closed(op: BivariateOperator, i: int, j: int, x1: float, x2: float) -> float:
    """Closed form of S(e_ij; x1, x2) for the six supported index pairs.

    Valid for canonical-node axes; for the literal node convention the first
    moments genuinely differ by p^l (see literal_first_moment_factor), which
    is exactly what verify surfaces.
    """
    if (i, j) not in _VALID_IJ:
        raise ValueError(
            f"requires (i, j) in {sorted(_VALID_IJ)} (got ({i}, {j}))"
        )
    if (i, j) == (0, 0):
        return 1.0
    if (i, j) == (1, 0):
        return first_moment_univariate(op.axis1, x1)
    if (i, j) == (0, 1):
        return first_moment_univariate(op.axis2, x2)
    if (i, j) == (1, 1):
        return first_moment_univariate(op.axis1, x1) * first_moment_univariate(op.axis2, x2)
    if (i, j) == (2, 0):
        return second_moment_univariate(op.axis1, x1)
    return second_moment_univariate(op.axis2, x2)


def central_moment_closed(op: BivariateOperator, axis_index: int, x1: float, x2: float):
    """S((t_i - x_i)^2; x1, x2) for axis_index in {1, 2}.

    Depends only on the matching coordinate (the other axis integrates to 1).
    """
    if axis_index == 1:
        a, b, c = central_second_coefficients(op.axis1)
        x = x1
    elif axis_index == 2:
        a, b, c = central_second_coefficients(op.axis2)
        x = x2
    else:
        raise ValueError(f"requires axis_index in (1, 2) (got {axis_index})")
    return (a * x + b) * x + c


def delta(op: BivariateOperator, axis_index: int, x: float) -> float:
    """sqrt of the second central moment along one axis.

    The closed quadratic is nonnegative on [0, 1] in exact arithmetic;
    roundoff dips down to -1e-13 are clamped to zero, anything lower raises.
    """
    if axis_index == 1:
        c = central_moment_closed(op, 1, x, 0.0)
    else:
        c = central_moment_closed(op, 2, 0.0, x)
    if c < 0.0:
        if c < -1e-13:
            raise ArithmeticError(
                f"central moment unexpectedly negative ({c}); config or closed form is wrong"
            )
        c = 0.0
    return math.sqrt(c)


@lru_cache(maxsize=512)
def _pascal_binomials(m: int, p: float, q: float) -> np.ndarray:
    """Row m of the (p,q)-Pascal triangle via C(r,k) = p^k C(r-1,k) + q^{r-k} C(r-1,k-1)."""
    row = np.array([1.0])
    for r in range(1, m + 1):
        new = np.zeros(r + 1)
        k_left = np.arange(r)
        new[:r] += p ** k_left.astype(float) * row
        k_right = np.arange(1, r + 1)
        new[1:] += q ** (r - k_right).astype(float) * row
        row = new
    row.setflags(write=False)
    return row


def oracle_weight_vector(axis: AxisConfig, x: float) -> np.ndarray:
    """Weights by the direct formula: Pascal binomials, cumprod rising factors.

    Deliberately independent of the log-space production path.  Double
    precision only; fine for the sweep sizes (m <= 28), not for m ~ 2000.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"requires x in [0, 1] (got x={x})")
    m = axis.degree
    p, q = axis.pq.p, axis.pq.q
    binom = _pascal_binomials(m, p, q)
    jj = np.arange(m).astype(float)
    factors = p ** jj - (q ** jj) * x
    rising = np.concatenate(([1.0], np.cumprod(factors)))
    nu = np.arange(m + 1)
    powers = p ** (0.5 * nu * (nu - 1) - 0.5 * m * (m - 1))
    return binom * powers * (x ** nu) * rising[::-1]


def moment_oracle(
    op: BivariateOperator, g: Callable[[float, float], float], x1: float, x2: float
) -> float:
    """Brute-force S(g; x1, x2) with no closed forms anywhere, fsum-accumulated."""
    samples = tabulate(g, nodes(op.axis1), nodes(op.axis2))
    w1 = oracle_weight_vector(op.axis1, x1)
    w2 = oracle_weight_vector(op.axis2, x2)
    terms = np.outer(w1, w2) * samples
    return math.fsum(terms.ravel().tolist())


def literal_first_moment_factor(axis: AxisConfig, x: float) -> float:
    """Measured ratio closed/literal of first-moment slopes; equals p^l.

    The literal node convention scales every node's bracket part by p^{-l},
    so the first moment picks up exactly that factor.  The constant alpha
    offset is removed by differencing against x = 0 (where both conventions
    give alpha/D exactly), then the slopes are compared.  The literal moment
    is measured with the oracle path, not assumed.
    """
    if not (0.0 < x <= 1.0):
        raise ValueError(f"requires x in (0, 1] (got x={x})")
    lit = dataclasses.replace(axis, node_exponent="literal")
    w = oracle_weight_vector(lit, x)
    t = nodes(lit)
    measured = math.fsum((w * t).tolist())
    den = pq_integer(axis.n, axis.pq) + axis.beta
    base = axis.alpha / den
    closed_slope = pq_integer(axis.degree, axis.pq) * x / den
    return closed_slope / (measured - base)


# ---------------------------------------------------------------------------
# Standard parameter sweep and the verification runner


SWEEP_N = (1, 2, 5, 10, 25)
SWEEP_L = (0, 1, 3)
SWEEP_PQ = ((1.0, 0.5), (0.9, 0.6), (0.99, 0.95))
SWEEP_AB = ((0.0, 0.0), (1.0, 2.0), (0.5, 0.5))


def standard_sweep(node_exponent: str = "canonical") -> list[BivariateOperator]:
    """All 135 sweep operators, both axes sharing the same parameters."""
    ops = []
    for n in SWEEP_N:
        for l in SWEEP_L:
            for p, q in SWEEP_PQ:
                for alpha, beta in SWEEP_AB:
                    axis = AxisConfig(
                        n=n, l=l, pq=PQPair(p, q), alpha=alpha, beta=beta,
                        node_exponent=node_exponent,
                    )
                    ops.append(BivariateOperator(axis, axis))
    return ops


def sweep_grid(k: int = 11) -> np.ndarray:
    return np.linspace(0.0, 1.0, k)


def axis_params(axis: AxisConfig) -> dict:
    return {
        "n": axis.n,
        "l": axis.l,
        "p": axis.pq.p,
        "q": axis.pq.q,
        "alpha": axis.alpha,
        "beta": axis.beta,
        "node_exponent": axis.node_exponent,
    }


@dataclass(frozen=True)
class MomentEntry:
    name: str
    closed: float
    oracle: float

    @property
    def absdiff(self) -> float:
        return abs(self.closed - self.oracle)


@dataclass(frozen=True)
class MomentReport:
    """Closed-vs-oracle comparison for one operator at its worst grid point."""

    op: BivariateOperator
    point: tuple[float, float]
    entries: tuple[MomentEntry, ...]

    @property
    def max_absdiff(self) -> float:
        return max(e.absdiff for e in self.entries)

    def to_json_obj(self) -> dict:
        return {
            "axis1": axis_params(self.op.axis1),
            "axis2": axis_params(self.op.axis2),
            "point": {"x1": self.point[0], "x2": self.point[1]},
            "entries": [
                {"name": e.name, "closed": e.closed, "oracle": e.oracle, "absdiff": e.absdiff}
                for e in self.entries
            ],
            "max_absdiff": self.max_absdiff,
        }


MOMENT_CSV_HEADER = [
    "n1", "l1", "p1", "q1", "alpha1", "beta1",
    "n2", "l2", "p2", "q2", "alpha2", "beta2",
    "node_exponent", "x1", "x2", "name", "closed", "oracle", "absdiff",
]


def moment_csv_rows(reports: list[MomentReport]) -> list[list]:
    rows = []
    for r in reports:
        a1, a2 = r.op.axis1, r.op.axis2
        for e in r.entries:
            rows.append([
                a1.n, a1.l, a1.pq.p, a1.pq.q, a1.alpha, a1.beta,
                a2.n, a2.l, a2.pq.p, a2.pq.q, a2.alpha, a2.beta,
                a1.node_exponent, r.point[0], r.point[1],
                e.name, e.closed, e.oracle, e.absdiff,
            ])
    return rows


@dataclass
class VerifyResult:
    tolerance: float
    n_checks: int = 0
    reports: list[MomentReport] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_moments(
    ops: list[BivariateOperator] | None = None,
    xs=None,
    tolerance: float = 1e-10,
) -> VerifyResult:
    """Compare every closed moment against the oracle across a grid.

    Checks the six monomial moments plus both second central moments at each
    grid point; |closed - oracle| must stay within tolerance * max(1, |oracle|).
    Keeps one report per operator, taken at its worst point.
    """
    if ops is None:
        ops = standard_sweep()
    if xs is None:
        xs = sweep_grid()
    result = VerifyResult(tolerance=tolerance)
    for op in ops:
        t1 = nodes(op.axis1)
        t2 = nodes(op.axis2)
        ones1 = np.ones_like(t1)
        ones2 = np.ones_like(t2)
        mono_samples = [
            (name, np.outer(t1 ** i, t2 ** j)) for name, i, j in MOMENT_NAMES
        ]
        w1s = [oracle_weight_vector(op.axis1, x) for x in xs]
        w2s = [oracle_weight_vector(op.axis2, x) for x in xs]
        worst: MomentReport | None = None
        for i1, x1 in enumerate(xs):
            for i2, x2 in enumerate(xs):
                outer = np.outer(w1s[i1], w2s[i2])
                entries = []
                for (name, i, j), (_, samples) in zip(MOMENT_NAMES, mono_samples):
                    closed = moment_closed(op, i, j, x1, x2)
                    oracle = math.fsum((outer * samples).ravel().tolist())
                    entries.append(MomentEntry(name, closed, oracle))
                c1_samples = np.outer((t1 - x1) ** 2, ones2)
                c2_samples = np.outer(ones1, (t2 - x2) ** 2)
                entries.append(MomentEntry(
                    "central1",
                    central_moment_closed(op, 1, x1, x2),
                    math.fsum((outer * c1_samples).ravel().tolist()),
                ))
                entries.append(MomentEntry(
                    "central2",
                    central_moment_closed(op, 2, x1, x2),
                    math.fsum((outer * c2_samples).ravel().tolist()),
                ))
                result.n_checks += len(entries)
                report = MomentReport(op, (float(x1), float(x2)), tuple(entries))
                if worst is None or report.max_absdiff > worst.max_absdiff:
                    worst = report
                for e in entries:
                    if e.absdiff > tolerance * max(1.0, abs(e.oracle)):
                        result.failures.append(
                            f"{e.name} closed={fmt_float(e.closed)} oracle={fmt_float(e.oracle)} "
                            f"absdiff={e.absdiff:.3e} at (x1={x1}, x2={x2}) for "
                            f"axis1={axis_params(op.axis1)} axis2={axis_params(op.axis2)}"
                        )
        result.reports.append(worst)
    return result
