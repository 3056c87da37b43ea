"""Closed-form moments and the brute-force oracle that checks them.

The six monomial moments e_ij(t1, t2) = t1^i t2^j for (i, j) in
{(0,0), (1,0), (0,1), (1,1), (2,0), (0,2)} have closed forms under the
canonical node convention.  Each axis is the q-Bernstein operator at r = q/p
composed with t = A u + B (operators._affine), and that operator reproduces
linear functions and maps u^2 to x^2 + x (1 - x) / [m]_r (Phillips 1997);
per axis, with m = n + l, D = [n] + beta, A = p^(m-1) [m]_r / D and B = alpha / D:

    S(1; x)   = 1
    S(t; x)   = A x + B = ([m] x + alpha) / D
    S(t^2; x) = A^2 (x^2 + x (1 - x) / [m]_r) + 2 A B x + B^2

and, with gap = [m] - D = q^n [l] + (p^l - 1)[n] - beta (from [n + l] =
p^l [n] + q^n [l], so no nearby values are subtracted), the shift and the
central moment, a square plus a term that is nonnegative on [0, 1]:

    S(t; x) - x       = (gap x + alpha) / D
    S((t - x)^2; x)   = (S(t; x) - x)^2 + A^2 x (1 - x) / [m]_r.

Only the shift divides by D, and it refuses a D that is not a normal double
(beta = 0 with [n] below the normal range).

The oracle below recomputes everything as a literal sum: weights by the direct
formula in stdlib decimal at 60 digits, each rounded once to a double, with no
overflow at any degree, summed by Shewchuk-exact fsum: one call per stack of
tables to the compiled kernel in _clibm, which forms each product term as it
adds it and gives math.fsum's bits, with math.fsum itself as the fallback.  It
shares no code with the log-space production path in operators.py, so
agreement between the two is meaningful evidence.
moment_oracle sums a stack of node tables over a product grid;
verify_moments and `pqss eval --oracle` both call it.
"""

from __future__ import annotations

import dataclasses
import decimal
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _clibm
from .operators import AxisConfig, BivariateOperator, _affine, nodes
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


@lru_cache(maxsize=256)  # the sweep's 135 axes fit
def _coefficients(axis: AxisConfig) -> tuple[float, float, float, float, float]:
    """(A, B, [m]_r, gap, D) of one axis's canonical nodes t = A u + B, with
    m = n + l, D = [n] + beta and gap = [m] - D = q^n [l] + expm1(l log p) [n]
    - beta; cached, as every closed form of an axis starts from them."""
    a, b, bm = _affine(dataclasses.replace(axis, node_exponent="canonical"))
    p, q, bn = axis.pq.p, axis.pq.q, pq_integer(axis.n, axis.pq)
    gap = q ** axis.n * pq_integer(axis.l, axis.pq) + math.expm1(axis.l * math.log(p)) * bn
    return a, b, bm, gap - axis.beta, bn + axis.beta


def first_moment_univariate(axis: AxisConfig, x):
    """A x + B = ([m] x + alpha) / ([n] + beta); accepts scalars or arrays."""
    a, b, _, _, _ = _coefficients(axis)
    return a * x + b


def first_moment_shift(axis: AxisConfig, x):
    """S(t; x) - x = (gap x + alpha) / D, with no cancellation; scalars or arrays.

    The one closed form that divides by D = [n] + beta: it refuses a D that is
    not a normal double, which takes beta = 0 (or below the normal range) and
    [n] below the normal range, where gap would lose its bits too.
    """
    _, _, _, gap, den = _coefficients(axis)
    if not den >= sys.float_info.min:
        raise ValueError(f"requires [n] + beta to be a normal double (got [n] + beta = {den!r} "
                         f"at n={axis.n}, p={axis.pq.p}, q={axis.pq.q}, beta={axis.beta!r})")
    return (gap * x + axis.alpha) / den


def second_moment_univariate(axis: AxisConfig, x):
    """A^2 (x^2 + x (1 - x) / [m]_r) + 2 A B x + B^2; accepts scalars or arrays."""
    a, b, bm, _, _ = _coefficients(axis)
    return a * a * (x * x + x * (1.0 - x) / bm) + 2.0 * a * b * x + b * b


def _raw_moment(axis: AxisConfig, k: int, x):
    """S(t^k; x) on one axis for k in (0, 1, 2); accepts scalars or arrays."""
    if k == 0:
        return 1.0
    if k == 1:
        return first_moment_univariate(axis, x)
    return second_moment_univariate(axis, x)


def central_moment(axis: AxisConfig, x):
    """Closed S((t - x)^2; x) = shift^2 + A^2 x (1 - x) / [m]_r on one axis, with
    shift = first_moment_shift; scalars or arrays.  Both terms are >= 0 on [0, 1]."""
    a, _, bm, _, _ = _coefficients(axis)
    shift = first_moment_shift(axis, x)
    return shift * shift + a * a * x * (1.0 - x) / bm


def moment_closed(op: BivariateOperator, i: int, j: int, x1: float, x2: float) -> float:
    """Closed form of S(e_ij; x1, x2) for the six supported index pairs.

    The operator is a tensor product, so S(t1^i t2^j; x1, x2) is
    S1(t^i; x1) * S2(t^j; x2), each factor taken from its own axis (the
    factor for exponent 0 is exactly 1.0, which keeps every bit of the other).
    Valid for canonical-node axes; for the literal node convention the first
    moments genuinely differ by p^l (see literal_first_moment_factor), which
    is exactly what verify surfaces.
    """
    if (i, j) not in _VALID_IJ:
        raise ValueError(
            f"requires (i, j) in {sorted(_VALID_IJ)} (got ({i}, {j}))"
        )
    return _raw_moment(op.axis1, i, x1) * _raw_moment(op.axis2, j, x2)


def delta(axis: AxisConfig, x):
    """sqrt of one axis's second central moment, at a scalar or an array x in [0, 1].

    central_moment's two terms are nonnegative there, so no value needs a
    clamp; outside [0, 1] (or at nan) it raises, as weight_matrix does.  A
    scalar x gives a float.
    """
    xs = np.asarray(x, dtype=float)
    outside = ~((0.0 <= xs) & (xs <= 1.0))
    if outside.any():
        raise ValueError(f"requires x in [0, 1] (got x={xs[outside][0]})")
    d = np.sqrt(central_moment(axis, xs))
    return float(d) if d.ndim == 0 else d


_ORACLE_DIGITS = 60  # the sweep's rows round to the same doubles at twice as many digits
_ORACLE_CONTEXT = decimal.Context(prec=_ORACLE_DIGITS, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _decimal_row(m: int, p, q, x) -> list[decimal.Decimal]:
    """s_0(x)..s_m(x) by the direct formula in decimal, with p, q and x (floats
    or Decimals) taken exactly.

    [k]! = prod (p^j - q^j)/(p - q); the rising factors p^j - q^j x and the
    powers x^nu, p^(nu(nu-1)/2) are running products (decimal 0 ** 0 raises)."""
    with decimal.localcontext(_ORACLE_CONTEXT):
        p, q, x = map(decimal.Decimal, (p, q, x))
        fact, rising, x_pow, p_pow = ([decimal.Decimal(1)] for _ in range(4))
        p_j = q_j = fact[0]
        for _ in range(m):
            rising.append(rising[-1] * (p_j - q_j * x))
            x_pow.append(x_pow[-1] * x)
            p_pow.append(p_pow[-1] * p_j)
            p_j, q_j = p_j * p, q_j * q
            fact.append(fact[-1] * (p_j - q_j) / (p - q))
        lead = fact[m] / p_pow[m]
        return [lead / (fact[nu] * fact[m - nu]) * p_pow[nu] * x_pow[nu] * rising[m - nu]
                for nu in range(m + 1)]


@lru_cache(maxsize=512)
def _oracle_row(m: int, p: float, q: float, x: float) -> np.ndarray:
    """_decimal_row with each weight rounded once by float(), read-only."""
    row = np.array([float(w) for w in _decimal_row(m, p, q, x)])
    row.setflags(write=False)
    return row


def oracle_weight_vector(axis: AxisConfig, x: float) -> np.ndarray:
    """The oracle's weight row at x, read-only; rows are cached per (m, p, q, x)."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"requires x in [0, 1] (got x={x})")
    return _oracle_row(axis.degree, axis.pq.p, axis.pq.q, float(x))


def moment_oracle(op: BivariateOperator, tables, xs1, xs2) -> np.ndarray:
    """Brute-force S(T; x1, x2), shape (len(tables), len(xs1), len(xs2)).

    Each table broadcasts to (len(xs1), len(xs2), m1 + 1, m2 + 1): a node
    table such as sample_at_nodes(op, f) or t1[:, None], a per-point one such
    as ((t1 - xs1[:, None])**2)[:, None, :, None], or a 0-d 1.0.  Each entry
    is one fsum of (w1[a] * w2[b]) * T[a, b]; the whole stack is one call to
    _clibm.oracle_sums.
    """
    xs1 = np.asarray(xs1, dtype=float)
    xs2 = np.asarray(xs2, dtype=float)
    w1s, w2s = (np.array([oracle_weight_vector(axis, x) for x in xs])
                .reshape(xs.size, axis.degree + 1) for axis, xs in ((op.axis1, xs1), (op.axis2, xs2)))
    return _clibm.oracle_sums(w1s, w2s, tables)


def literal_first_moment_factor(axis: AxisConfig, x: float) -> float:
    """Measured ratio closed/literal of first-moment slopes; equals p^l.

    The literal node convention scales every node's bracket part by p^{-l},
    so the first moment picks up exactly that factor.  The constant alpha
    offset is removed by differencing against x = 0 (where both conventions
    give alpha/D exactly), then the slopes are compared.  The literal moment
    is measured as the fsum of the oracle's weights times the literal nodes,
    not assumed.  Where the literal slope is below one ulp of alpha/D, there
    is no slope to compare, and the axis is refused.
    """
    if not (0.0 < x <= 1.0):
        raise ValueError(f"requires x in (0, 1] (got x={x})")
    lit = dataclasses.replace(axis, node_exponent="literal")
    measured = math.fsum((oracle_weight_vector(lit, x) * nodes(lit)).tolist())
    a, base, _, _, _ = _coefficients(axis)
    closed_slope = a * x
    if measured == base:
        raise ValueError(f"requires a literal first moment that differs from alpha/D at x={x} "
                         f"(both are {base!r} on {axis})")
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


# An axis's parameters, in the order of the reports' axis columns
_AXIS_COLUMNS = ("n", "l", "p", "q", "alpha", "beta")


def axis_params(axis: AxisConfig) -> dict:
    values = (axis.n, axis.l, axis.pq.p, axis.pq.q, axis.alpha, axis.beta)
    return {**dict(zip(_AXIS_COLUMNS, values)), "node_exponent": axis.node_exponent}


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
    *(f"{name}{i}" for i in (1, 2) for name in _AXIS_COLUMNS),
    "node_exponent", "x1", "x2", "name", "closed", "oracle", "absdiff",
]


def moment_csv_rows(reports: list[MomentReport]) -> list[list]:
    rows = []
    for r in reports:
        a1, a2 = axis_params(r.op.axis1), axis_params(r.op.axis2)
        axes = [a[name] for a in (a1, a2) for name in _AXIS_COLUMNS]
        for e in r.entries:
            rows.append([*axes, a1["node_exponent"], *r.point,
                         e.name, e.closed, e.oracle, e.absdiff])
    return rows


@dataclass
class VerifyResult:
    n_checks: int = 0
    reports: list[MomentReport] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_moments(
    ops: list[BivariateOperator],
    xs,
    tolerance: float = 1e-10,
) -> VerifyResult:
    """Compare every closed moment against the oracle across a grid.

    Checks the six monomial moments plus both second central moments at each
    grid point; |closed - oracle| must stay within tolerance * max(1, |oracle|).
    Failures are listed point by point (row-major), moment by moment.  Keeps
    one report per operator, at the first point whose largest absdiff is the
    largest.
    """
    result = VerifyResult()
    xs = np.asarray(xs, dtype=float)
    x1s, x2s = xs[:, None], xs[None, :]
    names = [name for name, _, _ in MOMENT_NAMES] + ["central1", "central2"]
    for op in ops:
        closed = np.empty((len(names), xs.size, xs.size))
        values = [moment_closed(op, i, j, x1s, x2s) for _, i, j in MOMENT_NAMES] + [
            central_moment(op.axis1, x1s), central_moment(op.axis2, x2s)]
        for row, value in zip(closed, values):
            row[...] = value
        # t1^i t2^j broadcast from each axis's powers: only e11's spans both axes
        t1, t2 = nodes(op.axis1), nodes(op.axis2)
        powers1, powers2 = (1.0, t1[:, None], (t1 ** 2)[:, None]), (1.0, t2, t2 ** 2)
        tables = [powers1[i] * powers2[j] for _, i, j in MOMENT_NAMES] + [
            ((t1 - xs[:, None]) ** 2)[:, None, :, None],
            ((t2 - xs[:, None]) ** 2)[None, :, None, :],
        ]
        oracle = moment_oracle(op, tables, xs, xs)
        absdiff = np.abs(closed - oracle)
        result.n_checks += absdiff.size
        bad = absdiff > tolerance * np.maximum(1.0, np.abs(oracle))
        for i1, i2, k in np.argwhere(bad.transpose(1, 2, 0)):
            result.failures.append(
                f"{names[k]} closed={fmt_float(closed[k, i1, i2])} "
                f"oracle={fmt_float(oracle[k, i1, i2])} absdiff={absdiff[k, i1, i2]:.3e} "
                f"at (x1={xs[i1]}, x2={xs[i2]}) for "
                f"axis1={axis_params(op.axis1)} axis2={axis_params(op.axis2)}"
            )
        i1, i2 = divmod(int(np.argmax(absdiff.max(axis=0))), xs.size)
        entries = tuple(
            MomentEntry(name, closed[k, i1, i2], float(oracle[k, i1, i2]))
            for k, name in enumerate(names)
        )
        result.reports.append(MomentReport(op, (float(xs[i1]), float(xs[i2])), entries))
    return result
