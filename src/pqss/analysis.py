"""Error-bound machinery: moduli of continuity, the quantitative bound,
Lipschitz classes, and the report-only K-functional estimates.

The central quantitative statement is

    |S(f; x1, x2) - f(x1, x2)| <= 4 omega_total(f; delta1(x1), delta2(x2)),

where delta_i(x_i) is the square root of the second central moment along
axis i.  It holds for every f continuous on the node rectangle, which makes
it checkable over the whole catalog; checks use the exact modulus metadata,
never grid estimates (those are lower estimates and could hide a violation).

Floating-point comparisons of a true real-number inequality need an
allowance: for the constant function the right side is exactly 0 while the
left side is pure roundoff from the weight summation (~1e-14).  BOUND_SLACK
is that allowance, matching the absolute tolerance the zero identities of
the auxiliary operator get elsewhere.  Real margins in non-degenerate cases
sit orders of magnitude above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .catalog import TestFunction, grid_modulus_estimate
from .moments import central_moment_closed, delta, first_moment_univariate
from .operators import BivariateOperator, GridFn, apply_bivariate, apply_on_grid, tabulate

BOUND_SLACK = 1e-11


class MetadataError(ValueError):
    """A computation needed exact catalog metadata that the entry lacks."""


class MembershipError(ValueError):
    """A function failed the class-membership check required by a bound."""


class ModulusValue(NamedTuple):
    value: float
    exact: bool


def total_modulus(
    f: TestFunction, delta1: float, delta2: float, grid_k: int = 101
) -> ModulusValue:
    """omega_total(f; delta1, delta2), exact when the catalog carries it.

    Falls back to a grid lower estimate flagged exact=False; callers that
    need a guaranteed value must check the flag.
    """
    if f.total_modulus is not None:
        return ModulusValue(f.total_modulus(delta1, delta2), True)
    est = grid_modulus_estimate(f.fn, f.width1, f.width2, delta1, delta2, grid_k)
    return ModulusValue(est, False)


def second_modulus(
    f1d: Callable[[float], float],
    delta: float,
    lo: float = 0.0,
    hi: float = 1.0,
    grid_k: int = 101,
) -> float:
    """Grid estimate of the second-order modulus of a univariate function.

    sup over 0 < h <= delta and x with x + 2h <= hi of
    |f(x + 2h) - 2 f(x + h) + f(x)|.  Affine functions give 0.  f1d
    broadcasts over an array of x, like a GridFn with one argument fixed.
    """
    if delta < 0.0:
        raise ValueError(f"requires delta >= 0 (got {delta})")
    if hi <= lo:
        raise ValueError(f"requires hi > lo (got lo={lo}, hi={hi})")
    h_top = min(delta, (hi - lo) / 2.0)
    if h_top <= 0.0:
        return 0.0
    best = 0.0
    for h in np.linspace(0.0, h_top, grid_k)[1:]:
        xs = np.linspace(lo, hi - 2.0 * h, grid_k)
        v = np.abs(f1d(xs + 2.0 * h) - 2.0 * f1d(xs + h) + f1d(xs))
        best = max(best, float(np.max(v)))
    return best


def shift_point(op: BivariateOperator, x1: float, x2: float) -> tuple[float, float]:
    """The operator's first-moment image of (x1, x2); stays inside the node rectangle."""
    return (
        first_moment_univariate(op.axis1, x1),
        first_moment_univariate(op.axis2, x2),
    )


def auxiliary_apply(op: BivariateOperator, f: GridFn, x1: float, x2: float) -> float:
    """Shift-corrected operator S(f) - f(P1, P2) + f(x1, x2).

    Built so that both centered coordinates are annihilated: applying it to
    t_i - x_i gives 0, and to constants gives the constant back.
    """
    p1, p2 = shift_point(op, x1, x2)
    return apply_bivariate(op, f, x1, x2) - f(p1, p2) + f(x1, x2)


@dataclass(frozen=True)
class BoundResult:
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + BOUND_SLACK


def total_modulus_bound(
    op: BivariateOperator, f: TestFunction, x1: float, x2: float
) -> BoundResult:
    """lhs = |S(f) - f| against rhs = 4 omega_total(f; delta1, delta2).

    Refuses functions without exact modulus metadata: a grid estimate is a
    lower estimate, so substituting it could both fake and mask violations.
    """
    if f.total_modulus is None:
        raise MetadataError(
            f"requires exact total_modulus metadata for {f.name!r}; "
            "grid estimates are not sound in a bound check"
        )
    d1 = delta(op, 1, x1)
    d2 = delta(op, 2, x2)
    lhs = abs(apply_bivariate(op, f.fn, x1, x2) - f.fn(x1, x2))
    return BoundResult(lhs, 4.0 * f.total_modulus(d1, d2))


def total_modulus_bound_grid(
    op: BivariateOperator, f: TestFunction, xs1, xs2
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized bound comparison on a product grid; returns (lhs, rhs) matrices."""
    if f.total_modulus is None:
        raise MetadataError(
            f"requires exact total_modulus metadata for {f.name!r}; "
            "grid estimates are not sound in a bound check"
        )
    s_grid = apply_on_grid(op, f.fn, xs1, xs2)
    lhs = np.abs(s_grid - tabulate(f.fn, xs1, xs2))
    d1s = delta(op, 1, np.asarray(xs1, dtype=float))
    d2s = delta(op, 2, np.asarray(xs2, dtype=float))
    rhs = 4.0 * tabulate(f.total_modulus, d1s, d2s)
    return lhs, rhs


def k_functional_upper(
    f: TestFunction,
    delta_arg: float,
    candidates: Sequence[TestFunction],
    grid_k: int = 101,
) -> float:
    """Upper estimate of the Peetre K-functional at delta_arg.

    min over candidates g of sup|f - g| + delta_arg * ||g||_CB2; an upper
    estimate because the inf over all C^2 functions can only be smaller.
    Candidates must share f's rectangle and carry cb2_norm.
    """
    if delta_arg < 0.0:
        raise ValueError(f"requires delta_arg >= 0 (got {delta_arg})")
    if not candidates:
        raise ValueError("requires a nonempty candidate set")
    xs = np.linspace(0.0, f.width1, grid_k)
    ys = np.linspace(0.0, f.width2, grid_k)
    f_grid = tabulate(f.fn, xs, ys)
    best = math.inf
    for g in candidates:
        if g.cb2_norm is None:
            raise MetadataError(f"requires cb2_norm metadata for candidate {g.name!r}")
        if (g.width1, g.width2) != (f.width1, f.width2):
            raise ValueError(
                f"requires candidates on the same rectangle (got {g.name!r} on "
                f"[0,{g.width1}]x[0,{g.width2}] vs [0,{f.width1}]x[0,{f.width2}])"
            )
        est = float(np.max(np.abs(f_grid - tabulate(g.fn, xs, ys)))) + delta_arg * g.cb2_norm
        best = min(best, est)
    return best


@dataclass(frozen=True)
class LipschitzSpec:
    """Product-form class: |f(t) - f(x)| <= M |t1-x1|^g1 |t2-x2|^g2.

    Taken literally this class contains only constants: pick t2 = x2 and the
    right side vanishes while t1 roams free.  The membership checker makes
    that visible instead of papering over it.
    """

    m_const: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        if not self.m_const > 0.0:
            raise ValueError(f"requires M > 0 (got {self.m_const})")
        for g in (self.gamma1, self.gamma2):
            if not (0.0 < g <= 1.0):
                raise ValueError(f"requires gamma in (0, 1] (got {g})")


def lipschitz_violations(
    f: TestFunction,
    spec: LipschitzSpec,
    grid_k: int = 21,
    additive: bool = False,
    cap: int = 10,
) -> list[tuple[tuple[float, float], tuple[float, float], float, float]]:
    """Membership check over all grid-pair combinations; returns violations.

    The pair grid contains pairs sharing a coordinate by construction, which
    is exactly where the product form collapses.  At most `cap` offenders
    are returned, worst first.
    """
    xs = np.linspace(0.0, f.width1, grid_k)
    ys = np.linspace(0.0, f.width2, grid_k)
    px = np.repeat(xs, grid_k)
    py = np.tile(ys, grid_k)
    vals = tabulate(f.fn, xs, ys).ravel()
    d1 = np.abs(px[:, None] - px[None, :])
    d2 = np.abs(py[:, None] - py[None, :])
    lhs = np.abs(vals[:, None] - vals[None, :])
    g1 = d1 ** spec.gamma1
    g2 = d2 ** spec.gamma2
    rhs = spec.m_const * (g1 + g2) if additive else spec.m_const * g1 * g2
    excess = lhs - rhs
    bad = np.argwhere(excess > 1e-12)
    found = []
    for i, j in bad[np.argsort(-excess[tuple(bad.T)])][: cap]:
        found.append((
            (float(px[i]), float(py[i])),
            (float(px[j]), float(py[j])),
            float(lhs[i, j]),
            float(rhs[i, j]),
        ))
    return found


def lipschitz_bound(
    op: BivariateOperator,
    f: TestFunction,
    spec: LipschitzSpec,
    x1: float,
    x2: float,
    additive: bool = False,
    membership_grid_k: int = 21,
) -> BoundResult:
    """Holder-type bound for class members, membership checked first.

    Product form: rhs = M c1^{g1/2} c2^{g2/2} with c_i the second central
    moments.  additive=True switches predicate and bound to the additive
    class M(|t1-x1|^g1 + |t2-x2|^g2) with rhs = M(c1^{g1/2} + c2^{g2/2});
    experimental extension, not part of the verified bound set.
    """
    viols = lipschitz_violations(f, spec, membership_grid_k, additive=additive)
    if viols:
        a, b, lhs_v, rhs_v = viols[0]
        form = "additive" if additive else "product"
        raise MembershipError(
            f"{f.name!r} is not in the {form} Lipschitz class "
            f"(M={spec.m_const}, gammas=({spec.gamma1}, {spec.gamma2})): "
            f"|f{a} - f{b}| = {lhs_v:.6g} > {rhs_v:.6g}"
        )
    c1 = central_moment_closed(op, 1, x1, x2)
    c2 = central_moment_closed(op, 2, x1, x2)
    c1 = max(c1, 0.0)
    c2 = max(c2, 0.0)
    if additive:
        rhs = spec.m_const * (c1 ** (spec.gamma1 / 2.0) + c2 ** (spec.gamma2 / 2.0))
    else:
        rhs = spec.m_const * c1 ** (spec.gamma1 / 2.0) * c2 ** (spec.gamma2 / 2.0)
    lhs = abs(apply_bivariate(op, f.fn, x1, x2) - f.fn(x1, x2))
    return BoundResult(lhs, rhs)


def local_smoothness_report(
    op: BivariateOperator,
    f: TestFunction,
    x1: float,
    x2: float,
    candidates: Sequence[TestFunction] | None = None,
    grid_k: int = 101,
) -> dict:
    """Observational smoothness diagnostics at one point; nothing asserted.

    Collects the actual error, the central-moment scales, a K-functional
    upper estimate at the shift-corrected argument (c1 + c2 + r^2)/4 with r
    the first-moment shift radius, the shifted-argument modulus evaluated as
    omega_total(f; r, r), and per-axis second-modulus estimates taken on the
    coordinate slices through (x1, x2).  Every entry is an estimate or an
    observation; none is a verified inequality.
    """
    lhs = abs(apply_bivariate(op, f.fn, x1, x2) - f.fn(x1, x2))
    c1 = max(central_moment_closed(op, 1, x1, x2), 0.0)
    c2 = max(central_moment_closed(op, 2, x1, x2), 0.0)
    p1, p2 = shift_point(op, x1, x2)
    r = math.hypot(p1 - x1, p2 - x2)
    omega_shift = total_modulus(f, r, r, grid_k=max(41, grid_k // 2))
    report = {
        "lhs": lhs,
        "delta1": math.sqrt(c1),
        "delta2": math.sqrt(c2),
        "central_sum": c1 + c2,
        "shift_radius": r,
        "k_argument": (c1 + c2 + r * r) / 4.0,
        "omega_shift": omega_shift.value,
        "omega_shift_exact": omega_shift.exact,
        "omega2_axis1": second_modulus(
            lambda t: f.fn(t, x2), math.sqrt(c1 + c2) / 2.0, 0.0, f.width1, grid_k
        ),
        "omega2_axis2": second_modulus(
            lambda t: f.fn(x1, t), math.sqrt(c1 + c2) / 2.0, 0.0, f.width2, grid_k
        ),
    }
    if candidates:
        k_up = k_functional_upper(f, report["k_argument"], candidates, grid_k)
        report["k_upper"] = k_up
        report["k_line_rhs"] = 4.0 * k_up + omega_shift.value
        report["k_line_observed_ok"] = lhs <= report["k_line_rhs"] + BOUND_SLACK
    return report
