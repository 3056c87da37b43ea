"""Error-bound machinery: the quantitative total-modulus bound, Lipschitz
classes, and an upper estimate of the Peetre K-functional.

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
from typing import Sequence

import numpy as np

from .catalog import TestFunction
from .moments import delta, first_moment_univariate
from .operators import BivariateOperator, Factors, apply_bivariate, apply_on_grid, tabulate

BOUND_SLACK = 1e-11

# Points per axis of the K-functional's sup grid and of the Lipschitz pair
# grid, and the number of Lipschitz offenders reported.
_K_GRID = 101
_LIPSCHITZ_GRID = 21
_MAX_VIOLATIONS = 10


class MetadataError(ValueError):
    """A computation needed exact catalog metadata that the entry lacks."""


class MembershipError(ValueError):
    """A function failed the class-membership check required by a bound."""


def shift_point(op: BivariateOperator, x1: float, x2: float) -> tuple[float, float]:
    """The operator's first-moment image of (x1, x2); stays inside the node rectangle."""
    return (
        first_moment_univariate(op.axis1, x1),
        first_moment_univariate(op.axis2, x2),
    )


def auxiliary_apply(op: BivariateOperator, f: Factors, x1: float, x2: float) -> float:
    """Shift-corrected operator S(f) - f(P1, P2) + f(x1, x2).

    Built so that both centered coordinates are annihilated: applying it to
    t_i - x_i gives 0, and to constants gives the constant back.  f(P) and
    f(x) are summed over f's pairs in the tuple's order, as S(f) is.
    """
    p1, p2 = shift_point(op, x1, x2)
    f_p, f_x = (sum(g(a) * h(b) for g, h in f) for a, b in ((p1, p2), (x1, x2)))
    return apply_bivariate(op, f, x1, x2) - f_p + f_x


@dataclass(frozen=True)
class BoundResult:
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + BOUND_SLACK


def total_modulus_bound_grid(
    op: BivariateOperator, f: TestFunction, xs1, xs2
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized bound comparison on a product grid; returns (lhs, rhs) matrices."""
    if f.total_modulus is None:
        raise MetadataError(
            f"requires exact total_modulus metadata for {f.name!r}; "
            "grid estimates are not sound in a bound check"
        )
    s_grid = apply_on_grid(op, f.factors, xs1, xs2)
    lhs = np.abs(s_grid - tabulate(f.fn, xs1, xs2))
    d1s = delta(op.axis1, np.asarray(xs1, dtype=float))
    d2s = delta(op.axis2, np.asarray(xs2, dtype=float))
    rhs = 4.0 * tabulate(f.total_modulus, d1s, d2s)
    return lhs, rhs


def k_functional_upper(
    f: TestFunction,
    delta_arg: float,
    candidates: Sequence[TestFunction],
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
    xs = np.linspace(0.0, f.width1, _K_GRID)
    ys = np.linspace(0.0, f.width2, _K_GRID)
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

    def rhs(self, d1, d2, additive: bool = False):
        """M d1^g1 d2^g2, or M (d1^g1 + d2^g2) for the additive class.

        Floats go through Python's power and arrays through numpy's, as given.
        """
        g1 = d1 ** self.gamma1
        g2 = d2 ** self.gamma2
        return self.m_const * (g1 + g2) if additive else self.m_const * g1 * g2


def lipschitz_violations(
    f: TestFunction,
    spec: LipschitzSpec,
    additive: bool = False,
) -> list[tuple[tuple[float, float], tuple[float, float], float, float]]:
    """Membership check over all grid-pair combinations; returns violations.

    The pair grid contains pairs sharing a coordinate by construction, which
    is exactly where the product form collapses.  At most _MAX_VIOLATIONS
    offenders are returned, worst first.
    """
    xs = np.linspace(0.0, f.width1, _LIPSCHITZ_GRID)
    ys = np.linspace(0.0, f.width2, _LIPSCHITZ_GRID)
    px = np.repeat(xs, _LIPSCHITZ_GRID)
    py = np.tile(ys, _LIPSCHITZ_GRID)
    vals = tabulate(f.fn, xs, ys).ravel()
    d1 = np.abs(px[:, None] - px[None, :])
    d2 = np.abs(py[:, None] - py[None, :])
    lhs = np.abs(vals[:, None] - vals[None, :])
    rhs = spec.rhs(d1, d2, additive)
    excess = lhs - rhs
    bad = np.argwhere(excess > 1e-12)
    found = []
    for i, j in bad[np.argsort(-excess[tuple(bad.T)])][:_MAX_VIOLATIONS]:
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
) -> BoundResult:
    """Holder-type bound for class members, membership checked first.

    rhs = spec.rhs(d1, d2) with d_i = delta(axis_i, x_i), the square roots
    of the second central moments.  additive=True switches predicate and
    bound to the additive class M(|t1-x1|^g1 + |t2-x2|^g2), which admits sum;
    ACCEPTANCE lipschitz-collapse checks that sum's bound at (0.4, 0.6).
    """
    viols = lipschitz_violations(f, spec, additive=additive)
    if viols:
        a, b, lhs_v, rhs_v = viols[0]
        form = "additive" if additive else "product"
        raise MembershipError(
            f"{f.name!r} is not in the {form} Lipschitz class "
            f"(M={spec.m_const}, gammas=({spec.gamma1}, {spec.gamma2})): "
            f"|f{a} - f{b}| = {lhs_v:.6g} > {rhs_v:.6g}"
        )
    rhs = spec.rhs(delta(op.axis1, x1), delta(op.axis2, x2), additive)
    lhs = abs(apply_bivariate(op, f.factors, x1, x2) - f.fn(x1, x2))
    return BoundResult(lhs, rhs)
