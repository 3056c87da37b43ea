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

from .catalog import TestFunction, pair_table
from .moments import delta, first_moment_univariate
from .operators import BivariateOperator, Factors, GridFn, apply_bivariate, apply_on_grid, tabulate

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


def auxiliary_apply(op: BivariateOperator, f: Factors, x1: float, x2: float) -> float:
    """Shift-corrected operator S(f) - f(P1, P2) + f(x1, x2).

    Built so that both centered coordinates are annihilated: applying it to
    t_i - x_i gives 0, and to constants gives the constant back.  f(P) and
    f(x) are summed over f's pairs in the tuple's order, as S(f) is.
    """
    p1, p2 = first_moment_univariate(op.axis1, x1), first_moment_univariate(op.axis2, x2)
    f_p, f_x = (sum(g(a) * h(b) for g, h in f) for a, b in ((p1, p2), (x1, x2)))
    return apply_bivariate(op, f, x1, x2) - f_p + f_x


def error_grid(op: BivariateOperator, f: TestFunction, xs1, xs2) -> np.ndarray:
    """|S(f) - f| on the product grid, E[i, j] at (xs1[i], xs2[j])."""
    return np.abs(apply_on_grid(op, f.factors, xs1, xs2) - tabulate(f.fn, xs1, xs2))


def _bound_grid(
    op: BivariateOperator, f: TestFunction, xs1, xs2, bound: GridFn
) -> tuple[np.ndarray, np.ndarray]:
    """(|S(f) - f|, bound(delta1(x1), delta2(x2))) on the product grid; delta
    is evaluated once per axis, on that axis's own points."""
    lhs = error_grid(op, f, xs1, xs2)
    return lhs, tabulate(bound, delta(op.axis1, xs1), delta(op.axis2, xs2))


def total_modulus_bound_grid(
    op: BivariateOperator, f: TestFunction, xs1, xs2
) -> tuple[np.ndarray, np.ndarray]:
    """The 4 omega_total bound on a product grid; returns (lhs, rhs) matrices."""
    if f.total_modulus is None:
        raise MetadataError(
            f"requires exact total_modulus metadata for {f.name!r}; "
            "grid estimates are not sound in a bound check"
        )
    lhs, omega = _bound_grid(op, f, xs1, xs2, f.total_modulus)
    return lhs, 4.0 * omega


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
    """Product-form class: |f(t) - f(x)| <= M |t1-x1|^g1 |t2-x2|^g2, or with
    additive=True the additive class M (|t1-x1|^g1 + |t2-x2|^g2).

    Taken literally the product class contains only constants: pick t2 = x2
    and the right side vanishes while t1 roams free.  The membership checker
    makes that visible instead of papering over it.  The additive class
    admits sum.
    """

    m_const: float
    gamma1: float
    gamma2: float
    additive: bool = False

    def __post_init__(self):
        if not self.m_const > 0.0:
            raise ValueError(f"requires M > 0 (got {self.m_const})")
        for g in (self.gamma1, self.gamma2):
            if not (0.0 < g <= 1.0):
                raise ValueError(f"requires gamma in (0, 1] (got {g})")

    def rhs(self, d1, d2):
        """M d1^g1 d2^g2, or M (d1^g1 + d2^g2) for the additive class.

        Floats go through Python's power and arrays through numpy's, as given.
        """
        g1 = d1 ** self.gamma1
        g2 = d2 ** self.gamma2
        return self.m_const * (g1 + g2) if self.additive else self.m_const * g1 * g2


def lipschitz_violations(
    f: TestFunction, spec: LipschitzSpec
) -> list[tuple[tuple[float, float], tuple[float, float], float, float]]:
    """Membership check over all pairs of catalog.pair_table; returns violations.

    The pair grid contains pairs sharing a coordinate by construction, which
    is exactly where the product form collapses.  At most _MAX_VIOLATIONS
    offenders are returned, worst first.
    """
    points, d1, d2, lhs = pair_table(f, _LIPSCHITZ_GRID)
    rhs = spec.rhs(d1, d2)
    excess = lhs - rhs
    bad = np.argwhere(excess > 1e-12)
    worst = bad[np.argsort(-excess[tuple(bad.T)])][:_MAX_VIOLATIONS]
    return [(tuple(map(float, points[i])), tuple(map(float, points[j])),
             float(lhs[i, j]), float(rhs[i, j])) for i, j in worst]


def lipschitz_bound(
    op: BivariateOperator, f: TestFunction, spec: LipschitzSpec, xs1, xs2
) -> tuple[np.ndarray, np.ndarray]:
    """Holder-type bound for class members on a product grid, membership
    checked first; returns (lhs, rhs) matrices.

    rhs = spec.rhs(d1, d2) with d_i = delta(axis_i, x_i), the square roots
    of the second central moments.  ACCEPTANCE lipschitz-collapse checks the
    const1 bound and the additive class's sum bound on a grid.
    """
    viols = lipschitz_violations(f, spec)
    if viols:
        a, b, lhs_v, rhs_v = viols[0]
        form = "additive" if spec.additive else "product"
        raise MembershipError(
            f"{f.name!r} is not in the {form} Lipschitz class "
            f"(M={spec.m_const}, gammas=({spec.gamma1}, {spec.gamma2})): "
            f"|f{a} - f{b}| = {lhs_v:.6g} > {rhs_v:.6g}"
        )
    return _bound_grid(op, f, xs1, xs2, spec.rhs)
