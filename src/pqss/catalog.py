"""Named test functions with hand-derived metadata for the bound machinery.

Each entry lives on the rectangle [0, width1] x [0, width2] (the operator
samples f at nodes inside [0, l + 1), so widths are l_i + 1 in practice) and
may carry:

  sup_norm        sup |f| over the rectangle
  lipschitz_axis  (M1, M2) with |f(t) - f(s)| <= M1|t1 - s1| + M2|t2 - s2|
  cb2_norm        sup|f| + sum of the sup norms of the pure first and second
                  partials in each axis (four derivative terms); None when f
                  is not C^2
  total_modulus   the exact total modulus of continuity
                  omega(d1, d2) = sup { |f(t) - f(s)| : |t1-s1| <= d1,
                  |t2-s2| <= d2 }, or None when no closed form is shipped

Derivations, with di = min(delta_i, width_i) and u* = width1 - 1/2:

  const1    omega = 0.
  e10       f = t1: omega = d1 (slope 1, range width1 >= d1).
  e11       f = t1 t2: the sup is attained moving from the top corner,
            W1 W2 - (W1-d1)(W2-d2) = W2 d1 + W1 d2 - d1 d2.
  e20       f = t1^2: top-corner again, W1^2 - (W1-d1)^2 = d1(2W1 - d1).
  sum       f = t1 + t2: omega = d1 + d2.
  exp_sum   f = e^{t1+t2}: E - E e^{-d1-d2} with E = e^{W1+W2}.
  abs_ramp  f = |t1 - 1/2|: slope 1 arms of lengths 1/2 and u* >= 1/2, so
            omega = min(delta1, u*).
  smooth_abs(w): f = sqrt((t1-1/2)^2 + w^2) - w, an even convex g of
            u = t1 - 1/2 increasing on [0, u*]; convexity puts the largest
            increment at the right end, omega = g(u*) - g(max(u* - d1, 0)).
            |g'| <= u*/sqrt(u*^2 + w^2) < 1 and g'' peaks at u = 0 with 1/w.
  sinprod   sin(pi t1) sin(pi t2): no closed modulus shipped (estimate-only
            entry); bound commands must refuse it rather than substitute a
            grid estimate, since grid estimates are lower estimates.

verify_metadata checks every claim against the evaluator on a grid; the
catalog is only trustworthy because that check is part of the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operators import tabulate


@dataclass(frozen=True)
class TestFunction:
    name: str
    fn: Callable[[float, float], float]
    width1: float
    width2: float
    sup_norm: float | None = None
    lipschitz_axis: tuple[float, float] | None = None
    cb2_norm: float | None = None
    total_modulus: Callable[[float, float], float] | None = None

    def __call__(self, t1: float, t2: float) -> float:
        return self.fn(t1, t2)


def build_catalog(width1: float = 1.0, width2: float = 1.0) -> dict[str, TestFunction]:
    """All catalog entries on [0, width1] x [0, width2]; widths must be >= 1.

    The width floor keeps 1/2 inside the first axis for the ramp entries and
    matches the operator domain [0, l + 1).
    """
    if width1 < 1.0 or width2 < 1.0:
        raise ValueError(
            f"requires width1 >= 1 and width2 >= 1 (got {width1}, {width2})"
        )
    w1, w2 = float(width1), float(width2)

    def cap(d: float, w: float) -> float:
        if d < 0.0:
            raise ValueError(f"requires delta >= 0 (got {d})")
        return min(d, w)

    entries = []

    entries.append(TestFunction(
        "const1", lambda t1, t2: 1.0, w1, w2,
        sup_norm=1.0, lipschitz_axis=(0.0, 0.0), cb2_norm=1.0,
        total_modulus=lambda d1, d2: 0.0 * (cap(d1, w1) + cap(d2, w2)),
    ))
    entries.append(TestFunction(
        "e10", lambda t1, t2: t1, w1, w2,
        sup_norm=w1, lipschitz_axis=(1.0, 0.0), cb2_norm=w1 + 1.0,
        total_modulus=lambda d1, d2: cap(d1, w1) + 0.0 * cap(d2, w2),
    ))
    entries.append(TestFunction(
        "e01", lambda t1, t2: t2, w1, w2,
        sup_norm=w2, lipschitz_axis=(0.0, 1.0), cb2_norm=w2 + 1.0,
        total_modulus=lambda d1, d2: cap(d2, w2) + 0.0 * cap(d1, w1),
    ))
    entries.append(TestFunction(
        "e11", lambda t1, t2: t1 * t2, w1, w2,
        sup_norm=w1 * w2, lipschitz_axis=(w2, w1),
        cb2_norm=w1 * w2 + w1 + w2,
        total_modulus=lambda d1, d2: (
            w2 * cap(d1, w1) + w1 * cap(d2, w2) - cap(d1, w1) * cap(d2, w2)
        ),
    ))
    entries.append(TestFunction(
        "e20", lambda t1, t2: t1 * t1, w1, w2,
        sup_norm=w1 * w1, lipschitz_axis=(2.0 * w1, 0.0),
        cb2_norm=w1 * w1 + 2.0 * w1 + 2.0,
        total_modulus=lambda d1, d2: cap(d1, w1) * (2.0 * w1 - cap(d1, w1)) + 0.0 * cap(d2, w2),
    ))
    entries.append(TestFunction(
        "e02", lambda t1, t2: t2 * t2, w1, w2,
        sup_norm=w2 * w2, lipschitz_axis=(0.0, 2.0 * w2),
        cb2_norm=w2 * w2 + 2.0 * w2 + 2.0,
        total_modulus=lambda d1, d2: cap(d2, w2) * (2.0 * w2 - cap(d2, w2)) + 0.0 * cap(d1, w1),
    ))
    entries.append(TestFunction(
        "sum", lambda t1, t2: t1 + t2, w1, w2,
        sup_norm=w1 + w2, lipschitz_axis=(1.0, 1.0),
        cb2_norm=w1 + w2 + 2.0,
        total_modulus=lambda d1, d2: cap(d1, w1) + cap(d2, w2),
    ))
    top = math.exp(w1 + w2)
    entries.append(TestFunction(
        "exp_sum", lambda t1, t2: math.exp(t1 + t2), w1, w2,
        sup_norm=top, lipschitz_axis=(top, top), cb2_norm=5.0 * top,
        total_modulus=lambda d1, d2: top * -math.expm1(-(cap(d1, w1) + cap(d2, w2))),
    ))
    entries.append(TestFunction(
        "sinprod", lambda t1, t2: math.sin(math.pi * t1) * math.sin(math.pi * t2), w1, w2,
        sup_norm=1.0, lipschitz_axis=(math.pi, math.pi),
        cb2_norm=1.0 + 2.0 * math.pi + 2.0 * math.pi ** 2,
        total_modulus=None,
    ))
    ustar = w1 - 0.5
    entries.append(TestFunction(
        "abs_ramp", lambda t1, t2: abs(t1 - 0.5), w1, w2,
        sup_norm=ustar, lipschitz_axis=(1.0, 0.0), cb2_norm=None,
        total_modulus=lambda d1, d2: min(cap(d1, w1), ustar) + 0.0 * cap(d2, w2),
    ))
    for tag, w in (("005", 0.05), ("010", 0.10), ("020", 0.20)):
        def g(u: float, w: float = w) -> float:
            return math.hypot(u, w) - w

        def smooth(t1: float, t2: float, w: float = w) -> float:
            return math.hypot(t1 - 0.5, w) - w

        def omega(d1: float, d2: float, w: float = w) -> float:
            d = cap(d1, w1) + 0.0 * cap(d2, w2)
            return g(ustar, w) - g(max(ustar - d, 0.0), w)

        entries.append(TestFunction(
            f"smooth_abs_{tag}", smooth, w1, w2,
            sup_norm=g(ustar),
            lipschitz_axis=(ustar / math.hypot(ustar, w), 0.0),
            cb2_norm=g(ustar) + ustar / math.hypot(ustar, w) + 1.0 / w,
            total_modulus=omega,
        ))

    return {tf.name: tf for tf in entries}


def grid_modulus_estimate(
    fn: Callable[[float, float], float],
    width1: float,
    width2: float,
    delta1: float,
    delta2: float,
    grid_k: int = 101,
) -> float:
    """Lower estimate of the total modulus from a uniform grid.

    Takes the max of |f(a) - f(b)| over all grid pairs whose offsets fit in
    the (delta1, delta2) window.  A lower estimate only: the true sup over
    the rectangle can exceed it, so this value must never stand in for exact
    metadata inside a bound check.
    """
    if delta1 < 0.0 or delta2 < 0.0:
        raise ValueError(f"requires deltas >= 0 (got {delta1}, {delta2})")
    xs = np.linspace(0.0, width1, grid_k)
    ys = np.linspace(0.0, width2, grid_k)
    f_grid = tabulate(fn, xs, ys)
    h1 = width1 / (grid_k - 1)
    h2 = width2 / (grid_k - 1)
    max_i = min(int(delta1 / h1 + 1e-9), grid_k - 1)
    max_j = min(int(delta2 / h2 + 1e-9), grid_k - 1)
    best = 0.0
    for di in range(max_i + 1):
        hi_rows = f_grid[di:, :]
        lo_rows = f_grid[: grid_k - di, :]
        for dj in range(-max_j, max_j + 1):
            if dj >= 0:
                diff = hi_rows[:, dj:] - lo_rows[:, : grid_k - dj]
            else:
                diff = hi_rows[:, :dj] - lo_rows[:, -dj:]
            if diff.size:
                best = max(best, float(np.max(np.abs(diff))))
    return best


def verify_metadata(tf: TestFunction, grid_k: int = 101, pair_k: int = 26) -> list[str]:
    """Check every metadata claim against the evaluator; returns violations.

    sup_norm and the Lipschitz constants are checked directly on grids; the
    exact total modulus is checked to dominate grid estimates at several
    window sizes.  An empty list means the metadata survived.
    """
    problems: list[str] = []
    xs = np.linspace(0.0, tf.width1, grid_k)
    ys = np.linspace(0.0, tf.width2, grid_k)
    f_grid = tabulate(tf.fn, xs, ys)

    if tf.sup_norm is not None:
        seen = float(np.max(np.abs(f_grid)))
        if seen > tf.sup_norm + 1e-9:
            problems.append(f"{tf.name}: sup_norm {tf.sup_norm} exceeded, saw {seen}")

    if tf.lipschitz_axis is not None:
        m1, m2 = tf.lipschitz_axis
        cx = np.linspace(0.0, tf.width1, pair_k)
        cy = np.linspace(0.0, tf.width2, pair_k)
        pts_x = np.repeat(cx, pair_k)
        pts_y = np.tile(cy, pair_k)
        vals = tabulate(tf.fn, cx, cy).ravel()
        lhs = np.abs(vals[:, None] - vals[None, :])
        rhs = m1 * np.abs(pts_x[:, None] - pts_x[None, :]) + m2 * np.abs(
            pts_y[:, None] - pts_y[None, :]
        )
        worst = float(np.max(lhs - rhs))
        if worst > 1e-9:
            problems.append(
                f"{tf.name}: axis-Lipschitz ({m1}, {m2}) violated by {worst}"
            )

    if tf.total_modulus is not None:
        windows = [
            (0.15 * tf.width1, 0.2 * tf.width2),
            (0.5 * tf.width1, 0.1 * tf.width2),
            (0.07 * tf.width1, 0.0),
            (0.0, 0.35 * tf.width2),
            (tf.width1, tf.width2),
        ]
        for d1, d2 in windows:
            claimed = tf.total_modulus(d1, d2)
            seen = grid_modulus_estimate(tf.fn, tf.width1, tf.width2, d1, d2, grid_k=41)
            if seen > claimed + 1e-9:
                problems.append(
                    f"{tf.name}: total_modulus({d1}, {d2}) = {claimed} "
                    f"below grid estimate {seen}"
                )
    return problems
