"""Named test functions with hand-derived metadata for the bound machinery.

Each entry lives on the rectangle [0, width1] x [0, width2] (the operator
samples f at nodes inside [0, l + 1), so widths are l_i + 1 in practice).
Its fn is the closed form, which the oracle samples; its factors are pairs
(g, h) of one-axis functions whose sum of products g(t1) h(t2) is fn, which
the production path contracts one axis at a time:

  const1 (1, 1);  e10 (t, 1);  e01 (1, t);  e11 (t, t);  e20 (t^2, 1);
  e02 (1, t^2);  sum (t, 1) + (1, t);  exp_sum (e^t, e^t);
  sinprod (sin(pi t), sin(pi t));  abs_ramp (|t - 1/2|, 1);
  smooth_abs (g(t - 1/2), 1).

Only exp_sum's factors round differently from fn: e^t1 e^t2 against
e^(t1 + t2), whose rounded argument costs up to (t1 + t2) eps/2 relative.
An entry may also carry:

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
  exp_sum   f = e^{t1+t2}: E - E e^{-d1-d2} with E = e^{W1+W2}.  Where
            5E (cb2_norm) passes the largest double, the entry keeps f but
            carries no sup_norm, Lipschitz or cb2 value, and its
            total_modulus raises ArithmeticError.
  abs_ramp  f = |t1 - 1/2|: slope 1 arms of lengths 1/2 and u* >= 1/2, so
            omega = min(d1, u*).
  smooth_abs(w): f = sqrt((t1-1/2)^2 + w^2) - w, an even convex g of
            u = t1 - 1/2 increasing on [0, u*]; convexity puts the largest
            increment at the right end, omega = g(u*) - g(max(u* - d1, 0)).
            |g'| <= u*/sqrt(u*^2 + w^2) < 1 and g'' peaks at u = 0 with 1/w.
  sinprod   sin(pi t1) sin(pi t2): no closed modulus shipped (estimate-only
            entry); bound commands must refuse it rather than substitute a
            grid estimate, since grid estimates are lower estimates.

verify_metadata checks every claim, the factors among them, against the
evaluator on a grid; the catalog is only trustworthy because that check is
part of the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._clibm import libm
from .operators import Factors, GridFn, tabulate

# verify_metadata's grids: points per axis for the sup-norm check, and for
# the all-pairs Lipschitz check (26^2 points, so 26^4 pairs).
_METADATA_GRID = 101
_PAIR_GRID = 26
# grid_modulus_estimate's points per axis.
_MODULUS_GRID = 41
# verify_metadata's tolerance on the factors, relative to |fn| per unit of
# width1 + width2: exp_sum's fn rounds t1 + t2 before exp, which costs up to
# (t1 + t2) eps/2, and each side rounds a few times more.
_FACTOR_ULPS = 4


@dataclass(frozen=True)
class TestFunction:
    name: str
    fn: GridFn
    factors: Factors
    width1: float
    width2: float
    sup_norm: float | None = None
    lipschitz_axis: tuple[float, float] | None = None
    cb2_norm: float | None = None
    total_modulus: GridFn | None = None


def build_catalog(width1: float = 1.0, width2: float = 1.0) -> dict[str, TestFunction]:
    """All catalog entries on [0, width1] x [0, width2]; widths must be >= 1.

    The width floor keeps 1/2 inside the first axis for the ramp entries and
    matches the operator domain [0, l + 1).  Every fn and total_modulus is a
    GridFn: tabulate evaluates it on a whole grid in one call.
    """
    if width1 < 1.0 or width2 < 1.0:
        raise ValueError(
            f"requires width1 >= 1 and width2 >= 1 (got {width1}, {width2})"
        )
    w1, w2 = float(width1), float(width2)

    def capped(omega):
        """omega as a total modulus: refuses a negative delta and hands omega
        the deltas capped at the widths; omega may return one axis only."""
        def total_modulus(d1, d2):
            for d in (d1, d2):
                if np.any(np.less(d, 0.0)):
                    raise ValueError(f"requires delta >= 0 (got {np.min(d)})")
            return omega(np.minimum(d1, w1), np.minimum(d2, w2))
        return total_modulus

    def one(t):
        return 1.0

    def identity(t):
        return t

    def square(t):
        return t * t

    def exp(t):
        return libm(math.exp, t)

    def sin_pi(t):
        return libm(math.sin, math.pi * t)

    entries = []

    entries.append(TestFunction(
        "const1", lambda t1, t2: 1.0, ((one, one),), w1, w2,
        sup_norm=1.0, lipschitz_axis=(0.0, 0.0), cb2_norm=1.0,
        total_modulus=capped(lambda d1, d2: 0.0),
    ))
    entries.append(TestFunction(
        "e10", lambda t1, t2: t1, ((identity, one),), w1, w2,
        sup_norm=w1, lipschitz_axis=(1.0, 0.0), cb2_norm=w1 + 1.0,
        total_modulus=capped(lambda d1, d2: d1),
    ))
    entries.append(TestFunction(
        "e01", lambda t1, t2: t2, ((one, identity),), w1, w2,
        sup_norm=w2, lipschitz_axis=(0.0, 1.0), cb2_norm=w2 + 1.0,
        total_modulus=capped(lambda d1, d2: d2),
    ))
    entries.append(TestFunction(
        "e11", lambda t1, t2: t1 * t2, ((identity, identity),), w1, w2,
        sup_norm=w1 * w2, lipschitz_axis=(w2, w1),
        cb2_norm=w1 * w2 + w1 + w2,
        total_modulus=capped(lambda d1, d2: w2 * d1 + w1 * d2 - d1 * d2),
    ))
    entries.append(TestFunction(
        "e20", lambda t1, t2: t1 * t1, ((square, one),), w1, w2,
        sup_norm=w1 * w1, lipschitz_axis=(2.0 * w1, 0.0),
        cb2_norm=w1 * w1 + 2.0 * w1 + 2.0,
        total_modulus=capped(lambda d1, d2: d1 * (2.0 * w1 - d1)),
    ))
    entries.append(TestFunction(
        "e02", lambda t1, t2: t2 * t2, ((one, square),), w1, w2,
        sup_norm=w2 * w2, lipschitz_axis=(0.0, 2.0 * w2),
        cb2_norm=w2 * w2 + 2.0 * w2 + 2.0,
        total_modulus=capped(lambda d1, d2: d2 * (2.0 * w2 - d2)),
    ))
    entries.append(TestFunction(
        "sum", lambda t1, t2: t1 + t2, ((identity, one), (one, identity)), w1, w2,
        sup_norm=w1 + w2, lipschitz_axis=(1.0, 1.0),
        cb2_norm=w1 + w2 + 2.0,
        total_modulus=capped(lambda d1, d2: d1 + d2),
    ))
    try:
        top = math.exp(w1 + w2)
    except OverflowError:
        top = math.inf
    if math.isfinite(5.0 * top):
        exp_metadata = dict(
            sup_norm=top, lipschitz_axis=(top, top), cb2_norm=5.0 * top,
            total_modulus=capped(lambda d1, d2: top * -libm(math.expm1, -(d1 + d2))),
        )
    else:
        # the values of f stay finite where the nodes do; only a bound
        # check needs the metadata, and it says why there is none
        def overflowed(d1, d2):
            raise ArithmeticError(
                f"exp_sum metadata overflows a double on [0, {w1:g}] x [0, {w2:g}]: "
                f"its sup_norm, Lipschitz constants, cb2_norm and total_modulus grow "
                f"as e^(width1 + width2) = e^{w1 + w2:g}"
            )

        exp_metadata = dict(total_modulus=overflowed)
    entries.append(TestFunction(
        "exp_sum", lambda t1, t2: libm(math.exp, t1 + t2), ((exp, exp),), w1, w2,
        **exp_metadata,
    ))
    entries.append(TestFunction(
        "sinprod",
        lambda t1, t2: libm(math.sin, math.pi * t1) * libm(math.sin, math.pi * t2),
        ((sin_pi, sin_pi),), w1, w2,
        sup_norm=1.0, lipschitz_axis=(math.pi, math.pi),
        cb2_norm=1.0 + 2.0 * math.pi + 2.0 * math.pi ** 2,
        total_modulus=None,
    ))
    ustar = w1 - 0.5
    entries.append(TestFunction(
        "abs_ramp", lambda t1, t2: abs(t1 - 0.5), ((lambda t: abs(t - 0.5), one),), w1, w2,
        sup_norm=ustar, lipschitz_axis=(1.0, 0.0), cb2_norm=None,
        total_modulus=capped(lambda d1, d2: np.minimum(d1, ustar)),
    ))
    for tag, w in (("005", 0.05), ("010", 0.10), ("020", 0.20)):
        def g(u, w: float = w):
            return libm(lambda v: math.hypot(v, w), u) - w

        def smooth(t1, t2, w: float = w):
            return g(t1 - 0.5, w)

        def smooth_axis(t, w: float = w):
            return g(t - 0.5, w)

        gstar = math.hypot(ustar, w) - w

        def omega(d1, d2, w: float = w, gstar: float = gstar):
            return gstar - g(np.maximum(ustar - d1, 0.0), w)

        entries.append(TestFunction(
            f"smooth_abs_{tag}", smooth, ((smooth_axis, one),), w1, w2,
            sup_norm=gstar,
            lipschitz_axis=(ustar / math.hypot(ustar, w), 0.0),
            cb2_norm=gstar + ustar / math.hypot(ustar, w) + 1.0 / w,
            total_modulus=capped(omega),
        ))

    return {tf.name: tf for tf in entries}


def grid_modulus_estimate(
    fn: GridFn,
    width1: float,
    width2: float,
    delta1: float,
    delta2: float,
) -> float:
    """Lower estimate of the total modulus from a uniform grid.

    Takes the max of |f(a) - f(b)| over all grid pairs whose offsets fit in
    the (delta1, delta2) window, as the largest max - min over the sliding
    boxes that window spans; rounded subtraction is monotone, so that is the
    largest rounded difference.  A lower estimate only: the true sup over
    the rectangle can exceed it, so this value must never stand in for exact
    metadata inside a bound check.
    """
    if delta1 < 0.0 or delta2 < 0.0:
        raise ValueError(f"requires deltas >= 0 (got {delta1}, {delta2})")
    xs = np.linspace(0.0, width1, _MODULUS_GRID)
    ys = np.linspace(0.0, width2, _MODULUS_GRID)
    f_grid = tabulate(fn, xs, ys)
    h1 = width1 / (_MODULUS_GRID - 1)
    h2 = width2 / (_MODULUS_GRID - 1)
    max_i = min(int(delta1 / h1 + 1e-9), _MODULUS_GRID - 1)
    max_j = min(int(delta2 / h2 + 1e-9), _MODULUS_GRID - 1)
    boxes = sliding_window_view(f_grid, (max_i + 1, max_j + 1))
    return float(np.max(boxes.max(axis=(2, 3)) - boxes.min(axis=(2, 3))))


def pair_table(tf: TestFunction, k: int) -> tuple[np.ndarray, ...]:
    """All ordered pairs (t, s) of the k x k grid on tf's rectangle: the k^2
    points as rows (t1, t2) in row-major grid order, and the k^2 x k^2
    matrices |t1 - s1|, |t2 - s2| and |f(t) - f(s)|."""
    xs = np.linspace(0.0, tf.width1, k)
    ys = np.linspace(0.0, tf.width2, k)
    points = np.stack([np.repeat(xs, k), np.tile(ys, k)], axis=1)
    vals = tabulate(tf.fn, xs, ys).ravel()
    return points, *(np.abs(v[:, None] - v[None, :]) for v in (*points.T, vals))


def verify_metadata(tf: TestFunction) -> list[str]:
    """Check every metadata claim against the evaluator; returns violations.

    sup_norm and the Lipschitz constants are checked directly on grids; the
    exact total modulus is checked to dominate grid estimates at several
    window sizes.  An empty list means the metadata survived.
    """
    problems: list[str] = []
    xs = np.linspace(0.0, tf.width1, _METADATA_GRID)
    ys = np.linspace(0.0, tf.width2, _METADATA_GRID)
    f_grid = tabulate(tf.fn, xs, ys)

    product_sum = np.zeros_like(f_grid)
    rtol = _FACTOR_ULPS * np.finfo(float).eps * (tf.width1 + tf.width2)
    # a factor's inf or NaN is reported below, not raised as a warning here
    with np.errstate(invalid="ignore", over="ignore"):
        for g, h in tf.factors:
            product_sum += tabulate(lambda t1, t2: g(t1) * h(t2), xs, ys)
        excess = np.abs(product_sum - f_grid) - rtol * np.abs(f_grid)
    # a NaN fails, an inf - inf among them, and is the point reported
    if not np.all(excess <= 0.0):
        worst = np.argmax(np.where(np.isnan(excess), np.inf, excess))
        i, j = np.unravel_index(worst, excess.shape)
        problems.append(
            f"{tf.name}: factors give {product_sum[i, j]!r} against fn {f_grid[i, j]!r} "
            f"at ({xs[i]}, {ys[j]}), beyond {_FACTOR_ULPS} ulps per unit of width"
        )

    if tf.sup_norm is not None:
        seen = float(np.max(np.abs(f_grid)))
        if seen > tf.sup_norm + 1e-9:
            problems.append(f"{tf.name}: sup_norm {tf.sup_norm} exceeded, saw {seen}")

    if tf.lipschitz_axis is not None:
        m1, m2 = tf.lipschitz_axis
        _, d1, d2, df = pair_table(tf, _PAIR_GRID)
        worst = float(np.max(df - (m1 * d1 + m2 * d2)))
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
            try:
                claimed = tf.total_modulus(d1, d2)
            except ArithmeticError:
                # exp_sum where its metadata overflows a double: the modulus
                # refuses, and the entry must claim nothing else
                if (tf.sup_norm, tf.lipschitz_axis, tf.cb2_norm) != (None, None, None):
                    problems.append(f"{tf.name}: total_modulus refuses, yet other "
                                    f"metadata is claimed")
                break
            seen = grid_modulus_estimate(tf.fn, tf.width1, tf.width2, d1, d2)
            if seen > claimed + 1e-9:
                problems.append(
                    f"{tf.name}: total_modulus({d1}, {d2}) = {claimed} "
                    f"below grid estimate {seen}"
                )
    return problems
