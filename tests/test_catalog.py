import math

import numpy as np
import pytest

from pqss import catalog
from pqss.catalog import build_catalog, grid_modulus_estimate, verify_metadata
from pqss.operators import AxisConfig, nodes, tabulate
from pqss.pq_core import PQPair

# the last two are widths where exp_sum's metadata overflows a double
WIDTH_CASES = [(1.0, 1.0), (2.0, 2.0), (4.0, 2.0), (708.0, 1.0), (1.0, 708.0)]

EXPECTED_NAMES = {
    "const1", "e10", "e01", "e11", "e20", "e02", "sum", "exp_sum",
    "sinprod", "abs_ramp", "smooth_abs_005", "smooth_abs_010", "smooth_abs_020",
}


def test_catalog_names_and_evaluation():
    cat = build_catalog(1.0, 1.0)
    assert set(cat) == EXPECTED_NAMES
    assert cat["e11"].fn(0.25, 0.5) == 0.125
    assert cat["const1"].fn(0.9, 0.1) == 1.0


def test_width_floor():
    with pytest.raises(ValueError, match="width1 >= 1"):
        build_catalog(0.5, 1.0)
    with pytest.raises(ValueError, match="width"):
        build_catalog(1.0, 0.0)


@pytest.mark.parametrize("w1,w2", WIDTH_CASES)
def test_all_metadata_survives_verification(w1, w2):
    cat = build_catalog(w1, w2)
    for tf in cat.values():
        assert verify_metadata(tf) == [], tf.name


def test_frozen_modulus_values():
    cat = build_catalog(1.0, 1.0)
    assert cat["sum"].total_modulus(0.1, 0.2) == pytest.approx(0.3, abs=1e-15)
    assert cat["e10"].total_modulus(0.25, 0.9) == 0.25
    assert cat["exp_sum"].total_modulus(0.3, 0.4) == pytest.approx(
        math.exp(2.0) * -math.expm1(-0.7), rel=1e-15
    )
    assert cat["abs_ramp"].total_modulus(0.2, 1.0) == pytest.approx(0.2, abs=1e-15)
    # ramp arm saturates at u* = 1/2
    assert cat["abs_ramp"].total_modulus(2.0, 0.0) == 0.5

    cat22 = build_catalog(2.0, 2.0)
    # W2 d1 + W1 d2 - d1 d2 = 1 + 0.5 - 0.125
    assert cat22["e11"].total_modulus(0.5, 0.25) == pytest.approx(1.375, abs=1e-15)
    # d1 (2 W1 - d1) = 0.5 * 3.5
    assert cat22["e20"].total_modulus(0.5, 0.9) == pytest.approx(1.75, abs=1e-15)

    g = lambda u: math.hypot(u, 0.1) - 0.1
    ustar = 1.5
    got = cat22["smooth_abs_010"].total_modulus(0.4, 0.0)
    assert got == pytest.approx(g(ustar) - g(ustar - 0.4), rel=1e-14)


def test_modulus_saturates_at_full_range():
    cat = build_catalog(1.0, 1.0)
    # deltas beyond the rectangle act like the full widths
    assert cat["sum"].total_modulus(5.0, 9.0) == 2.0
    assert cat["e20"].total_modulus(10.0, 0.0) == 1.0
    cat42 = build_catalog(4.0, 2.0)
    assert cat42["e11"].total_modulus(100.0, 100.0) == pytest.approx(8.0, abs=1e-13)


def test_modulus_rejects_negative_delta():
    cat = build_catalog(1.0, 1.0)
    for name in ("sum", "e11", "abs_ramp", "const1", "smooth_abs_005"):
        with pytest.raises(ValueError, match="delta >= 0"):
            cat[name].total_modulus(-0.1, 0.2)
    # one negative entry in a delta grid is enough, on either axis
    deltas = np.array([[0.0], [0.4], [-1e-12]])
    for tf in cat.values():
        if tf.total_modulus is None:
            continue
        with pytest.raises(ValueError, match="delta >= 0"):
            tf.total_modulus(deltas, np.array([[0.1, 0.2]]))
        with pytest.raises(ValueError, match="delta >= 0"):
            tf.total_modulus(np.array([0.1, 0.2]), deltas.T)


def test_exp_sum_metadata_where_it_overflows():
    # cb2_norm = 5 e^(w1 + w2) is the largest exp_sum metadatum; it fits a
    # double at w1 + w2 = 708 and not at 709
    fits = build_catalog(707.0, 1.0)["exp_sum"]
    assert fits.cb2_norm == 5.0 * math.exp(708.0)
    assert math.isfinite(fits.total_modulus(800.0, 1.0))
    for w1, w2 in ((708.0, 1.0), (1.0, 708.0), (801.0, 1.0), (1e6, 1e6)):
        cat = build_catalog(w1, w2)
        tf = cat["exp_sum"]
        assert (tf.sup_norm, tf.lipschitz_axis, tf.cb2_norm) == (None, None, None)
        with pytest.raises(ArithmeticError, match="exp_sum metadata overflows a double"):
            tf.total_modulus(0.1, 0.2)
        assert tf.fn(0.5, 0.5) == math.exp(1.0)
        # every other entry keeps finite metadata
        for other in cat.values():
            if other.name == "exp_sum":
                continue
            values = [other.sup_norm, other.cb2_norm, *(other.lipschitz_axis or ())]
            assert all(math.isfinite(v) for v in values if v is not None), other.name
            if other.total_modulus is not None:
                assert math.isfinite(other.total_modulus(0.3, 0.2)), other.name


def test_modulus_monotone_in_window():
    cat = build_catalog(2.0, 2.0)
    deltas = [0.0, 0.1, 0.3, 0.7, 1.5, 2.0, 3.0]
    for name in ("e11", "e20", "exp_sum", "abs_ramp", "smooth_abs_020", "sum"):
        om = cat[name].total_modulus
        vals = [om(d, 0.5 * d) for d in deltas]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:])), name
        assert om(0.0, 0.0) == 0.0


def test_grid_estimate_linear_case():
    got = grid_modulus_estimate(lambda a, b: a, 1.0, 1.0, 0.3, 0.0)
    assert got == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(ValueError, match="deltas >= 0"):
        grid_modulus_estimate(lambda a, b: a, 1.0, 1.0, -0.1, 0.0)


def test_grid_estimate_never_exceeds_exact():
    cat = build_catalog(2.0, 2.0)
    for name in ("e11", "exp_sum", "abs_ramp", "smooth_abs_010"):
        tf = cat[name]
        for d1, d2 in ((0.15, 0.4), (0.8, 0.0), (2.0, 2.0)):
            est = grid_modulus_estimate(tf.fn, tf.width1, tf.width2, d1, d2)
            assert est <= tf.total_modulus(d1, d2) + 1e-9, (name, d1, d2)


def shifted_difference_estimate(fn, width1, width2, delta1, delta2):
    """grid_modulus_estimate as a loop over every offset (di, dj) in the window:
    the max of |f(a + offset) - f(a)| over the grid."""
    k = catalog._MODULUS_GRID
    f_grid = tabulate(fn, np.linspace(0.0, width1, k), np.linspace(0.0, width2, k))
    max_i = min(int(delta1 / (width1 / (k - 1)) + 1e-9), k - 1)
    max_j = min(int(delta2 / (width2 / (k - 1)) + 1e-9), k - 1)
    best = 0.0
    for di in range(max_i + 1):
        hi_rows, lo_rows = f_grid[di:, :], f_grid[: k - di, :]
        for dj in range(-max_j, max_j + 1):
            if dj >= 0:
                diff = hi_rows[:, dj:] - lo_rows[:, : k - dj]
            else:
                diff = hi_rows[:, :dj] - lo_rows[:, -dj:]
            best = max(best, float(np.max(np.abs(diff))))
    return best


@pytest.mark.parametrize("w1,w2", WIDTH_CASES)
def test_grid_estimate_is_the_shifted_difference_loop(w1, w2):
    # bit for bit, for every entry at verify_metadata's five windows
    windows = [(0.15 * w1, 0.2 * w2), (0.5 * w1, 0.1 * w2), (0.07 * w1, 0.0), (0.0, 0.35 * w2),
               (w1, w2)]
    for tf in build_catalog(w1, w2).values():
        for d1, d2 in windows:
            want = shifted_difference_estimate(tf.fn, w1, w2, d1, d2)
            assert grid_modulus_estimate(tf.fn, w1, w2, d1, d2) == want, (tf.name, d1, d2)


def test_estimate_only_and_non_smooth_entries():
    cat = build_catalog(1.0, 1.0)
    assert cat["sinprod"].total_modulus is None
    assert cat["abs_ramp"].cb2_norm is None
    assert cat["sinprod"].sup_norm == 1.0


def test_verify_metadata_catches_bad_claims():
    import dataclasses

    cat = build_catalog(1.0, 1.0)
    bad_sup = dataclasses.replace(cat["e11"], sup_norm=0.5)
    assert any("sup_norm" in p for p in verify_metadata(bad_sup))
    bad_lip = dataclasses.replace(cat["e20"], lipschitz_axis=(0.5, 0.0))
    assert any("Lipschitz" in p for p in verify_metadata(bad_lip))
    bad_mod = dataclasses.replace(cat["sum"], total_modulus=lambda d1, d2: 0.25 * (d1 + d2))
    assert any("total_modulus" in p for p in verify_metadata(bad_mod))

    # a wrong factor, a missing pair, a shifted one and one a few ulps off
    # per unit of width: each is reported by name
    e10, e11 = cat["e10"].factors[0], cat["e11"].factors[0]
    exp = cat["exp_sum"].factors[0][0]
    smooth = cat["smooth_abs_010"].factors[0][0]
    for name, factors in (
        ("e10", (e11,)),
        ("sum", (e10,)),
        ("smooth_abs_010", ((lambda t: smooth(t + 0.5), e10[1]),)),
        ("exp_sum", ((lambda t: exp(t) * (1.0 + 16 * 2.0 ** -52), exp),)),
        # a NaN, or an inf, at one node only
        ("e11", ((lambda t: np.where(t == 0.5, np.nan, t), e11[1]),)),
        ("e11", ((lambda t: np.where(t == 0.5, np.inf, t), e11[1]),)),
    ):
        bad = dataclasses.replace(cat[name], factors=factors)
        problems = verify_metadata(bad)
        assert any(p.startswith(f"{name}: factors give") for p in problems), name
    # where exp_sum's metadata overflows, its refusing modulus must come alone
    overflowed = build_catalog(708.0, 1.0)["exp_sum"]
    assert verify_metadata(overflowed) == []
    claims_sup = dataclasses.replace(overflowed, sup_norm=math.inf)
    assert any("refuses" in p for p in verify_metadata(claims_sup))


def _scalar_entries(w1, w2):
    """Every entry and exact modulus as the plain-float formulas they replace."""
    ustar = w1 - 0.5
    top = math.exp(w1 + w2)

    def cap(d, w):
        return min(d, w)

    fns = {
        "const1": lambda t1, t2: 1.0,
        "e10": lambda t1, t2: t1,
        "e01": lambda t1, t2: t2,
        "e11": lambda t1, t2: t1 * t2,
        "e20": lambda t1, t2: t1 * t1,
        "e02": lambda t1, t2: t2 * t2,
        "sum": lambda t1, t2: t1 + t2,
        "exp_sum": lambda t1, t2: math.exp(t1 + t2),
        "sinprod": lambda t1, t2: math.sin(math.pi * t1) * math.sin(math.pi * t2),
        "abs_ramp": lambda t1, t2: abs(t1 - 0.5),
    }
    moduli = {
        "const1": lambda d1, d2: 0.0 * (cap(d1, w1) + cap(d2, w2)),
        "e10": lambda d1, d2: cap(d1, w1) + 0.0 * cap(d2, w2),
        "e01": lambda d1, d2: cap(d2, w2) + 0.0 * cap(d1, w1),
        "e11": lambda d1, d2: w2 * cap(d1, w1) + w1 * cap(d2, w2) - cap(d1, w1) * cap(d2, w2),
        "e20": lambda d1, d2: cap(d1, w1) * (2.0 * w1 - cap(d1, w1)) + 0.0 * cap(d2, w2),
        "e02": lambda d1, d2: cap(d2, w2) * (2.0 * w2 - cap(d2, w2)) + 0.0 * cap(d1, w1),
        "sum": lambda d1, d2: cap(d1, w1) + cap(d2, w2),
        "exp_sum": lambda d1, d2: top * -math.expm1(-(cap(d1, w1) + cap(d2, w2))),
        "abs_ramp": lambda d1, d2: min(cap(d1, w1), ustar) + 0.0 * cap(d2, w2),
    }
    for tag, w in (("005", 0.05), ("010", 0.10), ("020", 0.20)):
        def g(u, w=w):
            return math.hypot(u, w) - w

        fns[f"smooth_abs_{tag}"] = lambda t1, t2, g=g: g(t1 - 0.5)
        moduli[f"smooth_abs_{tag}"] = lambda d1, d2, g=g: g(ustar) - g(
            max(ustar - (cap(d1, w1) + 0.0 * cap(d2, w2)), 0.0)
        )
    return fns, moduli


def _pointwise(fn, xs, ys):
    return np.array([[fn(float(a), float(b)) for b in ys] for a in xs])


def test_broadcast_entries_match_scalar_formulas_bit_for_bit():
    # node grids at n = 64 with l = 2 and l = 1 (widths 3 and 2), plus 0, 1
    # and the far edges of the rectangle
    ax1 = AxisConfig(n=64, l=2, pq=PQPair(0.99, 0.95), alpha=0.5, beta=1.0)
    ax2 = AxisConfig(n=64, l=1, pq=PQPair(0.97, 0.9))
    t1 = np.concatenate(([0.0, 1.0, 3.0], nodes(ax1)))
    t2 = np.concatenate(([0.0, 1.0, 2.0], nodes(ax2)))
    cat = build_catalog(3.0, 2.0)
    fns, moduli = _scalar_entries(3.0, 2.0)
    assert set(fns) == set(cat)
    for name, tf in cat.items():
        np.testing.assert_array_equal(
            tabulate(tf.fn, t1, t2), _pointwise(fns[name], t1, t2), err_msg=name
        )
        assert isinstance(tf.fn(0.3, 0.7), float) and np.ndim(tf.fn(0.3, 0.7)) == 0

    d1 = np.concatenate(([0.0, 1e-9, 0.5, 2.5, 3.0, 7.0], np.linspace(0.0, 3.5, 29)))
    d2 = np.concatenate(([0.0, 1e-9, 0.5, 1.5, 2.0, 7.0], np.linspace(0.0, 2.5, 23)))
    assert set(moduli) == {n for n, tf in cat.items() if tf.total_modulus is not None}
    for name, om in moduli.items():
        tf = cat[name]
        np.testing.assert_array_equal(
            tabulate(tf.total_modulus, d1, d2), _pointwise(om, d1, d2), err_msg=name
        )
        value = tf.total_modulus(0.3, 0.2)
        assert isinstance(value, float) and np.ndim(value) == 0, name
