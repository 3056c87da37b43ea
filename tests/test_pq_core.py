import math
import os
import shutil
import subprocess
import sys
import sysconfig
import types
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pqss import _clibm
from pqss._clibm import _log_rising_terms, compensated_cumsum, weighted_sums
from pqss.catalog import build_catalog
from pqss.moments import (
    literal_first_moment_factor,
    moment_oracle,
    oracle_weight_vector,
    standard_sweep,
    sweep_grid,
    verify_moments,
)
from pqss.operators import (
    AxisConfig,
    BivariateOperator,
    apply_on_grid,
    nodes,
    sample_at_nodes,
    weight_matrix,
    weight_vector,
)
from pqss.pq_core import PQPair, cumulative_log_factorials, pq_integer

PAIRS = [PQPair(1.0, 0.5), PQPair(0.9, 0.6), PQPair(0.99, 0.95)]


def bracket_sum_form(k, pq):
    # independent formula: [k] = sum_{i<k} p^{k-1-i} q^i
    return math.fsum(pq.p ** (k - 1 - i) * pq.q ** i for i in range(k))


def bracket_factorial(k, pq):
    # [k]_r! = [1]_r [2]_r ... [k]_r with r = q/p and [j]_r = [j] / p^(j - 1),
    # as a plain product, empty product 1
    return math.prod(pq_integer(j, pq) / pq.p ** (j - 1) for j in range(1, k + 1))


def rising_product(m, x, pq):
    # direct product prod_{j<m} (1 - r^j x) = prod_{j<m} (p^j - q^j x) / p^j,
    # in plain double precision
    return math.prod((pq.p ** j - pq.q ** j * x) / pq.p ** j for j in range(m))


def log_rising_sum(m, x, pq):
    # log of the rising product: the fsum of one _log_rising_terms row
    return math.fsum(_log_rising_terms(m, [x], pq.log_ratio)[0].tolist())


def r_bracket_logs(m, pq):
    # log [k]_r = log(expm1(k lam) / expm1(lam)) for k = 1..m, in scalar libm
    lam = pq.log_ratio
    return [math.log(math.expm1(k * lam) / math.expm1(lam)) for k in range(1, m + 1)]


def test_pqpair_rejects_bad_parameters():
    for p, q in ((0.5, 0.7), (1.0, 1.0), (1.2, 0.5), (0.9, 0.0), (0.9, -0.1)):
        with pytest.raises(ValueError, match="0 < q < p <= 1"):
            PQPair(p, q)


def test_pqpair_refuses_a_q_too_far_below_p_for_log_ratio():
    # (q - p)/p rounds to -1, so log(q/p) = log1p((q - p)/p) has no value
    for p, q in ((1.0, 1e-17), (0.5, 1e-17), (1.0, 5e-324)):
        with pytest.raises(ValueError, match=r"requires a finite log\(q/p\), but \(q - p\)/p "
                                             rf"rounds to -1 \(got p={p}, q={q}\)"):
            PQPair(p, q)
    # the near miss keeps a finite log_ratio, as close to log(q/p) as the
    # rounding of (q - p)/p next to -1 allows, and its brackets
    pq = PQPair(1.0, 1e-15)
    assert pq.log_ratio == pytest.approx(math.log(1e-15), rel=1e-4)
    assert pq_integer(2, pq) == pytest.approx(1.0 + 1e-15, rel=1e-15)


def test_pq_integer_known_values():
    assert pq_integer(0, PAIRS[0]) == 0.0
    assert pq_integer(1, PAIRS[0]) == 1.0
    assert pq_integer(2, PAIRS[0]) == 1.5           # 1 + 0.5
    assert pq_integer(3, PAIRS[0]) == 1.75          # 1 + 0.5 + 0.25
    assert pq_integer(3, PAIRS[1]) == pytest.approx(1.71, rel=1e-13)
    assert pq_integer(2, PAIRS[2]) == pytest.approx(0.99 + 0.95, rel=1e-14)


def test_pq_integer_rejects_negative():
    with pytest.raises(ValueError, match="k >= 0"):
        pq_integer(-1, PAIRS[0])


def test_pq_integer_matches_power_sum_form():
    for pq in PAIRS:
        for k in range(0, 41):
            want = bracket_sum_form(k, pq)
            assert pq_integer(k, pq) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_pq_integer_stable_when_p_close_to_q():
    pq = PQPair(0.999, 0.998)
    for k in (2, 17, 400, 2000):
        assert pq_integer(k, pq) == pytest.approx(bracket_sum_form(k, pq), rel=1e-13)


def test_q_integer_reduction_at_p_one():
    q = 0.5
    pq = PQPair(1.0, q)
    for k in range(1, 51):
        classical = (1.0 - q ** k) / (1.0 - q)
        assert pq_integer(k, pq) == pytest.approx(classical, rel=1e-13)


@given(
    p=st.floats(0.05, 1.0),
    frac=st.floats(0.01, 0.99),
    k=st.integers(1, 100),
)
def test_pq_integer_positive_and_bounded(p, frac, k):
    pq = PQPair(p, p * frac)
    val = pq_integer(k, pq)
    # each of the k power-sum terms is positive and at most p^{k-1}
    assert 0.0 < val <= k * p ** (k - 1) * (1 + 1e-12)


def test_pq_factorial_values():
    # the log-factorial table of r = 0.5: [2]_r! = 1.5, [3]_r! = 1 * 1.5 * 1.75
    lf = cumulative_log_factorials(3, PQPair(1.0, 0.5).log_ratio)
    assert lf[0] == 0.0 and lf[1] == 0.0
    assert math.exp(lf[2]) == pytest.approx(1.5, rel=1e-15)
    assert math.exp(lf[3]) == pytest.approx(2.625, rel=1e-15)


def test_rising_product_values():
    assert _log_rising_terms(0, [0.7], PAIRS[1].log_ratio).shape == (1, 0)  # empty product 1
    # r = 0.6/0.9: (1 - 0.5)(1 - r 0.5) = 0.5 * 0.6 / 0.9
    assert math.exp(log_rising_sum(2, 0.5, PAIRS[1])) == pytest.approx(0.30 / 0.9, rel=1e-14)


def test_log_rising_agrees_with_direct():
    xs = (0.1, 0.5, 0.9)
    for pq in PAIRS:
        for m in (1, 5, 50, 200):
            rows = _log_rising_terms(m, xs, pq.log_ratio)
            for x, row in zip(xs, rows):
                got = math.exp(math.fsum(row.tolist()))
                assert got == pytest.approx(rising_product(m, x, pq), rel=1e-12)


def test_log_rising_against_mpmath():
    import mpmath as mp

    with mp.workdps(60):
        p, q, x, m = mp.mpf("0.99"), mp.mpf("0.98"), mp.mpf("0.5"), 200
        prod = mp.mpf(1)
        for j in range(m):
            prod *= 1 - (q / p) ** j * x
        want = float(mp.log(prod))
    got = log_rising_sum(200, 0.5, PQPair(0.99, 0.98))
    assert got == pytest.approx(want, abs=1e-10)


def neumaier_loop(values):
    """The scalar Neumaier prefix sum that compensated_cumsum runs on each row."""
    out = np.empty(len(values))
    s = 0.0
    c = 0.0
    for i, v in enumerate(values):
        t = s + v
        if abs(s) >= abs(v):
            c += (s - t) + v
        else:
            c += (v - t) + s
        s = t
        out[i] = s + c
    return out


ADVERSARIAL = [1.0, 1e-16, -1.0, 1e16, 3.14, -1e16, 2.5e-8] * 40


def test_compensated_cumsum_matches_fsum_prefixes():
    out = compensated_cumsum(ADVERSARIAL)
    for i in (0, 3, 17, len(ADVERSARIAL) - 1):
        want = math.fsum(ADVERSARIAL[: i + 1])
        assert out[i] == pytest.approx(want, rel=1e-15, abs=1e-15)


def assert_same_bits(got, want, err_msg=""):
    """Equal shapes and uint64 bits, where any nan matches any nan: the sign
    and payload of a nan made by inf - inf are the CPU's."""
    got, want = np.asarray(got), np.asarray(want, dtype=float)
    assert got.dtype == float and got.shape == want.shape, err_msg
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan, err_msg=err_msg)
    np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64),
                                  err_msg=err_msg)


def test_compensated_cumsum_is_the_scalar_loop_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(20)
    mixed = rng.choice([-1.0, 1.0], 3000) * 10.0 ** rng.uniform(-20, 20, 3000)
    logs = [math.log(pq_integer(j, PQPair(0.999, 0.998))) for j in range(1, 2001)]
    zeros = [-0.0, -0.0, 0.0, -0.0, 1.0, -1.0, -0.0]
    not_finite = [1.0, 2.0, math.inf, 3.0, -math.inf, 1.0, math.nan, 2.0]
    # along the last axis of 2-D and 3-D input, each row is its own loop
    rows = rng.choice([-1.0, 1.0], (7, 500)) * 10.0 ** rng.uniform(-12, 12, (7, 500))
    rows[3, : len(ADVERSARIAL)] = ADVERSARIAL
    rows[5, :8], rows[6, -8:] = not_finite, not_finite
    inputs = [ADVERSARIAL, mixed, logs, zeros, not_finite, [math.nan, 1.0], [2.5], [],
              rows, rows.reshape(7, 5, 100), rows.T, rows[:, ::-3], np.empty((3, 0))]
    for calls in both_paths(monkeypatch):
        for vals in inputs:
            arr = np.asarray(vals, dtype=float)
            flat = arr.reshape(math.prod(arr.shape[:-1]), arr.shape[-1])
            want = np.array([neumaier_loop(row.tolist()) for row in flat])
            assert_same_bits(compensated_cumsum(vals), want.reshape(arr.shape))
        if calls is not None:
            # one compiled call per compensated_cumsum call, for all its rows
            assert calls == [("pqss_neumaier", None)] * len(inputs)


def test_cumulative_log_factorials_values_and_caching():
    lf = cumulative_log_factorials(50, PAIRS[1].log_ratio)
    assert lf[0] == 0.0
    for k in (1, 7, 50):
        want = math.log(bracket_factorial(k, PAIRS[1]))
        assert lf[k] == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert lf.flags.writeable is False
    # cache returns the same object for identical keys
    assert cumulative_log_factorials(50, PAIRS[1].log_ratio) is lf


def test_cumulative_log_factorials_are_shared_by_pairs_with_one_ratio():
    # (0.5, 0.25) and (1.0, 0.5) have the same log_ratio, so two axes of one
    # degree read one table: the second is a cache hit
    cumulative_log_factorials.cache_clear()
    a, b = PQPair(0.5, 0.25), PQPair(1.0, 0.5)
    assert a.log_ratio == b.log_ratio
    weight_vector(AxisConfig(n=600, l=0, pq=a), 0.3)
    weight_vector(AxisConfig(n=600, l=0, pq=b), 0.3)
    info = cumulative_log_factorials.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_cumulative_log_factorials_is_the_compensated_sum_of_bracket_logs(monkeypatch):
    # the array bracket table keeps the scalar bracket logs' bits, hence the
    # sum's bits; at (0.9, 0.6) the (p,q)-brackets leave the normal range at
    # k = 6735, and the r-brackets never do
    for m, p, q in ((1, 0.9, 0.6), (2, 1.0, 0.5), (28, 0.99, 0.95),
                    (2049, 0.999, 0.998), (4000, 1.0 - 0.3 / 4000, 1.0 - 1.1 / 4000),
                    (700, 0.9, 0.6), (8000, 0.9, 0.6), (3000, 0.5, 0.25)):
        pq = PQPair(p, q)
        want = neumaier_loop(r_bracket_logs(m, pq))
        np.testing.assert_array_equal(cumulative_log_factorials(m, pq.log_ratio)[1:], want)
    # kmax = 0 takes no guard: both paths sum an empty bracket array
    for _ in both_paths(monkeypatch):
        cumulative_log_factorials.cache_clear()
        assert list(cumulative_log_factorials(0, PAIRS[1].log_ratio)) == [0.0]


def test_cumulative_log_factorials_long_run_precision():
    import mpmath as mp

    lf = cumulative_log_factorials(2000, PQPair(0.999, 0.998).log_ratio)
    with mp.workdps(50):
        p, q = mp.mpf("0.999"), mp.mpf("0.998")
        acc = mp.mpf(0)
        for j in range(1, 2001):
            acc += mp.log((p ** j - q ** j) / (p - q) / p ** (j - 1))
        want = float(acc)
    assert lf[2000] == pytest.approx(want, abs=5e-11)


def test_compensated_beats_naive_cumsum():
    logs = [math.log(pq_integer(j, PQPair(0.999, 0.998))) for j in range(1, 2001)]
    naive = np.cumsum(logs)
    comp = compensated_cumsum(logs)
    exact = math.fsum(logs)
    assert abs(comp[-1] - exact) <= abs(naive[-1] - exact) + 1e-15
    assert abs(comp[-1] - exact) < 1e-10


# The compiled libm loop behind _clibm.libm: libm must give math's bits and
# math's errors, on every shape, with the kernel and without it, and the
# package must give the same arrays either way.

compiler_missing = shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0]) is None
needs_compiler = pytest.mark.skipif(
    compiler_missing, reason="no C compiler, so the libm kernel cannot be built",
)


class RecordingLib:
    """The compiled module's .lib with each call recorded as (name, returned)
    before its result is handed back."""

    def __init__(self, lib):
        self._lib, self.calls = lib, []

    def __getattr__(self, name):
        def call(*args):
            returned = getattr(self._lib, name)(*args)
            self.calls.append((name, returned))
            return returned
        return call


def record_kernel(monkeypatch):
    """Patch load() to give the compiled module with its calls recorded; the
    list of recorded calls."""
    module = _clibm.load()
    assert module is not None
    stub = types.SimpleNamespace(ffi=module.ffi, lib=RecordingLib(module.lib))
    monkeypatch.setattr(_clibm, "load", lambda: stub)
    return stub.lib.calls


def both_paths(monkeypatch):
    """Run a loop body on each path of libm, oracle_sums, compensated_cumsum,
    weighted_sums, bracket_logs and weight_rows.  First (where a compiler
    exists) through the kernel, yielding the list of its calls as (function
    name, returned); then with load() finding no kernel, yielding None, so
    math and numpy answer every call."""
    if not compiler_missing:
        yield record_kernel(monkeypatch)
    monkeypatch.setattr(_clibm, "load", lambda: None)
    yield None


def math_map(fn, x):
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.flat), float, count=x.size).reshape(x.shape)


# (function, inputs drawn from rng): the ranges the package passes to each
KERNEL_CASES = {
    "exp-wide": (math.exp, lambda rng, n: rng.uniform(-745.0, 709.0, n)),
    "exp-samples": (math.exp, lambda rng, n: rng.uniform(0.0, 8.0, n)),
    "expm1": (math.expm1, lambda rng, n: rng.uniform(-40.0, 1.0, n)),
    "expm1-tiny": (math.expm1, lambda rng, n: -(10.0 ** rng.uniform(-300.0, -1.0, n))),
    "sin": (math.sin, lambda rng, n: rng.uniform(0.0, 4.0 * math.pi, n)),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_is_math_bit_for_bit(case, monkeypatch):
    fn, draw = KERNEL_CASES[case]
    x = draw(np.random.default_rng(20261018), 1_000_000)
    want = math_map(fn, x).view(np.uint64)
    for calls in both_paths(monkeypatch):
        np.testing.assert_array_equal(_clibm.libm(fn, x).view(np.uint64), want)
        if calls is not None:
            assert calls == [(_clibm._KERNELS[fn], 0)], f"the compiled loop did not serve {case}"


def test_kernel_shapes(monkeypatch):
    x = np.linspace(0.1, 3.0, 24).reshape(4, 6)
    hypot = partial(math.hypot, 0.3)
    for calls in both_paths(monkeypatch):
        for fn in (math.exp, math.expm1, math.log, math.sin):
            zero_d = _clibm.libm(fn, 0.7)
            assert type(zero_d) is np.float64 and zero_d == fn(0.7)
            assert _clibm.libm(fn, np.float64(0.7)) == fn(0.7)
            for empty in (np.empty(0), np.empty((0, 3))):
                assert _clibm.libm(fn, empty).shape == empty.shape
            for arr in (x, x[:, ::2], x.T, x[1], [0.25, 1.5]):
                got = _clibm.libm(fn, arr)
                assert got.shape == np.shape(arr)
                np.testing.assert_array_equal(got, math_map(fn, arr))
        # a function with no compiled loop (log, hypot) is mapped by math on either path
        np.testing.assert_array_equal(_clibm.libm(hypot, x), math_map(hypot, x))
        if calls is not None:
            assert len(calls) == 3 * 9 and {returned for _, returned in calls} == {0}


def test_kernel_raises_what_math_raises(monkeypatch):
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="math domain error"):
            math.log(bad)
    with pytest.raises(OverflowError, match="math range error"):
        math.exp(710.0)
    for calls in both_paths(monkeypatch):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="math domain error"):
                _clibm.libm(math.log, [1.0, 2.0, bad])
        with pytest.raises(OverflowError, match="math range error"):
            _clibm.libm(math.exp, [1.0, 710.0])
        got = _clibm.libm(math.exp, [math.nan, 1.0])
        assert math.isnan(got[0]) and got[1] == math.exp(1.0)
        # a lone non-finite result that math returns without raising
        assert _clibm.libm(math.exp, math.inf) == math.inf
        if calls is not None:
            # log has no compiled loop; the exp loop ran on each call and
            # declined it, so math answered
            assert calls == [("pqss_exp", 1)] * 3


def _package_arrays():
    cumulative_log_factorials.cache_clear()
    axis = AxisConfig(n=2000, l=3, pq=PQPair(1.0 - 0.5 / 2000, 1.0 - 1.0 / 2000),
                      alpha=0.5, beta=1.0)
    literal = AxisConfig(n=300, l=5, pq=PQPair(0.9, 0.6), node_exponent="literal")
    op = BivariateOperator(axis, literal)
    cat = build_catalog(axis.l + 1.0, literal.l + 1.0)
    d = np.linspace(0.0, 2.0, 41)
    high = AxisConfig(n=7998, l=2, pq=PQPair(1.0 - 0.6 / 8000, 1.0 - 1.4 / 8000), alpha=0.3,
                      beta=0.9)
    conv_axis = AxisConfig(n=2048, l=1, pq=PQPair(1.0 - 0.4 / 2048, 1.0 - 1.3 / 2048),
                           alpha=0.5, beta=1.0)
    converge = BivariateOperator(conv_axis, conv_axis)
    high_cat = build_catalog(2.0, 2.0)
    grid = np.linspace(0.0, 1.0, 41)
    return {
        "weight_matrix": weight_matrix(axis, np.linspace(0.0, 1.0, 21)),
        "cumulative_log_factorials": cumulative_log_factorials(8000, PAIRS[1].log_ratio),
        "high-degree log-factorials": cumulative_log_factorials(
            8000, PQPair(1.0 - 0.3 / 8000, 1.0 - 1.0 / 8000).log_ratio),
        "nodes": nodes(axis),
        "literal nodes": nodes(literal),
        "exp_sum samples": sample_at_nodes(op, cat["exp_sum"].fn),
        "exp_sum modulus": cat["exp_sum"].total_modulus(d[:, None], d[None, :]),
        "sinprod samples": sample_at_nodes(op, cat["sinprod"].fn),
        "exp_sum contraction": apply_on_grid(op, cat["exp_sum"].factors, d[:21] / 2.0, d / 2.0),
        "sum contraction": apply_on_grid(op, cat["sum"].factors, [0.0, 0.3, 1.0], [0.7]),
        # the benchmark's heavy shapes: a cold m = 8000 weight build, and
        # converge's contraction at n = 2048 on a 41-point grid
        "m = 8000 weight matrix": weight_matrix(high, grid),
        "n = 2048 exp_sum contraction": apply_on_grid(converge, high_cat["exp_sum"].factors,
                                                      grid, grid),
    }


@needs_compiler
def test_package_arrays_equal_with_and_without_kernel(monkeypatch):
    assert _clibm.load() is not None
    with_kernel = _package_arrays()
    monkeypatch.setattr(_clibm, "load", lambda: None)
    without = _package_arrays()
    cumulative_log_factorials.cache_clear()
    for name, arr in with_kernel.items():
        assert_same_bits(arr, without[name], err_msg=name)


def _sum2_error_rows(rng, rows, n=2 ** 20):
    """Rows of n + 2 terms on which Sum2's own error decides the rounding.

    1 and then n terms in [2^-53, 2^-52), each adding one ulp to the running
    sum s = 1 + i 2^-52, so s's errors x - 2^-52 are known and their running
    sum c, about -n 2^-54, rounds at every step.  At n = 2^20 (u = 2^-53),
    s + c misses the exact sum by about 2^-79: below the certificate's bound
    (n u)^2 A = 2^-66, but above n u^2 A = 2^-86, a bound linear in n.  The
    last term, on c's grid, puts s + c at about half that error from a
    midpoint, and the exact sum on its other side.
    """
    out = np.empty((rows, n + 2))
    for row in out:
        r = rng.integers(1, 2 ** 52, n)
        row[0], row[1:-1] = 1.0, (2.0 ** 52 + r) * 2.0 ** -105
        s, c = 1.0 + n * 2.0 ** -52, float(np.cumsum(row[1:-1] - 2.0 ** -52)[-1])
        # in units of 2^-105: s + c, its error, and the midpoint next to it
        sc = int(s * 2 ** 105) + int(c * 2 ** 105)
        err = 2 ** 105 + n * 2 ** 52 + sum(r.tolist()) - sc
        mid = (sc >> 53 << 53) + 2 ** 52
        grid = int(math.ulp(c) * 2 ** 105)
        row[-1] = round((mid - sc - err // 2) / grid) * grid * 2.0 ** -105
    return out


def _fsum_blocks():
    """Row blocks for the summation kernel, keyed by case: more than 10,000 rows
    spread over the cases where an fsum port goes wrong."""
    rng = np.random.default_rng(20261019)

    def signs(shape):
        return rng.choice([-1.0, 1.0], size=shape)

    # exact and near-exact cancellation: each row is v and -v(1 + k ulp), shuffled
    v = signs((2000, 20)) * 10.0 ** rng.uniform(-20.0, 20.0, (2000, 20))
    near = -v * (1.0 + rng.integers(-4, 5, v.shape) * 2.0 ** -52)
    cancelling = rng.permuted(np.concatenate([v, np.where(rng.random(v.shape) < 0.5, -v, near)],
                                             axis=1), axis=1)
    # powers of two 25 binades apart, ascending, with random signs: each row
    # holds 78 partials at its peak, past CPython's 32
    powers = 2.0 ** np.arange(-1000.0, 1000.0, 25.0)
    many_partials = signs((500, powers.size)) * powers
    # near-midpoint: a + ulp(a)/2 is a tie, and a third term 2^-k ulp(a)
    # (k >= 55, below the last bit of Sum2's error sum) decides it against
    # the tie's even neighbour, so fl(s + c) rounds every row the wrong way
    a = signs(1000) * rng.uniform(1.0, 2.0, 1000) * 2.0 ** rng.integers(-400, 400, 1000)
    ulp = np.spacing(np.abs(a))
    odd = (np.abs(a).view(np.int64) & 1) == 1
    near_midpoint = np.stack([a, np.sign(a) * ulp / 2.0,
                              np.where(odd, -1.0, 1.0) * np.sign(a) * ulp
                              * 2.0 ** -rng.integers(55, 600, 1000).astype(float)], axis=1)
    # 2^20 + 1 terms per row, where the certificate's (N u)^2 factor is large:
    # two rows of oracle-like terms, and two with random signs, whose sums
    # cancel to under a hundredth of the sum of magnitudes
    long_rows = rng.uniform(0.0, 1.0, (4, 2 ** 20 + 1)) * 10.0 ** rng.uniform(-30.0, 0.0,
                                                                             (4, 2 ** 20 + 1))
    long_rows[2:] *= signs((2, 2 ** 20 + 1))
    # +-2^k, then a term on either side of it within a few gaps, and a third,
    # far smaller term that may move the sum off a midpoint
    k = rng.integers(-900, 900, 2000).astype(float)
    gap_below = 2.0 ** (k - 53)
    near_power_of_two = signs(2000)[:, None] * np.stack([
        2.0 ** k,
        signs(2000) * gap_below * rng.choice([0.25, 0.5, 0.75, 1.0, 1.5, 2.0], 2000),
        signs(2000) * gap_below * rng.choice([0.0, 2.0 ** -60, 2.0 ** -20], 2000),
    ], axis=1)
    return {
        "wide": signs((4000, 40)) * 10.0 ** rng.uniform(-300.0, 300.0, (4000, 40)),
        "cancelling": cancelling,
        "subnormal": signs((2000, 20)) * np.where(
            rng.random((2000, 20)) < 0.7, rng.integers(1, 2 ** 40, (2000, 20)) * 5e-324,
            rng.uniform(0.0, 4.0, (2000, 20)) * 2.2250738585072014e-308),
        # products of weights and node values, as the oracle sums them
        "oracle-like": rng.uniform(0.0, 1.0, (2000, 64)) * 10.0 ** rng.uniform(-30.0, 0.0,
                                                                              (2000, 64)),
        "more-than-32-partials": many_partials,
        "near-midpoint": near_midpoint,
        "long": long_rows,
        "sum2-error": _sum2_error_rows(rng, 2),
        # sums next to a power of two, where the gap above is twice the gap
        # below: 1 + 2^-54 is half the gap below 1 and a quarter of the gap
        # above, so the two sides must be held to their own gaps; 1 - 2^-54
        # is a tie, which must go to the partials
        "power-of-two": np.array([[1.0, 2.0 ** -54], [1.0, -2.0 ** -54], [2.0, 2.0 ** -53],
                                  [-1.0, -2.0 ** -54]]),
        "near-power-of-two": near_power_of_two,
        "half-even": np.array([[1e-16, 1.0, 1e16], [1e16, 1.0, 1e-16], [1.0, 1e16, 1e-16],
                               [-1e-16, -1.0, -1e16], [1e16, 1.0, -1e-16], [1e100, 1.0, -1e100]]),
        "signed-zeros": np.array([[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [1.0, -1.0]]),
        "empty": np.empty((3, 0)),
    }


def assert_fsum_bits(got, block):
    want = np.array([math.fsum(row) for row in block.tolist()], dtype=float)
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64), want.view(np.uint64))


def plain_sum2(row):
    """fl(s + c) of Sum2 (Ogita, Rump and Oishi 2005), with no certificate."""
    s = c = 0.0
    for x in row:
        t = s + x
        z = t - s
        c += (s - (t - z)) + (x - z)
        s = t
    return s + c


def unit_weight_sums(sums, *blocks):
    """Each row of each 2-D block, all of one shape, summed by an
    oracle_sums-like function as one stack of tables (rows, 1, 1, cols) under
    unit weights, so every product is the term; shape (len(blocks), rows)."""
    rows, cols = blocks[0].shape
    return sums(np.ones((rows, 1)), np.ones((1, cols)),
                [block[:, None, None, :] for block in blocks])[:, :, 0]


def test_row_sum_kernel_is_math_fsum_bit_for_bit(monkeypatch):
    blocks = _fsum_blocks()
    assert sum(len(block) for block in blocks.values()) > 10_000
    # Sum2's rounding without the certificate is wrong on every near-midpoint
    # and sum2-error row
    for case in ("near-midpoint", "sum2-error"):
        assert all(plain_sum2(row) != math.fsum(row) for row in blocks[case].tolist()), case
    # every other power of two over the whole exponent range, ascending (its
    # sum passes 2^1020), and then with its negation (its exact sum is 0):
    # both go to the partials, about 1,000 of them
    spread = 2.0 ** np.arange(-1074.0, 1024.0, 2.0)
    # a strided view sums what a copy sums
    blocks.update(strided=blocks["wide"][::3, ::2], spread=spread[None, :],
                  spread_and_negation=np.concatenate([spread, -spread])[None, :])
    for calls in both_paths(monkeypatch):
        for case, block in blocks.items():
            # one stack of three: the block and its rows reversed share the
            # two lanes, and the block with its columns reversed (a new order
            # for Sum2, the same sum for fsum) runs alone
            stack = (block, block[::-1], block[:, ::-1])
            for got, table in zip(unit_weight_sums(_clibm.oracle_sums, *stack), stack):
                assert_fsum_bits(got, table)
            if calls is not None:
                assert calls.pop() == ("pqss_oracle_sums", 0), f"the kernel declined {case}"
        # finite terms whose running sum overflows: the kernel declines, and the
        # math path raises as math.fsum does
        block = np.array([[1e308, 1e308, -1e308]])
        for sums in (math.fsum, lambda row: unit_weight_sums(_clibm.oracle_sums, row[None, :])):
            with pytest.raises(OverflowError, match="intermediate overflow"):
                sums(block[0])
        if calls is not None:
            assert calls == [("pqss_oracle_sums", 1)]


def fsum_of_products(w1, w2, t):
    """math.fsum over i, j (row-major) of (w1[a, i] * w2[b, j]) * t[a, b, i, j],
    term by term in Python floats."""
    w1, w2, t = w1.tolist(), w2.tolist(), np.asarray(t).tolist()
    return np.array([[math.fsum((wa[i] * wb[j]) * t[a][b][i][j]
                                for i in range(len(wa)) for j in range(len(wb)))
                      for b, wb in enumerate(w2)] for a, wa in enumerate(w1)], dtype=float)


def _oracle_sum_cases():
    """(w1, w2, {case: table}) for the kernel: every table broadcasts to
    (len(w1), len(w2), n1, n2), and the tables mix layouts."""
    rng = np.random.default_rng(20261021)

    def weights(k, n):
        # 30 decades, a quarter exact zeros and a tenth subnormal
        w = rng.uniform(0.0, 1.0, (k, n)) * 10.0 ** rng.uniform(-30.0, 0.0, (k, n))
        w[rng.random(w.shape) < 0.25] = 0.0
        sub = rng.random(w.shape) < 0.1
        w[sub] = rng.integers(1, 2 ** 30, sub.sum()) * 5e-324
        return w

    def table(*shape):
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)

    xs1, xs2 = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4)
    t1, t2 = np.linspace(0.0, 2.0, 7), np.linspace(0.0, 3.0, 6)
    big = table(10, 4, 21, 12)
    return weights(5, 7), weights(4, 6), {
        "contiguous": table(5, 4, 7, 6),
        # verify's (t1 - x)^2 and (t2 - x)^2 views: stride 0 on two axes each
        "(t1 - x)^2": ((t1 - xs1[:, None]) ** 2)[:, None, :, None],
        "(t2 - x)^2": ((t2 - xs2[:, None]) ** 2)[None, :, None, :],
        "node table": table(7, 6),
        "non-contiguous": big[::2, :, ::3, 1::2],
        "reversed": table(5, 4, 7, 6)[::-1, :, ::-1, ::-1],
        "Fortran order": np.asfortranarray(table(5, 4, 7, 6)),
        # verify's one-axis node powers, t1^i[:, None] and t2^j
        "axis-1 column": table(7, 1),
        "axis-2 row": table(6),
        "per-point, 3-d": table(4, 1, 6),
        "stride-0 view": np.broadcast_to(table(5, 1, 7, 6), (5, 4, 7, 6)),
        "0-d": 1.0,
    }


def test_oracle_sums_is_fsum_of_the_products_bit_for_bit(monkeypatch):
    w1, w2, tables = _oracle_sum_cases()
    shape = (len(w1), len(w2), w1.shape[1], w2.shape[1])
    want = {case: fsum_of_products(w1, w2, np.broadcast_to(t, shape))
            for case, t in tables.items()}
    cases = list(tables)
    # stacks of 1, 2, 3, 8 and 9 tables, each starting at every case in turn,
    # so every case takes each lane and an odd stack's last place
    stacks = [[cases[(start + i) % len(cases)] for i in range(size)]
              for size in (1, 2, 3, 8, 9) for start in range(len(cases))]
    # axes of one weight row or of one or two terms, on slices of the same weights
    rng = np.random.default_rng(20261022)
    small = [(w1[:1], w2, (1, 4, 7, 6)), (w1, w2[:1], (5, 1, 7, 6)),
             (w1[:3, :2], w2[:2, :2], (3, 2, 2, 2)), (w1[:3, :1], w2[:2, :1], (3, 2, 1, 1))]
    for calls in both_paths(monkeypatch):
        for stack in stacks:
            got = _clibm.oracle_sums(w1, w2, [tables[case] for case in stack])
            if calls is not None:
                assert calls.pop() == ("pqss_oracle_sums", 0), f"the kernel declined {stack}"
            assert got.shape == (len(stack), len(w1), len(w2)), stack
            for case, sums in zip(stack, got):
                np.testing.assert_array_equal(sums.view(np.uint64), want[case].view(np.uint64),
                                              err_msg=f"{case} in {stack}")
        for v1, v2, table_shape in small:
            t = rng.uniform(-2.0, 2.0, table_shape)
            got = _clibm.oracle_sums(v1, v2, [t, t[::-1], 1.0])
            if calls is not None:
                assert calls.pop() == ("pqss_oracle_sums", 0), f"the kernel declined {table_shape}"
            want_small = [fsum_of_products(v1, v2, x) for x in (t, t[::-1], np.ones(table_shape))]
            np.testing.assert_array_equal(got.view(np.uint64), np.array(want_small).view(np.uint64),
                                          err_msg=str(table_shape))
        assert _clibm.oracle_sums(w1, w2, []).shape == (0, len(w1), len(w2))
        if calls is not None:
            assert calls.pop() == ("pqss_oracle_sums", 0)
        t = tables["contiguous"]
        # another dtype is converted before the call; another shape is refused,
        # at any place in the stack, before any sum
        got = _clibm.oracle_sums(w1, w2, [t.astype(np.float32)])
        if calls is not None:
            assert calls.pop() == ("pqss_oracle_sums", 0)
        np.testing.assert_array_equal(
            got[0].view(np.uint64), fsum_of_products(w1, w2, t.astype(np.float32)).view(np.uint64))
        for bad in (t[:, :, :, :5], t[:4], t[..., None], t[0, 0, 0, :, None],
                    np.broadcast_to(t[:, :1], t.shape)[:, :, 1:]):
            for stack in ([bad], [t, bad], [t, 1.0, bad]):
                with pytest.raises(ValueError, match="requires a table of shape"):
                    _clibm.oracle_sums(w1, w2, stack)
        assert not calls


def test_oracle_sums_lanes_certify_on_their_own(monkeypatch):
    # Sum2's rounding is wrong on every near-midpoint row, so only the
    # partials give its sums; a plain block in the other lane passes the
    # certificate.  Either lane's redo by the partials must leave its
    # partner's sums, and the other tables of the stack, as they are.
    near = _fsum_blocks()["near-midpoint"]
    assert all(plain_sum2(row) != math.fsum(row) for row in near.tolist())
    plain = np.random.default_rng(20261023).uniform(1.0, 2.0, near.shape)
    assert all(plain_sum2(row) == math.fsum(row) for row in plain.tolist())
    for calls in both_paths(monkeypatch):
        for stack in ((near, plain), (plain, near), (plain, near, plain[::-1]),
                      (near, plain, near[::-1], plain[::-1])):
            for got, block in zip(unit_weight_sums(_clibm.oracle_sums, *stack), stack):
                assert_fsum_bits(got, block)
        if calls is not None:
            assert calls == [("pqss_oracle_sums", 0)] * 4


def test_row_sum_falls_back_to_what_math_fsum_does(monkeypatch):
    # degree-1 axes: at (x1, x2) = (0.1, 0.2) the four rounded weight products
    # sum to more than 1, so a table of the largest double overflows there
    op = standard_sweep()[0]
    xs1, xs2 = [0.0, 0.1, 0.5], [0.2, 1.0]
    w1s = np.array([oracle_weight_vector(op.axis1, x) for x in xs1])
    w2s = np.array([oracle_weight_vector(op.axis2, x) for x in xs2])
    assert (np.outer(w1s[1], w2s[0]) > 0.0).all()

    def point_terms(table, a, b):
        return ((w1s[a][:, None] * w2s[b][None, :]) * table[a, b]).ravel().tolist()

    overflow, inf_minus_inf = np.ones((2, 3, 2, 2, 2))
    overflow[1, 0] = np.finfo(float).max
    inf_minus_inf[1, 0, 0, 0], inf_minus_inf[1, 0, 1, 1] = math.inf, -math.inf
    # nan, inf and -inf terms among finite ones: each point as math.fsum has it
    non_finite = np.ones((3, 2, 2, 2))
    non_finite[1, 0, 0, 1], non_finite[2, 0, 1, 0], non_finite[1, 1, 1, 1] = (
        math.nan, math.inf, -math.inf)
    want = np.array([[math.fsum(point_terms(non_finite, a, b)) for b in range(2)]
                     for a in range(3)])
    assert math.isnan(want[1, 0]) and want[2, 0] == math.inf and want[1, 1] == -math.inf
    assert np.isfinite(want[0]).all() and np.isfinite(want[2, 1])
    errors = ((overflow, OverflowError, "intermediate overflow"),
              (inf_minus_inf, ValueError, r"-inf \+ inf"))
    for calls in both_paths(monkeypatch):
        for table, error, match in errors:
            with pytest.raises(error, match=match):
                math.fsum(point_terms(table, 1, 0))
            with pytest.raises(error, match=match):
                _clibm.oracle_sums(w1s, w2s, [table])
            with pytest.raises(error, match=match):
                moment_oracle(op, [np.ones((2, 2)), table], xs1, xs2)
        # a later table's error, after tables that sum: the first table in
        # order that has an error raises it
        ones = np.ones((2, 2))
        for first, second in (errors, errors[::-1]):
            with pytest.raises(first[1], match=first[2]):
                moment_oracle(op, [ones, 1.0, first[0], second[0], ones], xs1, xs2)
        np.testing.assert_array_equal(moment_oracle(op, [non_finite], xs1, xs2)[0], want)
        if calls is not None:
            # one call per stack, which the kernel declined: each has a bad point
            assert calls == [("pqss_oracle_sums", 1)] * 7


@needs_compiler
def test_high_degree_oracle_is_summed_by_the_kernel(monkeypatch):
    # m = 1024 on both axes: a million terms at the point, whose weights span
    # hundreds of binades; the kernel sums them, with the fallback's bits
    n = 1024
    axis = AxisConfig(n=n, l=0, pq=PQPair(1.0 - 0.5 / n, 1.0 - 1.0 / n), alpha=0.5, beta=1.0)
    op = BivariateOperator(axis, axis)
    table = sample_at_nodes(op, build_catalog(1.0, 1.0)["exp_sum"].fn)
    calls = record_kernel(monkeypatch)
    with_kernel = moment_oracle(op, [table], [0.3], [0.8])
    assert calls == [("pqss_oracle_sums", 0)]
    monkeypatch.setattr(_clibm, "load", lambda: None)
    without = moment_oracle(op, [table], [0.3], [0.8])
    np.testing.assert_array_equal(with_kernel.view(np.uint64), without.view(np.uint64))


@needs_compiler
def test_moment_oracle_is_one_kernel_call(monkeypatch, asymmetric_sweep):
    op = asymmetric_sweep[100]
    t1, t2 = nodes(op.axis1), nodes(op.axis2)
    xs1, xs2 = sweep_grid(5), sweep_grid(3)
    tables = [1.0, t1[:, None], t2, np.outer(t1, t2), ((t1 - xs1[:, None]) ** 2)[:, None, :, None],
              ((t2 - xs2[:, None]) ** 2)[None, :, None, :], (t2 ** 2)[None, None], t1[:, None] ** 2]
    calls = record_kernel(monkeypatch)
    for k in range(len(tables) + 1):
        assert moment_oracle(op, tables[:k], xs1, xs2).shape == (k, 5, 3)
        assert calls == [("pqss_oracle_sums", 0)], k
        calls.clear()
    # verify's nodes call the pow kernel too
    assert verify_moments([op], xs1).ok
    assert [call for call in calls if call[0] == "pqss_oracle_sums"] == [("pqss_oracle_sums", 0)]
    calls.clear()
    # the axes' degrees differ, so an axis-1 row or an axis-2 column is refused
    for bad in (t1, t2[:, None], np.ones((5, 3, 1, 1, 1)), np.ones((3, 5, 1, 1))):
        with pytest.raises(ValueError, match="requires a table of shape"):
            moment_oracle(op, [1.0, bad], xs1, xs2)
    assert not calls


def in_order_matvec(w, v, reverse=False):
    """Each row of w times v (n values, or one for all n), summed term by term
    from the first (or from the last) in Python floats, starting from that
    term's product, as np.cumsum does."""
    w = np.asarray(w, dtype=float)
    values = np.broadcast_to(np.asarray(v, dtype=float), w.shape[1:]).tolist()
    out = []
    for row in w.tolist():
        products = [a * b for a, b in zip(row, values)]
        if reverse:
            products.reverse()
        acc = products[0]
        for x in products[1:]:
            acc += x
        out.append(acc)
    return np.array(out, dtype=float)


def _matvec_cases():
    """(weights, vector) pairs for the contraction, keyed by case; every row
    has a term, as every axis has m + 1 >= 2 nodes."""
    rng = np.random.default_rng(20261020)
    weights = rng.uniform(0.0, 1.0, (41, 700)) * 10.0 ** rng.uniform(-300.0, 0.0, (41, 700))
    weights[rng.random(weights.shape) < 0.4] = 0.0
    values = rng.choice([-1.0, 1.0], 700) * 10.0 ** rng.uniform(-8.0, 8.0, 700)
    subnormal = rng.integers(1, 2 ** 40, (20, 300)) * 5e-324
    long_row = rng.uniform(0.0, 1.0, (2, 2 ** 18 + 1)) * (rng.random((2, 2 ** 18 + 1)) < 0.5)
    wide = rng.uniform(0.0, 1.0, (30, 900))
    return {
        "exact zeros": (weights, values),
        "subnormal weights": (subnormal, rng.uniform(-4.0, 4.0, 300)),
        "m = 2^18": (long_row, rng.uniform(-2.0, 2.0, 2 ** 18 + 1)),
        "non-contiguous": (wide[::3, ::2], rng.uniform(-3.0, 3.0, 900)[::2]),
        "endpoint rows": (np.eye(5)[[0, 4]], np.array([1e-300, 2.0, -3.0, 4.0, 5e300])),
        # -0.0 products: a row of them sums to -0.0, not to 0.0 + -0.0
        "-0.0 products": (np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 2.0]]),
                          np.array([-1.0, -2.0, -0.0])),
        "transposed": (wide[:12, :40].T, rng.uniform(-3.0, 3.0, 12)),
        # a catalog constant: an int or a 0-d value stands for every node
        "int factor": (weights[:5], 3),
        "0-d factor": (weights[5:9], np.float64(-0.7)),
        "0-d array factor": (subnormal[:3], np.array(2.0)),
        "not finite": (np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 1.0, 1.0],
                                 [1.0, 0.0, 0.0, 1.0], [1e308, 1e308, -1e308, 1.0]]),
                       np.array([1.0, math.inf, -math.inf, math.nan])),
        "overflow": (np.array([[1e308, 1e308, -1e308], [1.0, 2.0, 3.0]]),
                     np.array([10.0, 10.0, 1.0])),
    }


def test_contraction_sums_in_index_order_bit_for_bit(monkeypatch):
    cases = _matvec_cases()
    for calls in both_paths(monkeypatch):
        for case, (w, v) in cases.items():
            assert_same_bits(weighted_sums(w, v), in_order_matvec(w, v), err_msg=case)
        if calls is not None:
            # one compiled call per weighted_sums call, for all its rows
            assert calls == [("pqss_weighted_sums", None)] * len(cases)
    # the cases can see a change of order: summing from the last term differs
    w, v = cases["exact zeros"]
    assert np.any(in_order_matvec(w, v) != in_order_matvec(w, v, reverse=True))


def scalar_weight_rows(lf, xs, lam, fill):
    """weight_rows written out with Python floats, one x at a time: the terms,
    their Neumaier prefix (0 first), each log weight in the kernel's order
    and its exp; a row whose x is not in (0, 1) is all fill."""
    lf, m = lf.tolist(), len(lf) - 1
    rows = []
    for x in xs:
        if not 0.0 < x < 1.0:
            rows.append([fill] * (m + 1))
            continue
        log_x = math.log(x)
        terms = [math.log(-math.expm1(j * lam + log_x)) for j in range(m)]
        pre = [0.0, *neumaier_loop(terms).tolist()]
        rows.append([math.exp((((lf[m] - lf[nu]) - lf[m - nu]) + nu * log_x) + pre[m - nu])
                     for nu in range(m + 1)])
    return np.array(rows)


# the two ends of the ratios PQPair admits: q/p = 2^-53 (lam about -36.7)
# and q/p = 1 - 2^-53 (lam about -1.1e-16)
EXTREME_RATIOS = (PQPair(1.0, 2.0 ** -53), PQPair(1.0, 1.0 - 2.0 ** -53))


def _weight_row_cases():
    """(m, pq, xs) on random axes: 1 - c/m pairs, p = 1 and (0.5, 0.25), and
    up to m = 8000 the extreme ratios, each with the edge x values, and the
    endpoints, whose rows are left as they are."""
    rng = np.random.default_rng(2028)
    edge = [0.0, 5e-324, 1e-300, 1.0 - 2.0 ** -53, 1.0]
    cases = []
    for m in (1, 2, 28, 257, 2049, 8000, 16384):
        c = max(m, 8)
        cp = float(rng.uniform(0.1, 1.0))
        cq = cp + float(rng.uniform(0.3, 1.5))
        pairs = (PQPair(1.0 - cp / c, 1.0 - cq / c), PQPair(1.0, 1.0 - cq / c), PQPair(0.5, 0.25))
        for pq in pairs + (EXTREME_RATIOS if m <= 8000 else ()):
            cases.append((m, pq, np.concatenate((edge, rng.uniform(0.0, 1.0, 3)))))
    return cases


def test_weight_path_loops_are_the_scalar_loops_bit_for_bit(monkeypatch):
    fill = -2.5
    cases = []
    for m, pq, xs in _weight_row_cases():
        logs = r_bracket_logs(m, pq)
        lf = np.concatenate(([0.0], neumaier_loop(logs)))
        cases.append((f"m={m} p={pq.p} q={pq.q}", m, pq.log_ratio, xs, logs, lf,
                      scalar_weight_rows(lf, xs, pq.log_ratio, fill)))
    for calls in both_paths(monkeypatch):
        for name, m, lam, xs, logs, lf, rows in cases:
            assert_same_bits(_clibm.bracket_logs(m, lam), logs, err_msg=name)
            out = np.full((xs.size, m + 1), fill)
            assert _clibm.weight_rows(lf, xs, lam, out) is out
            assert_same_bits(out, rows, err_msg=name)
        if calls is not None:
            # one compiled call per call, for the whole table and all rows
            assert calls == [("pqss_bracket_logs", None), ("pqss_weight_rows", None)] * len(cases)


def test_weight_matrix_rows_are_finite_and_nonnegative(monkeypatch):
    # lam < 0 puts every factor 1 - r^j x in (0, 1], so no row can hold an
    # inf or a nan, down to the extreme ratios and edge x values
    axes = [(AxisConfig(n=m, l=0, pq=pq), xs) for m, pq, xs in _weight_row_cases()]
    assert {axis.pq for axis, _ in axes} >= set(EXTREME_RATIOS)
    for _ in both_paths(monkeypatch):
        cumulative_log_factorials.cache_clear()
        for axis, xs in axes:
            w = weight_matrix(axis, xs)
            assert np.isfinite(w).all() and (w >= 0.0).all(), axis


@needs_compiler
def test_weight_matrix_is_one_kernel_call_per_table_and_per_matrix(monkeypatch):
    calls = record_kernel(monkeypatch)
    cumulative_log_factorials.cache_clear()
    axis = AxisConfig(n=300, l=2, pq=PQPair(0.99, 0.95), alpha=0.5, beta=1.0)
    xs = np.linspace(0.0, 1.0, 41)
    weight_matrix(axis, xs)
    # a cache miss builds the table: its bracket logs and their prefix sums
    assert calls == [("pqss_bracket_logs", None), ("pqss_neumaier", None),
                     ("pqss_weight_rows", None)]
    calls.clear()
    weight_matrix(axis, xs[::-1])
    weight_vector(axis, 0.3)
    assert calls == [("pqss_weight_rows", None)] * 2
    calls.clear()
    # the endpoint rows are the unit vectors, with no table and no kernel
    weight_matrix(axis, [0.0, 1.0, 0.0])
    assert calls == []


def test_weight_rows_refuses_lam_not_below_zero_on_both_paths(monkeypatch):
    lf = cumulative_log_factorials(300, PAIRS[1].log_ratio)
    for calls in both_paths(monkeypatch):
        # r = e^lam must be below 1: at lam = 1 the factor 1 - r x would be
        # below 0 at x = 0.5; lam = 0 and nan are refused alike
        for lam in (1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match=r"requires lam = log\(q/p\) < 0"):
                _clibm.weight_rows(lf, [0.3, 0.5], lam, np.zeros((2, 301)))
        if calls is not None:
            # refused before the compiled loop
            assert calls == []
    # the kernel writes m + 1 values per x into out, so its shape is checked first
    for out in (np.zeros((2, 300)), np.zeros((301, 2)).T, np.zeros((2, 301), dtype=np.float32)):
        with pytest.raises(ValueError, match=r"C-contiguous float out of shape \(2, 301\)"):
            _clibm.weight_rows(lf, [0.3, 0.5], PAIRS[1].log_ratio, out)


def _oracle_arrays(asymmetric_sweep):
    # asymmetric axes: m, p, q, alpha and beta differ between the axes
    op = asymmetric_sweep[100]
    assert op.axis1.degree != op.axis2.degree
    xs1, xs2 = np.linspace(0.0, 1.0, 7), np.array([0.0, 0.3, 0.71, 1.0])
    t1, t2 = nodes(op.axis1), nodes(op.axis2)
    cat = build_catalog(op.axis1.l + 1.0, op.axis2.l + 1.0)
    tables = [sample_at_nodes(op, cat["exp_sum"].fn),
              ((t1 - xs1[:, None]) ** 2)[:, None, :, None],
              ((t2 - xs2[:, None]) ** 2)[None, :, None, :]]
    ops = standard_sweep()[::27] + asymmetric_sweep[::45]
    # at a tolerance of 1e-16 some checks fail, so the failure lines are compared too
    res = verify_moments(ops, sweep_grid(5), 1e-16)
    assert res.failures
    literal = AxisConfig(n=10, l=3, pq=PQPair(0.9, 0.6))
    return {
        "moment_oracle": moment_oracle(op, tables, xs1, xs2),
        # eval --oracle: one point, fn's node table
        "one-point oracle": moment_oracle(op, [sample_at_nodes(op, cat["sinprod"].fn)],
                                          [0.3], [0.8]),
        "verify oracle values": np.array([[e.oracle for e in r.entries] for r in res.reports]),
        "verify points": np.array([r.point for r in res.reports]),
        "verify failures": np.array(res.failures + [str(res.n_checks)]),
        "literal factor": np.array([literal_first_moment_factor(literal, x) for x in (0.2, 1.0)]),
    }


@needs_compiler
def test_oracle_arrays_equal_with_and_without_kernel(monkeypatch, asymmetric_sweep):
    assert _clibm.load() is not None
    with_kernel = _oracle_arrays(asymmetric_sweep)
    monkeypatch.setattr(_clibm, "load", lambda: None)
    without = _oracle_arrays(asymmetric_sweep)
    for name, arr in with_kernel.items():
        np.testing.assert_array_equal(arr, without[name], err_msg=name)


@needs_compiler
def test_kernel_builds_on_a_cold_cache(tmp_path):
    # two fresh interpreters race to build the kernel in a copy of the package
    # whose __pycache__ holds only a stale build; both load it, and only the
    # built file is left
    src = Path(_clibm.__file__).resolve().parent
    shutil.copytree(src, tmp_path / "pqss", ignore=shutil.ignore_patterns("__pycache__"))
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    (tmp_path / "pqss" / "__pycache__").mkdir()
    (tmp_path / "pqss" / "__pycache__" / f"_pqss_libm_0000000000000000{suffix}").write_bytes(b"")
    code = "import pqss._clibm as k; m = k.load(); assert m is not None; print(m.__file__)"
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    results = [proc.communicate(timeout=300) for proc in procs]
    for proc, (out, err) in zip(procs, results):
        assert proc.returncode == 0, err
        assert Path(out.strip()).parent == tmp_path / "pqss" / "__pycache__"
    left = sorted(p.name for p in (tmp_path / "pqss" / "__pycache__").iterdir())
    assert left == [Path(results[0][0].strip()).name]


@needs_compiler
def test_kernel_removes_stale_builds_on_a_warm_cache(tmp_path):
    # a fresh interpreter finds the current build beside a stale one: it loads
    # the current build without rebuilding it, and only that build is left
    built = Path(_clibm.load().__file__)
    src = Path(_clibm.__file__).resolve().parent
    shutil.copytree(src, tmp_path / "pqss", ignore=shutil.ignore_patterns("__pycache__"))
    cache = tmp_path / "pqss" / "__pycache__"
    cache.mkdir()
    shutil.copy2(built, cache / built.name)
    inode = (cache / built.name).stat().st_ino
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    (cache / f"_pqss_libm_0000000000000000{suffix}").write_bytes(b"")
    code = "import pqss._clibm as k; m = k.load(); assert m is not None; print(m.__file__)"
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()) == cache / built.name
    assert sorted(p.name for p in cache.iterdir()) == [built.name]
    assert (cache / built.name).stat().st_ino == inode


_CONTRACTION = (
    "from pqss.catalog import build_catalog\n"
    "from pqss.operators import AxisConfig, BivariateOperator, apply_on_grid\n"
    "from pqss.pq_core import PQPair\n"
    "axis = AxisConfig(n=300, l=1, pq=PQPair(0.99, 0.95), alpha=0.5, beta=1.0)\n"
    "op = BivariateOperator(axis, AxisConfig(n=40, l=2, pq=PQPair(0.9, 0.6)))\n"
    "cat = build_catalog(2.0, 3.0)\n"
    "xs = [0.0, 0.1, 0.37, 0.5, 0.83, 1.0]\n"
    "grids = [apply_on_grid(op, cat[f].factors, xs, xs) for f in ('exp_sum', 'sum')]\n"
)


def test_no_compiler_keeps_the_math_path(tmp_path):
    # with no compiler found nothing is built or written, libm still gives
    # math's values and errors, and a factored contraction the same bits
    src = Path(_clibm.__file__).resolve().parent
    shutil.copytree(src, tmp_path / "pqss", ignore=shutil.ignore_patterns("__pycache__"))
    code = (
        "import math, shutil\n"
        "shutil.which = lambda *args, **kwargs: None\n"
        "import pqss._clibm as k\n"
        "from pqss._clibm import libm\n"
        "assert k.load() is None\n"
        "assert libm(math.exp, [0.0, 1.0]).tolist() == [1.0, math.exp(1.0)]\n"
        + _CONTRACTION +
        "print(' '.join(v.hex() for grid in grids for v in grid.ravel().tolist()))\n"
        "try:\n"
        "    libm(math.log, [0.0])\n"
        "except ValueError:\n"
        "    print('ok')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    contraction, ok = proc.stdout.strip().splitlines()
    assert ok == "ok"
    assert not (tmp_path / "pqss" / "__pycache__").exists()
    if _clibm.load() is not None:
        scope: dict = {}
        exec(_CONTRACTION, scope)
        assert contraction.split() == [v.hex() for g in scope["grids"] for v in g.ravel().tolist()]
