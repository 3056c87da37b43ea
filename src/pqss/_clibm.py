"""libm's exp, expm1 and sin over a whole array, in one C loop;
the oracle's weighted sums, each a math.fsum; the weight path's two
sequential sums, Neumaier prefix sums and index-order row sums; and the
weight path itself, the bracket logs of the log-factorial table and the
weight rows.

libm applies a math-module function to an array.  Its compiled loop calls
the same libm functions as `math`, so every value keeps its bits and the
Python call per element is gone.  The oracle in moments sums its whole stack
of tables in one call to oracle_sums, whose compiled kernel forms every term
(w1[a, i] * w2[b, j]) * T[a, b, i, j] as it adds it, with no term array, and
gives math.fsum's bits: each point is summed by Sum2 (a TwoSum chain and its
error sum), two tables at a time in the two lanes of a vector of doubles,
and each lane's rounding is kept only where an error bound certifies it is
the correctly rounded exact sum; any other point is summed again by a port
of CPython 3.11's math_fsum.  compensated_cumsum (the log-factorial table)
and weighted_sums (every factor of apply_on_grid) run their rows through one
C loop each, and bracket_logs (the table's bracket logs) and weight_rows
(every interior row of weight_matrix) make their whole array in one call,
each with the operations of its numpy code in the same order, so they keep
its bits.

The C source below is built with cffi in API mode on first use, into this
package's __pycache__ directory, under a name keyed by a hash of the source,
the cdef, the compile flags and the interpreter's extension suffix.  The
compile runs in a child process, so its memory never counts against the
caller's, and writes into a temporary directory beside the target; the file
is moved into place with os.replace, so processes that build at once all
succeed.  Once a process has loaded its build, found or built, it deletes
the builds of other hashes.
The flags keep gcc from substituting anything for libm: no -ffast-math
(which would call libmvec's vector kernels, and reassociate the sums) and
-ffp-contract=off (no fused multiply-add in a row sum).  They
name no target CPU: the two-lane loop uses GCC's and Clang's vector
extension, which compiles to the architecture's baseline (SSE2 on x86-64).

Where cffi or a C compiler is missing (or is neither GCC nor Clang), or the
build fails, load() returns None, and libm and oracle_sums answer by the
math module instead (a map of the function over the array, math.fsum row by
row for the sums), which gives the same values and errors; the two sequential
sums answer by np.cumsum, which accumulates left to right, and bracket_logs
and weight_rows by numpy arithmetic, libm and compensated_cumsum.  A failed
build is not retried within the process.
"""

from __future__ import annotations

import functools
import math
import sys
from pathlib import Path

import numpy as np

# The modules that build, hash and load the kernel are imported by the code
# that uses them, on first use: at module level they would add about 10 ms
# to every `import pqss`.

_CDEF = """
int pqss_exp(const double *x, double *out, size_t n);
int pqss_expm1(const double *x, double *out, size_t n);
int pqss_sin(const double *x, double *out, size_t n);
int pqss_oracle_sums(const double *w1, const double *w2, const double *const *tables,
                     const ptrdiff_t *strides, double *out, size_t nt,
                     size_t k1, size_t k2, size_t n1, size_t n2);
void pqss_neumaier(const double *v, double *out, size_t rows, size_t n);
void pqss_weighted_sums(const double *w, const double *v, double *out, size_t rows, size_t n);
void pqss_bracket_logs(double lam, double *out, size_t n);
void pqss_weight_rows(const double *lf, const double *xs, double *out, size_t rows, size_t m,
                      double lam);
"""

_SOURCE = r"""
#include <math.h>
#include <stddef.h>

/* out[i] = fn(x[i]); the result is 1 if any output is not finite. */
#define PQSS_MAP(name, fn)                                  \
    int name(const double *x, double *out, size_t n)        \
    {                                                       \
        int bad = 0;                                        \
        for (size_t i = 0; i < n; i++) {                    \
            out[i] = fn(x[i]);                              \
            bad |= !isfinite(out[i]);                       \
        }                                                   \
        return bad;                                         \
    }

PQSS_MAP(pqss_exp, exp)
PQSS_MAP(pqss_expm1, expm1)
PQSS_MAP(pqss_sin, sin)

/* compensated_cumsum's loop over each row of n values, in which s and c
   start from their first terms as np.cumsum's do (s = v[0], not 0.0 + v[0]). */
void pqss_neumaier(const double *v, double *out, size_t rows, size_t n)
{
    for (size_t r = 0; r < rows; r++, v += n, out += n) {
        double s = 0.0, c = 0.0;
        for (size_t i = 0; i < n; i++) {
            double x = v[i], t = i ? s + x : x;
            double e = fabs(s) >= fabs(x) ? (s - t) + x : (x - t) + s;
            c = i ? c + e : e;
            s = t;
            out[i] = s + c;
        }
    }
}

/* out[r] = row r of w (rows n apart) times v, added from the first product,
   as np.cumsum adds (so a row of -0.0 products sums to -0.0). */
void pqss_weighted_sums(const double *w, const double *v, double *out, size_t rows, size_t n)
{
    for (size_t r = 0; r < rows; r++, w += n) {
        double s = w[0] * v[0];
        for (size_t i = 1; i < n; i++)
            s += w[i] * v[i];
        out[r] = s;
    }
}

/* math.fsum by CPython 3.11's math_fsum: Shewchuk's non-overlapping
   partials, then the half-even correction across them.  fsum_add returns 1
   if the term or the new partial is not finite, where math.fsum raises or
   returns inf or nan; math.fsum must then redo the sums.  Non-overlapping
   partials occupy disjoint bit positions, and a finite double has 2,098 of
   them (2^-1074 to 2^1023), so no finite sum needs more partials than
   PQSS_PARTIALS; the check against it only guards the buffer. */
#define PQSS_PARTIALS 2098

static int fsum_add(double *p, size_t *np, double v)
{
    size_t i = 0, n = *np;
    for (size_t j = 0; j < n; j++) {
        double y = p[j];
        if (fabs(v) < fabs(y)) {
            double t = v;
            v = y;
            y = t;
        }
        double hi = v + y;
        double lo = y - (hi - v);
        if (lo != 0.0)
            p[i++] = lo;
        v = hi;
    }
    n = i;
    if (v != 0.0) {
        if (!isfinite(v) || n == PQSS_PARTIALS)
            return 1;
        p[n++] = v;
    }
    *np = n;
    return 0;
}

static double fsum_finish(const double *p, size_t n)
{
    double hi = 0.0;
    if (n > 0) {
        double lo = 0.0;
        hi = p[--n];
        while (n > 0) {
            double v = hi, y = p[--n];
            hi = v + y;
            lo = y - (hi - v);
            if (lo != 0.0)
                break;
        }
        if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0))) {
            double y = lo * 2.0;
            double v = hi + y;
            if (y == v - hi)
                hi = v;
        }
    }
    return hi;
}

/* Two lanes of doubles: GCC's and Clang's vector extension, which runs each
   lane's +, - and * as the scalar operation (SSE2 on x86-64, NEON on
   AArch64, and scalar code elsewhere), so every lane keeps scalar bits. */
typedef double pqss_v2 __attribute__((vector_size(16)));
typedef long long pqss_v2i __attribute__((vector_size(16)));

/* Sum2 (Ogita, Rump and Oishi, "Accurate sum and dot product", SIAM J. Sci.
   Comput. 26(6), 2005) over one point's N = n1 n2 terms
   x = (w1[i] * w2[j]) * t[i si + j sj] of two tables at once, one lane per
   table: the product w1[i] * w2[j] is formed once for both lanes, and each
   lane then runs a TwoSum chain into s, sums its errors into c and
   A = sum |x| alongside, with the scalar operations in the same order.  The
   chain starts from s = 0, so it is Sum2 over N + 1 terms. */
static void sum2_pair(const double *w1, const double *w2, const double *t0,
                      const double *t1, const ptrdiff_t *st0, const ptrdiff_t *st1,
                      size_t n1, size_t n2, pqss_v2 *s_out, pqss_v2 *c_out, pqss_v2 *a_out)
{
    const pqss_v2i sign = (pqss_v2i)(pqss_v2){-0.0, -0.0};
    pqss_v2 s = {0.0, 0.0}, c = s, A = s;
    ptrdiff_t sj0 = st0[3], sj1 = st1[3];
    for (size_t i = 0; i < n1; i++) {
        double wi = w1[i];
        const double *r0 = t0 + (ptrdiff_t)i * st0[2], *r1 = t1 + (ptrdiff_t)i * st1[2];
        for (size_t j = 0; j < n2; j++) {
            double w = wi * w2[j];
            pqss_v2 x = (pqss_v2){w, w} * (pqss_v2){r0[(ptrdiff_t)j * sj0], r1[(ptrdiff_t)j * sj1]};
            pqss_v2 sum = s + x, z = sum - s;
            c += (s - (sum - z)) + (x - z);
            s = sum;
            A += (pqss_v2)((pqss_v2i)x & ~sign);
        }
    }
    *s_out = s;
    *c_out = c;
    *a_out = A;
}

/* One lane's certificate.  With u = 2^-53 and g = gamma_N = N u / (1 - N u),
   the exact sum S has |S - (s + c)| <= g^2 * (exact sum |x|) <= g^2 / (1 - g) * A,
   as the rounded A is at least (1 - g) times the exact sum |x|.  Then
   r = fl(s + c), d = (s + c) - r exactly (TwoSum), e = sign(r) d (d away
   from 0 is positive) and E = fl(k A) >= g^2 / (1 - g) A, so sign(r) S lies
   in [|r| + e - E, |r| + e + E].  The two sides of |r| have their own
   gaps, which differ where |r| is a power of two: with h_above and h_below
   half the gaps above and below |r|, if fl(e + E) < h_above and
   fl(E - e) < h_below, then e + E < h_above and E - e < h_below exactly
   (rounding is monotone and the h are doubles), so
   |r| - h_below < sign(r) S < |r| + h_above: S is inside r's rounding
   interval and not on its ends, so r is S correctly rounded, which is
   math.fsum's result, stored in *out.  A tie (S on an end) fails the
   strict test and goes to the partials.
   - k = (1 + 2^-7) (N u)^2 exceeds g^2 / (1 - g) with room for the
     roundings of k and k A while N u <= 2^-10; past that no point passes.
   - |r| >= 2^-960 keeps each h at least 2^-1014, so the absolute error of
     a subnormal k A (at most 2^-1075) cannot close the margin; r = 0 fails.
   - A <= 2^1020 keeps s, c and the partials of math.fsum, which stay below
     about 2 A, finite: math.fsum raises nothing on a point that passes.
   Returns 0 where the test fails (near a midpoint, under heavy cancellation,
   an exact 0, |r| < 2^-960, a term or sum not finite). */
static int sum2_certified(double s, double c, double A, double k, double *out)
{
    double r = s + c, z = r - s, d = (s - (r - z)) + (c - z), ar = fabs(r);
    double e = copysign(1.0, r) * d, E = k * A;
    if (!(A <= 0x1p1020 && ar >= 0x1p-960 && e + E < 0.5 * (nextafter(ar, INFINITY) - ar)
          && E - e < 0.5 * (ar - nextafter(ar, 0.0))))
        return 0;
    *out = r;
    return 1;
}

/* One point of one table summed by the partials, over the terms sum2_pair
   forms, in the same order; 1 where fsum_add declines. */
static int fsum_products(const double *w1, const double *w2, const double *t,
                         const ptrdiff_t *st, size_t n1, size_t n2, double *p, double *out)
{
    size_t n = 0;
    for (size_t i = 0; i < n1; i++) {
        double wi = w1[i];
        const double *ti = t + (ptrdiff_t)i * st[2];
        for (size_t j = 0; j < n2; j++)
            if (fsum_add(p, &n, (wi * w2[j]) * ti[(ptrdiff_t)j * st[3]]))
                return 1;
    }
    *out = fsum_finish(p, n);
    return 0;
}

/* out[(u k1 + a) k2 + b] = math.fsum over i < n1, j < n2 (row-major) of
   (w1[a n1 + i] * w2[b n2 + j]) * T_u[a sa + b sb + i si + j sj] for each of
   the nt tables T_u, whose addresses are tables[u] and whose strides, in
   elements (0 or negative too), are strides[4 u .. 4 u + 3] = sa, sb, si, sj.
   The tables run two at a time through sum2_pair (the last of an odd stack
   in both lanes); a lane that sum2_certified does not pass is summed again
   by the partials on its own.  The result is 1 where fsum_add declines. */
int pqss_oracle_sums(const double *w1, const double *w2, const double *const *tables,
                     const ptrdiff_t *strides, double *out, size_t nt,
                     size_t k1, size_t k2, size_t n1, size_t n2)
{
    double p[PQSS_PARTIALS];
    double nu = (double)n1 * (double)n2 * 0x1p-53;
    double k = nu <= 0x1p-10 ? 0x1.02p0 * (nu * nu) : INFINITY;
    for (size_t a = 0; a < k1; a++) {
        for (size_t b = 0; b < k2; b++) {
            const double *wa = w1 + a * n1, *wb = w2 + b * n2;
            for (size_t u = 0; u < nt; u += 2) {
                /* the tables in the two lanes; an odd stack's last is in both */
                size_t lane[2] = {u, u + 1 < nt ? u + 1 : u};
                const ptrdiff_t *st[2];
                const double *t[2];
                for (size_t v = 0; v < 2; v++) {
                    st[v] = strides + 4 * lane[v];
                    t[v] = tables[lane[v]] + (ptrdiff_t)a * st[v][0] + (ptrdiff_t)b * st[v][1];
                }
                pqss_v2 s, c, A;
                sum2_pair(wa, wb, t[0], t[1], st[0], st[1], n1, n2, &s, &c, &A);
                for (size_t v = 0; v < (lane[1] > lane[0] ? 2 : 1); v++) {
                    double *o = out + (lane[v] * k1 + a) * k2 + b;
                    if (!sum2_certified(s[v], c[v], A[v], k, o)
                            && fsum_products(wa, wb, t[v], st[v], n1, n2, p, o))
                        return 1;
                }
            }
        }
    }
    return 0;
}

/* The two loops below run stage by stage over the whole row, so that the
   libm calls of a stage do not wait on one another.  They come after the
   oracle's code: placed before it, they moved its loops in the binary, and
   one verify item (all oracle) measured about 2% slower. */

/* bracket_logs: out[k - 1] = log [k]_r = log(expm1(k lam) / expm1(lam)) for
   k = 1..n, r = e^lam.  Each [k]_r = 1 + r + ... + r^(k-1) is at least 1,
   so every log is finite. */
void pqss_bracket_logs(double lam, double *out, size_t n)
{
    double d = expm1(lam);
    for (size_t i = 0; i < n; i++)
        out[i] = expm1((double)(i + 1) * lam);
    for (size_t i = 0; i < n; i++)
        out[i] = log(out[i] / d);
}

/* weight_rows: row r (m + 1 values) holds the weights at x = xs[r] if
   0 < x < 1, and is left as it is otherwise; out[nu] = exp(lw), i = m - nu,
   lw = (((lf[m] - lf[nu]) - lf[i]) + nu log x) + pre[i],
   where pre[0] = 0 and pre[i] is the Neumaier prefix, seeded as in
   pqss_neumaier, of the terms log(-expm1((j lam) + log x)), j < i.  Term j
   is kept in out[m - 1 - j] until pre[j + 1] takes its place.  With
   lam < 0 every factor 1 - r^j x is in (0, 1], so every term, and so every
   weight, is finite. */
void pqss_weight_rows(const double *lf, const double *xs, double *out, size_t rows, size_t m,
                      double lam)
{
    for (size_t r = 0; r < rows; r++, out += m + 1) {
        if (!(xs[r] > 0.0 && xs[r] < 1.0))
            continue;
        double log_x = log(xs[r]), s = 0.0, c = 0.0;
        for (size_t j = 0; j < m; j++)
            out[m - 1 - j] = -expm1(((double)j * lam) + log_x);
        for (size_t j = 0; j < m; j++)
            out[m - 1 - j] = log(out[m - 1 - j]);
        out[m] = 0.0;
        for (size_t i = 1; i <= m; i++) {
            double x = out[m - i], t = i > 1 ? s + x : x;
            double e = fabs(s) >= fabs(x) ? (s - t) + x : (x - t) + s;
            c = i > 1 ? c + e : e;
            s = t;
            out[m - i] = s + c;
        }
        for (size_t nu = 0; nu <= m; nu++)
            out[nu] = exp((((lf[m] - lf[nu]) - lf[m - nu]) + (double)nu * log_x) + out[nu]);
    }
}
"""

_FLAGS = ["-O2", "-ffp-contract=off"]
_CACHE = Path(__file__).resolve().parent / "__pycache__"
_BUILD_TIMEOUT_S = 300

# Run by the child: compile the spec read from stdin into its tmpdir.
_CHILD = """
import json, sys
import cffi
spec = json.load(sys.stdin)
ffi = cffi.FFI()
ffi.cdef(spec["cdef"])
ffi.set_source(spec["name"], spec["source"], libraries=["m"], extra_compile_args=spec["flags"])
ffi.compile(tmpdir=spec["tmpdir"])
"""

_KERNELS = {
    math.exp: "pqss_exp",
    math.expm1: "pqss_expm1",
    math.sin: "pqss_sin",
}


def _build(name: str, target: Path) -> bool:
    """Compile the module in a child process and move it to target; False
    if the build failed."""
    import json
    import os
    import shutil
    import subprocess
    import tempfile

    try:
        _CACHE.mkdir(exist_ok=True)
        tmpdir = tempfile.mkdtemp(prefix=f"{name}-", dir=_CACHE)
    except OSError:
        return False
    try:
        spec = {"cdef": _CDEF, "source": _SOURCE, "name": name, "flags": _FLAGS,
                "tmpdir": tmpdir}
        subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(spec), cwd=tmpdir,
                       capture_output=True, text=True, timeout=_BUILD_TIMEOUT_S, check=True)
        os.replace(Path(tmpdir) / target.name, target)
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return True


@functools.cache
def load():
    """The compiled module (with .ffi and .lib), built on first use, or None
    where it cannot be built or loaded here."""
    import contextlib
    import hashlib
    import importlib.util
    import shutil
    import sysconfig

    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    name = "_pqss_libm_" + hashlib.sha256(
        "\0".join([_CDEF, _SOURCE, *_FLAGS, suffix]).encode()
    ).hexdigest()[:16]
    target = _CACHE / f"{name}{suffix}"
    if not target.exists():
        compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
        if shutil.which(compiler) is None or importlib.util.find_spec("cffi") is None:
            return None
        if not _build(name, target):
            return None
    try:
        spec = importlib.util.spec_from_file_location(name, target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        return None
    # other hashes' builds, left by earlier versions of the kernel
    for path in _CACHE.glob(f"_pqss_libm_*{suffix}"):
        if path.is_file() and path != target:
            with contextlib.suppress(OSError):
                path.unlink()
    return module


def libm(fn, x):
    """fn applied to each element of x, on any shape, with math's bits and errors.

    numpy's own exp/expm1/log/pow/sin/hypot use SIMD kernels that differ
    from libm in the last bit on some inputs, and which kernel runs depends
    on the CPU; going through libm keeps every value, and so every report,
    identical to the scalar evaluation.  math.exp, math.expm1 and math.sin
    run in one compiled loop over the array, which calls the same libm
    functions as math.  Any other fn (math.log among them), a call with an
    output that is not finite (libm returns inf, -inf or nan where math
    raises OverflowError or ValueError, or gives nan itself) and a machine
    without the kernel map fn over x.flat, which gives the same finite
    values and raises math's errors; iterating x.flat keeps memory at one
    float per element.  A 0-d input gives a numpy float, not a 0-d array.
    """
    x = np.asarray(x, dtype=float, order="C")
    module = load()
    if module is not None and fn in _KERNELS:
        kernel = getattr(module.lib, _KERNELS[fn])
        out = np.empty_like(x)
        ffi = module.ffi
        if not kernel(ffi.from_buffer("double[]", x), ffi.from_buffer("double[]", out), x.size):
            return out[()]
    return np.fromiter(map(fn, x.flat), float, count=x.size).reshape(x.shape)[()]


def oracle_sums(w1: np.ndarray, w2: np.ndarray, tables) -> np.ndarray:
    """math.fsum over i, j (row-major) of (w1[a, i] * w2[b, j]) * T[a, b, i, j]
    for each table T of the sequence tables and each (a, b), shape
    (len(tables), k1, k2).

    w1 is (k1, n1) and w2 is (k2, n2); each table broadcasts to
    (k1, k2, n1, n2), with any strides (a view such as t[:, None] or a 0-d
    1.0 passes as it is, its strides worked out here); another shape raises
    ValueError.  The whole stack is one call to the compiled kernel, which
    forms each term as it adds it, with no term array, two tables at a time.
    Where there is no kernel, or a term or partial is not finite, the sums
    are redone table by table by math.fsum over terms built one w1 row at a
    time, which gives the same values and raises math.fsum's errors, for the
    first table in order that has one.
    """
    w1 = np.ascontiguousarray(w1, dtype=float)
    w2 = np.ascontiguousarray(w2, dtype=float)
    (k1, n1), (k2, n2) = w1.shape, w2.shape
    shape = (k1, k2, n1, n2)
    arrays, strides = [], []
    for t in tables:
        t = np.asarray(t)
        if t.dtype != float or not t.flags.aligned:
            t = t.astype(float)
        pad = len(shape) - t.ndim
        strides += [0] * pad
        for d, want, stride in zip(t.shape, shape[pad:], t.strides):
            if pad < 0 or d != want and d != 1:
                raise ValueError(f"requires a table of shape {shape}, or one that broadcasts "
                                 f"to it (got {t.shape})")
            # a length-1 axis is read at index 0 whatever its length in shape
            strides.append(stride // t.itemsize if d != 1 else 0)
        arrays.append(t)
    out = np.empty((len(arrays), k1, k2))
    module = load()
    if module is not None:
        ffi = module.ffi
        pointers = [ffi.cast("double *", t.ctypes.data) for t in arrays]
        if not module.lib.pqss_oracle_sums(
                ffi.from_buffer("double[]", w1), ffi.from_buffer("double[]", w2), pointers,
                strides, ffi.from_buffer("double[]", out), len(arrays), k1, k2, n1, n2):
            return out
    for t, sums in zip(arrays, out):
        t = np.broadcast_to(t, shape)
        for a, row in enumerate(w1):
            terms = (row[None, :, None] * w2[:, None, :]) * t[a]
            sums[a] = [math.fsum(memoryview(point.ravel())) for point in terms]
    return out


def compensated_cumsum(values) -> np.ndarray:
    """Running prefix sums with Neumaier compensation, along the last axis.

    Naive cumulative sums of ~2000 log-factorial terms drift around 1e-10;
    the compensated version keeps every prefix near 1e-13, which the long
    partition-of-unity checks rely on.  Each row is the sequential loop

        t = s + v;  c += (s - t) + v if |s| >= |v| else (v - t) + s;  s = t;
        out = s + c

    run by the compiled kernel, one call for all rows, or without it by
    np.cumsum, which accumulates left to right (each error term depends only
    on its own s, v and t): the same bits either way, inf and nan included.
    """
    v = np.ascontiguousarray(values, dtype=float)
    module = load()
    if module is not None:
        out, buf = np.empty_like(v), functools.partial(module.ffi.from_buffer, "double[]")
        module.lib.pqss_neumaier(buf(v), buf(out), v.size // max(v.shape[-1], 1), v.shape[-1])
        return out
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.cumsum(v, axis=-1)
        prev = np.zeros_like(s)
        prev[..., 1:] = s[..., :-1]
        err = np.where(np.abs(prev) >= np.abs(v), (prev - s) + v, (v - s) + prev)
        return s + np.cumsum(err, axis=-1)


def weighted_sums(w: np.ndarray, v) -> np.ndarray:
    """w @ v for w of shape (k, n >= 1) and v of n values or one (for all n),
    each row summed from its first term to its last, one rounded product and
    one rounded add per term, so every CPU and BLAS gives the same bits: the
    compiled kernel, one call for all rows, or without it
    np.cumsum(w * v, axis=1)[:, -1], which accumulates left to right."""
    w = np.ascontiguousarray(w, dtype=float)
    k, n = w.shape
    module = load()
    if module is not None and n:
        out, buf = np.empty(k), functools.partial(module.ffi.from_buffer, "double[]")
        v = np.ascontiguousarray(np.broadcast_to(v, (n,)), dtype=float)
        module.lib.pqss_weighted_sums(buf(w), buf(v), buf(out), k, n)
        return out
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumsum(w * v, axis=1)[:, -1]


def bracket_logs(kmax: int, lam: float) -> np.ndarray:
    """log [k]_r = log(expm1(k lam) / expm1(lam)) for k = 1..kmax (kmax >= 0),
    the brackets of r = e^lam, with lam = PQPair.log_ratio < 0 (r = q/p is
    never rounded).  Each [k]_r = 1 + r + ... + r^(k-1) is at least 1, so
    every log is finite.  The compiled kernel makes the whole array in one
    call, and numpy with libm does without it, with the same bits.
    """
    module = load()
    if module is not None:
        out = np.empty(kmax)
        module.lib.pqss_bracket_logs(lam, module.ffi.from_buffer("double[]", out), kmax)
        return out
    return libm(math.log, libm(math.expm1, np.arange(1.0, kmax + 1) * lam) / math.expm1(lam))


def _log_rising_terms(m: int, xs, lam: float) -> np.ndarray:
    """Logs of the factors 1 - r^j x for j = 0..m-1, r = e^lam, one row per x
    in xs.

    Every x lies in (0, 1) and every factor is > 0.  Factor j is taken as
    -expm1(j lam + log x), which stays accurate when r^j x is close to 1
    (x near 1 with r near 1), exactly where the direct subtraction cancels.
    """
    j = np.arange(m, dtype=float)
    log_x = libm(math.log, np.asarray(xs, dtype=float))[:, None]
    return libm(math.log, -libm(math.expm1, j * lam + log_x))


def weight_rows(lf: np.ndarray, xs, lam: float, out: np.ndarray) -> np.ndarray:
    """The weights s_0(x)..s_m(x) at r = e^lam, written into the rows of out,
    shape (len(xs), m + 1), whose x is in (0, 1) (the other rows are left as
    they are), from lf = cumulative_log_factorials(m, lam), in log space:

        log s_nu(x) = log binom + nu log x + (sum of the last m - nu rising-factor logs)

    with log binom = (lf[m] - lf[nu]) - lf[m - nu], the rising-factor logs
    from _log_rising_terms summed by compensated_cumsum, and one exp; out is
    returned.  lam must be below 0 (PQPair.log_ratio always is): then every
    factor 1 - r^j x is in (0, 1] and every weight is finite, and any other
    lam raises ValueError on either path.  The compiled kernel makes every
    row in place in one call, with the operations of the numpy code in the
    same order, so it has its bits; the numpy code runs where the kernel is
    missing.
    """
    lf = np.ascontiguousarray(lf, dtype=float)
    xs = np.ascontiguousarray(xs, dtype=float)
    m = lf.size - 1
    if out.shape != (xs.size, m + 1) or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError(f"requires a C-contiguous float out of shape {(xs.size, m + 1)} "
                         f"(got {out.dtype} {out.shape})")
    if not lam < 0.0:
        raise ValueError(f"requires lam = log(q/p) < 0 (got lam={lam})")
    module = load()
    if module is not None:
        buf = functools.partial(module.ffi.from_buffer, "double[]")
        module.lib.pqss_weight_rows(buf(lf), buf(xs), buf(out), xs.size, m, lam)
        return out
    inner = (0.0 < xs) & (xs < 1.0)
    rising_prefix = np.zeros((inner.sum(), m + 1))
    rising_prefix[:, 1:] = compensated_cumsum(_log_rising_terms(m, xs[inner], lam))
    nu = np.arange(m + 1.0)
    log_x = libm(math.log, xs[inner])[:, None]
    log_w = (lf[m] - lf - lf[::-1]) + nu * log_x + rising_prefix[:, ::-1]
    out[inner] = libm(math.exp, log_w)
    return out
