"""libm's exp, expm1 and sin over a whole array, in one C loop, and an
axis's table expm1(j lam); the oracle's weighted sums, each a math.fsum; the
contraction's index-order row sums; and the weight rows, by ratios outward
from each row's largest.

libm applies a math-module function to an array.  Its compiled loop calls
the same libm functions as `math`, so every value keeps its bits and the
Python call per element is gone.  The oracle in moments sums its whole stack
of tables in one call to oracle_sums, whose compiled kernel forms every term
(w1[a, i] * w2[b, j]) * T[a, b, i, j] as it adds it, with no term array, and
gives math.fsum's bits: each point is summed by Sum2 (a TwoSum chain and its
error sum), two tables at a time in the two lanes of a vector of doubles,
and each lane's rounding is kept only where an error bound certifies it is
the correctly rounded exact sum; any other point is summed again by a port
of CPython 3.11's math_fsum.  weighted_sums (every factor of apply_on_grid)
and weight_ratio_rows (the whole of weight_matrix, its check of xs too) run
all their rows in one call each, with the operations of their numpy code in
the same order, so they keep its bits; expm1_table forms each j * lam as
np.arange(m + 1.0) * lam does.

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
name no target CPU: the two-lane loops use GCC's and Clang's vector
extension, which compiles to the architecture's baseline (SSE2 on x86-64).

Where cffi or a C compiler is missing (or is neither GCC nor Clang), or the
build fails, load() returns None, and libm and oracle_sums answer by the
math module instead (a map of the function over the array, math.fsum row by
row for the sums), which gives the same values and errors; weighted_sums
answers by np.cumsum, which accumulates left to right, weight_ratio_rows by
numpy and expm1_table by libm.  A failed build is not retried in-process.
The module holds only these compiled loops and their fallbacks.
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
void pqss_weighted_sums(const double *w, const double *v, double *out, size_t rows, size_t n);
int pqss_expm1_table(double lam, double *out, size_t n);
ptrdiff_t pqss_weight_ratio_rows(const double *e, const double *xs, double *out, size_t rows,
                                 size_t m);
"""

_SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

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

/* After the oracle's code: weight loops placed before it moved its loops in
   the binary, and one verify item (all oracle) measured about 2% slower. */

/* frexp for v > 0: v's mantissa in [0.5, 1), its exponent added to *ex. */
static double pqss_frexp(double v, int64_t *ex)
{
    uint64_t b;
    if (v < 0x1p-1022) {
        v *= 0x1p64;
        *ex -= 64;
    }
    memcpy(&b, &v, sizeof b);
    *ex += (int64_t)(b >> 52) - 1022;
    b = (b & 0xfffffffffffffULL) | 0x3fe0000000000000ULL;
    memcpy(&v, &b, sizeof v);
    return v;
}

/* out[j] = expm1(j lam), j < n, through the product np.arange(n) * lam
   forms; the result is 1 if any output is not finite. */
int pqss_expm1_table(double lam, double *out, size_t n)
{
    int bad = 0;
    for (size_t j = 0; j < n; j++) {
        out[j] = expm1((double)j * lam);
        bad |= !isfinite(out[j]);
    }
    return bad;
}

/* out[k] = rho_k, or 1 / rho_k formed directly where inverse, for k < n:
   rho_k = (e[m - k] x) / (e[k + 1] ((1 - x) - x e[m - 1 - k])), two at a
   time, one per lane (an odd n's last in both). */
static inline void pqss_ratios(const double *e, size_t m, double x, size_t n, int inverse,
                               double *out)
{
    pqss_v2 vx = {x, x}, vy = {1.0 - x, 1.0 - x};
    for (size_t k = 0; k < n; k += 2) {
        size_t j = k + 1 < n ? k + 1 : k;
        pqss_v2 num = (pqss_v2){e[m - k], e[m - j]} * vx;
        pqss_v2 den = (pqss_v2){e[k + 1], e[j + 1]};
        den *= vy - vx * (pqss_v2){e[m - 1 - k], e[m - 1 - j]};
        pqss_v2 v = inverse ? den / num : num / den;
        out[k] = v[0];
        out[j] = v[1];
    }
}

/* weight_ratio_rows: row r (m + 1 values) holds the weights at x = xs[r]
   (e_0 at x = 0, e_m at x = 1); the result is the index of the first x
   outside [0, 1] (nan too), found before any row is written, or -1.  Each
   rho_k = s_(k+1) / s_k (in out[k + 1]) is finite and >= +0.0, as
   1 - r^j x = (1 - x) - x e[j] adds two terms >= 0.  The anchor a is the
   first index of the largest term of 1, rho_0, rho_0 rho_1, ..., each
   rounded as with no exponent range: term k is g 2^d, and g takes rho_k as
   it is while the product is in [2^-1000, 2^1000], where a power of 2
   changes no rounding, else from both mantissas, the top term rescaled to
   g's scale (top_g: 0 or inf out of reach).  From s_a = 1 the row is the
   product of the inverse ratios to the left and of the rho_k to the right,
   divided by its sum in index order.  Each side stops at its first exact
   0: every later product is +0.0, which changes no sum and divides to +0.0,
   so the sum and the division cover [lo, hi) alone. */
ptrdiff_t pqss_weight_ratio_rows(const double *e, const double *xs, double *out, size_t rows,
                                 size_t m)
{
    for (size_t r = 0; r < rows; r++)
        if (!(xs[r] >= 0.0 && xs[r] <= 1.0))
            return (ptrdiff_t)r;
    for (size_t r = 0; r < rows; r++, out += m + 1) {
        double x = xs[r], g = 1.0, top = 1.0, top_g = 1.0, w = 1.0, s;
        int64_t d = 0, top_d = 0;
        size_t a = 0, lo = 0, hi = m + 1;
        if (!(x > 0.0 && x < 1.0)) {
            memset(out, 0, (m + 1) * sizeof *out);
            out[x == 0.0 ? 0 : m] = 1.0;
            continue;
        }
        pqss_ratios(e, m, x, m, 0, out + 1);
        for (size_t k = 0; k < m; k++) {
            double h = g * out[k + 1];
            if (!(h >= 0x1p-1000 && h <= 0x1p1000)) {
                int64_t ex = d;
                h = pqss_frexp(g, &ex) * (out[k + 1] > 0.0 ? pqss_frexp(out[k + 1], &ex) : 0.0);
                if (h == 0.0)
                    break; /* this term and every later one are 0 */
                d = ex;
                ex = top_d - d;
                top_g = pqss_frexp(top, &ex);
                top_g = ex < -1000 ? 0.0 : ex > 1001 ? INFINITY : ldexp(top_g, (int)ex);
            }
            if (h > top_g) {
                top = top_g = h;
                top_d = d;
                a = k + 1;
            }
            g = h;
        }
        pqss_ratios(e, m, x, a, 1, out);
        for (size_t k = a; k-- > 0;) {
            w *= out[k];
            if (w == 0.0) {
                memset(out, 0, (k + 1) * sizeof *out);
                lo = k + 1;
                break;
            }
            out[k] = w;
        }
        out[a] = w = 1.0;
        s = out[lo];
        for (size_t k = lo + 1; k <= a; k++)
            s += out[k];
        for (size_t k = a; k < m; k++) {
            w *= out[k + 1];
            if (w == 0.0) {
                memset(out + k + 1, 0, (m - k) * sizeof *out);
                hi = k + 1;
                break;
            }
            out[k + 1] = w;
            s += w;
        }
        for (size_t k = lo; k < hi; k += 2) {
            size_t j = k + 1 < hi ? k + 1 : k;
            pqss_v2 v = (pqss_v2){out[k], out[j]} / (pqss_v2){s, s};
            out[k] = v[0];
            out[j] = v[1];
        }
    }
    return -1;
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


# Products of this many mantissas in [0.5, 1) stay normal doubles.
_CHUNK = 512


def _anchors(ratio: np.ndarray) -> np.ndarray:
    """Per row of ratio (rows, m), the kernel's anchor: the first index of the
    largest term of 1, ratio[0], ratio[0] ratio[1], ..., each term keyed by
    (exponent, mantissa) from np.frexp of the ratios and of the products of
    their mantissas, _CHUNK at a time; a term that reaches 0 is never chosen."""
    mant, lead = np.frexp(ratio)
    rows, m = ratio.shape
    key_x, key_f = np.ones((rows, m + 1), np.int64), np.full((rows, m + 1), 0.5)
    for s in range(0, m, _CHUNK):
        prod = np.cumprod(np.column_stack((key_f[:, s], mant[:, s:s + _CHUNK])), axis=1)[:, 1:]
        f, x = np.frexp(prod)
        x = x + key_x[:, s, None] + np.cumsum(lead[:, s:s + _CHUNK], axis=1, dtype=np.int64)
        key_f[:, s + 1:s + 1 + f.shape[1]] = f
        key_x[:, s + 1:s + 1 + f.shape[1]] = np.where(f > 0.0, x, -(2 ** 62))
    top = key_x == key_x.max(axis=1, keepdims=True)
    return np.argmax(np.where(top, key_f, -1.0), axis=1)


def expm1_table(m: int, lam: float) -> np.ndarray:
    """libm(math.expm1, np.arange(m + 1.0) * lam), whose products the compiled
    loop forms itself, with no array of them; the libm call answers where
    there is no kernel or a value is not finite."""
    module = load()
    if module is not None:
        out = np.empty(m + 1)
        if not module.lib.pqss_expm1_table(lam, module.ffi.from_buffer("double[]", out), m + 1):
            return out
    return libm(math.expm1, np.arange(m + 1.0) * lam)


def weight_ratio_rows(e, xs) -> np.ndarray:
    """The weights s_0(x)..s_m(x) at r = e^lam, one row per x in xs, in a new
    matrix: the unit rows e_0 at x = 0 and e_m at x = 1.  An x outside
    [0, 1] (nan too) raises ValueError naming the first.

    From e = expm1(nu lam), nu = 0..m, by ratios outward from each row's
    largest weight (C. Loader, "Fast and accurate computation of binomial
    probabilities", 2000), as pqss_weight_ratio_rows describes.  An e[1]
    above -2^-54 (no PQPair.log_ratio gives one) raises ValueError, so every
    ratio is finite.  The kernel checks xs and makes every row in one call,
    each side of a row up to its first exact 0; its numpy fallback does the
    same operations in the same order, over whole rows, so has its bits.
    """
    e, xs = np.ascontiguousarray(e, dtype=float), np.ascontiguousarray(xs, dtype=float)
    m = e.size - 1
    if m and not e[1] <= -2.0 ** -54:
        raise ValueError(f"requires e[1] = expm1(lam) at most -2^-54, lam = log(q/p) < 0 (got {e[1]})")
    module = load()
    if module is not None:
        out, buf = np.empty((xs.size, m + 1)), functools.partial(module.ffi.from_buffer, "double[]")
        bad = module.lib.pqss_weight_ratio_rows(buf(e), buf(xs), buf(out), xs.size, m)
    else:
        bad = next(iter(np.flatnonzero(~((0.0 <= xs) & (xs <= 1.0)))), -1)
    if bad >= 0:
        raise ValueError(f"requires x in [0, 1] (got x={xs[bad]})")
    if module is not None:
        return out
    out = np.zeros((xs.size, m + 1))
    out[xs == 0.0, 0] = 1.0
    out[xs == 1.0, m] = 1.0
    inner = np.flatnonzero((0.0 < xs) & (xs < 1.0))
    x, k = xs[inner, None], np.arange(m)
    num, den = e[m - k] * x, e[k + 1] * ((1.0 - x) - x * e[m - 1 - k])
    ratio = num / den
    for i, row, a in zip(inner, range(inner.size), _anchors(ratio)):
        w = out[i]
        w[a] = 1.0
        w[a + 1:] = np.cumprod(ratio[row, a:])
        w[:a] = np.cumprod(den[row, a - 1::-1] / num[row, a - 1::-1])[::-1] if a else []
        w /= np.cumsum(w)[-1]
    return out
