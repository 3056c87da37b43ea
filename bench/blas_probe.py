"""BLAS identification, and a probe of the 41x513 contraction at default threads.

The benchmark pins BLAS to one thread.  This probe does not: it starts a few
fresh interpreters with the thread variables removed, so OpenBLAS picks its
default thread count, and times `w @ s @ w.T` with w 41x513 and s 513x513 in
each.  With two threads the per-process median has been seen to differ by
~100x between processes; one thread does not show it.  Run:

    python3 bench/blas_probe.py
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROCESSES = 6
CALLS = 200


def blas_info() -> dict:
    """Name, version and live thread count of numpy's BLAS, where it can be read."""
    import numpy as np

    info = {"blas": None, "blas_version": None, "blas_threads": None, "blas_config": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    info["blas_threads"] = get_threads()
                    info["blas_config"] = get_config().decode()
                    return info
    return info


def time_contraction() -> dict:
    import numpy as np

    rng = np.random.default_rng(0)
    w = rng.random((41, 513))
    s = rng.random((513, 513))
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        w @ s @ w.T
        times.append(time.perf_counter() - t0)
    return {"median_ms": 1e3 * statistics.median(times), "min_ms": 1e3 * min(times),
            "max_ms": 1e3 * max(times), **blas_info()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(time_contraction()))
        return 0
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    cmd = [sys.executable, os.path.abspath(__file__), "--child"]
    runs = []
    for _ in range(PROCESSES):
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    for r in runs:
        print(f"process: median {r['median_ms']:.3f} ms, min {r['min_ms']:.3f} ms, "
              f"max {r['max_ms']:.3f} ms, blas threads {r['blas_threads']}")
    print(json.dumps({"contraction": "41x513 @ 513x513 @ 513x41", "nproc": os.cpu_count(),
                      "processes": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
