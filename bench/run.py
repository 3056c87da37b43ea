"""Benchmark for the pqss package: seeded workloads with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

Workloads: verify-sweep, bounds-small, converge-highdeg, weights-highdeg (see
bench/workloads.py).  A run:

1. measures set-up in fresh interpreters: each imports pqss from src/,
   builds the first pass's operators and catalogs, and then runs the
   reference loop (below) to scale its own time (median of several);
2. warms up on one small pass;
3. runs passes of freshly seeded items until --seconds have elapsed and at
   least the workload's minimum number of passes is done, timing each call
   into pqss and checking each output outside the timed region.

Times are reported at reference machine speed.  On a shared machine the
speed of one core drifts by 15-25% over minutes (work on the sibling
hyperthread, frequency changes); CPU time drifts with it, and no choice of
statistic over a 20 s run removes a drift that lasts minutes.  So every pass
interleaves a fixed reference loop with its items, and each item time is
scaled by REFERENCE_S / (median time of the reference samples around it).
The raw median pass time and the mean scale factor are printed alongside.

With --trace 0 it reports the end-to-end metrics:

  setup_s          median of SETUP_PROBES fresh-interpreter import + input
                   build times
  wall_s           median over passes of the summed item times
  item_p50_ms      median over passes of the per-pass median item time
  item_tail_ms     median over passes of the highest percentile of the
                   ladder 99/98/95/90/75/50 with at least ten of a pass's
                   items beyond it; a workload with too few items per pass
                   picks the percentile for the items of its minimum number
                   of passes, and still takes the median of each pass's
                   value there (a percentile pooled over a run reads the
                   largest item of one cost group, whose size varies with
                   the number of passes).  The percentile and its sample
                   count are printed.
  peak_rss_mb      peak resident memory of this process at the end of the
                   workload's minimum number of passes (later passes would
                   only fill the program's caches further)
  check_ratio_max  largest check value / pinned limit over the minimum
                   passes (deterministic for a fixed seed)

and prints failed_frac, the item counts and the environment on the lines
before the final JSON line.  With --trace 1 it runs traced passes, then as
many untraced passes, and one more pass that only counts calls into catalog
functions.  It reports the per-layer metrics of bench/tracer.py per pass,
with the tracing overhead per pass.  The spans are written to .bench_work/.

BLAS and OpenMP are pinned to one thread: with the default two threads the
same small contraction is fast in some processes and ~100x slower in
others.  bench/blas_probe.py keeps that behaviour on record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("verify-sweep", "bounds-small", "converge-highdeg", "weights-highdeg")
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
# A percentile is a measured item time, never an interpolation between two:
# converge-highdeg's items fall into groups of very different cost, and an
# interpolated median would move with the spread inside two groups.
PERCENTILE_METHOD = "inverted_cdf"
# Each probe is a fresh interpreter of ~0.3 s; one probe's scaled time
# spreads 10-15% (quartiles over median), the median of 15 a few percent.
SETUP_PROBES = 15
# Reference loops a setup probe runs after its timed region; their median
# scales it.
SETUP_REFERENCES = 5
WARMUP_PASS = 1_000_000

# Median time of reference_loop() on the machine the baselines were taken on
# (2-core x86-64, Python 3.11, numpy 2.4); it only fixes the unit of the
# scaled times.
REFERENCE_S = 0.0055
# Item time between two reference-loop samples within a pass, and the number
# of samples around an item whose median scales it (about half a second).
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "check_ratio_max": "ratio",
}


def _import_workloads():
    """Import pqss from this checkout's src/ and the workload definitions."""
    if not (SRC / "pqss" / "__init__.py").is_file():
        raise SystemExit(f"error: no pqss package under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    import pqss
    if Path(pqss.__file__).resolve().parent != SRC / "pqss":
        raise SystemExit(f"error: imported pqss from {pqss.__file__}, not {SRC}")
    return workloads


def _rng(seed: int, pass_index: int):
    import numpy as np

    return np.random.default_rng([seed, pass_index])


def reference_loop() -> float:
    """Seconds for a fixed mix like the workloads': an interpreted float loop,
    a list comprehension, fsum, and numpy calls on arrays of 8000 floats."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += math.log(i + 1.0) * 1.0000001
    terms = [math.log1p(i * 1e-4) for i in range(10_000)]
    math.fsum(terms)
    a = np.arange(8000.0)
    for _ in range(40):
        a = np.exp(-np.sqrt(a + 1.0))
    return time.perf_counter() - t0


def setup_probe(workload: str, seed: int, smoke: bool) -> None:
    """Child process: time importing pqss and building the first pass, then
    time the reference loop in the same process, which is on the same core
    at nearly the same moment."""
    t0 = time.perf_counter()
    mod = _import_workloads()
    wl = mod.WORKLOADS[workload](WORK, smoke)
    wl.make_pass(_rng(seed, 0))
    setup_s = time.perf_counter() - t0
    reference = statistics.median(reference_loop() for _ in range(SETUP_REFERENCES))
    print(json.dumps({"setup_s": setup_s, "reference_s": reference}))


def measure_setup(args) -> float:
    """Median probe time, each scaled by its own process's reference loops."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        times.append(probe["setup_s"] * REFERENCE_S / probe["reference_s"])
    return statistics.median(times)


class Pass:
    """One pass: item times, check ratios, and the reference-loop samples."""

    def __init__(self):
        self.latencies: list[float] = []
        self.ref_index: list[int] = []  # latest reference sample before each item
        self.reference: list[float] = []
        self.ratios: list[float] = []
        self.failed = 0
        self.peak_rss_mb = 0.0

    def scaled(self) -> list[float]:
        """Item times at reference speed, each scaled by the median of the
        REFERENCE_WINDOW reference samples around it."""
        half = REFERENCE_WINDOW // 2
        return [
            t * REFERENCE_S / statistics.median(self.reference[max(0, j - half): j + half + 1])
            for t, j in zip(self.latencies, self.ref_index)
        ]

    @property
    def raw_wall(self) -> float:
        return math.fsum(self.latencies)

    @property
    def wall(self) -> float:
        return math.fsum(self.scaled())

    def scaled_percentile(self, q: float) -> float:
        import numpy as np

        return float(np.percentile(self.scaled(), q, method=PERCENTILE_METHOD))


def run_pass(wl, items, tracer=None) -> Pass:
    """Time each item's call into pqss, then check its output untimed."""
    res = Pass()
    res.reference.append(reference_loop())
    since_reference = 0.0
    for item in items:
        if since_reference >= REFERENCE_EVERY_S:
            res.reference.append(reference_loop())
            since_reference = 0.0
        res.ref_index.append(len(res.reference) - 1)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(item)
            else:
                with tracer.span(f"bench.item.{wl.name}"):
                    out = wl.run(item)
        except Exception as exc:  # a failing item is counted, not fatal
            res.latencies.append(time.perf_counter() - t0)
            print(f"item raised {type(exc).__name__}: {exc}", file=sys.stderr)
            res.failed += 1
            continue
        res.latencies.append(time.perf_counter() - t0)
        since_reference += res.latencies[-1]
        try:
            ratio = wl.check(item, out)
        except Exception as exc:
            print(f"check raised {type(exc).__name__}: {exc}", file=sys.stderr)
            ratio = math.inf
        if not ratio <= 1.0:
            res.failed += 1
        if math.isfinite(ratio):
            res.ratios.append(ratio)
    res.reference.append(reference_loop())
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return res


def run_passes(wl, seed: int, first: int, seconds: float = 0.0, tracer=None,
               count: int | None = None) -> list[Pass]:
    """Passes first, first+1, ...: `count` of them, or until `seconds` have
    elapsed and the workload's minimum number is done."""
    passes = []
    start = time.perf_counter()
    while True:
        if count is not None:
            if len(passes) >= count:
                break
        elif len(passes) >= wl.passes_min and time.perf_counter() - start >= seconds:
            break
        items = wl.make_pass(_rng(seed, first + len(passes)))
        passes.append(run_pass(wl, items, tracer))
    return passes


def tail_level(n: int) -> float | None:
    """Highest ladder percentile with at least ten of `n` samples beyond it."""
    for level in TAIL_LADDER:
        if math.floor(n * (100.0 - level) / 100.0) >= 10:
            return level
    return None


def end_to_end(wl, passes: list[Pass], setup_s: float) -> tuple[dict, dict]:
    per_pass = len(passes[0].latencies)
    tail_samples = per_pass
    level = tail_level(per_pass)
    if level is None:
        tail_samples = per_pass * wl.passes_min
        level = tail_level(tail_samples)
    tail = statistics.median(p.scaled_percentile(level) for p in passes)
    ratios = [r for p in passes[: wl.passes_min] for r in p.ratios]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "item_p50_ms": 1e3 * statistics.median(p.scaled_percentile(50.0) for p in passes),
        "item_tail_ms": 1e3 * tail,
        "peak_rss_mb": passes[wl.passes_min - 1].peak_rss_mb,
        "check_ratio_max": max(ratios, default=0.0),
    }
    info = {
        "tail_percentile": level,
        "tail_samples": tail_samples,
        "passes": len(passes),
        "items_per_pass": per_pass,
        "raw_wall_s": statistics.median(p.raw_wall for p in passes),
        "mean_scale": statistics.fmean(p.wall / p.raw_wall for p in passes),
    }
    return values, info


def trace_run(wl, seed: int, seconds: float) -> tuple[list[Pass], dict, dict]:
    """Traced passes for half the time, then as many untraced passes, then a
    repeat of the first pass that counts catalog calls (its times unused)."""
    from tracer import Tracer

    tr = Tracer()
    tr.calibrate()
    with tr.installed():
        traced = run_passes(wl, seed, 0, seconds / 2.0, tr)
    plain = run_passes(wl, seed, len(traced), count=len(traced))
    with tr.catalog_calls_counted():
        counted = run_passes(wl, seed, 0, count=1)
    metrics = tr.layer_metrics(len(traced))
    metrics["catalog.fn.calls"] = tr.counters["catalog.fn.calls"] / len(counted)
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain)
    )
    tr.save(WORK / f"trace-{wl.name}-seed{seed}.npz")
    info = {"traced_passes": len(traced), "plain_passes": len(plain),
            "counting_passes": len(counted)}
    return traced + plain + counted, metrics, info


def environment() -> dict:
    import platform

    import numpy as np

    from blas_probe import blas_info

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    # Before numpy first loads, here and in the child processes, which inherit it.
    os.environ.update({var: "1" for var in THREAD_VARS})
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs, one setup probe")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.smoke)
        return 0

    wlmod = _import_workloads()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = wlmod.WORKLOADS[args.workload](workdir, args.smoke)
        warm = wlmod.WORKLOADS[args.workload](workdir, smoke=True)
        run_pass(warm, warm.make_pass(_rng(args.seed, WARMUP_PASS)))
        if args.trace:
            from tracer import layer_metric_units

            passes, metrics, info = trace_run(wl, args.seed, args.seconds)
            units = layer_metric_units()
        else:
            setup_s = measure_setup(args)
            passes = run_passes(wl, args.seed, 0, args.seconds)
            metrics, info = end_to_end(wl, passes, setup_s)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                failed_frac=failed / attempted)
    print("run " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} {float(value)!r} {units[name]}")
    print("env " + json.dumps(environment(), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
