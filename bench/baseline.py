"""Run the benchmark on several seeds, twice, and record medians and spreads.

Run from the repository root, for example:

    python3 bench/baseline.py --seeds 1-10 --output bench/baselines.json

Every workload of BENCHMARK.json runs once per seed with --trace 0; all of
that is done SETS times over, one whole set after the other, then once with
--trace 1 on the first seed.  For every end-to-end metric and every set the
output holds the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median; across sets it holds how much each later median
is worse than the first, as a share of it.  `within_bounds` says whether
every spread but setup_s's, and every such change, is within the metric's
bound.  For the per-layer metrics it holds the traced run's values.
bench/blas_probe.py is run once and its result kept with the environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Sets of runs of the same code over the same seeds; a benchmark is steady
# when their medians agree within the bounds.
SETS = 2


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict, dict]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    info = json.loads(next(line[4:] for line in lines if line.startswith("run ")))
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return json.loads(lines[-1]), info, env


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def worse_by(first: float, later: float, better: str) -> float:
    """How much `later` is worse than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--output", required=True)
    ap.add_argument("--commit", default=None, help="commit of the measured code, recorded as is")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs = {name: [[] for _ in range(SETS)] for name in names}
    for k in range(SETS):
        for name in names:
            for seed in seeds:
                result, info, env = run_once(spec, name, seed, 0)
                runs[name][k].append({"seed": seed, "result": result, "run": info})
                values = " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items())
                print(f"set {k + 1} {name} seed {seed}: correct={result['correct']} {values}",
                      flush=True)
    record = {"commit": args.commit, "seeds": seeds, "sets": SETS,
              "run_seconds": spec["run_seconds"], "environment": env, "workloads": {}}
    for name in names:
        sets = [
            {m: summarize([r["result"]["metrics"][m]["value"] for r in set_runs])
             for m in metrics}
            for set_runs in runs[name]
        ]
        worse = {
            m: max(worse_by(sets[0][m]["median"], s[m]["median"], spec_m["better"])
                   for s in sets[1:])
            for m, spec_m in metrics.items()
        }
        within = all(
            worse[m] <= spec_m["bound"]
            and (m == "setup_s" or all(s[m]["spread"] <= spec_m["bound"] for s in sets))
            for m, spec_m in metrics.items()
        )
        for m, spec_m in metrics.items():
            spreads = " ".join(f"{s[m]['spread']:.4f}" for s in sets)
            print(f"  {name} {m}: median {sets[0][m]['median']:.5g} spreads {spreads} "
                  f"later median worse by {worse[m]:+.4f} (bound {spec_m['bound']})", flush=True)
        traced, _, _ = run_once(spec, name, seeds[0], 1)
        all_runs = [r for set_runs in runs[name] for r in set_runs]
        record["workloads"][name] = {
            "all_correct": all(r["result"]["correct"] for r in all_runs),
            "attempted": sum(r["result"]["attempted"] for r in all_runs),
            "failed": sum(r["result"]["failed"] for r in all_runs),
            "end_to_end": sets,
            "later_median_worse_by": worse,
            "within_bounds": within,
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
            "runs": [[r["run"] for r in set_runs] for set_runs in runs[name]],
        }
    probe = subprocess.run([sys.executable, str(BENCH / "blas_probe.py")], cwd=ROOT,
                           capture_output=True, text=True, timeout=600, check=True)
    record["blas_probe_default_threads"] = json.loads(probe.stdout.strip().splitlines()[-1])
    Path(args.output).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
