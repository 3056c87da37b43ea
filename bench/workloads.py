"""The benchmark's workloads: seeded inputs, the timed call, the check.

A workload is a list of *items*.  Each pass of a run draws a fresh list from
a generator seeded by (seed, pass index), so every pass brings new operator
parameters and the program's own caches see the same mix of hits and misses
on every pass.  `run(item)` is the timed call into a public pqss entry point.
`check(item, out)` compares that output with a reference computed outside
the timed path and returns the largest `value / limit` over the item's
checks: the item passes when it is <= 1.  A logical failure (non-zero exit
code, `VerifyResult.ok` false, a negative weight, a missing report) returns
infinity.

Why these four workloads (also recorded in BENCHMARK.json):

  verify-sweep      the body of `pqss verify`: the oracle, `fsum` and
                    `pq_integer` dominate; no sampling, BLAS or CLI.
  bounds-small      many small `pqss bounds` commands: argparse, CSV
                    serialisation and the bound grid dominate; operators
                    repeat across functions, so the log-factorial cache hits.
  converge-highdeg  `pqss converge` up to n = 2048: per-node Python
                    callbacks and the BLAS contraction dominate; every n
                    brings a new (p, q), so caches miss.
  weights-highdeg   single weight rows at degree 2000..8000, each on a fresh
                    axis: the log-space weight path and the log-factorial
                    tables, built cold for every row, dominate.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
from pathlib import Path

import numpy as np

from pqss import cli, moments, operators
from pqss.catalog import build_catalog
from pqss.operators import AxisConfig, BivariateOperator
from pqss.pq_core import PQPair

# Acceptance tolerances as pinned in tests/test_acceptance.py.  They are
# restated here, not imported, so a change in library defaults cannot relax
# the benchmark's checks.
MOMENT_TOL = 1e-10
UNITY_TOL = 1e-9
BOUND_SLACK = 1e-11


def _balanced(rng: np.random.Generator, values, count: int) -> list:
    """`count` draws from `values`, each value equally often, in random order.

    Balancing the levels keeps the cost of a pass nearly seed-independent
    while the pairing of levels stays random.
    """
    idx = np.resize(np.arange(len(values)), count)
    rng.shuffle(idx)
    return [values[i] for i in idx]


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class VerifySweep:
    """`moments.verify_moments([op], sweep_grid(11), 1e-10)` for one operator.

    The two axes are drawn independently from the sweep's value sets, so
    every degree stays within the oracle's range (m <= 28).
    """

    name = "verify-sweep"
    passes_min = 6

    def __init__(self, workdir: Path, smoke: bool = False):
        self.count = 15 if smoke else 105
        self.xs = moments.sweep_grid(11)

    def _axes(self, rng) -> list[AxisConfig]:
        ns = _balanced(rng, moments.SWEEP_N, self.count)
        ls = _balanced(rng, moments.SWEEP_L, self.count)
        pqs = _balanced(rng, moments.SWEEP_PQ, self.count)
        abs_ = _balanced(rng, moments.SWEEP_AB, self.count)
        return [
            AxisConfig(n=n, l=l, pq=PQPair(*pq), alpha=ab[0], beta=ab[1])
            for n, l, pq, ab in zip(ns, ls, pqs, abs_)
        ]

    def make_pass(self, rng) -> list:
        return [BivariateOperator(a1, a2) for a1, a2 in zip(self._axes(rng), self._axes(rng))]

    def run(self, op):
        return moments.verify_moments([op], self.xs, MOMENT_TOL)

    def check(self, op, res) -> float:
        # `ok` covers every check at every grid point.  The ratio is taken
        # from the one report verify_moments keeps, at the point with the
        # largest absdiff; the largest ratio may sit at another point, where
        # |oracle| is smaller.  max(absdiff) / tol would bound every ratio,
        # but it moves in whole ulps of values up to ~16 and spread 0.7
        # (quartiles over median) across seeds, far beyond the metric's bound.
        if not res.ok or len(res.reports) != 1:
            return math.inf
        return max(
            e.absdiff / (MOMENT_TOL * max(1.0, abs(e.oracle)))
            for e in res.reports[0].entries
        )


def _axis_flags(i: int, n: int, l: int, rng) -> list[str]:
    p = float(rng.uniform(0.8, 1.0))
    q = float(rng.uniform(0.3, p - 0.05))
    beta = float(rng.uniform(0.0, 2.0))
    alpha = float(rng.uniform(0.0, beta))
    return [f"--n{i}", str(n), f"--l{i}", str(l), f"--p{i}", repr(p), f"--q{i}", repr(q),
            f"--alpha{i}", repr(alpha), f"--beta{i}", repr(beta)]


class BoundsSmall:
    """Many `pqss bounds ... --grid 21` commands through `cli.main`, in-process.

    Each operator is run with several catalog functions that carry an exact
    modulus, so operators repeat within a pass.
    """

    name = "bounds-small"
    passes_min = 3
    grid = 21

    def __init__(self, workdir: Path, smoke: bool = False):
        self.ops = 5 if smoke else 25
        self.fns_per_op = 4
        self.out = workdir / "bounds.csv"
        self.names = sorted(
            tf.name for tf in build_catalog().values() if tf.total_modulus is not None
        )

    def make_pass(self, rng) -> list:
        # Degrees are balanced like verify-sweep's: the slowest tenth of a
        # pass, which sets item_tail_ms, is then not a matter of luck.
        ns = range(1, 26)
        n1, n2 = _balanced(rng, ns, self.ops), _balanced(rng, ns, self.ops)
        l1, l2 = _balanced(rng, range(4), self.ops), _balanced(rng, range(4), self.ops)
        items = []
        for k in range(self.ops):
            axes = _axis_flags(1, n1[k], l1[k], rng) + _axis_flags(2, n2[k], l2[k], rng)
            for f in rng.choice(self.names, self.fns_per_op, replace=False):
                items.append(["bounds", "--f", str(f), *axes, "--grid", str(self.grid),
                              "--output", str(self.out)])
        return items

    def run(self, argv):
        return _run_cli(argv)

    def check(self, argv, rc) -> float:
        try:
            rows = _read_csv(self.out)
        except FileNotFoundError:
            return math.inf
        finally:
            self.out.unlink(missing_ok=True)
        if rc != 0 or len(rows) != self.grid ** 2:
            return math.inf
        return max(float(r["lhs"]) / (float(r["rhs"]) + BOUND_SLACK) for r in rows)


class ConvergeHighdeg:
    """`pqss converge` for exp_sum and e20 up to n = 2048, one n per command.

    Each function gets its own seeded family p_n = 1 - cp/n, q_n = 1 - cq/n,
    so every command meets a (p, q) no earlier command used.
    """

    name = "converge-highdeg"
    passes_min = 4
    functions = ("exp_sum", "e20")

    def __init__(self, workdir: Path, smoke: bool = False):
        self.n_list = (16, 32, 64) if smoke else (64, 128, 256, 512, 1024, 2048)
        self.out = workdir / "converge"

    def make_pass(self, rng) -> list:
        items = []
        for f in self.functions:
            cp = float(rng.uniform(0.1, 1.0))
            cq = cp + float(rng.uniform(0.3, 1.5))
            for n in self.n_list:
                items.append(["converge", "--cp", repr(cp), "--cq", repr(cq),
                              "--n-list", str(n), "--l1", "1", "--alpha1", "0.5",
                              "--beta1", "1.0", "--f", f, "--grid", "41",
                              "--output", str(self.out)])
        return items

    def run(self, argv):
        return _run_cli(argv)

    def check(self, argv, rc) -> float:
        try:
            conv = list(self.out.glob("convergence_*.csv"))
            kor = list(self.out.glob("korovkin_*.csv"))
            if rc != 0 or len(conv) != 1 or len(kor) != 1:
                return math.inf
            table = _read_csv(conv[0])
            suite = _read_csv(kor[0])
        finally:
            shutil.rmtree(self.out, ignore_errors=True)
        numbers = [float(r[k]) for r in suite for k in r]
        numbers += [float(r["sup_err"]) for r in table]
        if len(table) != 1 or not all(math.isfinite(v) for v in numbers):
            return math.inf
        ratios = [float(r["ratio"]) for r in table if r["ratio"] != ""]
        return max(ratios, default=0.0)


def reference_nodes(axis: AxisConfig) -> np.ndarray:
    """Nodes t_nu from the closed bracket formula, outside the program's code."""
    p, q = axis.pq.p, axis.pq.q
    m = axis.degree
    log_ratio = math.log1p((q - p) / p)

    def bracket(k):
        return -(p ** k) * np.expm1(k * log_ratio) / (p - q)

    k = np.arange(m + 1, dtype=float)
    return (p ** (m - k) * bracket(k) + axis.alpha) / (bracket(float(axis.n)) + axis.beta)


class WeightsHighdeg:
    """`operators.weight_vector` rows at m in {2000, 4000, 8000}.

    p, q = 1 - c/m with seeded c.  Every row gets a fresh seeded axis, so the
    program's (m, p, q)-keyed log-factorial cache misses and the table is
    built inside every timed call.
    """

    name = "weights-highdeg"
    passes_min = 6

    def __init__(self, workdir: Path, smoke: bool = False):
        self.degrees = (200, 400) if smoke else (2000, 4000, 8000)
        self.rows_per_degree = 10 if smoke else 100

    def make_pass(self, rng) -> list:
        items = []
        for m in self.degrees:
            for _ in range(self.rows_per_degree):
                l = int(rng.integers(0, 4))
                cp = float(rng.uniform(0.1, 1.0))
                cq = cp + float(rng.uniform(0.3, 1.5))
                beta = float(rng.uniform(0.0, 2.0))
                axis = AxisConfig(n=m - l, l=l, pq=PQPair(1.0 - cp / m, 1.0 - cq / m),
                                  alpha=float(rng.uniform(0.0, beta)), beta=beta)
                items.append((axis, float(rng.uniform(0.0, 1.0))))
        return items

    def run(self, item):
        axis, x = item
        return operators.weight_vector(axis, x)

    def check(self, item, w) -> float:
        axis, x = item
        if w.shape != (axis.degree + 1,) or not np.all(w >= 0.0):
            return math.inf
        # Weights below 1e-30 add less than 1e-24 to any of the three sums
        # (t <= l + 1 <= 4), far under every tolerance; dropping them keeps
        # fsum from tracking hundreds of exponents.
        keep = w > 1e-30
        w, t = w[keep], reference_nodes(axis)[keep]
        m1 = moments.first_moment_univariate(axis, x)
        m2 = moments.second_moment_univariate(axis, x)
        ratios = (
            abs(math.fsum(w.tolist()) - 1.0) / UNITY_TOL,
            abs(math.fsum((w * t).tolist()) - m1) / (MOMENT_TOL * max(1.0, abs(m1))),
            abs(math.fsum((w * t * t).tolist()) - m2) / (MOMENT_TOL * max(1.0, abs(m2))),
        )
        return max(ratios) if all(math.isfinite(r) for r in ratios) else math.inf


WORKLOADS = {
    w.name: w for w in (VerifySweep, BoundsSmall, ConvergeHighdeg, WeightsHighdeg)
}
