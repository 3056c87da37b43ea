"""Tests of the benchmark itself: every metric is printed, and checks can fail.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from pqss import operators, pq_core  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.layer_metric_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(result["metrics"][m["name"]]["value"])
        assert printed[m["name"]] == m["unit"]
    assert len(result["metrics"]) == len(spec)


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout


def _weights_item():
    wl = workloads.WeightsHighdeg(Path("."), smoke=True)
    item = wl.make_pass(np.random.default_rng(3))[0]
    return wl, item, wl.run(item)


def test_weights_check_rejects_a_perturbed_row():
    wl, item, w = _weights_item()
    assert wl.check(item, w) <= 1.0
    bumped = w.copy()
    bumped[int(np.argmax(w))] *= 1.0 + 1e-6
    assert wl.check(item, bumped) > 1.0
    negative = w.copy()
    negative[0] = -1e-300
    assert wl.check(item, negative) == math.inf


def test_verify_check_rejects_a_failed_comparison():
    wl = workloads.VerifySweep(Path("."), smoke=True)
    op = wl.make_pass(np.random.default_rng(3))[0]
    res = wl.run(op)
    assert wl.check(op, res) <= 1.0
    res.failures.append("injected")
    assert wl.check(op, res) == math.inf


def _rewrite_csv(path: Path, edit) -> None:
    lines = path.read_bytes().decode("utf-8").split("\r\n")
    header = lines[0].split(",")
    cells = lines[1].split(",")
    edit(dict(zip(header, range(len(header)))), cells)
    lines[1] = ",".join(cells)
    path.write_bytes("\r\n".join(lines).encode("utf-8"))


def test_bounds_check_rejects_a_flipped_bound(tmp_path):
    wl = workloads.BoundsSmall(tmp_path, smoke=True)
    argv = wl.make_pass(np.random.default_rng(3))[0]
    assert wl.check(argv, wl.run(argv)) <= 1.0

    def flip(col, cells):
        cells[col["lhs"]], cells[col["rhs"]] = "1.0", "0.5"

    rc = wl.run(argv)
    _rewrite_csv(wl.out, flip)
    assert wl.check(argv, rc) > 1.0
    wl.run(argv)
    assert wl.check(argv, 1) == math.inf


def test_converge_check_rejects_a_broken_table(tmp_path):
    wl = workloads.ConvergeHighdeg(tmp_path, smoke=True)
    argv = wl.make_pass(np.random.default_rng(3))[0]
    assert wl.check(argv, wl.run(argv)) <= 1.0

    def over(col, cells):
        cells[col["ratio"]] = "1.5"

    rc = wl.run(argv)
    _rewrite_csv(next(wl.out.glob("convergence_*.csv")), over)
    assert wl.check(argv, rc) > 1.0

    def nan(col, cells):
        cells[col["sup_err"]] = "nan"

    rc = wl.run(argv)
    _rewrite_csv(next(wl.out.glob("convergence_*.csv")), nan)
    assert wl.check(argv, rc) == math.inf


def test_harness_counts_corrupted_outputs_as_failed(monkeypatch):
    wl = workloads.WeightsHighdeg(Path("."), smoke=True)
    items = wl.make_pass(np.random.default_rng(5))
    assert run.run_pass(wl, items).failed == 0
    real = operators.weight_vector
    monkeypatch.setattr(operators, "weight_vector", lambda axis, x: real(axis, x) * (1.0 + 1e-8))
    res = run.run_pass(wl, items)
    assert res.failed == len(items) == len(res.latencies)
    assert min(res.ratios) > 1.0


def test_tracer_patches_imported_names_and_restores_them():
    original = pq_core.pq_integer
    tr = tracer.Tracer()
    axis = operators.AxisConfig(n=40, l=1, pq=pq_core.PQPair(0.9, 0.6))
    with tr.installed():
        assert operators.pq_integer is not original
        assert operators.pq_integer.__wrapped__ is original
        with tr.span("root"):
            operators.weight_vector(axis, 0.3)
            operators.nodes(axis)
    assert operators.pq_integer is original and pq_core.pq_integer is original
    m = tr.layer_metrics(passes=1)
    assert m["operators.weight_vector.calls"] == 1
    assert m["operators.nodes.calls"] == 1
    assert m["pq_core.pq_integer.calls"] >= axis.degree + 1
    assert all(v >= 0.0 for k, v in m.items() if k.endswith(".self_ms"))
    total_ms = 1e3 * (tr.end[0] - tr.start[0])
    self_sum = sum(v for k, v in m.items() if k.endswith(".self_ms"))
    assert self_sum <= total_ms


def test_catalog_calls_are_counted_outside_the_spans():
    from pqss import catalog, cli

    original = catalog.build_catalog
    tr = tracer.Tracer()
    with tr.catalog_calls_counted():
        assert cli.build_catalog is not original
        tf = next(iter(cli.build_catalog().values()))
        tf.fn(0.25, 0.5)
        tf.fn(0.5, 0.25)
    assert cli.build_catalog is original and catalog.build_catalog is original
    assert tr.counters["catalog.fn.calls"] == 2
    assert len(tr.start) == 0


def test_calibration_takes_the_wrapper_out_of_self_time():
    tr = tracer.Tracer()
    tr.calibrate()
    assert 0.0 < tr.parent_overhead < 1e-4 and 0.0 <= tr.own_overhead < 1e-4
    pq_core.cumulative_log_factorials.cache_clear()
    with tr.installed():
        with tr.span("root"):
            operators.weight_vector(
                operators.AxisConfig(n=400, l=0, pq=pq_core.PQPair(0.999, 0.99)), 0.3)
    corrected = tr.layer_metrics(passes=1)
    tr.own_overhead = tr.parent_overhead = 0.0
    uncorrected = tr.layer_metrics(passes=1)
    name = "pq_core.cumulative_log_factorials.self_ms"
    assert corrected[name] < uncorrected[name]
