import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqss import cli, moments
from pqss.pq_core import PQPair, pq_integer

WORKED = [
    "--n1", "2", "--l1", "1", "--q1", "0.5", "--alpha1", "1.0", "--beta1", "2.0",
    "--n2", "2", "--l2", "1", "--q2", "0.5", "--alpha2", "1.0", "--beta2", "2.0",
]


def run(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_eval_worked_value(capsys):
    rc, out, err = run(["eval", "--f", "e11", "--x1", "0.5", "--x2", "0.5", *WORKED], capsys)
    assert rc == 0
    value = float(out.split()[1])
    assert value == pytest.approx((1.875 / 3.5) ** 2, rel=1e-14)


def test_eval_oracle_lines(capsys):
    rc, out, err = run(
        ["eval", "--f", "exp_sum", "--x1", "0.3", "--x2", "0.8", "--oracle", *WORKED],
        capsys,
    )
    assert rc == 0
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert set(lines) == {"value", "oracle", "absdiff"}
    assert float(lines["absdiff"]) < 1e-12


def test_eval_oracle_samples_f_once(monkeypatch, capsys):
    # only the oracle samples f over the node grid, once; the value comes
    # from f's factors, which tabulate never sees
    from pqss import operators

    calls = []
    tabulate = operators.tabulate

    def counted(fn, xs, ys):
        calls.append((len(xs), len(ys)))
        return tabulate(fn, xs, ys)

    monkeypatch.setattr(operators, "tabulate", counted)
    rc, out, err = run(["eval", "--f", "exp_sum", "--x1", ".5", "--x2", ".5", "--n2", "700",
                        "--oracle"], capsys)
    assert rc == 0, err
    assert calls == [(9, 701)]


def test_eval_output_file(tmp_path, capsys):
    out_json = tmp_path / "run.json"
    rc, out, err = run(
        ["eval", "--f", "e11", "--x1", "0.5", "--x2", "0.5", "--oracle",
         "--output", str(out_json), "--format", "json", *WORKED],
        capsys,
    )
    assert rc == 0
    record = json.loads(out_json.read_text())
    assert record["f"] == "e11"
    assert record["absdiff"] < 1e-12
    assert record["value"] == pytest.approx((1.875 / 3.5) ** 2, rel=1e-14)


def test_verify_small_grid(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(["verify", "--grid", "2"], capsys)
    assert rc == 0
    assert "verify: OK" in out
    assert f"checked {135 * 4 * 8} closed-vs-oracle comparisons" in out
    files = list(tmp_path.glob("moments_*.csv"))
    assert len(files) == 1
    lines = files[0].read_text().strip().splitlines()
    assert len(lines) == 1 + 135 * 8


def test_verify_json_shares_config_hash_with_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["verify", "--grid", "2"], capsys)[0] == 0
    assert run(["verify", "--grid", "2", "--format", "json"], capsys)[0] == 0
    csv_files = list(tmp_path.glob("moments_*.csv"))
    json_files = list(tmp_path.glob("moments_*.json"))
    assert csv_files[0].stem == json_files[0].stem
    obj = json.loads(json_files[0].read_text())
    assert obj["n_checks"] == 135 * 4 * 8
    assert obj["failures"] == []
    assert len(obj["reports"]) == 135


def test_verify_literal_nodes_fails_with_explanation(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(["verify", "--grid", "2", "--node-exponent", "paper-literal"], capsys)
    assert rc == 1
    assert "slope ratio" in out
    assert "vs p^l" in out
    assert "FAIL" in out
    assert "failures" in out


def test_converge_default_family(tmp_path, capsys):
    rc, out, err = run(
        ["converge", "--n-list", "8,16,32,64", "--grid", "7",
         "--l1", "1", "--alpha1", "0.5", "--beta1", "1.0",
         "--l2", "1", "--alpha2", "0.5", "--beta2", "1.0",
         "--output", str(tmp_path)],
        capsys,
    )
    assert rc == 0
    assert "korovkin sup errors" in out
    assert "order[e10]" in out
    assert "order[e20+e02]" in out
    kor = list(tmp_path.glob("korovkin_*.csv"))
    conv = list(tmp_path.glob("convergence_e20_*.csv"))
    assert len(kor) == 1 and len(conv) == 1
    assert kor[0].read_text().splitlines()[0] == "n,p,q,sup_e00,sup_e10,sup_e01,sup_e20_e02"


def test_converge_report_layout(tmp_path, capsys):
    # one report per table and format; sinprod is estimate-only, so its bound
    # and ratio cells are empty in the CSV and null in the JSON
    argv = ["converge", "--f", "sinprod", "--n-list", "8,16", "--l1", "1", "--grid", "5"]
    for fmt in ("csv", "json"):
        rc, _, _ = run([*argv, "--format", fmt, "--output", str(tmp_path / fmt)], capsys)
        assert rc == 0
    headers = {
        "korovkin": ["n", "p", "q", "sup_e00", "sup_e10", "sup_e01", "sup_e20_e02"],
        "convergence_sinprod": ["n", "p", "q", "sup_err", "worst_x1", "worst_x2",
                                "bound_at_worst", "ratio"],
    }
    for stem, header in headers.items():
        (csv_path,) = (tmp_path / "csv").glob(f"{stem}_*.csv")
        (json_path,) = (tmp_path / "json").glob(f"{stem}_*.json")
        lines = csv_path.read_bytes().decode().split("\r\n")
        assert lines[0] == ",".join(header)
        obj = json.loads(json_path.read_text())
        keys = {"config", "family", "grid_k", "shape1", "shape2", "rows"}
        assert set(obj) == (keys | {"function"} if stem != "korovkin" else keys)
        assert obj["family"] == "one-minus-c-over-n(cp=0.5,cq=1)"
        assert obj["grid_k"] == 5
        assert obj["shape1"]["l"] == 1 and obj["shape2"]["l"] == 0
        assert [r["n"] for r in obj["rows"]] == [8, 16]
        assert lines[3:] == [""]
        for line, row in zip(lines[1:3], obj["rows"]):
            cells = dict(zip(header, line.split(",")))
            assert cells.keys() == row.keys()
            assert {k: None if v == "" else float(v) for k, v in cells.items()} == row
        if stem != "korovkin":
            assert obj["function"] == "sinprod"
            for line, row in zip(lines[1:3], obj["rows"]):
                assert line.endswith(",,") and line.count(",") == 7
                assert row["bound_at_worst"] is None and row["ratio"] is None


def test_converge_degenerate_linear_prints_exact(tmp_path, capsys):
    # default shapes reproduce linears exactly; the orders must say so, on
    # grids whose points round exactly (5) and ones that leave 1-ulp errors (41)
    for grid in ("5", "41"):
        rc, out, err = run(
            ["converge", "--n-list", "8,16,32", "--grid", grid, "--output", str(tmp_path)],
            capsys,
        )
        assert rc == 0
        assert "order[e10] = exact (errors vanish)" in out
        assert "order[e01] = exact (errors vanish)" in out
        assert "order[e20+e02] = exact" not in out


def test_converge_full_path_roundoff_prints_exact(tmp_path, capsys):
    # S(1) = 1 in exact arithmetic; the full path's roundoff grows with n
    rc, out, err = run(
        ["converge", "--n-list", "256,512,1024", "--grid", "41", "--f", "const1",
         "--output", str(tmp_path)],
        capsys,
    )
    assert rc == 0
    assert "order[const1] = exact (errors vanish)" in out
    assert "order[e20+e02] = exact" not in out


def test_converge_tabulated_family(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({
        "pairs": {"8": [0.95, 0.9], "16": [0.97, 0.94], "32": [0.99, 0.97]},
        "a": 0.8, "b": 0.6,
    }))
    rc, out, err = run(
        ["converge", "--family", "tabulated", "--family-file", str(fam),
         "--n-list", "8,16,32", "--grid", "5", "--format", "json",
         "--output", str(tmp_path)],
        capsys,
    )
    assert rc == 0
    assert "family fam" in out
    kor = list(tmp_path.glob("korovkin_*.json"))
    assert len(kor) == 1
    obj = json.loads(kor[0].read_text())
    assert obj["family"] == "fam"
    assert [r["n"] for r in obj["rows"]] == [8, 16, 32]


def test_converge_tabulated_errors(tmp_path, capsys):
    rc, out, err = run(["converge", "--family", "tabulated"], capsys)
    assert rc == 2
    assert "requires --family-file" in err

    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"pairs": {"8": [0.95, 0.9]}}))
    rc, out, err = run(
        ["converge", "--family", "tabulated", "--family-file", str(fam)], capsys
    )
    assert rc == 2
    assert "missing key" in err

    # declared limits outside (0, 1]: the Korovkin hypotheses do not hold
    for a, b in ((0, 0.6), (0.8, 1.5)):
        fam.write_text(json.dumps({"pairs": {"8": [0.95, 0.9]}, "a": a, "b": b}))
        rc, out, err = run(
            ["converge", "--family", "tabulated", "--family-file", str(fam),
             "--n-list", "8", "--grid", "3"], capsys
        )
        assert rc == 2
        assert "requires limits a, b in (0, 1]" in err
        assert "korovkin" not in out

    rc, out, err = run(["converge", "--cp", "1.0", "--cq", "0.5"], capsys)
    assert rc == 2
    assert "0 <= c_p < c_q" in err

    # a missing file and malformed fields: usage errors naming the file, not
    # tracebacks that exit 1 as a failed check would
    rc, out, err = run(["converge", "--family", "tabulated",
                        "--family-file", str(tmp_path / "missing.json")], capsys)
    assert rc == 2
    assert "No such file or directory" in err and "missing.json" in err
    for raw, what in (
        ([["8", 0.95, 0.9]], "expected a JSON object"),
        ({"pairs": [[0.95, 0.9]], "a": 0.8, "b": 0.6}, "'pairs' must map each n to two numbers"),
        ({"pairs": {"8": 0.95}, "a": 0.8, "b": 0.6}, "'pairs' must map each n to two numbers"),
        ({"pairs": {"8": [0.95]}, "a": 0.8, "b": 0.6}, "'pairs' must map each n to two numbers"),
        ({"pairs": {"8": [0.95, 0.9]}, "a": None, "b": 0.6}, "'a' and 'b' must be numbers"),
        ({"pairs": {"8": [0.95, 0.9]}, "a": 0.8, "b": "0.6"}, "'a' and 'b' must be numbers"),
        # a key that is no degree, and two keys for one degree, which would
        # otherwise make the later pair win silently
        ({"pairs": {"8.0": [0.95, 0.9]}, "a": 0.8, "b": 0.6}, "key '8.0' is not a degree n"),
        ({"pairs": {"8": [0.95, 0.9], "08": [0.96, 0.92]}, "a": 0.8, "b": 0.6},
         "key '08' repeats the degree n=8"),
    ):
        fam.write_text(json.dumps(raw))
        rc, out, err = run(
            ["converge", "--family", "tabulated", "--family-file", str(fam),
             "--n-list", "8", "--grid", "3"], capsys
        )
        assert rc == 2
        assert f"family file {fam}: {what}" in err
        assert out == ""


def test_converge_refuses_negative_l_by_the_axis_rule(tmp_path, capsys):
    # l sets the catalog's widths and the cost, so it is checked before either
    for flag in ("--l1", "--l2"):
        rc, out, err = run(["converge", flag, "-1", "--n-list", "8,16,32", "--grid", "3",
                            "--output", str(tmp_path)], capsys)
        assert (rc, out, err) == (2, "", "error: requires l >= 0 (got l=-1)\n")
    assert list(tmp_path.iterdir()) == []


def test_catalog_refuses_negative_l_by_the_axis_rule(tmp_path, capsys):
    # the widths are l + 1: l is refused by the axis rule, not as a width
    for flag in ("--l1", "--l2"):
        rc, out, err = run(["catalog", flag, "-1", "--output", str(tmp_path / "cat.csv")],
                           capsys)
        assert (rc, out, err) == (2, "", "error: requires l >= 0 (got l=-1)\n")
    assert list(tmp_path.iterdir()) == []


def test_converge_refuses_a_family_file_without_tabulated(tmp_path, monkeypatch, capsys):
    # the file would go unread, yet enter the config hash of the reports
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("family_file = nothere.json\n")
    base = ["converge", "--n-list", "8,16,32", "--grid", "3"]
    for argv in ([*base, "--family-file", "nothere.json"],
                 [*base, "--family", "one-minus-c-over-n", "--family-file", "nothere.json"],
                 ["--config", "run.cfg", *base]):
        rc, out, err = run(argv, capsys)
        assert (rc, out) == (2, "")
        assert err == ("error: --family-file requires --family tabulated "
                       "(got one-minus-c-over-n)\n")
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_converge_refuses_family_constants_with_tabulated(tmp_path, monkeypatch, capsys):
    # --cp and --cq go unread under a tabulated family, yet would enter the
    # config hash of the reports; their defaults are accepted
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fam.json").write_text(json.dumps({
        "pairs": {"8": [0.95, 0.9], "16": [0.97, 0.94], "32": [0.99, 0.97]},
        "a": 0.8, "b": 0.6,
    }))
    (tmp_path / "run.cfg").write_text("cq = 2\n")
    base = ["converge", "--family", "tabulated", "--family-file", "fam.json",
            "--n-list", "8,16,32", "--grid", "3"]
    for argv, flag in (([*base, "--cp", "0.3"], "cp"), ([*base, "--cq", "nan"], "cq"),
                       (["--config", "run.cfg", *base], "cq")):
        rc, out, err = run(argv, capsys)
        assert (rc, out) == (2, "")
        assert err == f"error: --{flag} requires --family one-minus-c-over-n (got tabulated)\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fam.json", "run.cfg"]
    rc, out, err = run([*base, "--cp", "0.5", "--cq", "1"], capsys)
    assert (rc, err) == (0, "")


def test_verify_computes_each_oracle_row_once(tmp_path, monkeypatch, capsys):
    # 2,970 oracle rows over the 135 operators, 429 of them distinct: 39
    # (m, p, q) axes at 11 points
    monkeypatch.chdir(tmp_path)
    moments._oracle_row.cache_clear()
    rc, out, err = run(["verify", "--grid", "11"], capsys)
    assert rc == 0
    info = moments._oracle_row.cache_info()
    assert (info.misses, info.hits) == (429, 2970 - 429)


def test_eval_oracle_refuses_oversized_degrees(tmp_path, monkeypatch, capsys):
    # one axis far above the oracle's row limit passes the 2^26 array bound
    # (m1 = 100000 against m2 = 1); it is refused before any row is computed,
    # and the same degree without --oracle still runs
    monkeypatch.chdir(tmp_path)
    point = ["--f", "e11", "--x1", "0.5", "--x2", "0.5", "--p1", "1", "--q1", "0.5"]
    moments._oracle_row.cache_clear()
    for degrees, err_want in (
        (["--n1", "100000", "--n2", "1"],
         "error: oracle row m1+1 = 100001 elements exceeds the limit of 65536 (2^16) "
         "at m1=100000, m2=1\n"),
        (["--n1", "3", "--n2", "65530", "--l2", "6"],
         "error: oracle row m2+1 = 65537 elements exceeds the limit of 65536 (2^16) "
         "at m1=3, m2=65536\n"),
    ):
        rc, out, err = run(["eval", *point, *degrees, "--oracle", "--output", "r.csv"], capsys)
        assert (rc, out, err) == (2, "", err_want)
        assert moments._oracle_row.cache_info().misses == 0
    assert list(tmp_path.iterdir()) == []
    rc, out, err = run(["eval", *point, "--n1", "100000", "--n2", "1"], capsys)
    assert (rc, err) == (0, "")
    assert out.startswith("value ")


def test_converge_builds_no_node_grid(tmp_path, capsys):
    # at n = 16384 the node grid would hold 16385^2 > 2^28 values; the
    # factored contraction builds 41 x 16385 weights per axis instead
    rc, out, err = run(["converge", "--f", "e20", "--n-list", "16384", "--grid", "41",
                        "--output", str(tmp_path)], capsys)
    assert (rc, err) == (0, "")
    assert re.search(r"^ +16384 +\S+ +\S+ +\S+$", out, re.M)
    assert len(list(tmp_path.iterdir())) == 2


def test_pair_with_q_far_below_p_is_refused(tmp_path, monkeypatch, capsys):
    # (q - p)/p rounds to -1: the pair is refused with its values, not a
    # bare "math domain error" from the bracket's log1p
    monkeypatch.chdir(tmp_path)
    point = ["--f", "e11", "--x1", "0.5", "--x2", "0.5"]
    for argv, p, q in ((["eval", *point, "--n1", "3", "--p1", "1", "--q1", "1e-17"], 1.0, 1e-17),
                       (["bounds", "--f", "e11", "--grid", "3", "--p2", "0.5", "--q2", "1e-17"],
                        0.5, 1e-17)):
        rc, out, err = run(argv, capsys)
        assert (rc, out) == (2, "")
        assert err == (f"error: requires a finite log(q/p), but (q - p)/p rounds to -1 "
                       f"(got p={p}, q={q})\n")
    assert list(tmp_path.iterdir()) == []
    # the near miss still evaluates, to the exact 0.25 (the operator reproduces
    # t at l = 0, alpha = beta = 0); the log-space weights read 1 ulp below it
    # and the (p,q) node form 3 ulps below
    rc, out, err = run(["eval", *point, "--n1", "3", "--p1", "1", "--q1", "1e-15"], capsys)
    assert (rc, out) == (0, "value 0.25\n")


def test_bounds_clean(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(["bounds", "--f", "e11", "--grid", "5", *WORKED], capsys)
    assert rc == 0
    assert "violations 0" in out
    files = list(tmp_path.glob("bounds_e11_*.csv"))
    assert len(files) == 1
    assert len(files[0].read_text().strip().splitlines()) == 1 + 25


def test_bounds_json_report(tmp_path, capsys):
    report = tmp_path / "b.json"
    rc, out, err = run(["bounds", "--f", "e11", "--grid", "5", *WORKED,
                        "--output", str(report), "--format", "json"], capsys)
    assert rc == 0
    obj = json.loads(report.read_text())
    assert obj["violations"] == 0
    assert obj["config"]["command"] == "bounds" and obj["config"]["grid"] == 5
    rows = obj["rows"]
    assert len(rows) == 5 * 5
    xs = [0.0, 0.25, 0.5, 0.75, 1.0]
    # x1 outer, x2 inner
    assert [(r["point"]["x1"], r["point"]["x2"]) for r in rows] == [
        (x1, x2) for x1 in xs for x2 in xs]
    assert all(r["holds"] is True and r["lhs"] <= r["rhs"] for r in rows)


@pytest.mark.parametrize("name", ["e10", "exp_sum"])
def test_bounds_csv_is_csv_writer_over_the_bound_grid(tmp_path, capsys, name):
    # e10's columns repeat values and hold zeros; exp_sum's lhs is mostly distinct
    from pqss.analysis import BOUND_SLACK, total_modulus_bound_grid
    from pqss.catalog import build_catalog
    from pqss.operators import AxisConfig, BivariateOperator
    from pqss.pq_core import PQPair

    report = tmp_path / "b.csv"
    rc, out, err = run(["bounds", "--f", name, "--grid", "21", *WORKED, "--output", str(report)],
                       capsys)
    assert rc == 0
    axis = AxisConfig(n=2, l=1, pq=PQPair(1.0, 0.5), alpha=1.0, beta=2.0)
    xs = np.linspace(0.0, 1.0, 21)
    lhs, rhs = total_modulus_bound_grid(BivariateOperator(axis, axis),
                                       build_catalog(2.0, 2.0)[name], xs, xs)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["x1", "x2", "lhs", "rhs", "holds"])
    for i, x1 in enumerate(xs):
        for j, x2 in enumerate(xs):
            holds = "true" if lhs[i, j] <= rhs[i, j] + BOUND_SLACK else "false"
            writer.writerow(["%.17g" % v for v in (x1, x2, lhs[i, j], rhs[i, j])] + [holds])
    assert report.read_bytes() == buf.getvalue().encode("utf-8")


def test_bounds_refuses_estimate_only(capsys):
    rc, out, err = run(["bounds", "--f", "sinprod", "--grid", "5", *WORKED], capsys)
    assert rc == 2
    assert "sinprod" in err
    assert "not sound" in err


def test_catalog_listing(tmp_path, capsys):
    rc, out, err = run(["catalog", "--l1", "1", "--l2", "1"], capsys)
    assert rc == 0
    assert "catalog on [0, 2] x [0, 2]" in out
    assert "sinprod" in out
    assert "estimate only" in out

    out_json = tmp_path / "cat.json"
    rc, out, err = run(
        ["catalog", "--output", str(out_json), "--format", "json"], capsys
    )
    assert rc == 0
    obj = json.loads(out_json.read_text())
    assert len(obj["entries"]) == 13
    by_name = {e["name"]: e for e in obj["entries"]}
    assert by_name["sinprod"]["exact_modulus"] is False
    assert by_name["abs_ramp"]["cb2_norm"] is None


def test_catalog_csv_report(tmp_path, capsys):
    out_csv = tmp_path / "x.csv"
    rc, out, err = run(["catalog", "--l1", "1", "--output", str(out_csv)], capsys)
    assert rc == 0
    lines = out_csv.read_bytes().decode().split("\r\n")
    assert lines[0] == "name,width1,width2,sup_norm,lip1,lip2,cb2_norm,exact_modulus"
    assert lines[-1] == ""
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:-1]}
    assert len(rows) == 13 == len(lines) - 2
    assert list(rows) == sorted(rows)
    assert rows["e10"] == ["e10", "2", "1", "2", "1", "0", "3", "yes"]
    # no Lipschitz constants, no CB2 norm and no exact modulus: empty fields, "no"
    assert rows["sinprod"][-1] == "no"
    assert rows["abs_ramp"][6] == ""


WIDE = ["--l1", "800", "--n1", "2"]


def test_commands_work_where_exp_sum_metadata_overflows(tmp_path, monkeypatch, capsys):
    # on [0, 801] x [0, 1], e^(width1 + width2) is past the largest double;
    # only exp_sum's metadata depends on it, and its nodes stay below 1.4
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(["bounds", "--f", "e11", *WIDE, "--grid", "3"], capsys)
    assert rc == 0, err
    assert "violations 0" in out
    rc, out, err = run(["eval", "--f", "exp_sum", *WIDE, "--x1", ".5", "--x2", ".5"], capsys)
    assert rc == 0, err
    assert float(out.split()[1]) == pytest.approx(3.7767623623625419, rel=1e-14)
    rc, out, err = run(["converge", "--f", "e20", "--l1", "800", "--n-list", "8,16,32",
                        "--grid", "3"], capsys)
    assert rc == 0, err
    rc, out, err = run(["catalog", "--l1", "800", "--output", "cat.json", "--format", "json"],
                       capsys)
    assert rc == 0, err
    assert "catalog on [0, 801] x [0, 1]" in out
    by_name = {e["name"]: e for e in json.loads((tmp_path / "cat.json").read_text())["entries"]}
    assert len(by_name) == 13
    assert [by_name["exp_sum"][k] for k in ("sup_norm", "lipschitz_axis", "cb2_norm")] == [
        None, None, None]
    assert by_name["e20"]["sup_norm"] == 801.0 ** 2


def test_bounds_refuse_overflowing_exp_sum_metadata(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(["bounds", "--f", "exp_sum", *WIDE, "--grid", "3"], capsys)
    assert rc == 2
    assert err.startswith("error: exp_sum metadata overflows a double on [0, 801] x [0, 1]")
    assert out == ""
    assert list(tmp_path.iterdir()) == []  # no report carries inf or nan


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_eval_refuses_a_value_that_overflows(tmp_path, monkeypatch, capsys, fmt):
    # the top nodes are about 401 on each axis, so e^t1 e^t2 is past the
    # largest double: no inf value, no numpy warning, no report
    monkeypatch.chdir(tmp_path)
    axes = ["--n1", "1", "--l1", "400", "--q1", "0.999999",
            "--n2", "1", "--l2", "400", "--q2", "0.999999"]
    rc, out, err = run(["eval", "--f", "exp_sum", *axes, "--x1", "1", "--x2", "1",
                        "--output", f"e.{fmt}", "--format", fmt], capsys)
    assert rc == 2
    assert err == ("error: S(f) is not a finite double at 1 of 1 grid points: "
                   "inf at (x1, x2) = (1, 1)\n")
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_eval_oracle_names_the_node_table_that_overflows(tmp_path, monkeypatch, capsys):
    # at (0, 0) the value is finite, but the oracle's table exp(t1 + t2)
    # reaches e^802 at the top nodes
    monkeypatch.chdir(tmp_path)
    axes = ["--n1", "1", "--l1", "400", "--q1", "0.999999",
            "--n2", "1", "--l2", "400", "--q2", "0.999999"]
    rc, out, err = run(["eval", "--f", "exp_sum", *axes, "--x1", "0", "--x2", "0", "--oracle",
                        "--output", "e.csv"], capsys)
    assert rc == 2
    assert re.fullmatch(r"error: exp_sum has no double value on the oracle's node table "
                        r"f\(t1, t2\), t1 in \[0, 400\.9\d*\], t2 in \[0, 400\.9\d*\] "
                        r"\(math range error\)\n", err), err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


SUBNORMAL_SQUARE = ["--p1", "0.5", "--q1", "0.25", "--f", "e10", "--grid", "5"]


def _no_nan_or_inf(tmp_path: Path, out: str) -> bool:
    """No nan or inf on stdout or in any file under tmp_path (csv or json)."""
    texts = [out, *(p.read_text() for p in tmp_path.rglob("*") if p.is_file())]
    return not any(re.search(r"(?i)\b(nan|inf|infinity)\b", text) for text in texts)


@pytest.mark.parametrize("argv,n", [
    # [n] + beta is about 2^-(n - 2) at (p, q) = (0.5, 0.25): its square is 0
    # at n = 600 and subnormal at n = 520, where the closed forms that divided
    # by it gave nan (at exit 0), lost bits, and then refused it
    (["bounds", "--n1", "600", *SUBNORMAL_SQUARE], 600),
    (["bounds", "--n1", "520", *SUBNORMAL_SQUARE], 520),
    # p_n = 1 - 400/n and q_n = 1 - 500/n
    (["converge", "--cp", "400", "--cq", "500", "--n-list", "1000,2000,4000", "--f", "e20",
      "--grid", "5"], 1000),
])
def test_closed_moments_refuse_a_square_below_the_normal_range(tmp_path, capsys, argv, n):
    # D^2 = [n]^2 (beta = 0) at the first degree is below the normal range, but
    # nothing divides by D^2 any more: these run, with every number finite
    # (RuntimeWarning is an error here), and the bounds hold
    pq = PQPair(0.5, 0.25) if argv[0] == "bounds" else PQPair(1 - 400 / n, 1 - 500 / n)
    assert pq_integer(n, pq) ** 2 < sys.float_info.min
    rc, out, err = run([*argv, "--output", str(tmp_path / "out")], capsys)
    assert (rc, err) == (0, "")
    assert (tmp_path / "out").exists() and _no_nan_or_inf(tmp_path, out)
    if argv[0] == "bounds":
        assert "violations 0" in out
        # with beta > 0 the shift (gap x + alpha) / D still needs D itself;
        # [n] is 0 from n = 1077, so a beta below the normal range leaves D
        # there: refused, naming it, before any report is written
        rc, out, err = run(["bounds", "--n1", "1100", *SUBNORMAL_SQUARE, "--beta1", "1e-320",
                            "--output", str(tmp_path / "refused.csv")], capsys)
        assert (rc, out) == (2, "")
        assert err == ("error: requires [n] + beta to be a normal double (got [n] + beta = 1e-320 "
                       "at n=1100, p=0.5, q=0.25, beta=1e-320)\n")
        assert not (tmp_path / "refused.csv").exists()


# Commands that the (p,q) node form refused at exit 2, and the affine form runs:
# [n] + beta past the square root of the largest double (the closed moments
# squared it), p^m below the normal range (at (0.9, 0.6) from m = 6724), and
# [n] below it or 0 with beta = 0, which eval, reading no closed moment, never needs,
# and which the shift, at beta = 0, takes in a form without D
OPENED = {
    "shift-d-0-beta-0-bounds": ["bounds", "--n1", "1100", *SUBNORMAL_SQUARE],
    "beta-1e160-bounds": ["bounds", "--f", "e11", "--grid", "3", "--beta1", "1e160"],
    "beta-1e160-converge": ["converge", "--n-list", "8,16,32", "--beta1", "1e160", "--grid", "3"],
    **{f"pm-subnormal-l{l1}": ["eval", "--f", "e11", "--x1", x1, "--x2", ".5", "--oracle",
                               "--n1", "6700", "--l1", l1, "--p1", "0.9", "--q1", "0.6"]
       for l1, x1 in (("24", "0"), ("300", ".5"), ("400", ".5"))},
    **{f"bracket-n-{n1}": ["eval", "--f", f, "--x1", x1, "--x2", ".5", "--n1", n1,
                           "--p1", "0.9", "--q1", "0.6"]
       for n1, x1, f in (("8000", "0", "e11"), ("7000", "1", "e10"))},
    "pm-and-bracket-n-0": ["eval", "--f", "e11", "--x1", ".5", "--x2", ".5", "--n1", "1000",
                           "--p1", "0.3", "--q1", "0.2"],
    # with beta > 0, D >= beta: A is about p^(m-1) [m]_r / beta, and the shift runs
    "pm-0-beta-1-oracle": ["eval", "--f", "exp_sum", "--x1", ".3", "--x2", ".8", "--n1", "1000",
                           "--l1", "2", "--p1", "0.3", "--q1", "0.2", "--alpha1", "0.5",
                           "--beta1", "1.0", "--oracle"],
    "pm-0-beta-1-bounds": ["bounds", "--n1", "1100", "--p1", "0.5", "--q1", "0.25", "--l1", "1",
                           "--alpha1", "0.5", "--beta1", "1.0", "--f", "exp_sum", "--grid", "5"],
    # literal nodes where p^l is 0: their A takes no power of p
    "literal-pl-0": ["eval", "--f", "exp_sum", "--x1", ".3", "--x2", ".8", "--n1", "2", "--l1",
                     "1100", "--p1", "0.5", "--q1", "0.25", "--node-exponent", "paper-literal",
                     "--oracle"],
}


@pytest.mark.parametrize("argv", OPENED.values(), ids=OPENED.keys())
def test_commands_past_the_pq_node_form_run_with_finite_values(tmp_path, monkeypatch, capsys,
                                                              argv):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(argv, capsys)
    assert (rc, err) == (0, "")
    assert _no_nan_or_inf(tmp_path, out)
    if "--oracle" in argv:
        values = dict(line.split(" ", 1) for line in out.splitlines())
        assert float(values["absdiff"]) <= 1e-10 * max(1.0, abs(float(values["oracle"])))
    if argv[0] == "bounds":
        assert "violations 0" in out


@pytest.mark.parametrize("n1", ["32768", "65536"])
def test_constant_bound_holds_at_high_degree(tmp_path, capsys, n1):
    # |S(1) - 1| is the rounding of each weight row's sum: the ratio rows keep
    # it within BOUND_SLACK here, where log-space rows read up to 1.7e-11
    rc, out, err = run(["bounds", "--n1", n1, "--p1", "0.999", "--q1", "0.998", "--n2", "1",
                        "--f", "const1", "--grid", "41", "--output", str(tmp_path / "out.csv")],
                       capsys)
    assert (rc, err) == (0, "")
    assert "violations 0" in out


def test_converge_prices_every_degree_before_any_work(monkeypatch, tmp_path, capsys):
    # each degree alone is under the limit at --grid 41; eight of them are not
    def priced(*args):
        raise ValueError("the cost check passed")

    monkeypatch.setattr(cli, "korovkin_suite", priced)
    degrees = ",".join(str(200000 + i) for i in range(8))
    rc, out, err = run(["converge", "--n-list", degrees, "--grid", "41",
                        "--output", str(tmp_path)], capsys)
    assert rc == 2
    assert err == ("error: axis 1 weight builds over --n-list, sum of 8k(m1+1) = 524811808 "
                   "elements exceeds the limit of 67108864 (2^26) at m1=200007, m2=200007, "
                   "k=41\n")
    assert out == "" and list(tmp_path.iterdir()) == []
    # one of those degrees, and the default list, pass the check
    for argv in (["--n-list", "200000", "--grid", "41"], []):
        rc, out, err = run(["converge", *argv, "--output", str(tmp_path)], capsys)
        assert (rc, err) == (2, "error: the cost check passed\n")


@pytest.mark.parametrize("cp,cq,message", [
    ("1e7", "2e7", "family 'one-minus-c-over-n(cp=1e+07,cq=2e+07)' invalid at n=8: "
                   "requires 0 < q < p <= 1"),
    ("0.5", "inf", "requires finite c_p and c_q (got c_p=0.5, c_q=inf)"),
])
def test_converge_family_constants_outside_the_usual_range(tmp_path, capsys, cp, cq, message):
    rc, out, err = run(["converge", "--cp", cp, "--cq", cq, "--n-list", "8,16,32", "--grid", "3",
                        "--output", str(tmp_path)], capsys)
    assert rc == 2
    assert err.startswith(f"error: {message}")
    assert out == ""
    assert list(tmp_path.iterdir()) == []


# numpy picks its SIMD kernels (power, exp, log) by CPU feature, so a report
# path that used them would write other bytes with numpy's AVX512 targets
# switched off in the child.  On a CPU without those targets both runs take
# the same kernels, and this test cannot fail.
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


@pytest.mark.parametrize("argv", [
    ["verify", "--grid", "3"],
    ["eval", "--f", "exp_sum", "--x1", "0.3", "--x2", "0.8", "--n1", "10", "--l1", "1",
     "--p1", "0.9", "--q1", "0.6", "--n2", "7", "--p2", "0.95", "--q2", "0.5", "--oracle",
     "--output", "eval.csv"],
], ids=["verify", "eval-oracle"])
def test_reports_do_not_follow_numpy_cpu_kernels(tmp_path, argv):
    outcomes = []
    for name, cpu in (("as_is", {}), ("no_avx512", NO_AVX512)):
        work = tmp_path / name
        work.mkdir()
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": "1", **cpu}
        proc = subprocess.run([sys.executable, "-m", "pqss.cli", *argv], cwd=work, env=env,
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outcomes.append((proc.stdout, {p.name: p.read_bytes() for p in sorted(work.iterdir())}))
    assert outcomes[0][1], "no report written"
    assert outcomes[0] == outcomes[1]


# OpenBLAS picks its kernels by CPU and splits work by thread count, so a
# report path that contracted through BLAS would write other bytes under
# another setting.  Each setting is made in the child only; a core type
# whose instructions this CPU lacks is skipped.
BLAS_CORETYPES = {
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
    "Haswell": {"avx2", "fma"},
    "Sandybridge": {"avx"},
}
BLAS_COMMANDS = [
    ["bounds", "--f", "exp_sum", "--n1", "200", "--n2", "200", "--l1", "1", "--q1", "0.8",
     "--q2", "0.8", "--grid", "101", "--output", "bounds.csv"],
    ["converge", "--f", "exp_sum", "--n-list", "64,256,1024", "--l1", "1", "--alpha1", "0.5",
     "--beta1", "1.0", "--l2", "2"],
    ["eval", "--f", "sinprod", "--x1", "0.3", "--x2", "0.8", "--n1", "300", "--l1", "1",
     "--p1", "0.99", "--q1", "0.9", "--n2", "200", "--q2", "0.8", "--output", "eval.csv"],
]


def _cpu_flags() -> set:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return set()
    return next((set(line.partition(":")[2].split()) for line in text.splitlines()
                 if line.startswith("flags")), set())


def test_reports_do_not_follow_blas_settings(tmp_path):
    flags = _cpu_flags()
    settings = [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}]
    settings += [{"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": core}
                 for core, needs in BLAS_CORETYPES.items() if needs <= flags]
    code = ("import json, sys\nfrom pqss.cli import main\n"
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    base = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    outcomes = []
    for i, setting in enumerate(settings):
        work = tmp_path / str(i)
        work.mkdir()
        env = {**base, "PYTHONPATH": str(Path(cli.__file__).parents[1]), **setting}
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(BLAS_COMMANDS)], cwd=work,
                              env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outcomes.append((proc.stdout, {p.name: p.read_bytes() for p in sorted(work.iterdir())}))
    assert len(outcomes[0][1]) == 4, "a report is missing"
    for setting, outcome in zip(settings[1:], outcomes[1:]):
        assert outcome == outcomes[0], setting


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# worked operator\n"
        "n1 = 2\nl1 = 1\nq1 = 0.5\nalpha1 = 1.0\nbeta1 = 2.0\n"
        "n2 = 2\nl2 = 1\nq2 = 0.5\nalpha2 = 1.0\nbeta2 = 2.0\n"
        "x1 = 0.5\nx2 = 0.5\n"
    )
    rc, out, err = run(["--config", str(cfg), "eval", "--f", "e11"], capsys)
    assert rc == 0
    assert float(out.split()[1]) == pytest.approx((1.875 / 3.5) ** 2, rel=1e-14)

    # explicit flag beats the file: alpha1=0 changes the first factor to [3]x/D
    rc, out, err = run(
        ["--config", str(cfg), "eval", "--f", "e11", "--alpha1", "0.0", "--beta1", "0.0"],
        capsys,
    )
    assert rc == 0
    want = (1.75 * 0.5 / 1.5) * (1.875 / 3.5)
    assert float(out.split()[1]) == pytest.approx(want, rel=1e-14)


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text("nq = 3\n")
    rc, out, err = run(["--config", str(bad_key), "eval", "--f", "e11",
                        "--x1", "0", "--x2", "0"], capsys)
    assert rc == 2
    assert "unknown config key" in err

    malformed = tmp_path / "bad2.cfg"
    malformed.write_text("just words\n")
    rc, out, err = run(["--config", str(malformed), "eval", "--f", "e11",
                        "--x1", "0", "--x2", "0"], capsys)
    assert rc == 2
    assert "expected key=value" in err

    rc, out, err = run(["--config", str(tmp_path / "missing.cfg"), "eval",
                        "--f", "e11", "--x1", "0", "--x2", "0"], capsys)
    assert rc == 2


def test_usage_errors(tmp_path, capsys):
    # --config without a value: pqss's own usage, not a pre-parser's
    rc, out, err = run(["--config"], capsys)
    assert rc == 2
    assert err.startswith("usage: pqss ")
    assert "argument --config: expected one argument" in err

    # a report into a missing directory: an error, not a traceback
    missing = tmp_path / "missing" / "x.csv"
    rc, out, err = run(["bounds", "--f", "e11", "--grid", "3", "--output", str(missing)], capsys)
    assert rc == 2
    assert f"No such file or directory: {str(missing)!r}" in err

    rc, out, err = run(["eval", "--f", "nope", "--x1", "0.5", "--x2", "0.5"], capsys)
    assert rc == 2
    assert "unknown function" in err
    assert "available:" in err

    rc, out, err = run(["eval", "--f", "e11", "--x1", "1.5", "--x2", "0.5"], capsys)
    assert rc == 2
    assert "x in [0, 1]" in err

    rc, out, err = run(
        ["eval", "--f", "e11", "--x1", "0.5", "--x2", "0.5", "--p1", "0.5", "--q1", "0.9"],
        capsys,
    )
    assert rc == 2
    assert "0 < q < p <= 1" in err

    rc, out, err = run(["eval", "--x1", "0.5", "--x2", "0.5"], capsys)
    assert rc == 2  # argparse: --f is required

    rc, out, err = run(["eval", "--f", "e11", "--x1", ".5", "--x2", ".5",
                        "--alpha1", "inf", "--beta1", "inf"], capsys)
    assert rc == 2
    assert "finite 0 <= alpha <= beta" in err

    # eval with D = 1e308: the nodes are alpha / D = 1 plus A u, A about 2e-308
    rc, out, err = run(["eval", "--f", "e11", "--x1", ".5", "--x2", ".5",
                        "--alpha1", "1e308", "--beta1", "1e308"], capsys)
    assert rc == 0

    rc, out, err = run(["frobnicate"], capsys)
    assert rc == 2

    rc, out, err = run(["converge", "--node-exponent", "canonical"], capsys)
    assert rc == 2  # canonical-only commands do not take the flag

    rc, out, err = run(["verify", "--grid", "1"], capsys)
    assert rc == 2
    assert "--grid >= 2" in err

    # a tolerance no difference can exceed: the 2,560 literal-node failures
    # at 1e-10 would read as OK
    for tol in ("inf", "nan", "1", "0", "-1e-10"):
        rc, out, err = run(["verify", "--grid", "3", "--node-exponent", "paper-literal",
                            f"--tolerance={tol}"], capsys)
        assert rc == 2
        assert "requires a finite --tolerance in (0, 1)" in err
        assert out == ""

    # cost bound: refused before any operator is built, naming the size
    for argv, size in (
        # only the oracle builds the node table; each oracle row is within 2^16
        (["eval", "--f", "e11", "--x1", ".5", "--x2", ".5", "--oracle",
          "--n1", "65535", "--n2", "65535"], "node table (m1+1)(m2+1) = 4294967296"),
        # each axis's weights are priced with weight_matrix's temporaries,
        # 8 k(m + 1): at --grid 41 an axis is refused past m = 204,599
        (["eval", "--f", "e11", "--x1", ".5", "--x2", ".5", "--n1", "70000000"],
         "axis 1 weight build 8k(m1+1) = 560000008"),
        (["eval", "--f", "e11", "--x1", ".5", "--x2", ".5", "--n1", "8388608"],
         "axis 1 weight build 8k(m1+1) = 67108872"),
        (["bounds", "--f", "e11", "--n1", "2000000", "--n2", "2000000"],
         "axis 1 weight build 8k(m1+1) = 656000328"),
        (["bounds", "--f", "e11", "--n2", "204600"],
         "axis 2 weight build 8k(m2+1) = 67109128"),
        (["bounds", "--f", "e11", "--grid", "10000"], "grid k^2 = 100000000"),
        (["bounds", "--f", "e11", "--n1", "10000", "--grid", "8000"],
         "axis 1 weight build 8k(m1+1) = 640064000"),
        (["converge", "--n-list", "8,16,2000000", "--l2", "2"],
         "axis 1 weight build 8k(m1+1) = 656000328"),
        (["converge", "--n-list", "8,16,204600"],
         "axis 1 weight build 8k(m1+1) = 67109128"),
        (["converge", "--n-list", "8,16,32", "--grid", "10000"], "grid k^2 = 100000000"),
        # verify's closed and oracle moment stacks hold 8 k^2 values
        (["verify", "--grid", "2897"], "moment stacks 8k^2 = 67140872"),
        (["verify", "--grid", "100000"], "moment stacks 8k^2 = 80000000000"),
    ):
        rc, out, err = run(argv, capsys)
        assert rc == 2
        assert out == ""
        assert f"{size} elements exceeds the limit of 67108864 (2^26)" in err

    rc, out, err = run(["converge", "--n-list", ""], capsys)
    assert rc == 2
    assert "nonempty --n-list" in err

    rc, out, err = run(["converge", "--n-list", "0,8,16", "--grid", "3"], capsys)
    assert rc == 2
    assert "requires every n >= 1" in err

    # one log n repeated: no slope can be fitted
    for n_list in ("8,8,8", "8,16,8"):
        rc, out, err = run(["converge", "--n-list", n_list, "--grid", "3"], capsys)
        assert rc == 2
        assert "distinct degrees" in err
        assert "order[" not in out

    # p^(-m(m-1)/2) overflows a double at m = 200, p = 0.9, but not the
    # oracle's decimal rows: a finite oracle value next to the value
    rc, out, err = run(["eval", "--f", "exp_sum", "--x1", ".5", "--x2", ".5",
                        "--n1", "200", "--p1", "0.9", "--q1", "0.6", "--oracle"], capsys)
    assert (rc, err) == (0, "")
    values = dict(line.split(" ", 1) for line in out.splitlines())
    assert set(values) == {"value", "oracle", "absdiff"}
    assert float(values["absdiff"]) <= 1e-11 * float(values["oracle"])


AXIS_FLAGS = [f"--{key}{i}" for i in (1, 2) for key in ("n", "l", "p", "q", "alpha", "beta")]
OUTPUT_FLAGS = ["--output", "--format"]
FLAGS = {
    "eval": [*AXIS_FLAGS, "--f", "--x1", "--x2", "--oracle", "--node-exponent", *OUTPUT_FLAGS],
    "verify": ["--tolerance", "--grid", "--node-exponent", *OUTPUT_FLAGS],
    "converge": ["--family", "--cp", "--cq", "--family-file", "--n-list", "--f",
                 "--l1", "--alpha1", "--beta1", "--l2", "--alpha2", "--beta2", "--grid",
                 *OUTPUT_FLAGS],
    "bounds": [*AXIS_FLAGS, "--f", "--grid", *OUTPUT_FLAGS],
    "catalog": ["--l1", "--l2", *OUTPUT_FLAGS],
}


def _flags_in(text: str) -> set[str]:
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))


def test_help_lists_every_flag(tmp_path, capsys):
    # each subcommand's help lists exactly its options, and the top level
    # all subcommands; help comes before the config file is read
    rc, out, err = run(["--help"], capsys)
    assert rc == 0
    assert _flags_in(out) == {"--help", "--config"}
    assert "{" + ",".join(FLAGS) + "}" in out
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid = 5\n")
    for command, flags in FLAGS.items():
        for argv in ([command, "--help"], ["--config", str(cfg), command, "-h"]):
            rc, out, err = run(argv, capsys)
            assert rc == 0
            assert out.startswith(f"usage: pqss {command} ")
            assert _flags_in(out) == {"--help", *flags}


def test_shared_options_convert_alike():
    # a config key is typed and checked by one row of the table, so every
    # subcommand that declares the option must type and restrict it alike
    seen = {}
    for _, _, rows in cli.COMMANDS.values():
        for flag, kwargs in rows:
            conversion = (kwargs.get("type"), kwargs.get("action"), kwargs.get("choices"))
            assert seen.setdefault(flag, conversion) == conversion, flag


def test_byte_identical_reruns(tmp_path, capsys):
    args_list = [
        ["verify", "--grid", "3"],
        ["verify", "--grid", "3", "--format", "json"],
        ["converge", "--n-list", "16,32,64", "--grid", "11",
         "--l1", "1", "--alpha1", "0.5", "--beta1", "1.0",
         "--l2", "1", "--alpha2", "0.5", "--beta2", "1.0"],
        ["bounds", "--f", "exp_sum", "--grid", "7", *WORKED],
    ]
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        for args in args_list:
            if args[0] == "converge":
                rc = cli.main([*args, "--output", str(d)])
            else:
                stem = "_".join(args)
                suffix = "json" if "json" in args else "csv"
                rc = cli.main([*args, "--output",
                               str(d / f"{abs(hash(stem))}.{suffix}")])
            capsys.readouterr()
            assert rc == 0
        outs.append(sorted(p.name for p in d.iterdir()))
    assert outs[0] == outs[1]
    for name in outs[0]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_config_file_booleans_and_shared_keys(tmp_path, capsys):
    point = ["eval", "--x1", "0.3", "--x2", "0.8", *WORKED]
    cfg = tmp_path / "run.cfg"

    cfg.write_text("f = exp_sum\noracle = yes\n")
    rc, out, err = run(["--config", str(cfg), *point], capsys)
    assert rc == 0  # the file satisfies the required --f
    assert {line.split(" ", 1)[0] for line in out.splitlines()} == {"value", "oracle", "absdiff"}

    cfg.write_text("f = exp_sum\noracle = off\n")
    rc, out, err = run(["--config", str(cfg), *point], capsys)
    assert rc == 0
    assert "oracle" not in out
    rc, out, err = run(["--config", str(cfg), *point, "--oracle"], capsys)
    assert rc == 0  # the explicit flag wins over the file
    assert "oracle" in out

    cfg.write_text("f = exp_sum\noracle = maybe\n")
    rc, out, err = run(["--config", str(cfg), *point], capsys)
    assert rc == 2
    assert "not a boolean" in err

    # a key of another subcommand is accepted and ignored
    cfg.write_text("f = e11\ngrid = 7\n")
    rc, out, err = run(["--config", str(cfg), *point], capsys)
    assert rc == 0
    assert out.startswith("value ")


@pytest.mark.parametrize("line,argv", [
    ("node_exponent = bogus", ["eval", "--f", "e11", "--x1", "0.5", "--x2", "0.5"]),
    ("format = xml", ["eval", "--f", "e11", "--x1", "0.5", "--x2", "0.5", "--output", "x"]),
    ("family = nope", ["converge", "--n-list", "8,16,32", "--grid", "3"]),
])
def test_config_file_values_outside_choices(tmp_path, capsys, monkeypatch, line, argv):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# choices are checked\n{line}\n")
    rc, out, err = run(["--config", str(cfg), *argv], capsys)
    key = line.split(" = ")[0]
    assert rc == 2
    assert f"{cfg}:2: bad value for {key!r}" in err
    assert list(tmp_path.iterdir()) == [cfg]  # nothing was written


# Config-file values against flags.  Each option of eval, verify, converge and
# bounds but --output, with valid values and ones argparse or the command must
# refuse.  The valid values stay cheap: the degrees, grids and n-lists either
# run in well under a second or are refused by the cost limits before any work.
BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
            "0": False, "false": False, "no": False, "off": False}
FUZZ_BAD = ["abc", "", "nan", "inf", "-1", "1e400", "yes"]
FUZZ_VALUES = {
    "n": ["1", "3", "8", "40", "0", "100000", "2.5"],
    "l": ["0", "1", "5", "300", "-2"],
    "p": ["1", "0.95", "0.9", "0", "1.5"],
    "q": ["0.5", "0.8", "0.99", "0", "1"],
    "alpha": ["0", "0.5", "2", "-0.5"],
    "beta": ["0", "1", "3"],
    "f": ["e11", "exp_sum", "smooth_abs_005", "sinprod", "nope", "E11"],
    "x": ["0", "0.25", "1", "1.5", "-0.5"],
    "node_exponent": ["canonical", "paper-literal", "bogus"],
    "format": ["csv", "json", "xml"],
    "tolerance": ["1e-10", "0.5", "1e-300", "0", "1"],
    "grid": ["2", "3", "1", "0", "100000", "2.5"],
    "family": ["one-minus-c-over-n", "tabulated", "nope"],
    "cp": ["0", "0.5", "2", "1e7"],
    "cq": ["1", "0.5", "3", "2e7"],
    "family_file": ["missing.json"],
    "n_list": ["8,16,32", "16", "8,8", "0,8", "8,,16", "a,b", "100000"],
}
# Per command: the required flags and cheap values for the costly options;
# the key being drawn is left out.
FUZZ_BASE = {
    "eval": {"f": "e11", "x1": "0.5", "x2": "0.5"},
    "verify": {"grid": "2"},
    "converge": {"n_list": "8,16,32", "grid": "3"},
    "bounds": {"f": "e11", "grid": "3"},
}
# verify runs the whole 135-operator sweep, about 0.2 s a run
FUZZ_EXAMPLES = {"eval": 60, "verify": 8, "converge": 30, "bounds": 30}


def _fuzz_values(key: str) -> list[str]:
    if key == "oracle":
        return list(BOOLEANS)
    return FUZZ_VALUES[key.rstrip("12")] + FUZZ_BAD


def _flag(key: str, value: str) -> list[str]:
    """The command-line form of the config line `key = value`."""
    if key == "oracle":
        return ["--oracle"] if BOOLEANS[value] else []
    return [f"--{key.replace('_', '-')}={value}"]


def _outcome(argv: list[str]) -> tuple[int, str, dict]:
    """Exit code, stdout and the files written, run in a fresh directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            files = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}
        finally:
            os.chdir(cwd)
    assert rc in (0, 1, 2), (argv, err.getvalue())
    return rc, out.getvalue(), files


def _check_config_line_matches_flag(command: str) -> None:
    keys = [flag[2:].replace("-", "_") for flag in FLAGS[command] if flag != "--output"]

    @settings(max_examples=FUZZ_EXAMPLES[command])
    @given(data=st.data())
    def check(data):
        key = data.draw(st.sampled_from(keys), label="key")
        values = _fuzz_values(key)
        value = data.draw(st.sampled_from(values), label="value")
        base = [command, *(arg for k, v in FUZZ_BASE[command].items() if k != key
                           for arg in (f"--{k.replace('_', '-')}", v))]
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
            config_only = _outcome(["--config", str(cfg), *base])
            assert config_only == _outcome([*base, *_flag(key, value)])
            if config_only[0] == 2:
                return
            # a flag beats the file: a different flag value wins outright
            others = [v for v in values if _flag(key, v) not in ([], _flag(key, value))]
            if others:
                other = _flag(key, data.draw(st.sampled_from(others), label="other"))
                assert (_outcome(["--config", str(cfg), *base, *other])
                        == _outcome([*base, *other]))

    check()


def test_config_line_matches_flag():
    _check_config_line_matches_flag("eval")


@pytest.mark.parametrize("command", [c for c in FUZZ_BASE if c != "eval"])
def test_config_line_matches_flag_beyond_eval(command):
    _check_config_line_matches_flag(command)
