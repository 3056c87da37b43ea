import json
import math
from pathlib import Path

import pytest

from pqss import cli

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

    rc, out, err = run(["converge", "--cp", "1.0", "--cq", "0.5"], capsys)
    assert rc == 2
    assert "0 <= c_p < c_q" in err


def test_bounds_clean(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(["bounds", "--f", "e11", "--grid", "5", *WORKED], capsys)
    assert rc == 0
    assert "violations 0" in out
    files = list(tmp_path.glob("bounds_e11_*.csv"))
    assert len(files) == 1
    assert len(files[0].read_text().strip().splitlines()) == 1 + 25


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


def test_usage_errors(capsys):
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

    rc, out, err = run(["frobnicate"], capsys)
    assert rc == 2

    rc, out, err = run(["converge", "--node-exponent", "canonical"], capsys)
    assert rc == 2  # canonical-only commands do not take the flag

    rc, out, err = run(["verify", "--grid", "1"], capsys)
    assert rc == 2
    assert "--grid >= 2" in err

    rc, out, err = run(["converge", "--n-list", ""], capsys)
    assert rc == 2
    assert "nonempty --n-list" in err


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
