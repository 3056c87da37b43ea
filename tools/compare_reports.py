"""Compare what pqss prints and writes in two source trees.

Usage:

    python tools/compare_reports.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout of this repository (a `git worktree` will do).  Every
command that `_commands` lists runs once per root as `python -m pqss.cli ARGS`, with
`PYTHONPATH=<root>/src`, `OPENBLAS_NUM_THREADS=1` and `COLUMNS=100`, in a fresh
temporary directory that holds only the command's input files.  Paths in the
commands are relative, so nothing on stdout or stderr names the directory.

A command matches when its exit code, stdout, stderr and the files left in
its directory are equal byte for byte.  The script prints one line per command
that differs, naming what differs, and exits 1 if any does, 0 otherwise.

Commands whose cost grows past a second or so with the input (`verify --grid
100000`) are left out: a tree without the cost bounds would try to run them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SHAPE = ["--l1", "1", "--alpha1", "0.5", "--beta1", "1.0"]
WORKED = [
    "--n1", "2", "--l1", "1", "--q1", "0.5", "--alpha1", "1.0", "--beta1", "2.0",
    "--n2", "2", "--l2", "1", "--q2", "0.5", "--alpha2", "1.0", "--beta2", "2.0",
]
POINT = ["--x1", "0.3", "--x2", "0.8", *WORKED]
# p = 1 makes every power of the worked operator exact; at p = 0.9 the oracle's
# powers are rounded, so a change in its pow shows
POINT_P09 = ["--x1", "0.3", "--x2", "0.8", "--n1", "10", "--l1", "1", "--p1", "0.9", "--q1", "0.6",
             "--n2", "7", "--p2", "0.95", "--q2", "0.5"]
WORKED_CFG = (
    "# worked operator\n"
    "n1 = 2\nl1 = 1\nq1 = 0.5\nalpha1 = 1.0\nbeta1 = 2.0\n"
    "n2 = 2\nl2 = 1\nq2 = 0.5\nalpha2 = 1.0\nbeta2 = 2.0\n"
    "x1 = 0.5\nx2 = 0.5\n"
)
FAMILY = json.dumps({
    "pairs": {"8": [0.95, 0.9], "16": [0.97, 0.94], "32": [0.99, 0.97]},
    "a": 0.8, "b": 0.6,
})
CATALOG = ["abs_ramp", "const1", "e01", "e02", "e10", "e11", "e20", "exp_sum", "sinprod",
           "smooth_abs_005", "smooth_abs_010", "smooth_abs_020", "sum"]


def _commands() -> list[tuple[list[str], dict[str, str]]]:
    """(pqss arguments, {input file name: text}) for every compared command."""
    cmds: list[tuple[list[str], dict[str, str]]] = []

    def add(*argv: str, files: dict[str, str] | None = None) -> None:
        cmds.append((list(argv), files or {}))

    # help and usage
    add("--help")
    for command in ("eval", "verify", "converge", "bounds", "catalog"):
        add(command, "--help")
        add("--config", "run.cfg", command, "-h", files={"run.cfg": "grid = 5\n"})
    add()
    add("frobnicate")
    add("--config")
    add("eval", "--x1", "0.5", "--x2", "0.5")
    add("eval", "--f", "e11", "--x1", "abc", "--x2", "0.5")
    add("eval", "--f", "e11", "--x1", "0.5", "--x2", "0.5", "--format", "xml")
    add("converge", "--node-exponent", "canonical")

    # validation errors
    add("eval", "--f", "nope", "--x1", "0.5", "--x2", "0.5")
    add("eval", "--f", "e11", "--x1", "1.5", "--x2", "0.5")
    add("eval", "--f", "e11", "--x1", "0.5", "--x2", "0.5", "--p1", "0.5", "--q1", "0.9")
    # (q - p)/p rounds to -1, so log(q/p) has no value
    add("eval", "--f", "e11", "--x1", "0.5", "--x2", "0.5", "--n1", "3", "--p1", "1",
        "--q1", "1e-17")
    add("eval", "--f", "e11", "--x1", ".5", "--x2", ".5", "--alpha1", "inf", "--beta1", "inf")
    # [n] + beta past the square root of the largest double: the closed moments'
    # squares would overflow
    add("bounds", "--f", "e11", "--grid", "3", "--beta1", "1e160")
    add("converge", "--n-list", "8,16,32", "--beta1", "1e160", "--grid", "3")
    add("eval", "--f", "e11", "--x1", ".5", "--x2", ".5", "--n1", "100000", "--n2", "100000")
    add("eval", "--f", "exp_sum", "--x1", ".5", "--x2", ".5",
        "--n1", "200", "--p1", "0.9", "--q1", "0.6", "--oracle")
    # a degree where p^(-m(m-1)/2) overflows a double
    add("eval", "--f", "exp_sum", "--x1", ".5", "--x2", ".5",
        "--n1", "2000", "--p1", "0.999", "--q1", "0.998", "--oracle")
    add("eval", "--f", "e11", "--x1", "0", "--x2", ".5", "--n1", "8000", "--p1", "0.9",
        "--q1", "0.6")
    add("verify", "--grid", "1")
    add("verify", "--grid", "3", "--node-exponent", "paper-literal", "--tolerance=inf")
    add("bounds", "--f", "e11", "--grid", "10000")
    add("bounds", "--f", "sinprod", "--grid", "5", *WORKED)
    add("bounds", "--f", "e11", "--grid", "3", "--output", "missing/x.csv")
    add("converge", "--n-list", "")
    add("converge", "--n-list", "8,16,8", "--grid", "3")
    add("converge", "--n-list", "8,16,100000", "--l2", "2")
    add("converge", "--cp", "1.0", "--cq", "0.5")
    add("converge", "--l1", "-1", "--n-list", "8,16,32", "--grid", "3")
    add("converge", "--family", "tabulated")
    add("converge", "--family", "tabulated", "--family-file", "missing.json")
    add("converge", "--family", "one-minus-c-over-n", "--family-file", "nothere.json",
        "--n-list", "8,16,32", "--grid", "3")
    add("converge", "--family", "tabulated", "--family-file", "fam.json",
        "--n-list", "8,16,64", "--grid", "3", files={"fam.json": FAMILY})
    add("converge", "--family", "tabulated", "--family-file", "fam.json", "--cp", "0.3",
        "--n-list", "8,16,32", "--grid", "3", files={"fam.json": FAMILY})
    # the family has no entry for n = 1000000, which is over the cost limit too:
    # the cost is checked before the family is built past its first degree
    add("converge", "--family", "tabulated", "--family-file", "fam.json",
        "--n-list", "8,16,1000000", "--grid", "41", files={"fam.json": FAMILY})
    add("catalog", "--l1", "-1")
    for name, fam in (
        ("keys", {"pairs": {"8": [0.95, 0.9]}}),
        ("limits", {"pairs": {"8": [0.95, 0.9]}, "a": 0, "b": 0.6}),
        ("pairs_list", {"pairs": [[0.95, 0.9]], "a": 0.8, "b": 0.6}),
        ("bare_number", {"pairs": {"8": 0.95}, "a": 0.8, "b": 0.6}),
        ("null_a", {"pairs": {"8": [0.95, 0.9]}, "a": None, "b": 0.6}),
        ("float_key", {"pairs": {"8.0": [0.95, 0.9]}, "a": 0.8, "b": 0.6}),
        ("repeated_key", {"pairs": {"8": [0.95, 0.9], "08": [0.96, 0.92]}, "a": 0.8, "b": 0.6}),
    ):
        add("converge", "--family", "tabulated", "--family-file", f"{name}.json",
            "--n-list", "8", "--grid", "3", files={f"{name}.json": json.dumps(fam)})

    # widths where e^(width1 + width2) overflows a double, and family constants
    # that are huge or infinite
    add("bounds", "--f", "e11", "--l1", "800", "--n1", "2", "--grid", "3")
    add("bounds", "--f", "exp_sum", "--l1", "800", "--n1", "2", "--grid", "3")
    add("catalog", "--l1", "800")
    # a value past the largest double: the top nodes are about 401 on each axis
    add("eval", "--f", "exp_sum", "--n1", "1", "--l1", "400", "--q1", "0.999999", "--n2", "1",
        "--l2", "400", "--q2", "0.999999", "--x1", "1", "--x2", "1", "--output", "e.csv")
    add("converge", "--cp", "1e7", "--cq", "2e7", "--n-list", "8,16,32", "--grid", "3")
    add("converge", "--cp", "0.5", "--cq", "inf", "--n-list", "8,16,32", "--grid", "3")
    # [n] + beta whose square is 0 (n1 = 600, nan in every rhs) or subnormal
    # (n1 = 520, bits lost), and a family whose first degree is there
    for n1 in ("600", "520"):
        add("bounds", "--n1", n1, "--p1", "0.5", "--q1", "0.25", "--f", "e10", "--grid", "5")
    add("converge", "--cp", "400", "--cq", "500", "--n-list", "1000,2000,4000", "--f", "e20",
        "--grid", "5")
    # [n] + beta itself subnormal (n1 = 1030) or 0 (n1 = 1100), where the shift
    # (gap x + alpha) / D has no value; with beta > 0, D >= beta and it runs
    for n1 in ("1030", "1100"):
        add("bounds", "--n1", n1, "--p1", "0.5", "--q1", "0.25", "--l1", "1", "--f", "e10",
            "--grid", "5")
    add("bounds", "--n1", "1100", "--p1", "0.5", "--q1", "0.25", "--l1", "1", "--alpha1", "0.5",
        "--beta1", "1.0", "--f", "exp_sum", "--grid", "5")
    # p^m and [n] below the normal range: the nodes take neither (A = p^l [m]_r / [n]_r
    # at beta = 0, and A is about p^(m-1) [m]_r / beta with beta > 0)
    add("eval", "--f", "e11", "--x1", ".5", "--x2", ".5", "--n1", "1000", "--p1", "0.3",
        "--q1", "0.2")
    add("eval", "--f", "exp_sum", "--x1", ".3", "--x2", ".8", "--n1", "1000", "--l1", "2",
        "--p1", "0.3", "--q1", "0.2", "--alpha1", "0.5", "--beta1", "1.0", "--oracle")
    # literal nodes where p^l is 0: their A takes no p^l
    add("eval", "--f", "exp_sum", "--x1", ".3", "--x2", ".8", "--n1", "2", "--l1", "1100",
        "--p1", "0.5", "--q1", "0.25", "--node-exponent", "paper-literal", "--oracle")
    # six degrees near 4e4 at --grid 41: each passes the cost check, their sum
    # does not (about 2 s in a tree that prices only the largest degree)
    add("converge", "--n-list", ",".join(str(40000 + i) for i in range(6)), "--grid", "41")
    # the value at (0, 0) is finite, the oracle's node table exp(t1 + t2) is not
    add("eval", "--f", "exp_sum", "--n1", "1", "--l1", "400", "--q1", "0.999999", "--n2", "1",
        "--l2", "400", "--q2", "0.999999", "--x1", "0", "--x2", "0", "--oracle")

    # config files
    add("--config", "run.cfg", "eval", "--f", "e11", files={"run.cfg": WORKED_CFG})
    add("--config", "run.cfg", "eval", "--f", "e11", "--alpha1", "0.0", "--beta1", "0.0",
        files={"run.cfg": WORKED_CFG})
    for text in ("nq = 3\n", "just words\n"):
        add("--config", "bad.cfg", "eval", "--f", "e11", "--x1", "0", "--x2", "0",
            files={"bad.cfg": text})
    add("--config", "missing.cfg", "eval", "--f", "e11", "--x1", "0", "--x2", "0")
    for text, extra in (
        ("f = exp_sum\noracle = yes\n", []),
        ("f = exp_sum\noracle = off\n", []),
        ("f = exp_sum\noracle = off\n", ["--oracle"]),
        ("f = exp_sum\noracle = maybe\n", []),
        ("f = e11\ngrid = 7\n", []),
    ):
        add("--config", "run.cfg", "eval", *POINT, *extra, files={"run.cfg": text})
    for line, argv in (
        ("node_exponent = bogus", ["eval", "--f", "e11", "--x1", "0.5", "--x2", "0.5"]),
        ("format = xml", ["eval", "--f", "e11", "--x1", "0.5", "--x2", "0.5", "--output", "x"]),
        ("family = nope", ["converge", "--n-list", "8,16,32", "--grid", "3"]),
    ):
        add("--config", "run.cfg", *argv, files={"run.cfg": f"# choices are checked\n{line}\n"})

    # reports, in both formats
    for fmt in ("csv", "json"):
        out = ["--format", fmt]
        add("verify", "--grid", "11", *out)
        add("verify", "--grid", "3", "--node-exponent", "paper-literal", *out)
        add("converge", *out)
        add("converge", "--f", "exp_sum", "--n-list", "16,64,256,1024", *SHAPE, *out)
        add("converge", "--family", "tabulated", "--family-file", "fam.json",
            "--n-list", "8,16,32", "--grid", "5", *out, files={"fam.json": FAMILY})
        for f in ("exp_sum", "e11", "smooth_abs_005"):
            for grid in ("41", "101"):
                add("bounds", "--f", f, "--grid", grid, *SHAPE, *out)
        add("eval", "--f", "exp_sum", "--oracle", *POINT, "--output", f"eval.{fmt}", *out)
        add("eval", "--f", "exp_sum", "--oracle", *POINT_P09, "--output", f"eval.{fmt}", *out)
        add("catalog", "--l1", "1", "--l2", "1", "--output", f"catalog.{fmt}", *out)
    # BLAS wrote other bytes for this contraction under other thread counts and CPUs
    add("bounds", "--f", "exp_sum", "--n1", "200", "--n2", "200", "--l1", "1", "--q1", "0.8",
        "--q2", "0.8", "--grid", "101")
    # the benchmark's heavy shapes: converge's contraction at n = 2048 and a
    # cold weight build at m = 8002, each on a 41-point grid
    add("converge", "--cp", "0.4", "--cq", "1.3", "--n-list", "2048", *SHAPE, "--f", "exp_sum",
        "--grid", "41")
    add("bounds", "--n1", "8000", "--p1", "0.9999", "--q1", "0.9998", "--l1", "2",
        "--alpha1", "0.5", "--beta1", "1.0", "--n2", "3", "--f", "e20", "--grid", "41")
    # the compiled weight rows at their edges: the smallest x (log x = -744.4)
    # and the largest below 1 on m = 8000 axes with p near q, and p = 1 (log p = 0)
    add("eval", "--f", "exp_sum", "--n1", "8000", "--p1", "0.99995", "--q1", "0.9999",
        "--n2", "8000", "--p2", "0.99995", "--q2", "0.9999", "--x1", "5e-324",
        "--x2", "0.9999999999999999", "--output", "eval.csv")
    add("eval", "--f", "exp_sum", "--n1", "2000", "--p1", "1", "--q1", "0.999", "--x1", "0.3",
        "--x2", "0.8")
    # at (0.9, 0.6): 0.9^m is normal up to m = 6723 and the (p,q)-brackets up
    # to k = 6734, the limits of the (p,q) node form
    for l1 in ("23", "24", "30", "300"):
        add("eval", "--f", "e11", "--x1", ".5", "--x2", ".5", "--n1", "6700", "--l1", l1,
            "--p1", "0.9", "--q1", "0.6", "--oracle")
    # literal nodes, whose powers p^(n - nu) run down to p^-l: the contraction at
    # m = 8003 and the oracle's node table at m = 305
    add("eval", "--f", "exp_sum", "--x1", "0.3", "--x2", "0.8", "--node-exponent",
        "paper-literal", "--n1", "8000", "--l1", "3", "--p1", "0.9999", "--q1", "0.9998")
    add("eval", "--f", "exp_sum", "--x1", "0.3", "--x2", "0.8", "--oracle", "--node-exponent",
        "paper-literal", "--n1", "300", "--l1", "5", "--p1", "0.99", "--q1", "0.95")
    # a small p: m = 600 on (0.5, 0.25), where the weights are those of (1, 0.5)
    add("eval", "--f", "exp_sum", "--n1", "600", "--p1", "0.5", "--q1", "0.25", "--x1", "0.3",
        "--x2", "0.8", "--oracle")
    # the weight rows at both ends of lam = log(q/p): q/p about 1e-15 on both
    # axes (lam about -34.5) with x2 = 5e-324, then q/p = 1 - 2^-53 (lam about
    # -1.1e-16) against q/p = 1e-16 (lam about -36.7)
    add("eval", "--f", "exp_sum", "--x1", "0.999999", "--x2", "5e-324", "--n1", "2000", "--p1",
        "1", "--q1", "1e-15", "--n2", "3000", "--l2", "2", "--p2", "0.9999", "--q2", "1e-15",
        "--oracle")
    add("eval", "--f", "exp_sum", "--x1", "0.999999", "--x2", "0.5", "--n1", "2000", "--p1", "1",
        "--q1", "0.9999999999999999", "--n2", "900", "--l2", "2", "--p2", "0.5", "--q2", "5e-17",
        "--oracle")
    # the Korovkin columns up to n = 65536, where an expansion of the central
    # moment in powers of x would cancel most (the second axis keeps the
    # default shape, whose shift is exactly 0)
    add("converge", "--n-list", "4096,16384,65536", *SHAPE, "--grid", "5")
    # an estimate-only function: null bound and ratio cells in the convergence JSON
    add("converge", "--f", "sinprod", "--n-list", "8,16", "--grid", "5", "--format", "json")
    # the convergence table's bound column for every catalog entry
    for f in CATALOG:
        add("converge", "--f", f, "--n-list", "16,64,256,1024", *SHAPE, "--l2", "2")
    return cmds


def _run(root: Path, argv: list[str], files: dict[str, str]) -> tuple:
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "OPENBLAS_NUM_THREADS": "1", "COLUMNS": "100"}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in files.items():
            (work / name).write_text(text, encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "pqss.cli", *argv], cwd=work, env=env,
                              capture_output=True, timeout=600)
        outputs = {str(p.relative_to(work)): p.read_bytes()
                   for p in sorted(work.rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, proc.stderr, outputs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_reports.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    commands = _commands()
    differ = 0
    for args, files in commands:
        a, b = _run(parent, args, files), _run(change, args, files)
        what = [name for name, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
        what += [f"file {name}" for name in sorted(a[3].keys() | b[3].keys())
                 if a[3].get(name) != b[3].get(name)]
        if what:
            differ += 1
            print(f"DIFFERS pqss {' '.join(args)}: {', '.join(what)}")
    print(f"{len(commands) - differ} of {len(commands)} commands identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
