"""Command-line front end.

Subcommands:

  eval      evaluate S(f; x1, x2) for a catalog function, optionally against
            the brute-force oracle
  verify    closed moments vs oracle across the full parameter sweep
  converge  Korovkin suite + single-function convergence table for a
            parameter family, with fitted empirical orders
  bounds    the 4*omega_total bound checked over a grid
  catalog   list catalog functions and their metadata

Exit codes: 0 success, 1 verification/bound failure, 2 usage or validation
error.  A --config file holds key=value lines (flag names, hyphens or
underscores); explicit command-line flags override it.

--node-exponent exists on eval and verify only: converge and bounds lean on
closed moment forms that describe the canonical node convention, so mixing
them with literal nodes would compare incompatible quantities.

Outputs are deterministic: identical configurations produce byte-identical
files.  File names for default outputs embed a short hash of the resolved
configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import BOUND_SLACK, total_modulus_bound_grid
from .catalog import TestFunction, build_catalog
from .convergence import (
    AxisShape,
    convergence_table,
    empirical_order,
    korovkin_suite,
    one_minus_c_over_n,
    tabulated_sequence,
)
from .moments import (
    MOMENT_CSV_HEADER,
    literal_first_moment_factor,
    moment_csv_rows,
    moment_oracle,
    standard_sweep,
    sweep_grid,
    verify_moments,
)
from .operators import AxisConfig, BivariateOperator, apply_bivariate
from .pq_core import PQPair
from .serialize import config_hash, csv_text, fmt_float, json_text, write_text

_EXPONENT_BY_FLAG = {"canonical": "canonical", "paper-literal": "literal"}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


class _Options:
    """Subcommand parsers, each option's converter for config-file values and
    each subcommand's required flags, recorded as the options are added.
    Required flags are checked after parsing: a config value can satisfy them.
    """

    def __init__(self, sub):
        self.sub = sub
        self.name = ""
        self.parsers: dict[str, argparse.ArgumentParser] = {}
        self.converters: dict = {}
        self.mandatory: dict[str, list[tuple[str, str]]] = {}

    def command(self, name: str, help: str) -> None:
        """Start a subcommand; the options added next belong to it."""
        self.name = name
        self.parsers[name] = self.sub.add_parser(name, help=help)
        self.mandatory[name] = []

    def add(self, flag: str, required: bool = False, **kwargs) -> None:
        self.parsers[self.name].add_argument(flag, **kwargs)
        dest = flag[2:].replace("-", "_")
        bool_flag = kwargs.get("action") == "store_true"
        self.converters[dest] = _parse_bool if bool_flag else kwargs.get("type", str)
        if required:
            self.mandatory[self.name].append((flag, dest))


def _add_axis_args(opts: _Options) -> None:
    for i in (1, 2):
        opts.add(f"--n{i}", type=int, default=8)
        opts.add(f"--l{i}", type=int, default=0)
        opts.add(f"--p{i}", type=float, default=1.0)
        opts.add(f"--q{i}", type=float, default=0.5)
        opts.add(f"--alpha{i}", type=float, default=0.0)
        opts.add(f"--beta{i}", type=float, default=0.0)


def _add_output_args(opts: _Options) -> None:
    opts.add("--output", default=None, help="output file (or directory for converge)")
    opts.add("--format", choices=("csv", "json"), default="csv")


def _add_node_exponent(opts: _Options) -> None:
    opts.add("--node-exponent", choices=tuple(_EXPONENT_BY_FLAG), default="canonical")


def build_parser() -> tuple[argparse.ArgumentParser, _Options]:
    parser = argparse.ArgumentParser(
        prog="pqss",
        description="Bivariate Schurer-Stancu operators on (p,q)-integers",
    )
    parser.add_argument("--config", default=None, help="key=value defaults file")
    opts = _Options(parser.add_subparsers(dest="command", required=True))

    opts.command("eval", help="evaluate S(f; x1, x2)")
    _add_axis_args(opts)
    opts.add("--f", required=True, help="catalog function name")
    opts.add("--x1", type=float, required=True)
    opts.add("--x2", type=float, required=True)
    opts.add("--oracle", action="store_true", help="also run the brute-force oracle")
    _add_node_exponent(opts)
    _add_output_args(opts)

    opts.command("verify", help="closed moments vs oracle over the sweep")
    opts.add("--tolerance", type=float, default=1e-10)
    opts.add("--grid", type=int, default=11, help="points per axis in [0,1]")
    _add_node_exponent(opts)
    _add_output_args(opts)

    opts.command("converge", help="Korovkin suite and convergence table")
    opts.add(
        "--family", choices=("one-minus-c-over-n", "tabulated"),
        default="one-minus-c-over-n",
    )
    opts.add("--cp", type=float, default=0.5, help="p_n = 1 - cp/n")
    opts.add("--cq", type=float, default=1.0, help="q_n = 1 - cq/n")
    opts.add("--family-file", default=None,
             help="JSON {pairs: {n: [p, q]}, a: float, b: float} for --family tabulated")
    opts.add("--n-list", default="16,32,64,128,256,512")
    # e20 keeps a genuine error for every shape; linear entries can be
    # reproduced exactly (l=0, alpha=beta=0), which makes a useless default
    opts.add("--f", default="e20", help="catalog function for the convergence table")
    for i in (1, 2):
        opts.add(f"--l{i}", type=int, default=0)
        opts.add(f"--alpha{i}", type=float, default=0.0)
        opts.add(f"--beta{i}", type=float, default=0.0)
    opts.add("--grid", type=int, default=41)
    _add_output_args(opts)

    opts.command("bounds", help="check |S(f) - f| <= 4 omega_total on a grid")
    _add_axis_args(opts)
    opts.add("--f", required=True, help="catalog function name")
    opts.add("--grid", type=int, default=41)
    _add_output_args(opts)

    opts.command("catalog", help="list catalog functions and metadata")
    opts.add("--l1", type=int, default=0)
    opts.add("--l2", type=int, default=0)
    _add_output_args(opts)

    return parser, opts


def load_config_file(path: str, types: dict) -> dict:
    """Parse key=value lines; '#' comments and blanks skipped; keys typed."""
    values: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        dest = key.strip().replace("-", "_")
        if dest not in types:
            raise ValueError(f"{path}:{lineno}: unknown config key {key.strip()!r}")
        try:
            values[dest] = types[dest](val.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key.strip()!r}: {exc}") from exc
    return values


def _axis(ns, i: int, node_exponent: str = "canonical") -> AxisConfig:
    return AxisConfig(
        n=getattr(ns, f"n{i}"),
        l=getattr(ns, f"l{i}"),
        pq=PQPair(getattr(ns, f"p{i}"), getattr(ns, f"q{i}")),
        alpha=getattr(ns, f"alpha{i}"),
        beta=getattr(ns, f"beta{i}"),
        node_exponent=node_exponent,
    )


def _run_config(ns, keys: tuple[str, ...]) -> dict:
    cfg = {"command": ns.command}
    for k in keys:
        cfg[k] = getattr(ns, k)
    return cfg


def _write_report(path, fmt: str, csv_report, json_report) -> None:
    """Write one report file in the chosen format and say so.

    csv_report() returns (header, rows) and json_report() the JSON object;
    only the chosen one is called, so only that format's rows are built.
    """
    if fmt == "csv":
        write_text(path, csv_text(*csv_report()))
    else:
        write_text(path, json_text(json_report()))
    print(f"wrote {path}")


def _catalog_entry(name: str, width1: float, width2: float) -> TestFunction:
    cat = build_catalog(width1, width2)
    if name not in cat:
        raise ValueError(f"unknown function {name!r}; available: {', '.join(sorted(cat))}")
    return cat[name]


def _check_grid(k: int) -> None:
    if k < 2:
        raise ValueError(f"requires --grid >= 2 (got {k})")


def cmd_eval(ns) -> int:
    exponent = _EXPONENT_BY_FLAG[ns.node_exponent]
    op = BivariateOperator(_axis(ns, 1, exponent), _axis(ns, 2, exponent))
    f = _catalog_entry(ns.f, op.axis1.l + 1.0, op.axis2.l + 1.0)
    value = apply_bivariate(op, f.fn, ns.x1, ns.x2)
    print(f"value {fmt_float(value)}")
    keys = ("f", "x1", "x2", "n1", "l1", "p1", "q1", "alpha1", "beta1",
            "n2", "l2", "p2", "q2", "alpha2", "beta2", "node_exponent")
    record = _run_config(ns, keys)
    record["value"] = value
    if ns.oracle:
        oracle = moment_oracle(op, f.fn, ns.x1, ns.x2)
        record["oracle"] = oracle
        record["absdiff"] = abs(value - oracle)
        print(f"oracle {fmt_float(oracle)}")
        print(f"absdiff {fmt_float(record['absdiff'])}")
    if ns.output:
        _write_report(ns.output, ns.format,
                      lambda: (list(record.keys()), [list(record.values())]),
                      lambda: record)
    return 0


def cmd_verify(ns) -> int:
    exponent = _EXPONENT_BY_FLAG[ns.node_exponent]
    _check_grid(ns.grid)
    if not ns.tolerance > 0.0:
        raise ValueError(f"requires --tolerance > 0 (got {ns.tolerance})")
    ops = standard_sweep(exponent)
    xs = sweep_grid(ns.grid)
    res = verify_moments(ops, xs, ns.tolerance)
    print(
        f"checked {res.n_checks} closed-vs-oracle comparisons over "
        f"{len(ops)} configurations at tolerance {ns.tolerance:g}"
    )
    if exponent == "literal":
        # the closed forms describe canonical nodes; show the measured slope
        # ratio so the systematic e10/e01/e11 failures are self-explanatory
        for p, q in ((0.9, 0.6), (0.99, 0.95)):
            for l in (1, 3):
                axis = AxisConfig(n=5, l=l, pq=PQPair(p, q), node_exponent="literal")
                factor = literal_first_moment_factor(axis, 0.7)
                print(
                    f"literal nodes: closed/literal first-moment slope ratio "
                    f"{fmt_float(factor)} vs p^l {fmt_float(p ** l)} (p={p}, l={l})"
                )
    for line in res.failures[:10]:
        print(f"FAIL {line}")
    if len(res.failures) > 10:
        print(f"... and {len(res.failures) - 10} more failures")
    cfg = _run_config(ns, ("tolerance", "grid", "node_exponent"))
    _write_report(
        Path(ns.output or f"moments_{config_hash(cfg)}.{ns.format}"), ns.format,
        lambda: (MOMENT_CSV_HEADER, moment_csv_rows(res.reports)),
        lambda: {
            "config": cfg,
            "reports": [r.to_json_obj() for r in res.reports],
            "failures": res.failures,
            "n_checks": res.n_checks,
        },
    )
    print("verify: OK" if res.ok else f"verify: {len(res.failures)} failures")
    return 0 if res.ok else 1


def _parse_n_list(text: str) -> list[int]:
    try:
        ns = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --n-list {text!r}: {exc}") from exc
    if not ns:
        raise ValueError("requires a nonempty --n-list")
    return ns


def _order_text(value: float) -> str:
    if math.isinf(value):
        return "exact (errors vanish)"
    return f"{value:.3f}"


def cmd_converge(ns) -> int:
    if ns.family == "one-minus-c-over-n":
        spec = one_minus_c_over_n(ns.cp, ns.cq)
    else:
        if not ns.family_file:
            raise ValueError("requires --family-file with --family tabulated")
        raw = json.loads(Path(ns.family_file).read_text(encoding="utf-8"))
        for key in ("pairs", "a", "b"):
            if key not in raw:
                raise ValueError(f"family file missing key {key!r}")
        spec = tabulated_sequence(
            {int(k): tuple(v) for k, v in raw["pairs"].items()},
            float(raw["a"]), float(raw["b"]),
            name=Path(ns.family_file).stem,
        )
    n_list = _parse_n_list(ns.n_list)
    _check_grid(ns.grid)
    shape1 = AxisShape(ns.l1, ns.alpha1, ns.beta1)
    shape2 = AxisShape(ns.l2, ns.alpha2, ns.beta2)
    f = _catalog_entry(ns.f, shape1.l + 1.0, shape2.l + 1.0)

    suite = korovkin_suite(spec, n_list, shape1, shape2, grid_k=ns.grid)
    table = convergence_table(spec, f, n_list, shape1, shape2, grid_k=ns.grid)

    print(f"family {spec.name}: p_n^n -> {spec.a:.6g}, q_n^n -> {spec.b:.6g}")
    print("korovkin sup errors (n, e00, e10, e01, e20+e02):")
    for r in suite.rows:
        print(f"  {r.n:6d}  {r.sup_e00:.3e}  {r.sup_e10:.3e}  {r.sup_e01:.3e}  {r.sup_e20_e02:.3e}")
    print(f"convergence of {f.name} (n, sup_err, bound_at_worst, ratio):")
    for r in table.rows:
        bound = "-" if r.bound_at_worst is None else f"{r.bound_at_worst:.3e}"
        ratio = "-" if r.ratio is None else f"{r.ratio:.3f}"
        print(f"  {r.n:6d}  {r.sup_err:.3e}  {bound}  {ratio}")

    if len(n_list) >= 3:
        columns = [
            ("e10", [r.sup_e10 for r in suite.rows]),
            ("e01", [r.sup_e01 for r in suite.rows]),
            ("e20+e02", [r.sup_e20_e02 for r in suite.rows]),
            (f.name, [r.sup_err for r in table.rows]),
        ]
        for label, errs in columns:
            order = empirical_order(zip(n_list, errs))
            print(f"order[{label}] = {_order_text(order)}")

    out_dir = Path(ns.output) if ns.output else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = _run_config(ns, ("family", "cp", "cq", "family_file", "n_list", "f",
                           "l1", "alpha1", "beta1", "l2", "alpha2", "beta2", "grid"))
    h = config_hash(cfg)
    _write_report(out_dir / f"korovkin_{h}.{ns.format}", ns.format,
                  lambda: (suite.CSV_HEADER, suite.csv_rows()),
                  lambda: {"config": cfg, **suite.to_json_obj()})
    _write_report(out_dir / f"convergence_{f.name}_{h}.{ns.format}", ns.format,
                  lambda: (table.CSV_HEADER, table.csv_rows()),
                  lambda: {"config": cfg, **table.to_json_obj()})
    return 0


def cmd_bounds(ns) -> int:
    op = BivariateOperator(_axis(ns, 1), _axis(ns, 2))
    _check_grid(ns.grid)
    f = _catalog_entry(ns.f, op.axis1.l + 1.0, op.axis2.l + 1.0)
    xs = np.linspace(0.0, 1.0, ns.grid)
    lhs, rhs = total_modulus_bound_grid(op, f, xs, xs)
    ok = lhs <= rhs + BOUND_SLACK
    violations = int(ok.size - np.count_nonzero(ok))
    print(
        f"checked {ok.size} grid points for {f.name}: "
        f"max lhs {np.max(lhs):.3e}, min margin {np.min(rhs - lhs):.3e}, "
        f"violations {violations}"
    )
    keys = ("f", "grid", "n1", "l1", "p1", "q1", "alpha1", "beta1",
            "n2", "l2", "p2", "q2", "alpha2", "beta2")
    cfg = _run_config(ns, keys)
    points = [(i, j, float(x1), float(x2))
              for i, x1 in enumerate(xs) for j, x2 in enumerate(xs)]

    def csv_report():
        rows = [[x1, x2, float(lhs[i, j]), float(rhs[i, j]), "true" if ok[i, j] else "false"]
                for i, j, x1, x2 in points]
        return ["x1", "x2", "lhs", "rhs", "holds"], rows

    def json_report():
        rows = [{"point": {"x1": x1, "x2": x2}, "lhs": float(lhs[i, j]),
                 "rhs": float(rhs[i, j]), "holds": bool(ok[i, j])}
                for i, j, x1, x2 in points]
        return {"config": cfg, "rows": rows, "violations": violations}

    _write_report(Path(ns.output or f"bounds_{f.name}_{config_hash(cfg)}.{ns.format}"),
                  ns.format, csv_report, json_report)
    return 1 if violations else 0


def cmd_catalog(ns) -> int:
    cat = build_catalog(ns.l1 + 1.0, ns.l2 + 1.0)
    header = ["name", "width1", "width2", "sup_norm", "lip1", "lip2", "cb2_norm", "exact_modulus"]
    rows = []
    for name in sorted(cat):
        tf = cat[name]
        lip1, lip2 = tf.lipschitz_axis if tf.lipschitz_axis else ("", "")
        rows.append([
            name, tf.width1, tf.width2,
            "" if tf.sup_norm is None else tf.sup_norm,
            lip1, lip2,
            "" if tf.cb2_norm is None else tf.cb2_norm,
            "yes" if tf.total_modulus is not None else "no",
        ])
    name_w = max(len(r[0]) for r in rows)
    print(f"catalog on [0, {ns.l1 + 1}] x [0, {ns.l2 + 1}]:")
    for r in rows:
        mod = "exact modulus" if r[7] == "yes" else "estimate only"
        cb2 = "-" if r[6] == "" else f"{r[6]:.6g}"
        sup = "-" if r[3] == "" else f"{r[3]:.6g}"
        print(f"  {r[0]:<{name_w}}  sup {sup:>10}  cb2 {cb2:>10}  {mod}")

    def json_report():
        return {
            "width1": ns.l1 + 1.0,
            "width2": ns.l2 + 1.0,
            "entries": [
                {
                    "name": r[0], "width1": r[1], "width2": r[2],
                    "sup_norm": None if r[3] == "" else r[3],
                    "lipschitz_axis": None if r[4] == "" else [r[4], r[5]],
                    "cb2_norm": None if r[6] == "" else r[6],
                    "exact_modulus": r[7] == "yes",
                }
                for r in rows
            ],
        }

    if ns.output:
        _write_report(ns.output, ns.format, lambda: (header, rows), json_report)
    return 0


_DISPATCH = {
    "eval": cmd_eval,
    "verify": cmd_verify,
    "converge": cmd_converge,
    "bounds": cmd_bounds,
    "catalog": cmd_catalog,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    parser, opts = build_parser()
    if known.config:
        try:
            values = load_config_file(known.config, opts.converters)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for sp in opts.parsers.values():
            sp.set_defaults(**values)
    try:
        ns = parser.parse_args(argv)
        missing = [flag for flag, dest in opts.mandatory[ns.command] if getattr(ns, dest) is None]
        if missing:
            opts.parsers[ns.command].error(
                f"the following arguments are required: {', '.join(missing)}"
            )
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[ns.command](ns)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
