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
error; a command whose arrays would hold more than 2^26 elements is refused
before any work.  A --config file holds key=value lines (flag names, hyphens or
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
import functools
import json
import math
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from .analysis import BOUND_SLACK, total_modulus_bound_grid
from .catalog import TestFunction, build_catalog
from .convergence import (
    AxisShape,
    ConvergenceRow,
    KorovkinRow,
    build_operator,
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
from .operators import AxisConfig, BivariateOperator, apply_bivariate, nodes, sample_at_nodes
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


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


_AXIS_KWARGS = {
    "n": dict(type=int, default=8),
    "l": dict(type=int, default=0),
    "p": dict(type=float, default=1.0),
    "q": dict(type=float, default=0.5),
    "alpha": dict(type=float, default=0.0),
    "beta": dict(type=float, default=0.0),
}


def _axis_rows(*keys: str) -> tuple:
    """The option rows of the axis parameters `keys`, axis 1's before axis 2's."""
    return tuple((f"--{key}{i}", _AXIS_KWARGS[key]) for i in (1, 2) for key in keys)


_AXIS_OPTIONS = _axis_rows(*_AXIS_KWARGS)
_AXIS_KEYS = tuple(_dest(flag) for flag, _ in _AXIS_OPTIONS)
_OUTPUT_OPTIONS = (
    ("--output", dict(default=None, help="output file (or directory for converge)")),
    ("--format", dict(choices=("csv", "json"), default="csv")),
)
_NODE_EXPONENT = ("--node-exponent", dict(choices=tuple(_EXPONENT_BY_FLAG), default="canonical"))
_REQUIRED_F = ("--f", dict(help="catalog function name"))


def load_config_file(path: str) -> dict:
    """Parse key=value lines; '#' comments and blanks skipped; keys typed and
    checked against the option's choices, as argparse checks the flag.  A key
    may name an option of any subcommand."""
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
        if dest not in _OPTION_KWARGS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key.strip()!r}")
        kwargs = _OPTION_KWARGS[dest]
        convert = _parse_bool if kwargs.get("action") == "store_true" else kwargs.get("type", str)
        try:
            values[dest] = convert(val.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key.strip()!r}: {exc}") from exc
        allowed = kwargs.get("choices")
        if allowed is not None and values[dest] not in allowed:
            raise ValueError(
                f"{path}:{lineno}: bad value for {key.strip()!r}: "
                f"{values[dest]!r} is not one of {', '.join(allowed)}"
            )
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


def _run_config(ns, keys: tuple[str, ...] | None = None) -> dict:
    """The command and its values of `keys`, by default every option of the
    command but --output and --format, in the option table's order."""
    if keys is None:
        keys = [_dest(row[0]) for row in COMMANDS[ns.command][2] if row not in _OUTPUT_OPTIONS]
    return {"command": ns.command, **{k: getattr(ns, k) for k in keys}}


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


def _write_rows(path, fmt: str, row_type, rows: list, head: dict) -> None:
    """Write row_type dataclasses: CSV columns are its fields, JSON is head + "rows"."""
    _write_report(path, fmt,
                  lambda: ([f.name for f in fields(row_type)], [list(astuple(r)) for r in rows]),
                  lambda: {**head, "rows": [asdict(r) for r in rows]})


def _catalog_entry(name: str, width1: float, width2: float) -> TestFunction:
    cat = build_catalog(width1, width2)
    if name not in cat:
        raise ValueError(f"unknown function {name!r}; available: {', '.join(sorted(cat))}")
    return cat[name]


def _check_grid(k: int) -> None:
    if k < 2:
        raise ValueError(f"requires --grid >= 2 (got {k})")


MAX_ELEMENTS = 2 ** 26
# One decimal oracle row of 2^16 weights takes about 0.4 s and 40 MB
_MAX_ORACLE_ROW = 2 ** 16


def _check_sizes(sizes, at: str, limit: int = MAX_ELEMENTS) -> None:
    """Refuse, before any work, a command with an array of (what, size) above
    the limit, a power of two; `at` names the inputs the sizes were computed
    from."""
    for what, size in sizes:
        if size > limit:
            raise ValueError(f"{what} = {size} elements exceeds the limit of {limit} "
                             f"(2^{limit.bit_length() - 1}) at {at}")


def _check_cost(m1: int, m2: int, k: int, *more: tuple[str, int]) -> None:
    """Refuse, before any work, a command whose arrays would be too large.

    m1, m2 are the largest degrees the command builds on each axis and k the
    points per axis of its grid; the arrays are each axis's weights, priced
    with the temporaries weight_matrix holds while it runs (1.03 float arrays
    of k(m + 1) at its peak, the matrix and the m + 1 values of e, 1.36 where
    the call also loads the kernel, by tracemalloc, k = 41, m = 2000 and
    16384), and the grid itself, then the command's own `more` sizes.  At
    m = 65537 (tracemalloc) each axis's nodes peak at 2.0 float arrays of
    m + 1 (both node exponents) and weight_matrix at k = 1 at 2.0, below the
    8k(m + 1) each axis is priced at; eval's whole peak there, both axes'
    cached e included, is 6.0 such arrays of its 16.
    """
    sizes = (
        ("axis 1 weight build 8k(m1+1)", 8 * k * (m1 + 1)),
        ("axis 2 weight build 8k(m2+1)", 8 * k * (m2 + 1)),
        ("grid k^2", k * k),
        *more,
    )
    _check_sizes(sizes, f"m1={m1}, m2={m2}, k={k}")


def cmd_eval(ns) -> int:
    exponent = _EXPONENT_BY_FLAG[ns.node_exponent]
    ax1, ax2 = _axis(ns, 1, exponent), _axis(ns, 2, exponent)
    m1, m2 = ax1.degree, ax2.degree
    # only the oracle builds fn's table over the whole node grid
    table = (("node table (m1+1)(m2+1)", (m1 + 1) * (m2 + 1)),) if ns.oracle else ()
    _check_cost(m1, m2, 1, *table)
    if ns.oracle:
        _check_sizes((("oracle row m1+1", m1 + 1), ("oracle row m2+1", m2 + 1)),
                     f"m1={m1}, m2={m2}", limit=_MAX_ORACLE_ROW)
    op = BivariateOperator(ax1, ax2)
    f = _catalog_entry(ns.f, op.axis1.l + 1.0, op.axis2.l + 1.0)
    record = _run_config(ns, ("f", "x1", "x2", *_AXIS_KEYS, "node_exponent"))
    value = apply_bivariate(op, f.factors, ns.x1, ns.x2)
    record["value"] = value
    if ns.oracle:
        try:
            table = sample_at_nodes(op, f.fn)
        except ArithmeticError as exc:
            t1, t2 = nodes(op.axis1), nodes(op.axis2)
            raise ArithmeticError(
                f"{f.name} has no double value on the oracle's node table f(t1, t2), "
                f"t1 in [{fmt_float(t1.min())}, {fmt_float(t1.max())}], "
                f"t2 in [{fmt_float(t2.min())}, {fmt_float(t2.max())}] ({exc})") from exc
        oracle = float(moment_oracle(op, [table], [ns.x1], [ns.x2])[0, 0, 0])
        record["oracle"] = oracle
        record["absdiff"] = abs(value - oracle)
    for key in ("value", "oracle", "absdiff"):
        if key in record:
            print(f"{key} {fmt_float(record[key])}")
    if ns.output:
        _write_report(ns.output, ns.format,
                      lambda: (list(record.keys()), [list(record.values())]),
                      lambda: record)
    return 0


def cmd_verify(ns) -> int:
    exponent = _EXPONENT_BY_FLAG[ns.node_exponent]
    _check_grid(ns.grid)
    if not 0.0 < ns.tolerance < 1.0:
        # a tolerance no difference can exceed would make the check vacuous
        raise ValueError(f"requires a finite --tolerance in (0, 1) (got {ns.tolerance})")
    # each operator's eight closed moments and their oracle values, per grid point
    _check_sizes((("moment stacks 8k^2", 8 * ns.grid * ns.grid),), f"k={ns.grid}")
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
    cfg = _run_config(ns)
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
    if min(ns) < 1:
        raise ValueError(f"--n-list requires every n >= 1 (got {text!r})")
    if len(set(ns)) < len(ns):
        raise ValueError(f"--n-list requires distinct degrees (got {text!r})")
    return ns


def _order_text(value: float) -> str:
    if math.isinf(value):
        return "exact (errors vanish)"
    return f"{value:.3f}"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _tabulated_family(path: str):
    """The family of a JSON file {pairs: {n: [p, q]}, a: float, b: float}."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"family file {path}: expected a JSON object")
    for key in ("pairs", "a", "b"):
        if key not in raw:
            raise ValueError(f"family file missing key {key!r}")
    pairs = raw["pairs"]
    if not isinstance(pairs, dict) or not all(
        isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)) for v in pairs.values()
    ):
        raise ValueError(f"family file {path}: 'pairs' must map each n to two numbers [p, q]")
    if not (_is_number(raw["a"]) and _is_number(raw["b"])):
        raise ValueError(f"family file {path}: 'a' and 'b' must be numbers")
    table: dict[int, tuple] = {}
    for key, pair in pairs.items():
        if not key.strip().isdecimal():
            raise ValueError(f"family file {path}: key {key!r} is not a degree n")
        if int(key) in table:
            raise ValueError(f"family file {path}: key {key!r} repeats the degree n={int(key)}")
        table[int(key)] = tuple(pair)
    return tabulated_sequence(table, float(raw["a"]), float(raw["b"]), name=Path(path).stem)


def cmd_converge(ns) -> int:
    for family, keys in (("one-minus-c-over-n", ("cp", "cq")), ("tabulated", ("family_file",))):
        for key in keys:
            # another family's option would go unread, yet enter the config and its hash
            if ns.family != family and getattr(ns, key) != _OPTION_KWARGS[key]["default"]:
                raise ValueError(f"--{key.replace('_', '-')} requires --family {family} "
                                 f"(got {ns.family})")
    if ns.family == "one-minus-c-over-n":
        spec = one_minus_c_over_n(ns.cp, ns.cq)
    else:
        if not ns.family_file:
            raise ValueError("requires --family-file with --family tabulated")
        spec = _tabulated_family(ns.family_file)
    n_list = _parse_n_list(ns.n_list)
    _check_grid(ns.grid)
    shape1 = AxisShape(ns.l1, ns.alpha1, ns.beta1)
    shape2 = AxisShape(ns.l2, ns.alpha2, ns.beta2)
    # the first operator checks the family and the axis rules, l >= 0 among
    # them, before the cost and the catalog's widths are computed from l; the
    # other degrees are built once both checks pass
    ops = [build_operator(spec, n_list[0], shape1, shape2)]
    # every degree builds and evaluates its own operator, so each axis's
    # weight builds are priced over the whole list as well
    builds = [(f"axis {i} weight builds over --n-list, sum of 8k(m{i}+1)",
               sum(8 * ns.grid * (n + l + 1) for n in n_list))
              for i, l in ((1, shape1.l), (2, shape2.l))]
    _check_cost(max(n_list) + shape1.l, max(n_list) + shape2.l, ns.grid, *builds)
    f = _catalog_entry(ns.f, shape1.l + 1.0, shape2.l + 1.0)
    ops += [build_operator(spec, n, shape1, shape2) for n in n_list[1:]]

    suite = korovkin_suite(ops, ns.grid)
    table = convergence_table(ops, f, ns.grid)

    print(f"family {spec.name}: p_n^n -> {spec.a:.6g}, q_n^n -> {spec.b:.6g}")
    print("korovkin sup errors (n, e00, e10, e01, e20+e02):")
    for r in suite:
        print(f"  {r.n:6d}  {r.sup_e00:.3e}  {r.sup_e10:.3e}  {r.sup_e01:.3e}  {r.sup_e20_e02:.3e}")
    print(f"convergence of {f.name} (n, sup_err, bound_at_worst, ratio):")
    for r in table:
        bound = "-" if r.bound_at_worst is None else f"{r.bound_at_worst:.3e}"
        ratio = "-" if r.ratio is None else f"{r.ratio:.3f}"
        print(f"  {r.n:6d}  {r.sup_err:.3e}  {bound}  {ratio}")

    if len(n_list) >= 3:
        columns = [
            ("e10", [r.sup_e10 for r in suite]),
            ("e01", [r.sup_e01 for r in suite]),
            ("e20+e02", [r.sup_e20_e02 for r in suite]),
            (f.name, [r.sup_err for r in table]),
        ]
        for label, errs in columns:
            order = empirical_order(zip(n_list, errs))
            print(f"order[{label}] = {_order_text(order)}")

    out_dir = Path(ns.output) if ns.output else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = _run_config(ns)
    h = config_hash(cfg)
    head = {"config": cfg, "family": spec.name, "grid_k": ns.grid,
            "shape1": asdict(shape1), "shape2": asdict(shape2)}
    _write_rows(out_dir / f"korovkin_{h}.{ns.format}", ns.format, KorovkinRow, suite, head)
    _write_rows(out_dir / f"convergence_{f.name}_{h}.{ns.format}", ns.format, ConvergenceRow,
                table, {**head, "function": f.name})
    return 0


def cmd_bounds(ns) -> int:
    ax1, ax2 = _axis(ns, 1), _axis(ns, 2)
    _check_grid(ns.grid)
    _check_cost(ax1.degree, ax2.degree, ns.grid)
    op = BivariateOperator(ax1, ax2)
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
    cfg = _run_config(ns)
    # one entry per grid point, x1 outer and x2 inner
    columns = (np.repeat(xs, ns.grid).tolist(), np.tile(xs, ns.grid).tolist(),
               lhs.ravel().tolist(), rhs.ravel().tolist(), ok.ravel().tolist())

    def csv_report():
        x1s, x2s, lhss, rhss, holds = columns
        holds_text = ["true" if h else "false" for h in holds]
        return ["x1", "x2", "lhs", "rhs", "holds"], list(zip(x1s, x2s, lhss, rhss, holds_text))

    def json_report():
        rows = [{"point": {"x1": x1, "x2": x2}, "lhs": lo, "rhs": hi, "holds": h}
                for x1, x2, lo, hi, h in zip(*columns)]
        return {"config": cfg, "rows": rows, "violations": violations}

    _write_report(Path(ns.output or f"bounds_{f.name}_{config_hash(cfg)}.{ns.format}"),
                  ns.format, csv_report, json_report)
    return 1 if violations else 0


def cmd_catalog(ns) -> int:
    for l in (ns.l1, ns.l2):
        # each width is l + 1, an axis's node domain, so l obeys the axis rule
        AxisConfig(n=1, l=l, pq=PQPair(1.0, 0.5))
    entries = [tf for _, tf in sorted(build_catalog(ns.l1 + 1.0, ns.l2 + 1.0).items())]
    name_w = max(len(tf.name) for tf in entries)
    print(f"catalog on [0, {ns.l1 + 1}] x [0, {ns.l2 + 1}]:")
    for tf in entries:
        mod = "estimate only" if tf.total_modulus is None else "exact modulus"
        cb2 = "-" if tf.cb2_norm is None else f"{tf.cb2_norm:.6g}"
        sup = "-" if tf.sup_norm is None else f"{tf.sup_norm:.6g}"
        print(f"  {tf.name:<{name_w}}  sup {sup:>10}  cb2 {cb2:>10}  {mod}")

    def csv_report():
        header = ["name", "width1", "width2", "sup_norm", "lip1", "lip2", "cb2_norm",
                  "exact_modulus"]
        return header, [
            [tf.name, tf.width1, tf.width2, tf.sup_norm, *(tf.lipschitz_axis or (None, None)),
             tf.cb2_norm, "no" if tf.total_modulus is None else "yes"]
            for tf in entries
        ]

    def json_report():
        return {"width1": ns.l1 + 1.0, "width2": ns.l2 + 1.0, "entries": [
            {
                "name": tf.name, "width1": tf.width1, "width2": tf.width2,
                "sup_norm": tf.sup_norm,
                "lipschitz_axis": list(tf.lipschitz_axis) if tf.lipschitz_axis else None,
                "cb2_norm": tf.cb2_norm,
                "exact_modulus": tf.total_modulus is not None,
            }
            for tf in entries
        ]}

    if ns.output:
        _write_report(ns.output, ns.format, csv_report, json_report)
    return 0


# Each subcommand's help, handler and option rows (flag, kwargs), in help
# order.  kwargs go to argparse's add_argument, except "default", which main
# applies beneath the config file and the flags; a row without a default is a
# required flag, which a config value can satisfy.
COMMANDS = {
    "eval": ("evaluate S(f; x1, x2)", cmd_eval, (
        *_AXIS_OPTIONS,
        _REQUIRED_F,
        ("--x1", dict(type=float)),
        ("--x2", dict(type=float)),
        ("--oracle", dict(action="store_true", default=False,
                          help="also run the brute-force oracle")),
        _NODE_EXPONENT,
        *_OUTPUT_OPTIONS,
    )),
    "verify": ("closed moments vs oracle over the sweep", cmd_verify, (
        ("--tolerance", dict(type=float, default=1e-10)),
        ("--grid", dict(type=int, default=11, help="points per axis in [0,1]")),
        _NODE_EXPONENT,
        *_OUTPUT_OPTIONS,
    )),
    "converge": ("Korovkin suite and convergence table", cmd_converge, (
        ("--family", dict(choices=("one-minus-c-over-n", "tabulated"),
                          default="one-minus-c-over-n",
                          help="the (p_n, q_n) family; at each n both axes use the same "
                               "pair, while l, alpha and beta are set per axis")),
        ("--cp", dict(type=float, default=0.5, help="p_n = 1 - cp/n")),
        ("--cq", dict(type=float, default=1.0, help="q_n = 1 - cq/n")),
        ("--family-file", dict(
            default=None,
            help="JSON {pairs: {n: [p, q]}, a: float, b: float} for --family tabulated")),
        ("--n-list", dict(default="16,32,64,128,256,512")),
        # e20 keeps a genuine error for every shape; linear entries can be
        # reproduced exactly (l=0, alpha=beta=0), which makes a useless default
        ("--f", dict(default="e20", help="catalog function for the convergence table")),
        *_axis_rows("l", "alpha", "beta"),
        ("--grid", dict(type=int, default=41)),
        *_OUTPUT_OPTIONS,
    )),
    "bounds": ("check |S(f) - f| <= 4 omega_total on a grid", cmd_bounds, (
        *_AXIS_OPTIONS,
        _REQUIRED_F,
        ("--grid", dict(type=int, default=41)),
        *_OUTPUT_OPTIONS,
    )),
    "catalog": ("list catalog functions and metadata", cmd_catalog, (
        *_axis_rows("l"),
        *_OUTPUT_OPTIONS,
    )),
}

# A config file may hold any subcommand's keys; an option shared by several
# subcommands has one type and one set of choices.
_OPTION_KWARGS = {_dest(flag): kw for _, _, rows in COMMANDS.values() for flag, kw in rows}


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The pqss parser and its subcommand parsers, built once per process.

    No option has an argparse default, so a parsed namespace holds only the
    flags that were given.
    """
    parser = argparse.ArgumentParser(
        prog="pqss",
        description="Bivariate Schurer-Stancu operators on (p,q)-integers",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--config", help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, rows) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag, kwargs in rows:
            sp.add_argument(flag, **{k: v for k, v in kwargs.items() if k != "default"})
    return parser, sub.choices


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    try:
        given = vars(parser.parse_args(argv))
        _, handler, rows = COMMANDS[given["command"]]
        config = load_config_file(given["config"]) if "config" in given else {}
        defaults = {_dest(flag): kw["default"] for flag, kw in rows if "default" in kw}
        ns = argparse.Namespace(**{**defaults, **config, **given})
        missing = [flag for flag, _ in rows if not hasattr(ns, _dest(flag))]
        if missing:
            subparsers[ns.command].error(
                f"the following arguments are required: {', '.join(missing)}"
            )
        return handler(ns)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
