"""The CLI's contract on argv drawn from cli.COMMANDS, with boundary values.

Every command exits 0, 1 or 2 and lets no other exception escape; at exit 0
or 1 every number it prints or writes is finite; and an exit-2 message says
what was refused, never a bare libm or division message.  RuntimeWarning is
raised as an error, so a numpy warning on the way counts as an escape.
"""

import contextlib
import io
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from pqss import cli
from pqss.catalog import build_catalog

_INF, _NAN = math.inf, math.nan

# Values per option (the axis digit stripped): usual values, all valid, and
# edges: the ends of each valid range and values just outside it.  A given
# option takes an edge one time in eight, so about half the commands run to
# the end.  Degrees reach [n] below the normal range (n = 1100 at p = 0.5),
# m past 32768, and a size the cost check refuses (2^26).
_VALUES = {
    "n": ([1, 2, 8, 25, 1100], [0, -1, 1025, 2048, 32768, 2 ** 26]),
    "l": ([0, 1, 3], [100, 30000, -1, 2 ** 26]),
    "p": ([1.0, 0.99, 0.9, 0.5],
          [0.05, 1e-300, 5e-324, 0.0, -0.5, 1.0000000000000002, _NAN, _INF]),
    "q": ([0.5, 0.25, 0.49, 0.05], [0.95, 1e-300, 5e-324, 0.0, 1.0, _NAN, _INF]),
    # (alpha, beta), given together
    "alpha": ([(0.0, 0.0), (0.5, 1.0), (1.0, 2.0), (0.5, 0.5)],
              [(0.0, 1e-320), (1e-320, 1e-320), (0.0, 1e8), (1e8, 1e8), (1e300, 1e300),
               (1.0, 0.5), (-1.0, 0.0), (0.0, -1.0), (_NAN, 1.0), (0.0, _INF)]),
    "x": ([0.3, 0.5, 0.9], [0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53, -0.1, 1.1, _NAN]),
    "tolerance": ([1e-10, 1e-6], [0.5, 0.0, 1.0, -1e-10, _NAN, _INF]),
    "grid": ([2, 3, 5, 11], [1, 0, -3, 2 ** 14]),
    "cp": ([0.5, 0.3], [0.0, -1.0, 1e-9, 400.0, 1e9, _NAN, _INF]),
    "cq": ([1.0, 1.5], [0.5, 0.0, 1e-9, 500.0, 1e9, _NAN, _INF]),
    "n_list": (["16,32,64", "8", "1,2,4"], ["64,2048", "1100", "0", "8,8", "", "a,b"]),
    "f": (sorted(build_catalog(1.0, 1.0)), ["nope"]),
}
# Options that name files are left out: they would only test the file system.
_SKIPPED = {"output", "family_file"}

_BARE_MESSAGES = re.compile(r"error: (math domain error|math range error|float division by zero|"
                            r"division by zero|integer division or modulo by zero|"
                            r"float modulo|.*Numerical result out of range.*)$", re.M)
_NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.I)


@st.composite
def commands(draw, name):
    """argv for the subcommand `name`: each option given or left to its
    default, and a required one given nine times in ten."""
    argv = [name]
    for flag, kwargs in cli.COMMANDS[name][2]:
        dest = flag[2:].replace("-", "_")
        odds = [True] * 9 + [False] if "default" not in kwargs else [True, False]
        # beta is given with alpha, as a pair
        if dest in _SKIPPED or dest.startswith("beta") or not draw(st.sampled_from(odds)):
            continue
        if kwargs.get("action") == "store_true":
            argv.append(flag)
        elif "choices" in kwargs:
            argv += [flag, draw(st.sampled_from(kwargs["choices"]))]
        else:
            usual, edges = _VALUES[dest.rstrip("12")]
            value = draw(st.sampled_from(edges if draw(st.sampled_from([False] * 7 + [True]))
                                         else usual))
            if dest.startswith("alpha"):
                argv += [flag, repr(value[0]), "--beta" + dest[-1], repr(value[1])]
            else:
                argv += [flag, value if isinstance(value, str) else repr(value)]
    return argv


def _run(argv: list[str], where: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(argv)
    finally:
        os.chdir(cwd)
    return rc, out.getvalue(), err.getvalue()


# Examples per command, 100 in all; verify has the fewest options and runs
# the whole sweep, about 0.5 s with literal nodes
EXAMPLES = {"eval": 30, "bounds": 25, "converge": 25, "catalog": 12, "verify": 8}
# Run before the drawn examples: the shift S(t) - x where D = [n] + beta is
# below the normal range, in its form without D (beta = 0) and refused
# (beta > 0), which the draws seldom reach
SUBNORMAL_D = ["bounds", "--f", "e20", "--n1", "1100", "--p1", "0.5", "--q1", "0.25",
               "--grid", "5"]
EXPLICIT = {"bounds": [SUBNORMAL_D, [*SUBNORMAL_D, "--beta1", "1e-320"]]}


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_cli_keeps_its_contract(name):
    assert set(EXAMPLES) == set(cli.COMMANDS)

    @settings(max_examples=EXAMPLES[name], derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(commands(name))
    def check(argv):
        with tempfile.TemporaryDirectory() as tmp:
            rc, out, err = _run(argv, Path(tmp))
            assert rc in (0, 1, 2), (argv, rc, err)
            if rc in (0, 1):
                reports = [out, *(path.read_text(encoding="utf-8")
                                  for path in sorted(Path(tmp).rglob("*")) if path.is_file())]
                for text in reports:
                    assert _NOT_FINITE.search(text) is None, (argv, text[:2000])
            else:
                assert _BARE_MESSAGES.search(err) is None, (argv, err)

    for argv in EXPLICIT.get(name, ()):
        check = example(argv)(check)
    check()
