"""No numpy transcendental function in src/pqss, so every report path uses libm.

numpy's exp, log, sin, power and their kin run SIMD kernels that differ from
libm in the last bit on some inputs, and which kernel runs depends on the
CPU.  The package applies math-module functions through _clibm.libm instead,
which gives libm's bits on every machine.  So no `np.exp` (called or passed
as a value), no `numpy.log`, nothing reached through `np.emath` or
`np.lib.scimath`, and no `from numpy import exp`.  np.sqrt stays allowed: it
is correctly rounded, so every kernel gives the same bits.  Array `**` is
numpy's power too, but it cannot be told from a scalar `**` without types;
the one array `**` left (LipschitzSpec.rhs) is on no report path.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pqss"
NUMPY = {"np", "numpy"}
TRIG = {"sin", "cos", "tan"}
TRANSCENDENTALS = (
    {"exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "logaddexp", "logaddexp2",
     "power", "float_power", "cbrt", "hypot", "arctan2"}
    | TRIG
    | {f"arc{name}" for name in TRIG}
    | {f"{name}h" for name in TRIG}
    | {f"arc{name}h" for name in TRIG}
)


def _root(node: ast.expr) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _transcendentals(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    numpy_names = set(NUMPY)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names |= {alias.asname or alias.name for alias in node.names
                            if alias.name.partition(".")[0] == "numpy"}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in TRANSCENDENTALS
                and _root(node.value) in numpy_names):
            found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.partition(".")[0] == "numpy"):
            names = [alias.name for alias in node.names if alias.name in TRANSCENDENTALS]
            if names:
                found.append(f"{path.name}:{node.lineno}: from {node.module} import "
                             + ", ".join(names))
    return found


def test_no_numpy_transcendental_in_the_package():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _transcendentals(path)]
    assert found == [], "numpy transcendentals in src/pqss: " + ", ".join(found)


def test_the_check_sees_each_form(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "import numpy as np\n"
        "import numpy\n"
        "import numpy as xp\n"
        "from numpy import exp, sqrt, arctanh\n"
        "from numpy.lib.scimath import log\n"
        "a = np.exp(t)\n"
        "b = numpy.log1p(t)\n"
        "c = xp.sinh(t)\n"
        "d = np.emath.log10(t)\n"
        "e = map(np.power, t, u)\n"
        "f = np.hypot.reduce(t)\n"
        "g = np.sqrt(t) + math.exp(1.0) + libm(math.sin, t)\n"
        "h = t.log(u) + np.cumsum(t)\n"
    )
    assert [hit.split(": ", 1)[1] for hit in _transcendentals(src)] == [
        "from numpy import exp, arctanh", "from numpy.lib.scimath import log",
        "np.exp", "numpy.log1p", "xp.sinh", "np.emath.log10", "np.power", "np.hypot",
    ]
