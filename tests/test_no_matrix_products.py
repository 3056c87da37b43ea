"""No matrix product in src/pqss, so no report path can call BLAS.

Every contraction sums in index order (_clibm.weighted_sums, a compiled loop
with np.cumsum as its fallback), which gives the same bits on every CPU and
under every BLAS setting.  A matrix product
hands the summation order to the BLAS in use, so none may come back: no `@`,
no call named dot, matmul, einsum, tensordot, inner or vdot, and nothing
reached through `linalg`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pqss"
PRODUCTS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _through_linalg(node: ast.expr) -> bool:
    return any(
        (isinstance(sub, ast.Attribute) and sub.attr == "linalg")
        or (isinstance(sub, ast.Name) and sub.id == "linalg")
        for sub in ast.walk(node)
    )


def _matrix_products(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{path.name}:{node.lineno}: @")
        elif isinstance(node, ast.Call):
            name = _call_name(node.func)
            if name in PRODUCTS or _through_linalg(node.func):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}()")
        elif isinstance(node, ast.ImportFrom) and node.module and "linalg" in node.module:
            found.append(f"{path.name}:{node.lineno}: from {node.module} import")
    return found


def test_no_matrix_product_in_the_package():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _matrix_products(path)]
    assert found == [], "matrix products in src/pqss: " + ", ".join(found)


def test_the_check_sees_each_form(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "import numpy as np\n"
        "from numpy.linalg import norm\n"
        "a = w @ v\n"
        "a @= v\n"
        "b = np.dot(w, v)\n"
        "c = w.dot(v)\n"
        "d = np.einsum('ij,j', w, v)\n"
        "e = np.linalg.solve(w, v)\n"
        "f = np.cumsum(w * v, axis=1)\n"
    )
    assert [hit.split(": ", 1)[1] for hit in _matrix_products(src)] == [
        "from numpy.linalg import", "@", "@", "np.dot()", "w.dot()", "np.einsum()",
        "np.linalg.solve()",
    ]
