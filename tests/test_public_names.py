"""Every public name in src/pqss has a user, so the surface cannot grow back.

A public top-level def, class or assignment of a pqss module counts as used
when something refers to it (an ast.Name, an ast.Attribute or an import) in
another pqss module, in its own module outside its own definition, in the
acceptance checks (tests/test_acceptance.py) or in the benchmark (bench/).
The package __init__ does not count: its imports are the export list, not a
use.  Unit tests do not count either: a name that only its own tests call is
dead code with tests.  ALLOWED holds the exceptions, each with its reason.

The benchmark's tracer (bench/tracer.py) looks pqss functions up by name, so
each of its targets must exist.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pqss"

ALLOWED = {
    "verify_metadata": "checks the catalog's hand-derived metadata; the catalog's "
                       "tests run it on every entry, and the bounds rely on it",
    "k_functional_upper": "the K-functional line check planned in ROADMAP item 7 "
                          "is built on it",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defined(tree: ast.Module) -> dict:
    """Public top-level names, each with the statement that defines it."""
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((name, stmt) for name in names if not name.startswith("_"))
    return out


def _referenced(node: ast.AST) -> set:
    seen = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            seen.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            seen.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            seen.update(alias.name.rpartition(".")[2] for alias in sub.names)
    return seen


def _unused_public_names() -> tuple[list, set]:
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    outside = set()
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]:
        outside |= _referenced(_parse(path))
    unused, defined = [], set()
    for mod, tree in modules.items():
        others = set().union(
            *(_referenced(t) for m, t in modules.items() if m not in (mod, "__init__"))
        )
        by_stmt = [(stmt, _referenced(stmt)) for stmt in tree.body]
        for name, stmt in _defined(tree).items():
            defined.add(name)
            own = set().union(*(refs for s, refs in by_stmt if s is not stmt))
            if name not in others | own | outside:
                unused.append(f"{mod}.{name}")
    return unused, defined


def test_every_public_name_has_a_user():
    unused, defined = _unused_public_names()
    unexplained = [q for q in unused if q.rpartition(".")[2] not in ALLOWED]
    assert unexplained == [], (
        "public names that no pqss module, acceptance check or benchmark uses; "
        "delete them, make them private, or add them to ALLOWED with a reason"
    )
    # the allowlist holds only names that exist and really need the exception
    assert set(ALLOWED) <= defined
    assert sorted(ALLOWED) == sorted(q.rpartition(".")[2] for q in unused)


def test_every_traced_name_resolves():
    # `bench/run.py --trace 1` wraps each TARGETS entry by name; a deleted or
    # renamed function fails only there, outside these tests
    spec = importlib.util.spec_from_file_location("pqss_bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{name}" for mod, name in tracer.TARGETS
               if not callable(getattr(importlib.import_module(f"pqss.{mod}"), name, None))]
    assert tracer.TARGETS and missing == []
