"""Every top-level function and class of the package, and every name that
``randopt/__init__.py`` exports, is reachable from the CLI or from the
acceptance tests.

Reachability is by name.  The roots are ``cli.main``, the names used by
each module-level statement other than an import, and the names used in
``tests/test_acceptance.py``.  A reached definition reaches every name in
its decorators, bases and body.  A helper that only other tests use
belongs under ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "randopt"


def _names(node: ast.AST) -> set:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unreachable() -> list:
    defs: dict = {}  # name -> [(module, node)]
    exports: set = set()
    roots = {"main"}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append((path.stem, stmt))
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                if path.name == "__init__.py":
                    exports |= {a.asname or a.name for a in stmt.names}
            else:
                roots |= _names(stmt)
    acceptance = ROOT / "tests" / "test_acceptance.py"
    roots |= _names(ast.parse(acceptance.read_text(encoding="utf-8")))

    reached, pending = set(), list(roots)
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            for _, node in defs.get(name, ()):
                pending.extend(_names(node) - reached)
    named = {f"{module}.{name}" for name, found in defs.items() for module, _ in found}
    named |= {f"randopt.{name}" for name in exports}
    return sorted(n for n in named if n.rpartition(".")[2] not in reached)


def test_every_definition_and_export_is_reachable():
    missing = unreachable()
    assert not missing, "unreachable: " + ", ".join(missing)
