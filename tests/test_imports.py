"""No module imports a name that it never uses.

No linter is installed with the package, so this scan stands in for one:
it parses every module of `src/`, `tests/` and `demos/` and reports each
imported name that no other line of the module reads.  Names listed in
`__all__` count as used, since they are re-exported; `from __future__`
imports are directives, not names.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_every_imported_name_is_used():
    unused = {}
    for folder in ("src", "tests", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names = _unused_imports(tree)
            if names:
                unused[str(path.relative_to(ROOT))] = names
    assert not unused
