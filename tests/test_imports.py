"""What the modules import.

No module imports a name that it never uses.  No linter is installed with
the package, so a scan stands in for one: it parses every module of `src/`,
`tests/` and `demos/` and reports each imported name that no other line of
the module reads.  Names listed in `__all__` count as used, since they are
re-exported; `from __future__` imports are directives, not names.

numpy stays out of every run that generates no instance: only the
synthetic generators need it, and they import it on their first call.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


# Run in a fresh interpreter, since this test process has loaded numpy.
_NO_NUMPY = """
import contextlib, io, sys
import pbvoting, pbvoting.bench, pbvoting.cli
from pbvoting import cli, datagen
city = "pabulib:tests/data/city.pb"
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["solve", "--dataset", city, "--rule", "RX"]) == 0
    assert cli.main(["check-ejr", "--dataset", city, "--bundle",
                     "A-g0,A-g1,A-g2,A-g3,A-g4,B-e0,B-e1,B-e2"]) == 0
assert "numpy" not in sys.modules, "numpy loaded without a generator call"
datagen.generate("euclidean-desk", 0)
assert "numpy" in sys.modules, "a generator ran without numpy"
"""


def test_numpy_is_loaded_by_the_first_generator_call_alone():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
