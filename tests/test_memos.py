"""No memo in `src/` can grow with the number of elections a process sees.

Every `functools.lru_cache` must name a finite integer `maxsize`, and the
unbounded `functools.cache` must not be used.  The scan reads the AST of
every module of `src/`.  It accepts memos only in the
`functools.lru_cache(maxsize=...)` form, so importing either name from
`functools` is reported too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _finite_maxsize(call: ast.Call) -> bool:
    sizes = [k.value for k in call.keywords if k.arg == "maxsize"]
    sizes += call.args[:1]
    return (isinstance(call.func, ast.Attribute)
            and call.func.attr == "lru_cache" and len(sizes) == 1
            and isinstance(sizes[0], ast.Constant)
            and type(sizes[0].value) is int)


def _unbounded_memos(tree: ast.Module) -> list[str]:
    bounded = {id(node.func) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and _finite_maxsize(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"line {node.lineno}: from functools import {a.name}"
                      for a in node.names if a.name in ("cache", "lru_cache")]
        elif (isinstance(node, ast.Attribute)
              and node.attr in ("cache", "lru_cache")
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools" and id(node) not in bounded):
            found.append(f"line {node.lineno}: functools.{node.attr}")
    return found


@pytest.mark.parametrize("source, bad", [
    ("@functools.lru_cache(maxsize=2)\ndef f(x): pass", False),
    ("@functools.lru_cache(8)\ndef f(x): pass", False),
    ("@functools.lru_cache\ndef f(x): pass", True),
    ("@functools.lru_cache(maxsize=None)\ndef f(x): pass", True),
    ("@functools.cache\ndef f(x): pass", True),
    ("from functools import lru_cache", True),
])
def test_the_scan_tells_bounded_from_unbounded_memos(source, bad):
    assert bool(_unbounded_memos(ast.parse(source))) == bad


def test_every_memo_is_bounded():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        names = _unbounded_memos(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            found[str(path.relative_to(SRC))] = names
    assert not found
