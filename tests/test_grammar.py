"""Every module parses under the Python 3.10 grammar.

The package declares `requires-python >= 3.10`, and the CI matrix has a
3.10 leg, but the tests may run on a newer interpreter only.  This scan
parses every module of `src/`, `tests/`, `demos/` and `perfbench/` with
`ast.parse(..., feature_version=(3, 10))`, which rejects syntax that 3.10
does not have, such as `except*`.  It checks grammar only: a standard
library function or module added after 3.10 still passes it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _parse_310(text: str, filename: str = "<unknown>") -> ast.Module:
    return ast.parse(text, filename, feature_version=(3, 10))


def test_the_check_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        _parse_310("try:\n    pass\nexcept* ValueError:\n    pass\n")
    _parse_310("try:\n    pass\nexcept ValueError:\n    pass\n")


def test_every_module_parses_under_python_3_10():
    failed = {}
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            try:
                _parse_310(path.read_text(encoding="utf-8"), str(path))
            except SyntaxError as e:
                failed[str(path.relative_to(ROOT))] = f"line {e.lineno}: {e.msg}"
    assert not failed
