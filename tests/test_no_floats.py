"""No decision path computes in floats.

The rules, optima and audits decide by comparing exact values, so a float
anywhere in those modules could let rounding pick a project, a tie or a
verdict.  This scan parses them and rejects every call of the builtin
`float`.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pbvoting"


def test_decision_modules_call_no_float():
    calls = []
    for name in ("sequential.py", "exact.py", "fairness.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        calls += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "float"]
    assert not calls
