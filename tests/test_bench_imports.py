"""The benchmark imports privwalk's public names; Tier-1 does not run it."""

import ast
from pathlib import Path

import privwalk

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_benchmark_imports_exist():
    tree = ast.parse(WORKLOADS.read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "privwalk"
        for alias in node.names
    ]
    assert names
    assert [n for n in names if not hasattr(privwalk, n)] == []
