"""The benchmark imports privwalk's public names and builds valid configs;
Tier-1 does not run it."""

import ast
import importlib
from pathlib import Path
from types import SimpleNamespace

import privwalk

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = BENCH / "workloads.py"


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


def test_benchmark_configs_construct(monkeypatch, tmp_path):
    """Every ExperimentConfig the benchmark builds obeys the config rules.

    A stand-in graph and seed take the place of the generated inputs."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    privwalk.ExperimentConfig(dataset="")
    built = {}
    for name, make in workloads.WORKLOADS.items():
        w = make()
        w.base_seed = 2**32 - 1  # the largest seed the benchmark draws
        if isinstance(w, workloads.Sweep):
            g = SimpleNamespace(node_count=w.graph[0] if w.graph else 100)
            built[name] = w.config(g, 3, str(tmp_path))
        elif isinstance(w, workloads.Census):
            built[name] = w.config(3, str(tmp_path))
    assert sorted(built) == ["census", "long_walk", "paper_sweep"]
