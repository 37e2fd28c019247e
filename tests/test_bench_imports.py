"""The benchmark imports privwalk's public names, builds valid configs and
replays the driver's trials; Tier-1 does not run the benchmark itself."""

import ast
import importlib
from pathlib import Path
from types import SimpleNamespace

from graphgen import random_connected_edges

import privwalk
from privwalk.experiment import CENSUS_MODES, _census_trial, _run_trial

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


def test_benchmark_replay_matches_the_driver(monkeypatch):
    """``replay_walk_trial`` reproduces the experiment driver's sweep and
    census trials, failed ones included, on an 80-node graph."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    g = privwalk.build_graph(random_connected_edges(80, 100, seed=5), [False] * 80)

    def replay(p, seed, r, modes, model, m_fraction):
        trial = workloads.Trial(p, seed, r)
        return workloads.replay_walk_trial(tracing.Tracer(), g, trial, modes, model, m_fraction, [])

    estimated = 0
    for mode in privwalk.PubdegMode:
        cfg = privwalk.ExperimentConfig(dataset="", model=mode.access_model, pubdeg_mode=mode,
                                        sample_sizes=(40,))
        for p in (0.1, 0.5, 0.9):
            for seed in range(4):
                [(want, _)] = _run_trial(g, cfg, p, seed)
                out = replay(p, seed, 40, (mode,), cfg.model, cfg.m_fraction)
                got = None
                if out["estimate"] is not None:
                    rep = out["estimate"][2]
                    got = (rep.size_nc, rep.size_proposed,
                           rep.avg_degree_smooth, rep.avg_degree_proposed)
                assert got == want, (mode, p, seed)
                estimated += want is not None

    census = privwalk.ExperimentConfig(dataset="", sample_fractions=(1.0,))
    walked = 0
    for p in (0.2, 0.9):
        for seed in range(4):
            [want] = _census_trial(g, census, p, seed)
            out = replay(p, seed, g.node_count, CENSUS_MODES, privwalk.AccessModel.HIDDEN, None)
            got = None if out["failed"] else [
                (len(ledger.unique_queried) / g.node_count, ledger.raw_queries)
                for _, _, _, ledger in out["walks"]
            ]
            assert got == want, (p, seed)
            walked += want is not None
    assert estimated and walked
