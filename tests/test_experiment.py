import argparse
import csv
import math
import re
from pathlib import Path

import numpy as np
import pytest

from graphgen import random_connected_edges, write_edge_file
from oracles import reference_query_census, reference_run_experiment

from privwalk import (
    AccessModel,
    ESTIMATOR_NAMES,
    ExperimentConfig,
    PubdegMode,
    assign_labels_bernoulli,
    build_graph,
    load_config,
    query_census,
    run_experiment,
    save_labels,
)
from privwalk.experiment import _CONFIG_KEYS


@pytest.fixture(scope="module")
def medium_graph():
    return build_graph(random_connected_edges(400, 1600, seed=14), [False] * 400)


def _write_config(tmp_path, text):
    f = tmp_path / "run.cfg"
    f.write_text(text)
    return f


def test_load_config_full(tmp_path):
    f = _write_config(
        tmp_path,
        "# sweep\n"
        "dataset = graph.txt\n"
        "p_grid = 0.0:0.6:0.2\n"
        "model = hidden\n"
        "pubdeg_mode = approx_hidden\n"
        "sample_fraction = 0.01, 0.1\n"
        "m_fraction = 0.05\n"
        "trials = 12\n"
        "base_seed = 9\n"
        "outdir = out\n"
        "nrmse_target = convergence\n"
        "census_memoize = yes\n"
        "workers = 2\n",
    )
    cfg = load_config(f)
    assert cfg.dataset == "graph.txt"
    assert cfg.p_grid == (0.0, 0.2, 0.4, 0.6)
    assert cfg.model is AccessModel.HIDDEN
    assert cfg.pubdeg_mode is PubdegMode.APPROX_HIDDEN
    assert cfg.sample_fractions == (0.01, 0.1)
    assert cfg.sample_sizes is None
    assert cfg.trials == 12 and cfg.base_seed == 9 and cfg.workers == 2
    assert cfg.census_memoize
    assert cfg.nrmse_target == "convergence"


def test_load_config_defaults_and_sample_sizes(tmp_path):
    cfg = load_config(
        _write_config(tmp_path, "dataset = g.txt\nsample_size = 100, 1000\n")
    )
    assert cfg.sample_sizes == (100, 1000)
    assert cfg.sample_fractions is None
    assert cfg.p_grid == (0.0,)
    assert cfg.trials == 1000
    assert not cfg.census_memoize


def test_readme_config_table_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Experiment config\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert len(documented) == len(set(documented))
    assert set(documented) == set(_CONFIG_KEYS)


def test_readme_command_line_lists_exactly_the_cli_flags():
    from privwalk.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--?[a-zA-Z][\w-]*", section))
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {flag for sub in commands.choices.values() for action in sub._actions
             for flag in action.option_strings} - {"-h", "--help"}
    assert documented == flags


def test_load_config_errors(tmp_path):
    with pytest.raises(ValueError, match="dataset"):
        load_config(_write_config(tmp_path, "trials = 3\n"))
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(_write_config(tmp_path, "dataset = g\nwhatever = 1\n"))
    with pytest.raises(ValueError, match="unknown config keys: labels$"):
        load_config(_write_config(tmp_path, "dataset = g\nlabels = file\nlabel_file = l\n"))
    # each pair would otherwise drop its second key without a word
    with pytest.raises(ValueError, match="sample_size excludes sample_fraction$"):
        load_config(_write_config(tmp_path, "dataset = g\nsample_fraction = 0.5\n"
                                            "sample_size = 30\n"))
    with pytest.raises(ValueError, match="label_file excludes p_grid$"):
        load_config(_write_config(tmp_path, "dataset = g\nlabel_file = l\np_grid = 0.1, 0.2\n"))
    with pytest.raises(ValueError, match="true/false"):
        load_config(_write_config(tmp_path, "dataset = g\ncensus_memoize = maybe\n"))
    with pytest.raises(ValueError, match="key = value"):
        load_config(_write_config(tmp_path, "dataset g\n"))


@pytest.mark.parametrize(
    "line, message",
    [
        ("trials = 0", "trials must be at least 1"),
        ("workers = 0", "workers must be at least 1"),
        ("sample_fraction = 0.01, 1.5", r"sample_fraction must lie in \(0, 1\]"),
        ("sample_fraction = 0", r"sample_fraction must lie in \(0, 1\]"),
        ("sample_size = 100, 1", "sample_size must be at least 2"),
        ("m_fraction = 0", r"m_fraction must lie in \(0, 1\]"),
        ("m_fraction = 1.2", r"m_fraction must lie in \(0, 1\]"),
        ("p_grid = 0.5, 1.5", r"p_grid values must lie in \[0, 1\]"),
        ("p_grid = 0:0.3:0", "p_grid: grid '0:0.3:0': step must be non-zero"),
        ("model = ideal", "pubdeg_mode = approx_hidden requires model = hidden, got model = ideal"),
        ("trials = ten", "trials: expected an integer, got 'ten'"),
        ("workers = 2.0", "workers: expected an integer, got '2.0'"),
        ("base_seed = one", "base_seed: expected an integer, got 'one'"),
        ("m_fraction = half", "m_fraction: expected a number, got 'half'"),
        ("sample_size = 100, x", "sample_size: expected comma-separated integers, got '100, x'"),
        ("model = hiden", "model: expected one of ideal, hidden, got 'hiden'"),
        ("pubdeg_mode = aprox",
         "pubdeg_mode: expected one of exact_ideal, exact_hidden, approx_hidden, got 'aprox'"),
        ("trials = 3\ntrials = 4", "line 3: key trials already set at line 2"),
        ("base_seed = -1", "base_seed must be at least 0, got -1"),
        ("label_file =", "label_file is empty"),
    ],
)
def test_load_config_rejects_out_of_range_values(tmp_path, line, message):
    f = _write_config(tmp_path, f"dataset = g\n{line}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(f))}: {message}"):
        load_config(f)


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(trials=0), "trials must be at least 1, got 0"),
        (dict(workers=0), "workers must be at least 1, got 0"),
        (dict(base_seed=-1), "base_seed must be at least 0, got -1"),
        (dict(m_fraction=0), r"m_fraction must lie in \(0, 1\], got 0"),
        (dict(sample_fractions=(2.0,)), r"sample_fraction must lie in \(0, 1\], got 2.0"),
        (dict(sample_sizes=(1,)), "sample_size must be at least 2, got 1"),
        (dict(p_grid=(1.5,)), r"p_grid values must lie in \[0, 1\], got 1.5"),
        (dict(p_grid=()), "p_grid is empty"),
        (dict(sample_fractions=None, sample_sizes=()), "no walk length"),
        (dict(nrmse_target="bogus"), "nrmse_target must be 'estimates' or 'convergence'"),
        (dict(model=AccessModel.IDEAL, pubdeg_mode=PubdegMode.APPROX_HIDDEN),
         "pubdeg_mode = approx_hidden requires model = hidden, got model = ideal"),
    ],
)
def test_code_built_config_obeys_the_file_rules(tmp_path, kw, message):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"^{message}"):
        ExperimentConfig(dataset="unused", outdir=str(out), **kw)
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ("0:0.3:0", "step must be non-zero"),
        ("0.3:0:0.1", "leads away from stop"),
        ("", "is empty"),
        (" , ", "is empty"),
        ("0:0.3", "expected start:stop:step"),
        ("0:inf:0.1", "must be finite"),
    ],
)
def test_parse_floats_rejects_bad_grids(grid, message):
    from privwalk.experiment import _parse_floats

    with pytest.raises(ValueError, match=message):
        _parse_floats(grid)


def test_parse_floats_grids():
    from privwalk.experiment import _parse_floats

    assert _parse_floats("0:0.3:0.1") == (0.0, 0.1, 0.2, 0.3)
    assert _parse_floats("0.3:0:-0.1") == (0.3, 0.2, 0.1, 0.0)
    assert _parse_floats("0.2:0.2:0.1") == (0.2,)
    assert _parse_floats("0.1, 0.4") == (0.1, 0.4)


@pytest.mark.parametrize("grid", ["0:0.3:0", "0.3:0:0.1", ",", "0.1,abc", "a:b:c", "0.1,,0.2"])
def test_cli_rejects_bad_grids(tmp_path, capsys, grid):
    from privwalk.cli import main

    dataset = tmp_path / "edges.txt"
    write_edge_file(dataset, random_connected_edges(20, 30, seed=3))
    assert main(["theory", str(dataset), "--p-grid", grid, "--out", str(tmp_path / "t.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid ") and err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["walk", "{edges}", "--length", "10", "--seed-node", "99"], "seed node 99 is outside 0..3"),
        (["walk", "{edges}", "--length", "10", "--seed-node", "-1"], "seed node -1 is outside 0..3"),
        (["walk", "{edges}", "--length", "0"], "walk length must be at least 1"),
        (["walk", "{edges}", "--fraction", "-1"], "--fraction must lie in (0, 1], got -1.0"),
        (["walk", "{edges}", "--fraction", "1.5"], "--fraction must lie in (0, 1], got 1.5"),
        (["estimate", "{samples}", "--m-fraction", "0"], "--m-fraction must lie in (0, 1], got 0.0"),
        (["estimate", "{samples}", "--m-fraction", "-3"], "--m-fraction must lie in (0, 1], got -3.0"),
        (["walk", "{edges}", "--length", "10", "--rng-seed", "-1"],
         "--rng-seed must be at least 0, got -1"),
        (["walk", "{edges}", "--length", "10", "--seed-pick-seed", "-1"],
         "--seed-pick-seed must be at least 0, got -1"),
        (["walk", "{edges}", "--length", "10", "--bernoulli", "0.2", "--label-seed", "-1"],
         "--label-seed must be at least 0, got -1"),
        (["estimate", "{samples}", "-m", "3"], "gap threshold must satisfy 1 <= m < r, got m=3, r=3"),
        (["walk", "{edges}", "--length", "20", "--seed-node", "1", "--seed-pick-seed", "5"],
         "--seed-node excludes --seed-pick-seed"),
        (["walk", "{edges}", "--length", "20", "--seed-node", "1", "--seed-pick-seed", "0"],
         "--seed-node excludes --seed-pick-seed"),
        (["estimate", "{samples}", "-m", "2", "--m-fraction", "0.5"], "-m excludes --m-fraction"),
        (["estimate", "{samples}", "-m", "2", "--m-fraction", "0.025"], "-m excludes --m-fraction"),
        (["estimate", "{one}"], "a report needs at least 2 samples, got 1"),
        (["estimate", "{one}", "-m", "1"], "a report needs at least 2 samples, got 1"),
    ],
)
def test_cli_rejects_bad_walk_and_estimate_args(tmp_path, capsys, argv, message):
    from privwalk.cli import main

    paths = {"edges": tmp_path / "edges.txt", "samples": tmp_path / "samples.txt",
             "one": tmp_path / "one.txt"}
    write_edge_file(paths["edges"], [(0, 1), (1, 2), (2, 3)])
    paths["samples"].write_text("5 3 2.0\n7 2 2.0\n5 3 2.0\n")
    paths["one"].write_text("5 3 2.0\n")
    assert main([a.format(**paths) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["walk", "experiment"])
def test_cli_reports_an_infeasible_walk_length_in_one_line(tmp_path, capsys, command):
    from privwalk.cli import main

    # the walk's selection buffer would take 7.11 PiB, more than the address
    # space, so its allocation fails before any page is touched
    edges = tmp_path / "edges.txt"
    write_edge_file(edges, random_connected_edges(20, 30, seed=3))
    if command == "walk":
        argv = ["walk", str(edges), "--length", str(10**15)]
    else:
        config = _write_config(tmp_path, f"dataset = {edges}\nsample_size = {10**15}\n"
                                         f"trials = 1\noutdir = {tmp_path / 'out'}\n")
        argv = ["experiment", str(config)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["labels", "theory"])
def test_cli_rejects_negative_label_seed(tmp_path, capsys, command):
    from privwalk.cli import main

    edges, out = tmp_path / "edges.txt", tmp_path / "out.txt"
    write_edge_file(edges, [(0, 1), (1, 2), (2, 3)])
    argv = [command, str(edges), "--label-seed", "-1", "--out", str(out)]
    assert main(argv + (["--bernoulli", "0.2"] if command == "labels" else [])) == 1
    assert capsys.readouterr().err == "error: --label-seed must be at least 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["labels", "--bernoulli", "0.2", "--label-file", "{labels}"],
         "--label-file excludes --bernoulli"),
        (["walk", "--length", "5", "--bernoulli", "0.2", "--label-file", "{labels}"],
         "--label-file excludes --bernoulli"),
        (["labels", "--label-seed", "5"], "--label-seed requires --bernoulli"),
        (["walk", "--length", "5", "--label-seed", "5"], "--label-seed requires --bernoulli"),
        (["walk", "--length", "5", "--label-seed", "5", "--label-file", "{labels}"],
         "--label-seed requires --bernoulli"),
        (["theory", "--label-file", "{labels}", "--p-grid", "0.1"],
         "--label-file excludes --p-grid and --label-seed"),
        (["theory", "--label-file", "{labels}", "--label-seed", "5"],
         "--label-file excludes --p-grid and --label-seed"),
        (["labels", "--lenient"], "--lenient requires --label-file"),
        (["walk", "--length", "5", "--lenient"], "--lenient requires --label-file"),
        (["theory", "--lenient"], "--lenient requires --label-file"),
    ],
)
def test_cli_rejects_conflicting_label_flags(tmp_path, capsys, argv, message):
    from privwalk.cli import main

    edges, labels, out = tmp_path / "edges.txt", tmp_path / "labels.txt", tmp_path / "out.txt"
    write_edge_file(edges, [(0, 1), (1, 2), (2, 3)])
    labels.write_text("0 0\n1 0\n2 1\n3 0\n")
    argv = [argv[0], str(edges), *(a.format(labels=labels) for a in argv[1:]), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_theory_default_grid(tmp_path, capsys):
    from privwalk.cli import main

    edges, out = tmp_path / "edges.txt", tmp_path / "theory.csv"
    write_edge_file(edges, random_connected_edges(20, 30, seed=3))
    assert main(["theory", str(edges), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out} (11 rows)\n"
    explicit = tmp_path / "explicit.csv"
    assert main(["theory", str(edges), "--p-grid", "0.0:0.3:0.03", "--out", str(explicit)]) == 0
    assert explicit.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("labels", ["bernoulli", "file"])
def test_cli_theory_matches_experiment_theory(tmp_path, medium_graph, labels):
    from privwalk.cli import main

    dataset, label_file = tmp_path / "edges.txt", tmp_path / "labels.txt"
    write_edge_file(dataset, zip(*medium_graph.edge_pairs()))
    save_labels(assign_labels_bernoulli(medium_graph, 0.2, 8), label_file)
    cfg = _cfg(tmp_path, dataset=str(dataset),
               label_file=str(label_file) if labels == "file" else None,
               p_grid=(0.0, 0.1, 0.25), base_seed=7, trials=1, sample_sizes=(50,))
    run_experiment(cfg)
    argv = ["theory", str(dataset), "--out", str(tmp_path / "cli.csv")]
    argv += ["--label-file", str(label_file)] if labels == "file" else [
        "--p-grid", "0.0, 0.1, 0.25", "--label-seed", "7"]
    assert main(argv) == 0
    theory = (tmp_path / "out" / "theory.csv").read_bytes()
    assert (tmp_path / "cli.csv").read_bytes() == theory
    assert theory.count(b"\n") == (4 if labels == "bernoulli" else 2)


def test_cli_file_labels_without_a_public_node_write_nan_query_costs(tmp_path):
    from privwalk.cli import main

    edges = tmp_path / "edges.txt"
    edges.write_text("1 2\n2 3\n3 1\n3 4\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("1 1\n2 1\n3 1\n4 1\n")
    config = _write_config(
        tmp_path,
        f"dataset = {edges}\nlabel_file = {labels}\n"
        f"trials = 2\nsample_size = 3\noutdir = {tmp_path / 'out'}\n",
    )
    assert main(["experiment", str(config)]) == 0
    with open(tmp_path / "out" / "nrmse.csv") as f:
        assert {row["failed_trials"] for row in csv.DictReader(f)} == {"2"}
    theory = (tmp_path / "out" / "theory.csv").read_text()
    assert theory.splitlines()[1].split(",") == [
        "1.0", "0.0", "0.0", "0.0", "2.0", "nan", "nan"]
    cli = tmp_path / "cli.csv"
    assert main(["theory", str(edges), "--label-file", str(labels), "--out", str(cli)]) == 0
    assert cli.read_text() == theory


def test_cli_and_experiment_share_the_walk_length_rule(tmp_path, capsys):
    from privwalk.cli import main
    from privwalk.experiment import _sizes

    edges = tmp_path / "edges.txt"
    write_edge_file(edges, random_connected_edges(10, 20, seed=3))
    # 0.38 * 10 rounds up to 4; 0.05 * 10 rounds to 0 and is raised to 2
    cfg = ExperimentConfig(dataset=str(edges), sample_fractions=(0.38, 0.05))
    assert _sizes(cfg, 10) == (4, 2)
    for fraction, samples in (("0.38", 4), ("0.05", 2)):
        assert main(["walk", str(edges), "--fraction", fraction]) == 0
        assert f"samples {samples}\n" in capsys.readouterr().out


def test_cli_m_fraction_one_clamps_to_r_minus_one(tmp_path, capsys):
    from privwalk.cli import main

    samples = tmp_path / "samples.txt"
    samples.write_text("5 3 2.0\n7 2 2.0\n5 3 2.0\n")
    assert main(["estimate", str(samples), "--m-fraction", "1"]) == 0
    assert "gap_threshold 2\n" in capsys.readouterr().out


def _cfg(tmp_path, **kw):
    base = dict(
        dataset="unused",
        trials=20,
        base_seed=5,
        outdir=str(tmp_path / "out"),
        sample_sizes=(300,),
        sample_fractions=None,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_all_public_routes_score_identically(tmp_path, medium_graph):
    cfg = _cfg(tmp_path, p_grid=(0.0,), trials=12)
    rows = run_experiment(cfg, graph=medium_graph)
    by_name = {row.estimator: row for row in rows}
    assert set(by_name) == set(ESTIMATOR_NAMES)
    assert by_name["nc_size"].nrmse == pytest.approx(
        by_name["proposed_size"].nrmse, rel=1e-12
    )
    assert by_name["smooth_avg_degree"].nrmse == pytest.approx(
        by_name["proposed_avg_degree"].nrmse, rel=1e-12
    )
    assert all(row.failed_trials == 0 for row in rows)
    # all-public approx walk queries once per label check: one per sample
    assert by_name["nc_size"].mean_query_ratio == pytest.approx(1.0)


def test_convergence_mode_is_exact_at_p_zero(tmp_path, medium_graph):
    cfg = _cfg(tmp_path, p_grid=(0.0,), nrmse_target="convergence", trials=6)
    rows = run_experiment(cfg, graph=medium_graph)
    for row in rows:
        assert row.nrmse == 0.0


def test_convergence_mode_prefers_proposed_route(tmp_path, medium_graph):
    cfg = _cfg(tmp_path, p_grid=(0.3,), nrmse_target="convergence", trials=40)
    rows = {row.estimator: row for row in run_experiment(cfg, graph=medium_graph)}
    assert rows["proposed_size"].nrmse < rows["nc_size"].nrmse
    assert rows["proposed_avg_degree"].nrmse < rows["smooth_avg_degree"].nrmse
    # prior estimators converge to (1-p)-shrunk targets
    assert rows["nc_size"].nrmse == pytest.approx(0.3, abs=0.02)
    assert rows["smooth_avg_degree"].nrmse == pytest.approx(0.3, abs=0.04)


def test_failed_trials_are_counted(tmp_path):
    g = build_graph(random_connected_edges(12, 14, seed=15), [False] * 12)
    cfg = _cfg(tmp_path, p_grid=(1.0,), nrmse_target="convergence", trials=10)
    rows = run_experiment(cfg, graph=g)
    for row in rows:
        assert row.failed_trials == 10
        assert np.isnan(row.nrmse)


def test_outputs_are_byte_deterministic(tmp_path, medium_graph):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        cfg = _cfg(tmp_path, p_grid=(0.2,), trials=8, outdir=str(out))
        run_experiment(cfg, graph=medium_graph)
    assert (out_a / "nrmse.csv").read_bytes() == (out_b / "nrmse.csv").read_bytes()
    assert (out_a / "theory.csv").read_bytes() == (out_b / "theory.csv").read_bytes()


def test_worker_pool_matches_serial(tmp_path, medium_graph):
    # a 2 x 2 grid: one pool serves every cell of the run
    grid = dict(p_grid=(0.2, 0.3), sample_sizes=(150, 300), trials=8)
    serial = _cfg(tmp_path, outdir=str(tmp_path / "s"), **grid)
    pooled = _cfg(tmp_path, outdir=str(tmp_path / "p"), workers=2, **grid)
    run_experiment(serial, graph=medium_graph)
    run_experiment(pooled, graph=medium_graph)
    assert (tmp_path / "s" / "nrmse.csv").read_bytes() == (
        tmp_path / "p" / "nrmse.csv"
    ).read_bytes()
    query_census(serial, graph=medium_graph)
    query_census(pooled, graph=medium_graph)
    assert (tmp_path / "s" / "census.csv").read_bytes() == (
        tmp_path / "p" / "census.csv"
    ).read_bytes()


@pytest.mark.parametrize("cpus, size", [(2, 2), (None, 1)])
def test_worker_pool_is_capped_at_the_cpu_count(tmp_path, medium_graph, monkeypatch, cpus, size):
    from privwalk import experiment

    sizes = []

    class InlinePool:
        """Stands in for the process pool: records its size, runs the tasks here."""

        def __init__(self, max_workers, mp_context, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(experiment, "_POOL_STATE", {})
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
    grid = dict(p_grid=(0.2,), sample_sizes=(150,), trials=6)
    run_experiment(_cfg(tmp_path, outdir=str(tmp_path / "s"), **grid), graph=medium_graph)
    pooled = _cfg(tmp_path, outdir=str(tmp_path / "p"), workers=500, **grid)
    run_experiment(pooled, graph=medium_graph)
    query_census(pooled, graph=medium_graph)
    assert sizes == [size, size]
    assert (tmp_path / "s" / "nrmse.csv").read_bytes() == (
        tmp_path / "p" / "nrmse.csv"
    ).read_bytes()


def test_query_census_compares_modes(tmp_path, medium_graph):
    cfg = _cfg(tmp_path, p_grid=(0.3,), trials=6)
    rows = query_census(cfg, graph=medium_graph)
    assert [row["mode"] for row in rows] == ["exact_hidden", "approx_hidden"]
    exact, approx = rows
    assert exact["mean_raw_queries"] > approx["mean_raw_queries"]
    assert exact["mean_unique_fraction"] >= approx["mean_unique_fraction"]
    assert exact["trials"] == approx["trials"] == 6
    assert (tmp_path / "out" / "census.csv").exists()


def _census_graph(name, medium_graph):
    if name == "medium":
        return medium_graph
    if name == "labeled":
        return assign_labels_bernoulli(medium_graph, 0.2, 77)
    if name == "lonely":  # public clusters {0}, {2}, {4}: every walk is stuck
        return build_graph([(0, 1), (1, 2), (2, 3), (3, 4)], [False, True, False, True, False])
    # a star: a private hub strands its leaves, so some labelings are stuck
    return build_graph([(0, k) for k in range(1, 7)], [False] * 7)


@pytest.mark.parametrize(
    "graph, kw, walked",
    [
        ("medium", dict(p_grid=(0.2, 0.3), sample_sizes=(150, 300)), "all"),
        ("medium", dict(p_grid=(0.3,), census_memoize=True), "all"),
        ("labeled", dict(label_file="unused"), "all"),
        ("medium", dict(p_grid=(1.0,)), "none"),
        ("lonely", dict(label_file="unused", sample_sizes=(5,)), "none"),
        ("star", dict(p_grid=(0.5,), sample_sizes=(20,), trials=16), "some"),
    ],
    ids=["grid_2x2", "memoize", "file_labels", "all_private", "stuck", "mixed"],
)
def test_query_census_matches_reference(tmp_path, medium_graph, graph, kw, walked):
    g = _census_graph(graph, medium_graph)
    kw = {"trials": 6, **kw}
    got = query_census(_cfg(tmp_path, outdir=str(tmp_path / "new"), **kw), graph=g)
    want = reference_query_census(_cfg(tmp_path, outdir=str(tmp_path / "ref"), **kw), g)
    assert repr(got) == repr(want)  # repr compares floats bitwise and NaN as equal
    assert (tmp_path / "new" / "census.csv").read_bytes() == (
        tmp_path / "ref" / "census.csv"
    ).read_bytes()
    for row in got:
        if walked == "all":
            assert row["trials"] == kw["trials"]
        elif walked == "none":
            assert row["trials"] == 0 and math.isnan(row["mean_raw_queries"])
        else:
            assert 0 < row["trials"] < kw["trials"]


def test_census_walks_once_per_trial(tmp_path, medium_graph, monkeypatch):
    from privwalk import walk

    calls = []
    select = walk._select

    def counting_select(*args):
        calls.append(args)
        return select(*args)

    monkeypatch.setattr(walk, "_select", counting_select)
    rows = query_census(_cfg(tmp_path, p_grid=(0.3,), trials=5), graph=medium_graph)
    assert [row["trials"] for row in rows] == [5, 5]
    assert len(calls) == 5


@pytest.mark.parametrize(
    "graph, kw",
    [
        ("medium", dict(p_grid=(0.2, 0.3), sample_sizes=(300, 40, 150, 40))),
        ("medium", dict(p_grid=(0.3,), sample_sizes=(150, 60, 150), nrmse_target="convergence")),
        ("medium", dict(p_grid=(0.3,), sample_sizes=(200, 80), pubdeg_mode=PubdegMode.EXACT_HIDDEN)),
        ("medium", dict(p_grid=(0.3,), sample_sizes=(80, 200), model=AccessModel.IDEAL,
                        pubdeg_mode=PubdegMode.EXACT_IDEAL)),
        ("labeled", dict(label_file="unused", sample_sizes=(300, 100))),
        ("medium", dict(p_grid=(1.0,), sample_sizes=(50, 20))),
        ("lonely", dict(label_file="unused", sample_sizes=(5, 3))),
        ("star", dict(p_grid=(0.5,), sample_sizes=(20, 2), trials=16)),
        ("medium", dict(p_grid=(0.2, 0.3), sample_sizes=(150, 60), workers=2)),
    ],
    ids=["unsorted_repeated", "convergence", "exact_hidden", "exact_ideal", "file_labels",
         "all_private", "stuck", "mixed", "workers_2"],
)
def test_run_experiment_matches_per_cell_reference(tmp_path, medium_graph, graph, kw):
    g = _census_graph(graph, medium_graph)
    kw = {"trials": 6, **kw}
    got = run_experiment(_cfg(tmp_path, outdir=str(tmp_path / "new"), **kw), graph=g)
    want = reference_run_experiment(_cfg(tmp_path, outdir=str(tmp_path / "ref"), **kw), g)
    assert repr(got) == repr(want)  # repr compares floats bitwise and NaN as equal
    assert (tmp_path / "new" / "nrmse.csv").read_bytes() == (
        tmp_path / "ref" / "nrmse.csv"
    ).read_bytes()
    failed = {row.sample_size: row.failed_trials for row in got}
    if graph == "lonely" or kw.get("p_grid") == (1.0,):
        assert set(failed.values()) == {kw["trials"]}
    if graph == "star":  # stuck trials fail at both sizes, collision-free ones at r = 2 only
        assert 0 < failed[20] < failed[2] == kw["trials"]


def test_drivers_walk_and_decompose_once_per_trial_seed(tmp_path, medium_graph, monkeypatch):
    from privwalk import experiment, walk

    calls = {}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(walk, "_select", counting("select", walk._select))
    monkeypatch.setattr(
        experiment, "largest_public_cluster", counting("cluster", experiment.largest_public_cluster)
    )
    # one record pass per (p, seed, size), serving every mode
    monkeypatch.setattr(experiment, "_record", counting("record", experiment._record))
    cfg = _cfg(tmp_path, p_grid=(0.2, 0.3), sample_sizes=(150, 40, 300), trials=3)
    for driver in (run_experiment, query_census):
        calls.update(select=0, cluster=0, record=0)
        assert driver(cfg, graph=medium_graph)
        assert calls == {"select": 6, "cluster": 6, "record": 18}, driver.__name__


def test_file_labels_pin_the_labeling(tmp_path, medium_graph):
    # a label file runs every trial on the same labeling: only walk noise
    from privwalk import assign_labels_bernoulli

    gl = assign_labels_bernoulli(medium_graph, 0.2, 77)
    cfg = _cfg(tmp_path, label_file="unused", trials=6)
    rows = run_experiment(cfg, graph=gl)
    assert all(row.p == pytest.approx(gl.private_fraction) for row in rows)
    assert all(row.failed_trials == 0 for row in rows)


def test_cli_end_to_end(tmp_path, capsys):
    from privwalk.cli import main

    edges = random_connected_edges(60, 120, seed=16)
    dataset = tmp_path / "edges.txt"
    write_edge_file(dataset, edges, header="test graph")

    assert main(["ingest", str(dataset)]) == 0
    out = capsys.readouterr().out
    assert "nodes" in out and "60" in out

    dump = tmp_path / "samples.txt"
    assert (
        main(
            [
                "walk",
                str(dataset),
                "--bernoulli",
                "0.2",
                "--label-seed",
                "3",
                "--length",
                "500",
                "--rng-seed",
                "4",
                "--mode",
                "approx_hidden",
                "--out",
                str(dump),
            ]
        )
        == 0
    )
    assert dump.exists()

    assert main(["estimate", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "size" in out

    theory_csv = tmp_path / "theory.csv"
    assert (
        main(
            ["theory", str(dataset), "--p-grid", "0.0,0.3", "--out", str(theory_csv)]
        )
        == 0
    )
    assert theory_csv.exists()

    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        f"dataset = {dataset}\n"
        "p_grid = 0.2\n"
        "sample_size = 200\n"
        "trials = 4\n"
        f"outdir = {tmp_path / 'results'}\n"
    )
    assert main(["experiment", str(cfgfile)]) == 0
    assert (tmp_path / "results" / "nrmse.csv").exists()
    assert (tmp_path / "results" / "theory.csv").exists()

    assert main(["census", str(cfgfile)]) == 0
    assert (tmp_path / "results" / "census.csv").exists()


def test_cli_reports_errors_cleanly(tmp_path, capsys):
    from privwalk.cli import main

    assert main(["ingest", str(tmp_path / "missing.txt")]) == 1
    assert "missing.txt" in capsys.readouterr().err
