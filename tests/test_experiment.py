import re

import numpy as np
import pytest

from graphgen import random_connected_edges, write_edge_file

from privwalk import (
    AccessModel,
    ESTIMATOR_NAMES,
    ExperimentConfig,
    PubdegMode,
    build_graph,
    load_config,
    query_census,
    run_experiment,
)


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
        "count_visit_queries = yes\n"
        "workers = 2\n"
        "directed = true\n",
    )
    cfg = load_config(f)
    assert cfg.dataset == "graph.txt"
    assert cfg.p_grid == (0.0, 0.2, 0.4, 0.6)
    assert cfg.model is AccessModel.HIDDEN
    assert cfg.pubdeg_mode is PubdegMode.APPROX_HIDDEN
    assert cfg.sample_fractions == (0.01, 0.1)
    assert cfg.sample_sizes is None
    assert cfg.trials == 12 and cfg.base_seed == 9 and cfg.workers == 2
    assert cfg.count_visit_queries and cfg.directed_input
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


def test_load_config_errors(tmp_path):
    with pytest.raises(ValueError, match="dataset"):
        load_config(_write_config(tmp_path, "trials = 3\n"))
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(_write_config(tmp_path, "dataset = g\nwhatever = 1\n"))
    with pytest.raises(ValueError, match="label_file"):
        load_config(_write_config(tmp_path, "dataset = g\nlabels = file\n"))
    with pytest.raises(ValueError, match="true/false"):
        load_config(_write_config(tmp_path, "dataset = g\ndirected = maybe\n"))
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
    ],
)
def test_load_config_rejects_out_of_range_values(tmp_path, line, message):
    f = _write_config(tmp_path, f"dataset = g\n{line}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(f))}: {message}"):
        load_config(f)


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


@pytest.mark.parametrize("grid", ["0:0.3:0", "0.3:0:0.1", ","])
def test_cli_rejects_bad_grids(tmp_path, capsys, grid):
    from privwalk.cli import main

    dataset = tmp_path / "edges.txt"
    write_edge_file(dataset, random_connected_edges(20, 30, seed=3))
    assert main(["theory", str(dataset), "--p-grid", grid, "--out", str(tmp_path / "t.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid ") and err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


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


def test_query_census_compares_modes(tmp_path, medium_graph):
    cfg = _cfg(tmp_path, p_grid=(0.3,), trials=6)
    rows = query_census(cfg, graph=medium_graph)
    assert [row["mode"] for row in rows] == ["exact_hidden", "approx_hidden"]
    exact, approx = rows
    assert exact["mean_raw_queries"] > approx["mean_raw_queries"]
    assert exact["mean_unique_fraction"] >= approx["mean_unique_fraction"]
    assert exact["trials"] == approx["trials"] == 6
    assert (tmp_path / "out" / "census.csv").exists()


def test_file_labels_pin_the_labeling(tmp_path, medium_graph):
    # labels = file runs every trial on the same labeling: only walk noise
    from privwalk import assign_labels_bernoulli

    gl = assign_labels_bernoulli(medium_graph, 0.2, 77)
    cfg = _cfg(tmp_path, labels="file", label_file="unused", trials=6)
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
