import logging
import shutil
from dataclasses import fields

import numpy as np
import pytest

from graphgen import path_edges, random_connected_edges
from oracles import power_iteration_stationary, walk_transition_matrix

from privwalk import (
    AccessModel,
    GraphError,
    LabeledGraph,
    PubdegMode,
    PublicClusterView,
    StuckWalkError,
    assign_labels_bernoulli,
    build_graph,
    largest_public_cluster,
    load_sample_records,
    run_walk,
    stationary_distribution,
)
from privwalk import graph, walk

MODES = (PubdegMode.EXACT_IDEAL, PubdegMode.EXACT_HIDDEN, PubdegMode.APPROX_HIDDEN)


def test_single_sample_walk(fixture_graph):
    rec = run_walk(
        fixture_graph, AccessModel.IDEAL, 5, 1, PubdegMode.EXACT_IDEAL, rng_seed=0
    )
    assert rec.r == len(rec) == 1
    assert rec.nodes[0] == 5
    assert rec.degrees[0] == 1
    assert rec.public_degrees[0] == 1.0


def test_seed_validation(fixture_graph):
    with pytest.raises(GraphError, match="private"):
        run_walk(fixture_graph, AccessModel.IDEAL, 0, 5, PubdegMode.EXACT_IDEAL, 0)
    with pytest.raises(GraphError, match="cluster"):
        run_walk(fixture_graph, AccessModel.IDEAL, 7, 5, PubdegMode.EXACT_IDEAL, 0)
    with pytest.raises(ValueError):
        run_walk(fixture_graph, AccessModel.IDEAL, 4, 0, PubdegMode.EXACT_IDEAL, 0)
    n = fixture_graph.node_count
    for v in (-1, n):
        with pytest.raises(GraphError, match=rf"^seed node {v} is outside 0\.\.{n - 1}$"):
            run_walk(fixture_graph, AccessModel.IDEAL, v, 5, PubdegMode.EXACT_IDEAL, 0)


def test_mode_and_model_must_agree(fixture_graph):
    with pytest.raises(ValueError, match="model"):
        run_walk(fixture_graph, AccessModel.HIDDEN, 4, 5, PubdegMode.EXACT_IDEAL, 0)
    with pytest.raises(ValueError, match="model"):
        run_walk(fixture_graph, AccessModel.IDEAL, 4, 5, PubdegMode.APPROX_HIDDEN, 0)


def test_isolated_public_seed_is_stuck():
    g = build_graph(path_edges(3), [True, False, True])
    with pytest.raises(StuckWalkError):
        run_walk(g, AccessModel.IDEAL, 1, 1, PubdegMode.EXACT_IDEAL, rng_seed=0)


def test_walk_is_deterministic(fixture_graph):
    a = run_walk(fixture_graph, AccessModel.IDEAL, 4, 64, PubdegMode.EXACT_IDEAL, 42)
    b = run_walk(fixture_graph, AccessModel.IDEAL, 4, 64, PubdegMode.EXACT_IDEAL, 42)
    c = run_walk(fixture_graph, AccessModel.IDEAL, 4, 64, PubdegMode.EXACT_IDEAL, 43)
    assert np.array_equal(a.nodes, b.nodes)
    assert not np.array_equal(a.nodes, c.nodes)


def test_modes_share_the_node_trajectory(fixture_graph):
    recs = [
        run_walk(fixture_graph, m.access_model, 4, 500, m, rng_seed=9) for m in MODES
    ]
    assert np.array_equal(recs[0].nodes, recs[1].nodes)
    assert np.array_equal(recs[0].nodes, recs[2].nodes)
    assert np.array_equal(recs[0].degrees, recs[2].degrees)
    # both exact modes must report identical public degrees
    assert np.array_equal(recs[0].public_degrees, recs[1].public_degrees)


def test_walk_stays_on_cluster_and_reports_exact_pubdeg(fixture_graph):
    view = largest_public_cluster(fixture_graph)
    rec = run_walk(
        fixture_graph, AccessModel.HIDDEN, 4, 400, PubdegMode.EXACT_HIDDEN, 3
    )
    assert view.member_flag[rec.nodes].all()
    assert np.array_equal(rec.degrees, fixture_graph.degrees[rec.nodes])
    assert np.array_equal(rec.public_degrees, view.public_degree[rec.nodes])


def test_fixture_walk_alternates_through_hub(fixture_graph):
    # public cluster of the fixture is a star around node 4: any sample away
    # from the hub must hop back to it next
    rec = run_walk(
        fixture_graph, AccessModel.IDEAL, 4, 2000, PubdegMode.EXACT_IDEAL, 17
    )
    nodes = rec.nodes
    away = nodes[:-1] != 4
    assert (nodes[1:][away] == 4).all()


def test_empirical_distribution_matches_stationary_law():
    g = build_graph(path_edges(3), [False] * 3)
    rec = run_walk(g, AccessModel.IDEAL, 0, 1_000_000, PubdegMode.EXACT_IDEAL, 1234)
    freq = np.bincount(rec.nodes, minlength=3) / rec.r
    target = np.array([0.25, 0.5, 0.25])
    assert np.abs(freq - target).sum() <= 0.02


def test_stationary_distribution_matches_power_iteration():
    g = build_graph(random_connected_edges(40, 70, seed=6), [False] * 40)
    gl = assign_labels_bernoulli(g, 0.3, 5)
    view = largest_public_cluster(gl)
    pi = stationary_distribution(view)
    assert pi.sum() == pytest.approx(1.0)
    t = walk_transition_matrix(gl, view)
    ref = power_iteration_stationary(t)
    assert np.allclose(pi[view.members], ref, atol=1e-9)


def test_stationary_distribution_needs_a_cluster_edge():
    # every public node is alone between private ones
    g = build_graph(path_edges(3), [False, True, False])
    view = largest_public_cluster(g)
    assert view.public_degree_sum == 0
    with pytest.raises(ValueError, match="^cluster has no internal edge"):
        stationary_distribution(view)


def test_long_walk_visits_match_stationary_weights():
    g = build_graph(random_connected_edges(30, 45, seed=8), [False] * 30)
    gl = assign_labels_bernoulli(g, 0.25, 2)
    view = largest_public_cluster(gl)
    seed = int(view.members[0])
    rec = run_walk(gl, AccessModel.IDEAL, seed, 400_000, PubdegMode.EXACT_IDEAL, 99)
    freq = np.bincount(rec.nodes, minlength=30) / rec.r
    pi = stationary_distribution(view)
    assert np.abs(freq - pi).sum() <= 0.02


def test_selection_counters_bounds(fixture_graph):
    rec = run_walk(
        fixture_graph, AccessModel.HIDDEN, 4, 300, PubdegMode.APPROX_HIDDEN, 21
    )
    assert rec.counters is not None
    for v, b in rec.counters.attempts.items():
        a = rec.counters.successes[v]
        assert 1 <= a <= b
    # every visited node owns a counter
    assert set(rec.nodes.tolist()) <= set(rec.counters.attempts)


def test_approx_pubdeg_is_counter_ratio_and_constant_per_node(fixture_graph):
    rec = run_walk(
        fixture_graph, AccessModel.HIDDEN, 4, 300, PubdegMode.APPROX_HIDDEN, 21
    )
    for v in np.unique(rec.nodes):
        occ = rec.public_degrees[rec.nodes == v]
        assert np.all(occ == occ[0])
        expect = fixture_graph.degree(int(v)) * rec.counters.ratio(int(v))
        assert occ[0] == pytest.approx(expect)


def test_approx_pubdeg_converges_on_long_walks(fixture_graph):
    view = largest_public_cluster(fixture_graph)
    rec = run_walk(
        fixture_graph, AccessModel.HIDDEN, 4, 60_000, PubdegMode.APPROX_HIDDEN, 5
    )
    for v in (3, 4):
        est = rec.public_degrees[rec.nodes == v][0]
        assert est == pytest.approx(view.public_degree[v], rel=0.05)


def test_all_public_approx_is_exact():
    g = build_graph(path_edges(6), [False] * 6)
    rec = run_walk(g, AccessModel.HIDDEN, 0, 200, PubdegMode.APPROX_HIDDEN, 31)
    assert np.array_equal(rec.public_degrees, rec.degrees.astype(float))


def test_dump_round_trip(fixture_graph, tmp_path):
    rec = run_walk(
        fixture_graph, AccessModel.HIDDEN, 4, 150, PubdegMode.APPROX_HIDDEN, 77
    )
    path = tmp_path / "samples.txt"
    rec.dump(path)
    loaded = load_sample_records(path)
    assert np.array_equal(loaded.nodes, rec.nodes)
    assert np.array_equal(loaded.degrees, rec.degrees)
    assert np.allclose(loaded.public_degrees, rec.public_degrees, rtol=0, atol=0)


def test_samples_iterator(fixture_graph):
    rec = run_walk(
        fixture_graph, AccessModel.IDEAL, 4, 10, PubdegMode.EXACT_IDEAL, rng_seed=1
    )
    rows = list(rec.samples())
    assert len(rows) == 10
    v, d, ds = rows[0]
    assert v == 4 and d == 4 and ds == 4.0


def _block_crossing_walk():
    """Arguments of a ``_select`` call whose selections span two uniform blocks."""
    g = assign_labels_bernoulli(build_graph(random_connected_edges(100, 250, seed=41),
                                            [False] * 100), 0.3, 5)
    seed_node = int(largest_public_cluster(g).members[0])
    return g, seed_node, 20_000, 7


def test_the_compiled_loop_is_built_wherever_a_compiler_is_found():
    # a silent fallback would keep every output and lose the speed
    if shutil.which("cc") is not None:
        lib = graph._kernels()
        assert lib is not None and lib.privwalk_select and lib.privwalk_clusters
        assert lib.privwalk_read


# a `cc` script on an otherwise empty PATH, and what the one warning names
FAKE_COMPILERS = {
    "no_compiler": (None, "no C compiler found"),
    "compiler_fails": ("#!/bin/sh\nexit 1\n", "non-zero exit status 1"),
    "library_does_not_load": (
        '#!/bin/sh\nwhile [ $# -gt 0 ]; do [ "$1" = -o ] && echo junk > "$2"; shift; done\n',
        "_kernels.so: ",
    ),
}


@pytest.mark.parametrize("script, cause", FAKE_COMPILERS.values(), ids=FAKE_COMPILERS)
def test_a_failed_build_falls_back_to_the_python_loop(tmp_path, monkeypatch, caplog, script,
                                                      cause):
    args = _block_crossing_walk()
    want = walk._select(*args), largest_public_cluster(args[0])
    if script is not None:
        cc = tmp_path / "cc"
        cc.write_text(script)
        cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path))
    caplog.set_level(logging.DEBUG, logger=graph.__name__)
    graph._kernels.cache_clear()
    try:  # pyproject.toml turns any warning into an error
        assert graph._kernels() is None
        got = walk._select(*args), largest_public_cluster(args[0])
    finally:
        graph._kernels.cache_clear()  # the next call builds with the real PATH
    assert np.array_equal(got[0], want[0])
    for f in fields(PublicClusterView):
        assert np.array_equal(getattr(got[1], f.name), getattr(want[1], f.name)), f.name
    [record] = caplog.records
    message = record.getMessage()
    assert record.levelno == logging.WARNING and cause in message
    assert "selection step, the cluster pass and the file reader run in Python" in message


def test_a_missing_compiler_is_logged_once_as_a_warning(monkeypatch, caplog):
    # __wrapped__ skips the cache that makes this one warning per process
    monkeypatch.setattr(shutil, "which", lambda name: None)
    caplog.set_level(logging.DEBUG, logger=graph.__name__)
    assert graph._kernels.__wrapped__() is None
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert record.getMessage() == (
        "no C compiler found; the walk's selection step, the cluster pass and the file "
        "reader run in Python, and edge and sample files are read line by line")


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
def test_a_pick_past_the_csr_end_raises_in_both_runners(monkeypatch, compiled):
    # 1 -> 2 has no way back and row 2, the last, is empty: a pick from 2
    # would read past indices, which both steps refuse
    g = LabeledGraph([0, 1, 3, 3], [1, 0, 2], np.zeros(3, dtype=bool))
    if not compiled:
        monkeypatch.setattr(graph, "_kernels", lambda: None)
    with pytest.raises(IndexError):
        walk._select(g, 0, 100, 0)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
def test_an_empty_row_stops_the_walk_in_both_runners(monkeypatch, compiled):
    # row 2 is empty but not last: a pick from 2 would read row 3's entry
    g = LabeledGraph([0, 1, 3, 3, 4], [1, 0, 2, 1], np.zeros(4, dtype=bool))
    if not compiled:
        monkeypatch.setattr(graph, "_kernels", lambda: None)
    with pytest.raises(IndexError, match="^node 2 has no neighbor to select$"):
        walk._select(g, 0, 30, 0)
    # a walk whose trailing hit is node 2 selects nothing from it
    assert walk._select(g, 0, 2, 1).tolist() == [1, 2]
