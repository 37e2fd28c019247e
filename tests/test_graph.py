import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from graphgen import (
    FIXTURE_EDGES,
    FIXTURE_PRIVATE,
    RUNNERS,
    path_edges,
    random_connected_edges,
    star_edges,
)
from oracles import flood_fill_public_clusters

import privwalk
from privwalk import (
    ExperimentConfig,
    GraphError,
    LabeledGraph,
    assign_labels_bernoulli,
    build_graph,
    expected_errors,
    largest_public_cluster,
    public_count_moments,
)


def test_path_graph_basics():
    g = build_graph(path_edges(3), [False] * 3)
    assert g.node_count == 3
    assert list(g.degrees) == [1, 2, 1]
    assert g.degree_sum == 4
    assert list(g.neighbors(1)) == [0, 2]


def test_adjacency_is_symmetric_and_sorted():
    g = build_graph(random_connected_edges(50, 80, seed=3), [False] * 50)
    assert g.degree_sum % 2 == 0
    for v in range(50):
        nbrs = g.neighbors(v)
        assert list(nbrs) == sorted(nbrs)
        for w in nbrs:
            assert v in g.neighbors(int(w))


def test_build_graph_rejects_disconnected():
    with pytest.raises(GraphError, match="not connected"):
        build_graph([(0, 1), (2, 3)], [False] * 4)


def test_build_graph_rejects_out_of_range():
    with pytest.raises(GraphError, match="outside"):
        build_graph([(0, 5)], [False] * 3)
    # endpoints follow the cast rule: no truncation, parsing or wrapping
    for bad, dtype in [(0.5, "float64"), (1.9, "float64"), ("1", "<U21"), (2**70, "object"),
                       (None, "object")]:
        message = f"edge endpoints must be integers, got {dtype} values"
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            build_graph([(0, bad), (1, 2)], [False] * 3)
    with pytest.raises(GraphError, match="^edge endpoints must be integers, got uint64 values$"):
        build_graph([(np.uint64(2**64 - 1), np.uint64(1))], [False] * 3)


@pytest.mark.parametrize("bad", [(1,), (1, 2, 0)])
def test_build_graph_rejects_an_edge_that_is_no_pair(bad):
    with pytest.raises(GraphError) as exc:
        build_graph(iter([(0, 1), bad]), [False] * 3)
    assert str(exc.value) == f"edge 1 is not a pair: {bad!r}"


def test_build_graph_duplicate_and_self_loop_policy():
    with pytest.raises(GraphError, match="duplicate"):
        build_graph([(0, 1), (1, 0)], [False] * 2)
    with pytest.raises(GraphError, match="self-loop"):
        build_graph([(0, 0), (0, 1)], [False] * 2)
    g = build_graph([(0, 1), (1, 0), (1, 1), (1, 2)], [False] * 3, drop_duplicates=True)
    assert g.edge_count == 2


def test_labels_from_strings():
    g = build_graph([(0, 1), (1, 2)], ["public", "private", "public"])
    assert list(g.is_private) == [False, True, False]
    with pytest.raises(GraphError, match="^unknown label 'Private' at node 1$"):
        build_graph([(0, 1), (1, 2)], ["public", "Private", "public"])


@pytest.mark.parametrize("labels, dtype", [([0.4, 2, 0.0], "float64"), ([1, 2, 0], "int64"),
                                           ([None, 0, 1], "object")])
def test_build_graph_takes_non_string_labels_by_the_cast_rule(labels, dtype):
    # truthiness would read 0.4 and 2 as private and None as public
    message = f"privacy labels must be booleans or the integers 0 and 1, got {dtype} values"
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        build_graph([(0, 1), (1, 2)], labels)
    for ok in ([1, 0, True], ["private", 0, np.True_]):
        assert build_graph([(0, 1), (1, 2)], ok).is_private.tolist() == [True, False, True]


def test_bernoulli_extremes_are_exact():
    g = build_graph(path_edges(40), [False] * 40)
    assert assign_labels_bernoulli(g, 0.0, 1).private_count == 0
    assert assign_labels_bernoulli(g, 1.0, 1).private_count == 40
    with pytest.raises(GraphError):
        assign_labels_bernoulli(g, 1.5, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: assign_labels_bernoulli(g, 1.5, 1), "privacy rate must lie in [0, 1], got 1.5"),
        (lambda g: expected_errors(g, 1.5), "privacy rate must lie in [0, 1], got 1.5"),
        (lambda g: public_count_moments(3, 1.5), "privacy rate must lie in [0, 1], got 1.5"),
        (lambda g: ExperimentConfig(dataset="", p_grid=(0.5, 1.5)),
         "p_grid values must lie in [0, 1], got 1.5"),
    ],
    ids=["assign_labels_bernoulli", "expected_errors", "public_count_moments", "p_grid"],
)
def test_privacy_rate_rule_is_shared(call, message):
    g = build_graph(path_edges(3), [False] * 3)
    with pytest.raises(GraphError) as exc:
        call(g)
    assert str(exc.value) == message


def test_bernoulli_is_deterministic_and_shares_adjacency():
    g = build_graph(path_edges(30), [False] * 30)
    g1 = assign_labels_bernoulli(g, 0.4, 123)
    g2 = assign_labels_bernoulli(g, 0.4, 123)
    assert np.array_equal(g1.is_private, g2.is_private)
    assert g1.indices is g.indices


def test_bernoulli_private_fraction_concentrates():
    g = build_graph(random_connected_edges(10000, 5000, seed=9), [False] * 10000)
    fractions = [
        assign_labels_bernoulli(g, 0.3, seed).private_fraction for seed in range(1000)
    ]
    sigma = np.sqrt(0.3 * 0.7 / 10000)
    assert abs(np.mean(fractions) - 0.3) < 3 * sigma


def test_fixture_cluster_decomposition(fixture_graph):
    view = largest_public_cluster(fixture_graph)
    assert view.member_count == 5
    assert list(view.members) == [3, 4, 5, 6, 8]
    assert [int(view.public_degree[v]) for v in (3, 4, 5, 6, 8)] == [1, 4, 1, 1, 1]
    assert view.public_degree_sum == 8
    assert view.cluster_census == ((5, 1), (2, 1), (1, 1))
    # fixture degrees: node 3 keeps its private neighbor in the full degree
    assert fixture_graph.degree(3) == 2
    assert fixture_graph.degree(4) == 4


def test_all_public_cluster_is_whole_graph():
    g = build_graph(random_connected_edges(60, 90, seed=4), [False] * 60)
    view = largest_public_cluster(g)
    assert view.member_count == 60
    assert np.array_equal(view.public_degree, g.degrees)
    assert view.public_degree_sum == g.degree_sum


def test_cluster_matches_flood_fill_oracle():
    edges = random_connected_edges(100, 150, seed=21)
    g = build_graph(edges, [False] * 100)
    for seed in range(6):
        gl = assign_labels_bernoulli(g, 0.5, seed)
        clusters = flood_fill_public_clusters(edges, list(gl.is_private))
        if not clusters:
            continue
        best = max(clusters, key=lambda c: (len(c), -min(c)))
        view = largest_public_cluster(gl)
        assert set(view.members.tolist()) == best
        # census covers every public node exactly once
        assert sum(s * c for s, c in view.cluster_census) == 100 - gl.private_count
        sizes = sorted((len(c) for c in clusters), reverse=True)
        expanded = [s for s, c in view.cluster_census for _ in range(c)]
        assert expanded == sizes
        # membership public degrees count in-cluster neighbors only
        for v in view.members:
            expect = sum(1 for w in gl.neighbors(v) if w in best)
            assert view.public_degree[v] == expect
            assert 0 <= view.public_degree[v] <= gl.degree(int(v))


def test_cluster_tie_breaks_toward_smallest_node_id():
    # two public pairs {1,2} and {4,5} bridged by private nodes 0 and 3
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    labels = [True, False, False, True, False, False]
    view = largest_public_cluster(build_graph(edges, labels))
    assert view.member_count == 2
    assert list(view.members) == [1, 2]


def test_no_public_nodes_is_an_error():
    g = build_graph(path_edges(4), [True] * 4)
    with pytest.raises(GraphError, match="no public node"):
        largest_public_cluster(g)


def test_cluster_views_compare_and_hash_by_identity():
    # array fields have no single truth value, so a view is equal only to itself
    g = build_graph(path_edges(4), [False] * 4)
    a, b = largest_public_cluster(g), largest_public_cluster(g)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_star_cluster_degrees():
    g = build_graph(star_edges(8), [False] * 8)
    gl = g.with_labels([False] + [False] * 4 + [True] * 3)
    view = largest_public_cluster(gl)
    assert view.member_count == 5
    assert view.public_degree[0] == 4


@pytest.mark.parametrize("runner", RUNNERS)
def test_one_cluster_pass_per_call(monkeypatch, runner):
    from privwalk import graph

    calls = []
    lib = graph._kernels()
    if runner == "python" or lib is None:
        twin = graph._cluster_pass
        monkeypatch.setattr(graph, "_kernels", lambda: None)
        monkeypatch.setattr(graph, "_cluster_pass", lambda *a: calls.append(a) or twin(*a))
    else:
        counted = SimpleNamespace(
            privwalk_clusters=lambda *a: calls.append(a) or lib.privwalk_clusters(*a))
        monkeypatch.setattr(graph, "_kernels", lambda: counted)
    all_public = build_graph(random_connected_edges(200, 400, seed=5), [False] * 200)
    # the star's leaves 20..29 are private; every public node touches the hub
    star = build_graph(star_edges(30), [False] * 20 + [True] * 10)
    for g in (all_public, star):
        calls.clear()
        assert largest_public_cluster(g).member_count == g.node_count - g.private_count
        assert len(calls) == 1
    # public nodes outside the largest cluster take no second pass
    fixture = build_graph(FIXTURE_EDGES, FIXTURE_PRIVATE)
    calls.clear()
    assert largest_public_cluster(fixture).cluster_census == ((5, 1), (2, 1), (1, 1))
    assert len(calls) == 1


def test_privwalk_imports_without_scipy():
    # scipy is a test dependency only; no module under src may import it
    code = (
        "import pkgutil, sys\n"
        "sys.modules['scipy'] = None\n"
        "import privwalk\n"
        "for m in pkgutil.walk_packages(privwalk.__path__, 'privwalk.'):\n"
        "    __import__(m.name)\n"
        "print(sorted(n for n in sys.modules if n.startswith('privwalk.')))\n"
    )
    src = str(Path(privwalk.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert "'privwalk.walk'" in out.stdout and "'privwalk.cli'" in out.stdout


@pytest.mark.parametrize(
    "indptr, indices, labels, message",
    [
        ([1, 2, 4], [1, 0, 1], 2, "start at 0"),
        ([0, 2, 1, 3], [1, 2, 0], 3, "decreases after row 1"),
        ([0, 1, 2], [1, 0, 0], 2, "ends at 2, but indices holds 3"),
        ([0, 1, 3], [1], 2, "ends at 3, but indices holds 1"),
        ([0, 1, 2], [2, 0], 2, "index 2 lies outside 0..1"),
        ([0, 1, 2], [1, -1], 2, "index -1 lies outside 0..1"),
        ([0, 1, 2], [1, 0], 3, "label vector length"),
        ([[0, 1, 2]], [1, 0], 2, "1-D"),
        # a cast would truncate 1.9 to 1 and load another graph
        ([0, 1.9, 2.0], [1.7, 0.2], 2, "CSR indptr must hold integers, got float64 values"),
        ([0, 1, 2], [1.0, 0.0], 2, "CSR indices must hold integers, got float64 values"),
        ([0, 1, 2], [True, False], 2, "CSR indices must hold integers, got bool values"),
        (["0", "1", "2"], [1, 0], 2, "CSR indptr must hold integers, got <U1 values"),
    ],
    ids=["first_not_zero", "decreasing", "last_too_small", "last_too_large", "index_too_large",
         "negative_index", "label_length", "two_dimensional", "float_indptr", "float_indices",
         "bool_indices", "str_indptr"],
)
def test_labeled_graph_rejects_a_malformed_csr(indptr, indices, labels, message):
    # the walk reads the CSR without bounds checks, so the constructor guards it
    with pytest.raises(GraphError, match=message):
        LabeledGraph(np.array(indptr), np.array(indices), np.zeros(labels, dtype=bool))


def test_labeled_graph_stores_contiguous_int64_arrays():
    indices = np.array([1, 0, 2, 1, 9, 9], dtype=np.int32)[:4]
    labels = np.array([True, False, False, True, False, True])[::2]
    g = LabeledGraph([0, 1, 3, 4], indices, labels)
    for a in (g.indptr, g.indices, g.is_private):
        assert a.flags.c_contiguous and not a.flags.writeable
    assert g.indices.dtype == g.indptr.dtype == np.int64
    assert g.indices.tolist() == [1, 0, 2, 1]
    assert g.is_private.tolist() == [True, False, False]
    with pytest.raises(GraphError, match="label vector length"):
        g.with_labels([False, True])
    g = LabeledGraph([0, 0], [], [True])  # an empty list holds no float
    assert g.indices.dtype == np.int64 and g.indices.size == 0


@pytest.mark.parametrize("orig_ids", [[7], [7, 8, 9], [[7, 8]], 7], ids=str)
def test_labeled_graph_rejects_original_ids_of_another_shape(orig_ids):
    # save_labels writes one line per original id, so each node needs one
    message = f"original ids have shape {np.shape(orig_ids)}, expected (2,)"
    with pytest.raises(GraphError, match=re.escape(message)):
        LabeledGraph([0, 1, 2], [1, 0], [False, False], orig_ids=orig_ids)
    g = LabeledGraph([0, 1, 2], [1, 0], [False, False], orig_ids=[7, 8])
    assert g.orig_ids.tolist() == [7, 8] and not g.orig_ids.flags.writeable


@pytest.mark.parametrize(
    "labels, message",
    [
        (["private", "public"], "integers 0 and 1, got <U7 values"),
        ([0.4, 2], "integers 0 and 1, got float64 values"),
        ([0.0, 1.0], "integers 0 and 1, got float64 values"),
        ([1, 2], "integers 0 and 1, got int64 values"),
        (np.array([-1, 0], dtype=np.int8), "integers 0 and 1, got int8 values"),
    ],
    ids=["strings", "floats", "whole_floats", "two", "negative"],
)
def test_labels_are_booleans_or_zero_one(labels, message):
    # a cast takes each value's truthiness, so "public", 0.4 and 2 read as private
    with pytest.raises(GraphError, match=re.escape(message)):
        LabeledGraph([0, 1, 2], [1, 0], labels)
    g = LabeledGraph([0, 1, 2], [1, 0], [False, False])
    with pytest.raises(GraphError, match=re.escape(message)):
        g.with_labels(labels)
    assert g.with_labels(np.array([1, 0], dtype=np.uint8)).is_private.tolist() == [True, False]
    flags = np.array([False, True])
    assert g.with_labels(flags).is_private is flags  # a bool vector is taken as it is
