"""The CSR builders, the edge pairs and the public-cluster decomposition
against their per-edge, two-sort, per-row and flood-fill references, on
random inputs and on fixed cases for each branch of the decomposition;
the decomposition under both runners of its cluster pass."""

import shutil
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphgen import RUNNERS, random_connected_edges
from oracles import reference_build_graph, reference_edge_list, reference_public_cluster

from privwalk import (
    GraphError,
    IngestError,
    LabeledGraph,
    PublicClusterView,
    assign_labels_bernoulli,
    build_graph,
    largest_public_cluster,
    load_edge_list,
)
from privwalk.cli import main


def _same_array(got, ref):
    assert got.dtype == ref.dtype
    assert np.array_equal(got, ref)


def _repeats(draw, edges):
    """Some of ``edges`` again, each reversed or not."""
    if not edges:
        return []
    picked = draw(st.lists(st.sampled_from(edges), max_size=4))
    return [(v, u) if draw(st.booleans()) else (u, v) for u, v in picked]


@st.composite
def noisy_edge_lists(draw):
    """Edges over ``0..n-1``: a spanning path or not, extra edges, in random order.

    Noisy extra edges may repeat, reverse or loop; clean ones never do.
    Either kind may get an id just outside the range.
    """
    n = draw(st.integers(0, 25))
    edges = []
    if n > 1 and draw(st.booleans()):
        for v in range(1, n):
            edges.append((v - 1, v) if draw(st.booleans()) else (v, v - 1))
    node = st.integers(0, max(n - 1, 0))
    if n and draw(st.booleans()):
        edges += draw(st.lists(st.tuples(node, node), max_size=2 * n))
        edges += _repeats(draw, edges)
    elif n:
        off_path = st.tuples(node, node).filter(lambda e: abs(e[0] - e[1]) > 1)
        edges += draw(st.lists(off_path, max_size=2 * n, unique_by=lambda e: (min(e), max(e))))
    if draw(st.integers(0, 3)) == 0:
        stray = st.tuples(st.sampled_from((-2, -1, n, n + 1)), node | st.sampled_from((-1, n)))
        edges.append(draw(stray | stray.map(lambda e: e[::-1])))
    edges = draw(st.permutations(edges))
    return n, edges, draw(st.booleans())


@settings(max_examples=400, deadline=None, database=None)
@given(noisy_edge_lists())
def test_build_graph_matches_set_loop_reference(case):
    n, edges, drop = case
    try:
        ref = reference_build_graph(edges, n, drop_duplicates=drop)
    except GraphError as e:
        ref = e
    try:
        g = build_graph(edges, [False] * n, drop_duplicates=drop)
    except GraphError as e:
        assert isinstance(ref, GraphError), f"unexpected {e!r}"
        assert str(e) == str(ref)
        return
    assert not isinstance(ref, GraphError), f"missed {ref!r}"
    _same_array(g.indptr, ref[0])
    _same_array(g.indices, ref[1])
    assert g.orig_ids is None


@st.composite
def edge_files(draw):
    """Parsed ``(src, dst)`` lines over sparse ids: usually several components,
    with reversed and repeated edges and self-loops."""
    node = st.integers(-3, 40)
    pairs = draw(st.lists(st.tuples(node, node), max_size=40))
    pairs += [(v, v) for v in draw(st.lists(node, max_size=3))]
    pairs += _repeats(draw, pairs)
    return draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None, database=None)
@given(edge_files())
@example([(5, 2), (9, 5), (2, 5), (9, -1), (5, 2), (-1, 2)])  # mostly high id first
def test_load_edge_list_matches_two_sort_reference(pairs):
    ref = reference_edge_list(pairs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in pairs))
        if ref is None:
            try:
                load_edge_list(path)
            except IngestError as e:
                assert str(e) == f"{path}: no edges found"
                return
            raise AssertionError("expected 'no edges found'")
        g = load_edge_list(path)
    _same_array(g.indptr, ref[0])
    _same_array(g.indices, ref[1])
    _same_array(g.orig_ids, ref[2])


@st.composite
def graphs(draw):
    """A graph from ``build_graph``, or from ``load_edge_list`` on a file
    of usually several components, then relabeled by ``with_labels`` or not."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 40))
        extra = draw(st.integers(0, min(2 * n, (n - 1) * (n - 2) // 2)))
        g = build_graph(random_connected_edges(n, extra, seed=draw(st.integers(0, 2**32 - 1))),
                        [False] * n)
    else:
        pairs = draw(edge_files().filter(lambda ps: any(u != v for u, v in ps)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edges.txt"
            path.write_text("".join(f"{u} {v}\n" for u, v in pairs))
            g = load_edge_list(path)
    if draw(st.booleans()):
        n = g.node_count
        g = g.with_labels(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return g


@settings(max_examples=300, deadline=None, database=None)
@given(graphs())
def test_edge_pairs_filter_the_full_csr_rows(g):
    rows = [g.neighbors(i) for i in range(g.node_count)]
    want_v = [row[row > i] for i, row in enumerate(rows)]
    want_u = [np.full(v.size, i, dtype=np.int64) for i, v in enumerate(want_v)]
    u, v = g.edge_pairs()
    _same_array(u, np.concatenate(want_u))
    _same_array(v, np.concatenate(want_v))
    assert u.size == g.edge_count
    # the dense ids of a connected graph load as themselves, so ingest
    # writes the same pairs back
    text = "".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist()))
    with tempfile.TemporaryDirectory() as tmp:
        edges, out = Path(tmp) / "edges.txt", Path(tmp) / "out.txt"
        edges.write_text(text)
        assert main(["ingest", str(edges), "--out-edges", str(out)]) == 0
        assert out.read_text() == text


@st.composite
def labeled_graphs(draw):
    """A random connected simple graph and a Bernoulli labeling of it."""
    n = draw(st.integers(2, 40))
    extra = draw(st.integers(0, min(2 * n, (n - 1) * (n - 2) // 2)))
    edges = random_connected_edges(n, extra, seed=draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from((0.0, 0.3, 0.6, 0.9, 0.95)))
    g = assign_labels_bernoulli(build_graph(edges, [False] * n), p, draw(st.integers(0, 2**32 - 1)))
    return edges, g


def _same_view(got, want):
    for f in fields(PublicClusterView):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            _same_array(a, b)
        else:
            assert type(a) is type(b) and a == b, f.name


def _matches_reference(edges, g):
    """``largest_public_cluster(g)`` under each runner equals the flood-fill
    reference on ``edges``."""
    for runner in RUNNERS.values():
        with runner():
            if g.is_private.all():
                with pytest.raises(GraphError, match="no public node"):
                    largest_public_cluster(g)
            else:
                _same_view(largest_public_cluster(g),
                           reference_public_cluster(edges, g.is_private.tolist()))


@settings(max_examples=300, deadline=None, database=None)
@given(labeled_graphs())
def test_largest_public_cluster_matches_flood_fill_reference(case):
    _matches_reference(*case)


@st.composite
def accepted_csrs(draw):
    """Any CSR and labels that ``LabeledGraph`` accepts: rows unsorted, entries
    one-way, repeated or on the diagonal, and empty rows."""
    n = draw(st.integers(0, 30))
    degrees = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    indices = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=sum(degrees),
                            max_size=sum(degrees)))
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return LabeledGraph(np.cumsum([0] + degrees), np.array(indices, dtype=np.int64),
                        np.array(labels, dtype=bool))


def _view_or_error(g):
    try:
        return largest_public_cluster(g)
    except GraphError as e:
        return str(e)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler to build the pass")
@settings(max_examples=300, deadline=None, database=None)
@given(accepted_csrs())
def test_compiled_cluster_pass_matches_its_python_twin(g):
    want = _view_or_error(g)
    with RUNNERS["python"]():
        got = _view_or_error(g)
    if isinstance(want, str):
        assert got == want == "graph has no public node"
    else:
        _same_view(got, want)


def _star(center, leaves):
    return [(center, leaf) for leaf in leaves]


def _path(nodes):
    return list(zip(nodes, nodes[1:]))


# edges and private nodes for each way the largest cluster can be picked;
# the hub is the node with most public neighbors, whose cluster may lose,
# tie and win or tie and lose on the smallest id
BRANCH_CASES = {
    # a private ring 5-6-7 cuts the star of hub 0 off from a 7-node path
    "hub_cluster_is_not_the_largest": (
        _star(0, [1, 2, 3, 4]) + [(1, 5), (5, 6), (6, 7), (7, 5), (6, 8)] + _path(range(8, 15)),
        {5, 6, 7},
    ),
    # the star of hub 6 and the path 0..4 both have 5 nodes
    "hub_cluster_ties_and_loses": (
        _path(range(5)) + [(4, 5), (5, 7)] + _star(6, [7, 8, 9, 10]),
        {5},
    ),
    "hub_cluster_ties_and_wins": (
        _star(0, [1, 2, 3, 4]) + [(4, 5), (5, 6)] + _path(range(6, 11)),
        {5},
    ),
    # the star of hub 11 has 4 nodes; two 5-node paths interleave their ids
    "leftover_clusters_tie": (
        _path([2, 4, 6, 8, 10]) + _path([1, 3, 5, 7, 9]) + _star(11, [12, 13, 14])
        + [(0, 2), (0, 1), (0, 12)],
        {0},
    ),
    # public nodes 5, 6 and 7 have only a private neighbor
    "isolated_public_nodes": (
        _star(0, [1, 2, 3]) + [(3, 4), (4, 5), (4, 6), (4, 7)],
        {4},
    ),
    "every_node_private": (_path(range(4)), {0, 1, 2, 3}),
}


@pytest.mark.parametrize("name", BRANCH_CASES)
def test_largest_public_cluster_branches_match_reference(name):
    edges, private = BRANCH_CASES[name]
    n = 1 + max(max(e) for e in edges)
    _matches_reference(edges, build_graph(edges, [v in private for v in range(n)]))
