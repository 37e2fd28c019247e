"""The CSR builders, the upper-triangle CSR, the component labelling and
the public-cluster decomposition against their per-edge, two-sort,
per-row, SciPy-undirected and flood-fill references, on random inputs."""

import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from graphgen import random_connected_edges
from oracles import reference_build_graph, reference_edge_list, reference_public_cluster

from privwalk import (
    GraphError,
    IngestError,
    PublicClusterView,
    assign_labels_bernoulli,
    build_graph,
    largest_public_cluster,
    load_edge_list,
)
from privwalk.graph import _components, _csr_from_pairs, _restrict, _upper_csr


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
def symmetric_csrs(draw):
    """A graph over ``0..n-1`` as the callers of ``_components`` make it:
    random edges, then rows emptied by a restriction; many nodes isolated.

    Returns ``n``, the full symmetric CSR and its upper triangle, the
    latter built by ``_upper_csr`` and restricted by ``_restrict``.
    """
    n = draw(st.integers(2, 40))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=2 * n))
    lo, hi = np.sort(np.array(pairs, dtype=np.int64), axis=1).T
    full = _csr_from_pairs(lo, hi, n)
    upper = _upper_csr(full[1], np.diff(full[0]))
    if draw(st.booleans()):
        keep = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        full = _restrict(*full, keep)
        upper = _restrict(*upper, keep)
    return n, full, upper


@settings(max_examples=300, deadline=None, database=None)
@given(symmetric_csrs())
def test_components_match_scipy_undirected_numbering(case):
    # largest_public_cluster and load_edge_list break size ties by this
    # numbering: components in order of their smallest node
    n, (indptr, indices), (upper_indptr, upper_indices) = case
    adj = csr_matrix((np.ones(indices.size, dtype=np.int8), indices, indptr), shape=(n, n))
    want_count, want = connected_components(adj, directed=False)
    count, labels = _components(upper_indptr, upper_indices, n)
    assert count == want_count
    _same_array(labels, want)
    first = np.unique(labels, return_index=True)[1]
    assert np.all(np.diff(first) > 0)


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
def test_upper_csr_is_the_full_csr_above_the_diagonal(g):
    rows = [g.neighbors(i) for i in range(g.node_count)]
    upper = [row[row > i] for i, row in enumerate(rows)]
    assert g.upper_indptr.dtype == g.upper_indices.dtype == np.int32
    assert g.upper_indptr.tolist() == np.cumsum([0] + [u.size for u in upper]).tolist()
    for i, want in enumerate(upper):
        got = g.upper_indices[g.upper_indptr[i] : g.upper_indptr[i + 1]]
        assert got.tolist() == want.tolist()
        assert np.all(np.diff(got) > 0)
    assert not (g.upper_indptr.flags.writeable or g.upper_indices.flags.writeable)


@st.composite
def labeled_graphs(draw):
    """A random connected simple graph and a Bernoulli labeling of it."""
    n = draw(st.integers(2, 40))
    extra = draw(st.integers(0, min(2 * n, (n - 1) * (n - 2) // 2)))
    edges = random_connected_edges(n, extra, seed=draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from((0.0, 0.3, 0.6, 0.9)))
    g = assign_labels_bernoulli(build_graph(edges, [False] * n), p, draw(st.integers(0, 2**32 - 1)))
    return edges, g


@settings(max_examples=300, deadline=None, database=None)
@given(labeled_graphs())
def test_largest_public_cluster_matches_flood_fill_reference(case):
    edges, g = case
    if g.is_private.all():
        with pytest.raises(GraphError, match="no public node"):
            largest_public_cluster(g)
        return
    view = largest_public_cluster(g)
    ref = reference_public_cluster(edges, g.is_private.tolist())
    for f in fields(PublicClusterView):
        got, want = getattr(view, f.name), getattr(ref, f.name)
        if isinstance(want, np.ndarray):
            _same_array(got, want)
        else:
            assert type(got) is type(want) and got == want, f.name
