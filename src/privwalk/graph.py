"""Immutable labeled-graph storage and public-cluster decomposition.

A graph holds its adjacency once, in compressed sparse row form
(``indptr``/``indices``, each row's neighbors sorted, every edge listed
in both directions). The CSR is label-independent and built once per
graph; relabeling shares it. This module builds the CSR from edge pairs
and answers every component question with :func:`largest_public_cluster`:
the connectivity check of :func:`build_graph`, the largest component
that edge-list ingest keeps, and the public cluster of each trial. All
arrays are frozen after construction and nothing is cached, so graphs
and cluster views can be shared freely across threads and worker
processes.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components


class GraphError(ValueError):
    """Input violates a structural requirement (connectivity, id range, ...)."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_rate(p: float, name: str = "privacy rate") -> None:
    """Raise :class:`GraphError` unless the privacy rate ``p`` lies in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"{name} must lie in [0, 1], got {p}")


def _check_csr(indptr: np.ndarray, indices: np.ndarray, is_private: np.ndarray) -> np.ndarray:
    """Raise :class:`GraphError` unless ``indptr``/``indices`` form a CSR over
    ``0..n-1`` with one label per node; return the row degrees.

    A walk reads these arrays without bounds checks, so a graph holds
    only arrays that pass.
    """
    if indptr.ndim != 1 or indptr.size == 0 or indices.ndim != 1:
        raise GraphError("CSR indptr and indices must be 1-D, indptr non-empty")
    n = indptr.size - 1
    if indptr[0] != 0:
        raise GraphError(f"CSR indptr must start at 0, got {indptr[0]}")
    degrees = np.diff(indptr)
    if n and degrees.min() < 0:
        raise GraphError(f"CSR indptr decreases after row {int(np.argmax(degrees < 0))}")
    if indptr[-1] != indices.size:
        raise GraphError(
            f"CSR indptr ends at {indptr[-1]}, but indices holds {indices.size} entries")
    if indices.size and not (0 <= indices.min() and indices.max() < n):
        bad = indices[(indices < 0) | (indices >= n)][0]
        raise GraphError(f"CSR index {bad} lies outside 0..{n - 1}")
    if is_private.shape != (n,):
        raise GraphError("label vector length does not match node count")
    return degrees


class LabeledGraph:
    """Undirected, connected, simple graph with per-node privacy labels.

    ``is_private[v]`` is True when node ``v`` hides its neighbor list.
    ``indptr``/``indices`` hold the full symmetric adjacency (see the
    module docstring). The constructor rejects a malformed CSR or label
    vector with :class:`GraphError`. Instances are immutable; relabeling
    returns a new graph that shares every adjacency array.
    """

    __slots__ = ("indptr", "indices", "degrees", "is_private", "orig_ids")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        is_private: np.ndarray,
        orig_ids: np.ndarray | None = None,
    ):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        is_private = np.ascontiguousarray(is_private, dtype=bool)
        degrees = _check_csr(indptr, indices, is_private)
        self.indptr = _freeze(indptr)
        self.indices = _freeze(indices)
        self.degrees = _freeze(degrees)
        self.is_private = _freeze(is_private)
        self.orig_ids = _freeze(np.asarray(orig_ids)) if orig_ids is not None else None

    # -- basic shape ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return self.indptr.size - 1

    @property
    def degree_sum(self) -> int:
        """Sum of all degrees (twice the edge count)."""
        return int(self.indices.size)

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    @property
    def avg_degree(self) -> float:
        return self.degree_sum / self.node_count

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (read-only view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge once, as arrays ``(u, v)`` with ``u < v``, ordered by ``u`` then ``v``.

        Row ``u`` of the CSR keeps its entries above the diagonal; both are
        int64.
        """
        u = np.repeat(np.arange(self.node_count), self.degrees)
        above = self.indices > u
        return u[above], self.indices[above]

    # -- labels ---------------------------------------------------------

    @property
    def private_count(self) -> int:
        return int(self.is_private.sum())

    @property
    def private_fraction(self) -> float:
        return self.private_count / self.node_count

    def with_labels(self, is_private: np.ndarray) -> "LabeledGraph":
        """New graph that shares this one's adjacency arrays, with new privacy labels."""
        is_private = np.ascontiguousarray(is_private, dtype=bool)
        if is_private.shape != (self.node_count,):
            raise GraphError("label vector length does not match node count")
        g = copy.copy(self)
        g.is_private = _freeze(is_private)
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LabeledGraph(n={self.node_count}, edges={self.edge_count}, "
            f"private={self.private_count})"
        )


@dataclass(frozen=True)
class PublicClusterView:
    """Largest connected cluster of the public-induced subgraph.

    ``public_degree[v]`` counts the neighbors of ``v`` that are members of
    this cluster; it is zero outside the member set. ``cluster_census``
    lists ``(size, count)`` over all public clusters, largest size first.
    """

    member_flag: np.ndarray
    member_count: int
    public_degree: np.ndarray
    public_degree_sum: int
    cluster_census: tuple[tuple[int, int], ...]

    @cached_property
    def members(self) -> np.ndarray:
        """Member node ids in increasing order."""
        return np.nonzero(self.member_flag)[0]


def _normalize_labels(labels: Sequence) -> np.ndarray:
    """Accept booleans or 'public'/'private' strings; True means private."""
    out = np.empty(len(labels), dtype=bool)
    for i, lab in enumerate(labels):
        if isinstance(lab, str):
            if lab not in ("public", "private"):
                raise GraphError(f"unknown label {lab!r} at node {i}")
            out[i] = lab == "private"
        else:
            out[i] = bool(lab)
    return out


def build_graph(
    edges: Iterable[tuple[int, int]],
    labels: Sequence,
    *,
    drop_duplicates: bool = False,
) -> LabeledGraph:
    """Build a :class:`LabeledGraph` from an unordered edge list.

    Parameters
    ----------
    edges : iterable of (u, v)
        Undirected edges over node ids ``0..n-1`` where ``n = len(labels)``.
    labels : sequence
        Per-node privacy flags; booleans (True = private) or the strings
        ``"public"`` / ``"private"``.
    drop_duplicates : bool
        When False (default) duplicate edges and self-loops raise
        :class:`GraphError`; when True they are silently dropped.

    The resulting graph must be connected; anything else raises.
    """
    is_private = _normalize_labels(labels)
    n = is_private.size
    if n == 0:
        raise GraphError("graph needs at least one node")

    edges = list(edges)
    if set(map(len, edges)) - {2}:
        i = next(i for i, edge in enumerate(edges) if len(edge) != 2)
        raise GraphError(f"edge {i} is not a pair: {edges[i]!r}")
    # one flat pass; a subarray dtype in np.fromiter converts pair by pair
    e = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
    u, v = e[0::2], e[1::2]
    # the first bad edge in input order raises; per edge the range check
    # comes first, then the self-loop, then the duplicate check
    out_of_range = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    loop = u == v
    valid = np.flatnonzero(~out_of_range & ~loop)
    key = np.minimum(u, v)[valid] * n + np.maximum(u, v)[valid]
    key, first = np.unique(key, return_index=True)
    bad = out_of_range.copy()
    if not drop_duplicates:
        bad |= loop
        bad[valid] = True
        bad[valid[first]] = False  # a key's first edge is no duplicate
    if bad.any():
        i = int(np.argmax(bad))
        a, b = int(u[i]), int(v[i])
        if out_of_range[i]:
            raise GraphError(f"edge ({a}, {b}) references a node outside 0..{n - 1}")
        if loop[i]:
            raise GraphError(f"self-loop at node {a}")
        raise GraphError(f"duplicate edge ({a}, {b})")
    if not key.size:
        raise GraphError("edge list must be non-empty")

    g = LabeledGraph(*_csr_from_pairs(key // n, key % n, n), is_private)
    census = largest_public_cluster(g.with_labels(np.zeros(n, dtype=bool))).cluster_census
    n_comp = sum(count for _, count in census)
    if n_comp != 1:
        raise GraphError(f"graph is not connected ({n_comp} components)")
    return g


def _csr_from_pairs(lo: np.ndarray, hi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric CSR ``(indptr, indices)`` with sorted rows.

    Each pair ``lo < hi`` is an undirected edge over ``0..n-1``; pairs may
    repeat, and a repeated edge is kept once.
    """
    key = np.concatenate([lo * n + hi, hi * n + lo])
    key.sort()
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    src, dst = np.divmod(key, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst


def _induced(indptr, indices, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of the subgraph induced by the nodes where
    ``keep`` is True, renumbered ``0..k-1`` in id order; both int64.

    Only the kept rows are read, so the cost follows their entries, not
    the whole graph's. Each row keeps its order.
    """
    nodes = np.flatnonzero(keep)
    starts = indptr[nodes]
    lens = indptr[nodes + 1] - starts
    ends = np.cumsum(lens)
    # the kept rows' entry positions, row after row
    pos = np.repeat(starts - ends + lens, lens)
    pos += np.arange(pos.size)
    cols = indices[pos]
    del pos
    inside = np.flatnonzero(keep[cols])
    new_indptr = np.searchsorted(inside, np.concatenate(([0], ends)))
    return new_indptr, (np.cumsum(keep) - 1)[cols[inside]]


def _csgraph(indptr, indices, n: int) -> csr_matrix:
    """A CSR over ``0..n-1`` as SciPy's graph routines take it.

    They read no weights, so one broadcast 1.0 stands for every entry's
    data; with int32 index arrays SciPy's search copies nothing.
    """
    return csr_matrix((np.broadcast_to(1.0, indices.shape), indices, indptr), shape=(n, n))


def assign_labels_bernoulli(g: LabeledGraph, p: float, rng_seed) -> LabeledGraph:
    """Redraw privacy labels: each node independently private with probability p.

    ``rng_seed`` is anything accepted by :func:`numpy.random.default_rng`.
    ``p = 0`` and ``p = 1`` are exact (no node, every node private).
    """
    _check_rate(p)
    rng = np.random.default_rng(rng_seed)
    is_private = rng.random(g.node_count) < p
    return g.with_labels(is_private)


def largest_public_cluster(g: LabeledGraph) -> PublicClusterView:
    """Decompose the public-induced subgraph and return its largest cluster.

    The largest cluster is the one with the most nodes; ties on size go
    to the cluster holding the smallest node id. Raises
    :class:`GraphError` when the graph has no public node.

    The search runs on the public-row CSR: the full CSR with the rows of
    private nodes emptied, int32 throughout. A breadth-first search that
    follows its rows from the public node with the most public neighbors
    reaches that node's cluster, plus the private nodes beside it, which
    it leaves by no edge. Only the public nodes it did not reach are then
    labeled, by one component call on the subgraph they induce; on a
    well-connected graph they are few or none. The public degrees are the
    column counts of the public-row CSR: the number of public neighbors,
    all of which lie in the node's own cluster.
    """
    pub = ~g.is_private
    if not pub.any():
        raise GraphError("graph has no public node")
    n = g.node_count
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.where(pub, g.degrees, 0), out=indptr[1:])
    indices = g.indices[np.repeat(pub, g.degrees)]
    # bincount reads intp, so it counts before the cast to int32
    pub_deg = np.bincount(indices, minlength=n)
    indices = indices.astype(np.int32)
    hub = int(np.argmax(np.where(pub, pub_deg, -1)))
    member_flag = np.zeros(n, dtype=bool)
    member_flag[breadth_first_order(_csgraph(indptr, indices, n), hub, directed=True,
                                    return_predecessors=False)] = True
    member_flag &= pub

    rest = pub & ~member_flag
    sizes = np.array([np.count_nonzero(member_flag)])
    if rest.any():
        rest_indptr, rest_indices = _induced(g.indptr, g.indices, rest)
        k = rest_indptr.size - 1
        _, comp = connected_components(_csgraph(rest_indptr, rest_indices, k), directed=False)
        sizes = np.append(sizes, np.bincount(comp))
        # the smallest node of each cluster, the hub's first
        rest_nodes = np.flatnonzero(rest)
        first = np.append(np.argmax(member_flag), rest_nodes[np.unique(comp, return_index=True)[1]])
        best = int(np.lexsort((first, -sizes))[0])
        if best:
            member_flag = np.zeros(n, dtype=bool)
            member_flag[rest_nodes[comp == best - 1]] = True
    public_degree = np.where(member_flag, pub_deg, 0)

    uniq, cnt = np.unique(sizes, return_counts=True)
    census = tuple(zip(uniq[::-1].tolist(), cnt[::-1].tolist()))

    return PublicClusterView(
        member_flag=_freeze(member_flag),
        member_count=int(member_flag.sum()),
        public_degree=_freeze(public_degree),
        public_degree_sum=int(public_degree.sum()),
        cluster_census=census,
    )
