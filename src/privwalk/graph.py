"""Immutable labeled-graph storage and public-cluster decomposition.

A graph holds its adjacency twice, in compressed sparse row form
(``indptr``/``indices``, each row's neighbors sorted). The full
symmetric CSR lists every edge in both directions and is what the walk
reads. The upper-triangle CSR keeps only the entries ``j > i`` of row
``i``, int32 throughout, and is what the component decomposition reads.
Both are label-independent and built once per graph; relabeling shares
them. This module builds and restricts every CSR. All arrays are frozen
after construction and nothing is cached, so graphs and cluster views
can be shared freely across threads and worker processes.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


class GraphError(ValueError):
    """Input violates a structural requirement (connectivity, id range, ...)."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_rate(p: float, name: str = "privacy rate") -> None:
    """Raise :class:`GraphError` unless the privacy rate ``p`` lies in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"{name} must lie in [0, 1], got {p}")


class LabeledGraph:
    """Undirected, connected, simple graph with per-node privacy labels.

    ``is_private[v]`` is True when node ``v`` hides its neighbor list.
    ``upper_indptr``/``upper_indices`` hold the upper triangle of the
    adjacency (see the module docstring). Instances are immutable;
    relabeling returns a new graph that shares every adjacency array.
    """

    __slots__ = ("indptr", "indices", "degrees", "upper_indptr", "upper_indices",
                 "is_private", "orig_ids")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        is_private: np.ndarray,
        orig_ids: np.ndarray | None = None,
    ):
        self.indptr = _freeze(np.asarray(indptr, dtype=np.int64))
        self.indices = _freeze(np.asarray(indices))
        self.degrees = _freeze(np.diff(self.indptr))
        upper_indptr, upper_indices = _upper_csr(self.indices, self.degrees)
        self.upper_indptr = _freeze(upper_indptr)
        self.upper_indices = _freeze(upper_indices)
        self.is_private = _freeze(np.asarray(is_private, dtype=bool))
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
        """Every edge once, as arrays ``(u, v)`` with ``u < v``, ordered by ``u`` then ``v``."""
        return np.repeat(np.arange(self.node_count), np.diff(self.upper_indptr)), self.upper_indices

    # -- labels ---------------------------------------------------------

    @property
    def private_count(self) -> int:
        return int(self.is_private.sum())

    @property
    def private_fraction(self) -> float:
        return self.private_count / self.node_count

    def with_labels(self, is_private: np.ndarray) -> "LabeledGraph":
        """New graph that shares this one's adjacency arrays, with new privacy labels."""
        is_private = np.asarray(is_private, dtype=bool)
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
    n_comp, _ = _components(g.upper_indptr, g.upper_indices, n)
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


def _upper_csr(indices: np.ndarray, degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper triangle of a symmetric CSR with sorted rows, as int32 arrays.

    Row ``i`` keeps its entries ``j > i``, a suffix of the row. The only
    temporaries the size of ``indices`` are an int32 row id and a bool
    mask per entry.
    """
    n = degrees.size
    above = indices > np.repeat(np.arange(n, dtype=np.int32), degrees)
    upper_indices = np.compress(above, indices, out=np.empty(np.count_nonzero(above), np.int32))
    # by symmetry, row i has as many entries below the diagonal as column i
    # has above it
    upper_indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(degrees - np.bincount(upper_indices, minlength=n), out=upper_indptr[1:])
    return upper_indptr, upper_indices


def _restrict(indptr, indices, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR entries whose two ends are both ``keep``; every other row is empty.

    The new ``indptr`` is int64; ``indices`` keeps its dtype.
    """
    kept = np.flatnonzero(np.repeat(keep, np.diff(indptr)) & keep[indices])
    return np.searchsorted(kept, indptr), indices[kept]


def _components(indptr: np.ndarray, indices: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """Connected components of an upper-triangle CSR: count and per-node label.

    The CSR holds each undirected edge once, in the row of its smaller
    end, as :func:`_upper_csr` makes it and :func:`_restrict` keeps it.
    SciPy's undirected (weak) path adds the transpose, so its search
    follows every edge both ways. Given int32 index arrays and float64
    data, that transpose is the only copy SciPy makes. Labels number the
    components in order of their smallest node id, so ``np.argmax`` of
    the label counts breaks size ties toward that node.
    """
    adj = csr_matrix(
        (np.ones(indices.size), indices.astype(np.int32, copy=False),
         indptr.astype(np.int32, copy=False)),
        shape=(n, n),
    )
    return connected_components(adj, directed=False)


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

    Ties on size are broken toward the cluster containing the smallest
    node id. Raises :class:`GraphError` when the graph has no public node.
    """
    pub = ~g.is_private
    if not pub.any():
        raise GraphError("graph has no public node")
    n = g.node_count
    indptr, indices = _restrict(g.upper_indptr, g.upper_indices, pub)
    # public-neighbor count per node, the public entries of its row plus
    # those of its column; for cluster members this equals the number of
    # neighbors inside their own cluster
    pub_deg = np.diff(indptr) + np.bincount(indices, minlength=n)
    _, comp = _components(indptr, indices, n)

    # private nodes are isolated here, so each component with a public
    # node is a public cluster
    counts = np.bincount(comp[pub])
    member_flag = comp == np.argmax(counts)
    public_degree = np.where(member_flag, pub_deg, 0)

    uniq, cnt = np.unique(counts[counts > 0], return_counts=True)
    census = tuple(zip(uniq[::-1].tolist(), cnt[::-1].tolist()))

    return PublicClusterView(
        member_flag=_freeze(member_flag),
        member_count=int(member_flag.sum()),
        public_degree=_freeze(public_degree),
        public_degree_sum=int(public_degree.sum()),
        cluster_census=census,
    )
