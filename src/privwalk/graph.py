"""Immutable labeled-graph storage and public-cluster decomposition.

Adjacency is held in compressed sparse row form (``indptr``/``indices``
with sorted neighbor lists) plus one privacy flag per node; this module
builds and restricts every CSR. All arrays are frozen after construction
and nothing is cached, so graphs and cluster views can be shared freely
across threads and worker processes.
"""

from __future__ import annotations

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
    Instances are immutable; relabeling returns a new graph that shares
    the adjacency arrays.
    """

    __slots__ = ("indptr", "indices", "is_private", "orig_ids", "degrees")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        is_private: np.ndarray,
        orig_ids: np.ndarray | None = None,
    ):
        self.indptr = _freeze(np.asarray(indptr, dtype=np.int64))
        self.indices = _freeze(np.asarray(indices))
        self.is_private = _freeze(np.asarray(is_private, dtype=bool))
        self.orig_ids = _freeze(np.asarray(orig_ids)) if orig_ids is not None else None
        self.degrees = _freeze(np.diff(self.indptr))

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

    def edge_sources(self) -> np.ndarray:
        """Source id for every directed adjacency entry, aligned with ``indices``."""
        return np.repeat(np.arange(self.node_count, dtype=np.int64), self.degrees)

    # -- labels ---------------------------------------------------------

    @property
    def private_count(self) -> int:
        return int(self.is_private.sum())

    @property
    def private_fraction(self) -> float:
        return self.private_count / self.node_count

    def with_labels(self, is_private: np.ndarray) -> "LabeledGraph":
        """New graph with the same adjacency but different privacy labels."""
        is_private = np.asarray(is_private, dtype=bool)
        if is_private.shape != (self.node_count,):
            raise GraphError("label vector length does not match node count")
        return LabeledGraph(self.indptr, self.indices, is_private, self.orig_ids)

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

    e = np.fromiter(edges, dtype=np.dtype((np.int64, 2)))
    u, v = e[:, 0], e[:, 1]
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

    indptr, indices = _csr_from_pairs(key // n, key % n, n)
    n_comp, _ = _components(indptr, indices, n)
    if n_comp != 1:
        raise GraphError(f"graph is not connected ({n_comp} components)")
    return LabeledGraph(indptr, indices, is_private)


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


def _restrict(indptr, indices, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR entries whose two ends are both ``keep``; every other row is empty."""
    entry = np.repeat(keep, np.diff(indptr)) & keep[indices]
    kept = np.zeros(entry.size + 1, dtype=np.int64)
    np.cumsum(entry, out=kept[1:])
    return kept[indptr], indices[entry]


def _components(indptr: np.ndarray, indices: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """Connected components of a symmetric CSR: count and per-node label.

    A symmetric CSR's strong components are its connected components, and
    SciPy's strong path skips the transpose its undirected path builds;
    int32 indices and float64 data are the dtypes it works in, so SciPy
    copies nothing. Labels number the components in order of their
    smallest node id, so ``np.argmax`` of the label counts breaks size
    ties toward that node.
    """
    data = np.ones(indices.size)
    adj = csr_matrix((data, indices.astype(np.int32), indptr.astype(np.int32)), shape=(n, n))
    return connected_components(adj, directed=True, connection="strong")


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
    indptr, indices = _restrict(g.indptr, g.indices, pub)
    # public-neighbor count per node; for cluster members this equals the
    # number of neighbors inside their own cluster
    pub_deg = np.diff(indptr)
    _, comp = _components(indptr, indices, g.node_count)

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
