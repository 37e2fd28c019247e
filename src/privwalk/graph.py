"""Immutable labeled-graph storage and public-cluster decomposition.

A graph holds its adjacency once, in compressed sparse row form
(``indptr``/``indices``, each row's neighbors sorted, every edge listed
in both directions). The CSR is label-independent and built once per
graph; relabeling shares it. This module builds the CSR from edge pairs
and answers every component question with :func:`largest_public_cluster`:
the connectivity check of :func:`build_graph`, the largest component
that edge-list ingest keeps, and the public cluster of each trial. That
call is one union-find pass over the CSR. It and the walk's neighbor
selection are the two compiled steps of ``_kernels.c``, and :func:`_run`
is their one call path: the library that :func:`_kernels` builds, or each
step's line-for-line Python twin in this module when that build fails.
All arrays are frozen after construction and a graph caches nothing, so
graphs and cluster views can be shared freely across threads and processes.
"""

from __future__ import annotations

import copy
import ctypes
import itertools
import logging
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

log = logging.getLogger(__name__)


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
    module docstring). The constructor rejects a malformed CSR, label
    vector or original-id vector with :class:`GraphError`. Instances are
    immutable; relabeling returns a new graph that shares every adjacency
    array.
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
        if orig_ids is not None:
            orig_ids = np.asarray(orig_ids)
            if orig_ids.shape != degrees.shape:
                raise GraphError(f"original ids have shape {orig_ids.shape}, "
                                 f"expected {degrees.shape}")
            orig_ids = _freeze(orig_ids)
        self.orig_ids = orig_ids

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

    One union-find pass over the CSR (``privwalk_clusters``, through
    :func:`_run`) gives each public node the smallest node of its cluster
    as its root, and each public row its count of public entries. A public
    node's public neighbors all lie in its own cluster, so that count is
    its public degree. One ``bincount`` of the roots gives every cluster's
    size at its root, whose id is the cluster's smallest, so ``argmax``
    keeps the tie rule.
    """
    n = g.node_count
    root = np.empty(n, dtype=np.int64)  # n marks a private node
    pub_deg = np.empty(n, dtype=np.int64)
    _run("privwalk_clusters", g.indptr, g.indices, g.is_private, n, root, pub_deg)
    sizes = np.bincount(root, minlength=n + 1)  # nonzero at each root only
    sizes[n] = 0  # the private nodes, which form no cluster
    best = int(np.argmax(sizes))
    if not sizes[best]:
        raise GraphError("graph has no public node")
    member_flag = root == best
    public_degree = np.where(member_flag, pub_deg, 0)

    count = np.bincount(sizes)  # count[0] counts the nodes that are no root
    size = np.flatnonzero(count[1:])[::-1] + 1
    census = tuple(zip(size.tolist(), count[size].tolist()))

    return PublicClusterView(
        member_flag=_freeze(member_flag),
        member_count=int(sizes[best]),
        public_degree=_freeze(public_degree),
        public_degree_sum=int(public_degree.sum()),
        cluster_census=census,
    )


def _run(name: str, *args):
    """Call step ``name`` of :func:`_kernels` on each array's address or, when
    that is None, its Python twin on each array's buffer; return its result.
    """
    lib = _kernels()
    if lib is None:  # looked up at each call, so a patched twin runs
        twins = {"privwalk_select": _select_block, "privwalk_clusters": _cluster_pass}
        step, ref = twins[name], memoryview
    else:
        step, ref = getattr(lib, name), lambda a: a.ctypes.data
    return step(*(ref(a) if isinstance(a, np.ndarray) else a for a in args))


def _select_block(indptr, indices, is_private, u, nu, r, state, out) -> int:
    """``privwalk_select`` of ``_kernels.c``, line for line, on buffers."""
    at, done, k = state[0], state[1], 0
    lo = indptr[at]
    deg = indptr[at + 1] - lo
    while deg > 0 and done < r and k < nu:
        v = indices[lo + int(u[k] * deg)]
        out[k] = v
        k += 1
        if not is_private[v]:
            at = v
            done += 1
            lo = indptr[at]
            deg = indptr[at + 1] - lo
    state[0] = at
    state[1] = done
    return -1 if deg == 0 and done < r else k


def _cluster_pass(indptr, indices, is_private, n, root, pub_deg) -> None:
    """``privwalk_clusters`` of ``_kernels.c``, line for line, on buffers."""
    for v in range(n):
        root[v] = n if is_private[v] else v
        pub_deg[v] = 0
    for v in range(n):
        if is_private[v]:
            continue
        a = _find(root, v)
        for i in range(indptr[v], indptr[v + 1]):
            w = indices[i]
            if is_private[w]:
                continue
            pub_deg[v] += 1
            b = _find(root, w)
            if a < b:
                root[b] = a
            elif b < a:
                root[a] = b
                a = b
    for v in range(n):
        if not is_private[v]:
            root[v] = root[root[v]]


def _find(root, v: int) -> int:
    """``find`` of ``_kernels.c``, line for line, on a buffer."""
    while root[v] != v:
        root[v] = root[root[v]]
        v = root[v]
    return v


@cache
def _kernels():
    """The library built from ``_kernels.c``, or None when it cannot be built.

    It holds the walk's selection step, ``privwalk_select``, and the
    cluster pass, ``privwalk_clusters``. The library is built once per
    process, on first use, with the system C compiler into a private
    temporary directory, which is deleted as soon as the library is
    loaded.
    """
    fallback = "the walk's selection step and the cluster pass run in Python"
    cc = shutil.which("cc")
    if cc is None:
        log.debug("no C compiler found; %s", fallback)
        return None
    source = Path(__file__).with_name("_kernels.c")
    with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as tmp:
        path = Path(tmp, "_kernels.so")
        try:
            subprocess.run([cc, "-O2", "-shared", "-fPIC", "-o", str(path), str(source)],
                           check=True, capture_output=True)
            return _load(path)
        except (OSError, subprocess.SubprocessError) as e:
            log.debug("cannot build %s (%s); %s", source, e, fallback)
            return None


def _load(path) -> ctypes.CDLL:
    """Load a library built from ``_kernels.c`` and declare its steps."""
    lib = ctypes.CDLL(str(path))
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.privwalk_select.restype = i64
    lib.privwalk_select.argtypes = [ptr, ptr, ptr, ptr, i64, i64, ptr, ptr]
    lib.privwalk_clusters.restype = None
    lib.privwalk_clusters.argtypes = [ptr, ptr, ptr, i64, ptr, ptr]
    return lib
