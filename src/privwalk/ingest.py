"""File ingestion: edge lists, label files and pre-collected sample records.

Edge lists go through a fixed preprocessing pipeline before becoming a
graph: direction removal, duplicate-edge and self-loop dropping,
restriction to the largest connected component, and dense renumbering to
0..n-1. The original ids are retained on the graph for label joining.
Running the pipeline on its own output changes nothing.
"""

from __future__ import annotations

import logging

import numpy as np
from .graph import ALL_PUBLIC, LabeledGraph, LabelOrigin, _components, _csr_from_pairs
from .walk import PubdegMode, WalkRecord

log = logging.getLogger(__name__)

_COMMENT_PREFIXES = ("#", "%")


class IngestError(ValueError):
    """A file could not be parsed; the message names the offending line."""


def _data_lines(path):
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            s = line.strip()
            if not s or s.startswith(_COMMENT_PREFIXES):
                continue
            yield lineno, s


def _beyond_int64(path, columns) -> IngestError:
    """The error for the first data line whose ``columns(parts)`` integers
    lie outside int64; the loaders call this only after NumPy overflowed."""
    for lineno, s in _data_lines(path):
        for token in columns(s.split()):
            if not -(2**63) <= int(token) < 2**63:
                return IngestError(f"{path}: line {lineno}: {token} is outside the int64 range")
    return IngestError(f"{path}: an integer is outside the int64 range")


def load_edge_list(path) -> LabeledGraph:
    """Load and preprocess a whitespace-separated ``src dst`` edge list.

    Lines starting with ``#`` or ``%`` are comments. Extra columns after
    the first two (weights, timestamps) are ignored. Directions are
    removed, so ``u v`` and ``v u`` are the same edge. Ids must fit in
    int64.

    The returned graph is all-public, connected (largest component),
    densely renumbered, with the original ids in ``graph.orig_ids``.
    """
    srcs: list[int] = []
    dsts: list[int] = []
    for lineno, s in _data_lines(path):
        parts = s.split()
        if len(parts) < 2:
            raise IngestError(f"{path}: line {lineno}: expected 'src dst', got {s!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise IngestError(
                f"{path}: line {lineno}: non-integer node id in {s!r}"
            ) from None
        if u == v:
            continue  # self-loop
        srcs.append(u)
        dsts.append(v)
    if not srcs:
        raise IngestError(f"{path}: no edges found")

    try:
        src = np.asarray(srcs, dtype=np.int64)
        dst = np.asarray(dsts, dtype=np.int64)
    except OverflowError:
        # self-loop lines were dropped above, so they cannot have overflowed
        raise _beyond_int64(
            path, lambda parts: () if int(parts[0]) == int(parts[1]) else parts[:2]
        ) from None

    # dense id space, then canonical undirected dedup
    ids = np.unique(np.concatenate([src, dst]))
    n = ids.size
    src = np.searchsorted(ids, src)
    dst = np.searchsorted(ids, dst)
    key = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst))
    indptr, indices = _csr_from_pairs(key // n, key % n, n)

    n_comp, comp = _components(indptr, indices, n)
    if n_comp > 1:
        # keep the largest component (ties: smallest label); components are
        # closed, so masking entries by destination keeps exactly its rows
        keep = comp == np.argmax(np.bincount(comp))
        remap = np.cumsum(keep) - 1
        degrees = np.diff(indptr)[keep]
        indices = remap[indices[keep[indices]]]
        indptr = np.zeros(degrees.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        ids = ids[keep]
    return LabeledGraph(
        indptr, indices, np.zeros(ids.size, dtype=bool), ALL_PUBLIC, orig_ids=ids
    )


_PRIVATE_TOKENS = {"1": True, "private": True, "0": False, "public": False}


def load_labels(path, g: LabeledGraph, *, strict: bool = True) -> LabeledGraph:
    """Attach labels from lines of ``original_id flag``.

    ``flag`` is one of ``public``, ``private``, ``0`` (public), ``1``
    (private). In strict mode every graph node must be listed and every
    listed id must exist in the graph; otherwise unknown ids are skipped
    with a warning and unlisted nodes default to public.
    """
    if g.orig_ids is not None:
        id_of = {int(o): i for i, o in enumerate(g.orig_ids)}
    else:
        id_of = {i: i for i in range(g.node_count)}

    is_private = np.zeros(g.node_count, dtype=bool)
    listed = np.zeros(g.node_count, dtype=bool)
    skipped = 0
    for lineno, s in _data_lines(path):
        parts = s.split()
        if len(parts) != 2:
            raise IngestError(f"{path}: line {lineno}: expected 'id flag', got {s!r}")
        flag = _PRIVATE_TOKENS.get(parts[1].lower())
        if flag is None:
            raise IngestError(f"{path}: line {lineno}: unknown flag {parts[1]!r}")
        try:
            orig = int(parts[0])
        except ValueError:
            raise IngestError(f"{path}: line {lineno}: non-integer id {parts[0]!r}") from None
        node = id_of.get(orig)
        if node is None:
            if strict:
                raise IngestError(f"{path}: line {lineno}: id {orig} not in graph")
            skipped += 1
            continue
        is_private[node] = flag
        listed[node] = True

    if skipped:
        log.warning("%s: skipped %d labels for ids outside the graph", path, skipped)
    if not listed.all():
        missing = int((~listed).sum())
        if strict:
            raise IngestError(f"{path}: {missing} graph nodes have no label")
        log.warning("%s: %d unlisted nodes default to public", path, missing)
    return g.with_labels(is_private, LabelOrigin("file"))


def save_labels(g: LabeledGraph, path) -> None:
    """Write one ``original_id flag`` line per node (0 public, 1 private)."""
    ids = g.orig_ids if g.orig_ids is not None else np.arange(g.node_count)
    with open(path, "w") as f:
        for orig, priv in zip(ids, g.is_private):
            f.write(f"{int(orig)} {int(priv)}\n")


def load_sample_records(path) -> WalkRecord:
    """Load a pre-collected sample file into a walk record.

    Accepts two layouts per line: ``id degree public_degree`` or the walk
    dump format ``index id degree public_degree``. Public degrees may be
    fractional but must be positive and finite and can never exceed the
    degree, so a degree of 0 is rejected too. Ids and degrees must fit
    in int64. The record is treated as exact hidden-model output; it
    carries no query ledger.
    """
    nodes: list[int] = []
    degrees: list[int] = []
    pubdegs: list[float] = []
    for lineno, s in _data_lines(path):
        parts = s.split()
        if len(parts) == 4:
            parts = parts[1:]  # leading sample index
        if len(parts) != 3:
            raise IngestError(
                f"{path}: line {lineno}: expected 'id degree public_degree', got {s!r}"
            )
        try:
            v = int(parts[0])
            d = int(parts[1])
            ds = float(parts[2])
        except ValueError:
            raise IngestError(f"{path}: line {lineno}: malformed sample {s!r}") from None
        if not 0 < ds <= d:  # NaN fails every comparison
            if d < 0 or ds < 0:
                raise IngestError(f"{path}: line {lineno}: negative degree value")
            if ds > d:
                raise IngestError(
                    f"{path}: line {lineno}: public degree {ds} exceeds degree {d}"
                )
            if ds == 0:
                raise IngestError(f"{path}: line {lineno}: public degree {ds} is not positive")
            raise IngestError(f"{path}: line {lineno}: non-finite public degree {ds}")
        nodes.append(v)
        degrees.append(d)
        pubdegs.append(ds)
    if not nodes:
        raise IngestError(f"{path}: no samples found")
    try:
        node_arr = np.asarray(nodes, dtype=np.int64)
        degree_arr = np.asarray(degrees, dtype=np.int64)
    except OverflowError:
        raise _beyond_int64(path, lambda parts: parts[-3:-1]) from None
    return WalkRecord(
        node_arr,
        degree_arr,
        np.asarray(pubdegs, dtype=np.float64),
        PubdegMode.EXACT_HIDDEN,
        ledger=None,
        counters=None,
    )
