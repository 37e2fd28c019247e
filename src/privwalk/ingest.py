"""File ingestion: edge lists, label files and pre-collected sample records.

Edge lists go through a fixed preprocessing pipeline before becoming a
graph: direction removal, duplicate-edge and self-loop dropping,
restriction to the largest connected component, and dense renumbering to
0..n-1. The original ids are retained on the graph for label joining.
Running the pipeline on its own output changes nothing.

Edge lists and sample files are parsed by ``np.loadtxt`` first. Whenever
NumPy rejects a file, or a check on its arrays fails, the line parser
reads the whole file again: it decides every case NumPy does not accept,
and raises the error that names the first bad line. Files are UTF-8.
"""

from __future__ import annotations

import itertools
import logging
import warnings

import numpy as np
from .graph import LabeledGraph, _components, _csr_from_pairs, _restrict
from .walk import PubdegMode, WalkRecord

log = logging.getLogger(__name__)

_COMMENT_PREFIXES = ("#", "%")


class IngestError(ValueError):
    """A file could not be parsed; the message names the offending line."""


def _data_lines(path):
    # undecodable bytes stay in their line as lone surrogates, so the error
    # names the first bad line wherever the decoder's chunks happen to end
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii():
                try:
                    line.encode()
                except UnicodeEncodeError:
                    raise IngestError(f"{path}: line {lineno}: not valid UTF-8") from None
            s = line.strip()
            if not s or s.startswith(_COMMENT_PREFIXES):
                continue
            yield lineno, s


def _check_int64(path, lineno: int, tokens, values) -> None:
    """Name the line and token of the first of ``values`` outside int64."""
    for token, x in zip(tokens, values):
        if not -(2**63) <= x < 2**63:
            raise IngestError(f"{path}: line {lineno}: {token} is outside the int64 range")


def _parsed(path, numpy_parse, line_parse):
    """``numpy_parse`` of the file's uncommented lines, or ``line_parse(path)``
    when NumPy raises or warns, or ``numpy_parse`` returns None."""
    try:
        with open(path, encoding="utf-8") as f, warnings.catch_warnings():
            warnings.simplefilter("error")
            # loadtxt's own ``comments=`` would also cut ``#`` out of mid-line
            arrays = numpy_parse(
                line for line in f if not line.lstrip().startswith(_COMMENT_PREFIXES)
            )
    except (ValueError, Warning):
        arrays = None
    return line_parse(path) if arrays is None else arrays


def _numpy_edges(lines):
    pairs = np.loadtxt(lines, dtype=np.int64, comments=None, usecols=(0, 1), ndmin=2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]  # drop self-loops
    return (pairs[:, 0], pairs[:, 1]) if pairs.size else None


def _line_edges(path) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` of every edge line but self-loops, parsed line by line."""
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
        _check_int64(path, lineno, parts, (u, v))
        srcs.append(u)
        dsts.append(v)
    if not srcs:
        raise IngestError(f"{path}: no edges found")
    return np.asarray(srcs, dtype=np.int64), np.asarray(dsts, dtype=np.int64)


def load_edge_list(path) -> LabeledGraph:
    """Load and preprocess a whitespace-separated ``src dst`` edge list.

    The file is UTF-8. Lines whose first non-blank character is ``#`` or
    ``%`` are comments. Ids are what Python's ``int`` accepts and must fit
    in int64. Extra columns after the first two (weights, timestamps) are
    ignored. Directions are removed, so ``u v`` and ``v u`` are the same
    edge. NumPy parses the common file; the line parser decides any file
    NumPy rejects, so the accepted grammar is the line parser's.

    The returned graph is all-public, connected (largest component),
    densely renumbered, with the original ids in ``graph.orig_ids``.
    """
    src, dst = _parsed(path, _numpy_edges, _line_edges)
    # dense id space; _csr_from_pairs drops the repeated edges
    ids, dense = np.unique(np.concatenate([src, dst]), return_inverse=True)
    src, dst = dense[: src.size], dense[src.size :]
    indptr, indices = _csr_from_pairs(np.minimum(src, dst), np.maximum(src, dst), ids.size)

    n_comp, comp = _components(indptr, indices, ids.size)
    if n_comp > 1:
        keep = comp == np.argmax(np.bincount(comp))  # ties: the smallest label
        indptr, indices = _restrict(indptr, indices, keep)
        # renumber by dropping the emptied rows
        indptr = indptr[np.append(keep, True)]
        indices = (np.cumsum(keep) - 1)[indices]
        ids = ids[keep]
    return LabeledGraph(indptr, indices, np.zeros(ids.size, dtype=bool), orig_ids=ids)


_PRIVATE_TOKENS = {"1": True, "private": True, "0": False, "public": False}


def load_labels(path, g: LabeledGraph, *, strict: bool = True) -> LabeledGraph:
    """Attach labels from lines of ``original_id flag``.

    ``flag`` is one of ``public``, ``private``, ``0`` (public), ``1``
    (private). In strict mode every graph node must be listed once and
    every listed id must exist in the graph; otherwise unknown ids are
    skipped, a repeated id keeps its last flag, and unlisted nodes default
    to public, each with a warning. The file is UTF-8.
    """
    if g.orig_ids is not None:
        id_of = {int(o): i for i, o in enumerate(g.orig_ids)}
    else:
        id_of = {i: i for i in range(g.node_count)}

    is_private = np.zeros(g.node_count, dtype=bool)
    listed_at = np.zeros(g.node_count, dtype=np.int64)  # 0: not listed
    skipped = repeated = 0
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
        if listed_at[node]:
            if strict:
                raise IngestError(
                    f"{path}: line {lineno}: id {orig} already listed at line {listed_at[node]}"
                )
            repeated += 1
        is_private[node] = flag
        listed_at[node] = lineno

    if skipped or repeated:
        log.warning(
            "%s: skipped %d labels for ids outside the graph; %d repeated ids kept their last label",
            path, skipped, repeated,
        )
    listed = listed_at > 0
    if not listed.all():
        missing = int((~listed).sum())
        if strict:
            raise IngestError(f"{path}: {missing} graph nodes have no label")
        log.warning("%s: %d unlisted nodes default to public", path, missing)
    return g.with_labels(is_private)


def save_labels(g: LabeledGraph, path) -> None:
    """Write one ``original_id flag`` line per node (0 public, 1 private)."""
    ids = g.orig_ids if g.orig_ids is not None else np.arange(g.node_count)
    with open(path, "w") as f:
        for orig, priv in zip(ids, g.is_private):
            f.write(f"{int(orig)} {int(priv)}\n")


_SAMPLE_FIELDS = [("node", np.int64), ("degree", np.int64), ("pubdeg", np.float64)]


def _numpy_samples(lines):
    # the first data line fixes the layout; a file that mixes both falls back
    first = next((line for line in lines if not line.isspace()), "")
    width = len(first.split())
    if width not in (3, 4):
        return None
    fields = [("index", np.int64)] * (width - 3) + _SAMPLE_FIELDS
    rows = np.loadtxt(itertools.chain([first], lines), dtype=fields, comments=None, ndmin=1)
    v, d, ds = (np.ascontiguousarray(rows[name]) for name, _ in _SAMPLE_FIELDS)
    # the line parser compares ``ds <= d`` exactly, as float64 does while d <= 2**53
    if not np.all((0 < ds) & (ds <= d) & (d <= 2**53)):
        return None
    return v, d, ds


def _line_samples(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(nodes, degrees, public_degrees)`` of a sample file, parsed line by line."""
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
        _check_int64(path, lineno, parts, (v, d))
        nodes.append(v)
        degrees.append(d)
        pubdegs.append(ds)
    if not nodes:
        raise IngestError(f"{path}: no samples found")
    return (np.asarray(nodes, dtype=np.int64), np.asarray(degrees, dtype=np.int64),
            np.asarray(pubdegs, dtype=np.float64))


def load_sample_records(path) -> WalkRecord:
    """Load a pre-collected sample file into a walk record.

    Accepts two layouts per line: ``id degree public_degree`` or the walk
    dump format ``index id degree public_degree``; the index is not read.
    Public degrees may be fractional but must be positive and finite and
    can never exceed the degree, so a degree of 0 is rejected too. Ids
    and degrees must fit in int64. Comments and encoding follow
    :func:`load_edge_list`, and so does the parse: NumPy reads a file with
    one layout throughout, and the line parser decides any other file.
    The record is treated as exact hidden-model output; it carries no
    query ledger.
    """
    nodes, degrees, public_degrees = _parsed(path, _numpy_samples, _line_samples)
    return WalkRecord(nodes, degrees, public_degrees, PubdegMode.EXACT_HIDDEN)
