"""File ingestion: edge lists, label files and pre-collected sample records.

Edge lists go through a fixed preprocessing pipeline before becoming a
graph: direction removal, duplicate-edge and self-loop dropping,
restriction to the largest connected component, and dense renumbering to
0..n-1. The original ids are retained on the graph for label joining.
Running the pipeline on its own output changes nothing.

Edge lists and sample files are read by one compiled reader,
``privwalk_read`` of ``_kernels.c``. It takes the file's bytes once and
reads lines of ASCII decimal tokens, blank lines and comments up to the
first line it cannot decide. From that line on the line parser reads the
file, so the line parser's rules are the one grammar, and it raises the
error that names the first bad line. Without a C compiler the line parser
reads every line. Files are UTF-8.
"""

from __future__ import annotations

import io
import logging

import numpy as np
from .graph import LabeledGraph, _csr_from_pairs, _run, largest_public_cluster
from .walk import PubdegMode, WalkRecord

log = logging.getLogger(__name__)

_COMMENT_PREFIXES = ("#", "%")


class IngestError(ValueError):
    """A file could not be parsed; the message names the offending line."""


def _data_lines(path, raw=None, first: int = 1):
    """``(lineno, stripped line)`` of each data line of the file at ``path``,
    or of ``raw``, a binary stream of its lines from line ``first`` on."""
    # undecodable bytes stay in their line as lone surrogates, so the error
    # names the first bad line wherever the decoder's chunks happen to end
    with open(path, "rb") if raw is None else raw as f:
        text = io.TextIOWrapper(f, encoding="utf-8", errors="surrogateescape")
        for lineno, line in enumerate(text, start=first):
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


def _read(path, dtypes, line_parse, what: str) -> list[np.ndarray]:
    """One array of ``dtypes`` per column of the file's rows: ``privwalk_read``
    reads them up to the first line it cannot decide, and
    ``line_parse(path, raw, lineno)`` the rest, from ``raw``, a stream of
    the bytes from that line on."""
    with open(path, "rb") as f:  # read once: a pipe cannot be read again
        data = f.read()
    cap = data.count(b"\n") + 1  # at most one row a line
    columns = [np.empty(cap, dtype) for dtype in dtypes]
    state = np.zeros(2, dtype=np.int64)
    x = columns[2] if len(columns) == 3 else None
    k = _run("privwalk_read", np.frombuffer(data, dtype=np.uint8), len(data), len(columns), cap,
             state, *columns[:2], x)
    start, lineno = state.tolist()
    columns = [c[:k] for c in columns]
    if start < len(data):
        raw = io.BytesIO(data)
        raw.seek(start)
        rest = line_parse(path, raw, lineno)
        columns = [np.concatenate((c, np.asarray(r, dtype=c.dtype)))
                   for c, r in zip(columns, rest)]
    if not columns[0].size:
        raise IngestError(f"{path}: no {what} found")
    return columns


def _line_edges(path, raw, first: int) -> tuple[list[int], list[int]]:
    """``(src, dst)`` of every edge line but self-loops in ``raw``, the bytes
    of ``path`` from line ``first`` on, parsed line by line."""
    srcs: list[int] = []
    dsts: list[int] = []
    for lineno, s in _data_lines(path, raw, first):
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
    return srcs, dsts


def load_edge_list(path) -> LabeledGraph:
    """Load and preprocess a whitespace-separated ``src dst`` edge list.

    The file is UTF-8. Lines whose first non-blank character is ``#`` or
    ``%`` are comments. Ids are what Python's ``int`` accepts and must fit
    in int64. Extra columns after the first two (weights, timestamps) are
    ignored. Directions are removed, so ``u v`` and ``v u`` are the same
    edge. The compiled reader reads the file up to the first line it
    cannot decide and the line parser reads the rest, so the accepted
    grammar is the line parser's.

    The returned graph is all-public, connected (largest component),
    densely renumbered, with the original ids in ``graph.orig_ids``.
    """
    # dense id space over both ends, sources first, the parsed columns freed
    # before the sort; _csr_from_pairs takes either order, drops repeats
    ids, dense = np.unique(
        np.concatenate(_read(path, (np.int64, np.int64), _line_edges, "edges")),
        return_inverse=True)
    src, dst = np.split(dense, 2)
    indptr, indices = _csr_from_pairs(src, dst, ids.size)
    del src, dst, dense  # freed before the component search
    g = LabeledGraph(indptr, indices, np.zeros(ids.size, dtype=bool), orig_ids=ids)

    # the graph is all-public: its public clusters are its components
    view = largest_public_cluster(g)
    if view.member_count < ids.size:
        keep = view.member_flag  # ties: the component holding the smallest id
        # a component's rows keep all their entries; renumber by dropping
        # the other rows
        indptr = np.zeros(view.member_count + 1, dtype=np.int64)
        np.cumsum(g.degrees[keep], out=indptr[1:])
        indices = (np.cumsum(keep) - 1)[g.indices[np.repeat(keep, g.degrees)]]
        g = LabeledGraph(indptr, indices, np.zeros(view.member_count, dtype=bool),
                         orig_ids=ids[keep])
    return g


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


def _line_samples(path, raw, first: int) -> tuple[list[int], list[int], list[float]]:
    """``(nodes, degrees, public_degrees)`` of the sample lines in ``raw``, the
    bytes of ``path`` from line ``first`` on, parsed line by line."""
    nodes: list[int] = []
    degrees: list[int] = []
    pubdegs: list[float] = []
    for lineno, s in _data_lines(path, raw, first):
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
    return nodes, degrees, pubdegs


def load_sample_records(path) -> WalkRecord:
    """Load a pre-collected sample file into a walk record.

    Accepts two layouts per line: ``id degree public_degree`` or the walk
    dump format ``index id degree public_degree``; the index is not read.
    Public degrees may be fractional but must be positive and finite and
    can never exceed the degree, so a degree of 0 is rejected too. Ids
    and degrees must fit in int64. Comments and encoding follow
    :func:`load_edge_list`, and so does the parse: the compiled reader
    reads up to the first line it cannot decide, the line parser the rest.
    The record is treated as exact hidden-model output; it carries no
    query ledger.
    """
    nodes, degrees, public_degrees = _read(path, (np.int64, np.int64, np.float64),
                                           _line_samples, "samples")
    return WalkRecord(nodes, degrees, public_degrees, PubdegMode.EXACT_HIDDEN)
