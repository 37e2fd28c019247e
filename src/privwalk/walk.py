"""Re-weighted random walk that samples only public nodes.

At each step the walker draws a uniform neighbor of the current node,
with replacement, and redraws whenever the selection lands on a private
node. Only public nodes enter the sample, the Markov property is
preserved, and the walk's stationary probability of a cluster member is
its public degree over the cluster's public-degree sum.

Per visited node the walker keeps selection counters: ``b`` total
neighbor selections and ``a`` selections that hit a public node. In the
approximate mode the public degree of a sampled node is estimated as
``degree * a / b`` without ever querying the neighborhood's labels
exhaustively.

The walk itself is one block loop over the CSR arrays that records
every neighbor selection and nothing else. Each block of uniforms goes,
with the plain arrays, to the selection step through
:func:`privwalk.graph._run`, the one call path into the compiled steps
and their Python twins. The compiled step and its twin select the same
neighbors bit for bit, and both stop at a node without neighbors, where
the walk raises. One NumPy pass over that record derives the node
sequence, the tries per sample, the degrees and the selection counters
once, then each requested mode's public degrees and query ledger. A
ledger holds two totals, the raw query count and the distinct queried
ids, and they equal what charging each query as it happens gives;
``tests/oracles.py`` holds that query-by-query reference, which defines
the query conventions and against which the tests hold this walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from . import graph
from .graph import GraphError, LabeledGraph, PublicClusterView, largest_public_cluster


class AccessModel(Enum):
    """``ideal``: a node's report carries each neighbor's privacy flag.
    ``hidden``: ids only; learning a label costs a query of that node."""

    IDEAL = "ideal"
    HIDDEN = "hidden"


class QueryLedger:
    """A walk's raw query count and the sorted int64 array of queried ids.

    With ``memoize`` enabled a repeat query of an already-queried node is
    assumed to be answered from cache and is not counted. Default is off,
    which matches crawlers that do not store past answers. Only the walk
    in this module fills a ledger, and it fills an empty one.
    """

    __slots__ = ("raw_queries", "unique_queried", "memoize")

    def __init__(self, memoize: bool = False):
        self.raw_queries = 0
        self.unique_queried = np.empty(0, dtype=np.int64)
        self.memoize = memoize

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryLedger(raw={self.raw_queries}, unique={self.unique_queried.size}, "
            f"memoize={self.memoize})"
        )


class StuckWalkError(RuntimeError):
    """The walk cannot leave its seed (the public cluster is a single node)."""


class PubdegMode(Enum):
    """How the public degree of each sample is obtained.

    exact_ideal   read neighbor labels from the sample's own report.
    exact_hidden  probe every neighbor once per visit (expensive, exact).
    approx_hidden estimate from the selection counters (cheap).
    """

    EXACT_IDEAL = "exact_ideal"
    EXACT_HIDDEN = "exact_hidden"
    APPROX_HIDDEN = "approx_hidden"

    @property
    def access_model(self) -> AccessModel:
        return AccessModel.IDEAL if self is PubdegMode.EXACT_IDEAL else AccessModel.HIDDEN

    def check_model(self, model: AccessModel) -> None:
        """Raise ValueError unless ``model`` is this mode's access model."""
        if model is not self.access_model:
            raise ValueError(
                f"pubdeg_mode = {self.value} requires "
                f"model = {self.access_model.value}, got model = {model.value}"
            )


@dataclass
class SelectionCounters:
    """Per-node neighbor-selection tallies accumulated over the whole walk."""

    successes: dict[int, int]  # selections that hit a public node
    attempts: dict[int, int]  # all selections

    def ratio(self, v: int) -> float:
        return self.successes[v] / self.attempts[v]


@dataclass(eq=False, slots=True)
class WalkRecord:
    """Ordered walk output: one (node, degree, public-degree value) per sample."""

    nodes: np.ndarray
    degrees: np.ndarray
    public_degrees: np.ndarray
    pubdeg_mode: PubdegMode
    ledger: QueryLedger | None = None
    counters: SelectionCounters | None = None

    @property
    def r(self) -> int:
        return self.nodes.size

    def __len__(self) -> int:
        return self.nodes.size

    def samples(self) -> Iterator[tuple[int, int, float]]:
        for v, d, ds in zip(self.nodes, self.degrees, self.public_degrees):
            yield int(v), int(d), float(ds)

    def dump(self, path) -> None:
        """Write one line per sample: ``index node_id degree public_degree``.

        Floats are written with full round-trip precision so a reloaded
        record yields identical estimates.
        """
        with open(path, "w") as f:
            for k, (v, d, ds) in enumerate(self.samples(), start=1):
                f.write(f"{k} {v} {d} {ds!r}\n")


def stationary_distribution(view: PublicClusterView) -> np.ndarray:
    """Stationary probability of each node: public degree over its sum.

    Zero outside the cluster. Requires a cluster with at least one edge.
    """
    if view.public_degree_sum <= 0:
        raise ValueError("cluster has no internal edge; stationary law undefined")
    return view.public_degree / float(view.public_degree_sum)


def pick_seed_node(view: PublicClusterView, rng_seed) -> int:
    """Uniform member of the cluster, drawn from ``default_rng(rng_seed)``."""
    members = view.members
    return int(members[np.random.default_rng(rng_seed).integers(members.size)])


_RAND_BLOCK = 1 << 14


def run_walk(
    g: LabeledGraph,
    model: AccessModel | str,
    seed_node: int,
    r: int,
    pubdeg_mode: PubdegMode | str,
    rng_seed,
    ledger: QueryLedger | None = None,
    *,
    view: PublicClusterView | None = None,
) -> WalkRecord:
    """Run an ``r``-sample walk from a public seed on the largest cluster.

    Parameters
    ----------
    model, pubdeg_mode
        Access model and public-degree mode; the mode dictates the model
        (`exact_ideal` needs ideal access, the other two hidden access).
    rng_seed
        Anything accepted by :func:`numpy.random.default_rng`. Walks are
        reproducible given the seed, and all three modes consume the
        random stream identically, so they visit the same node sequence.
    ledger
        Query accounting; a fresh ledger is created when omitted. The walk
        fills an empty ledger and raises ValueError for one that already
        holds charges.
    view
        The largest-cluster view of ``g``, to avoid recomputing it per
        walk; computed when omitted. The exact modes read each sample's
        public degree from it.

    Query conventions: under the ideal model every sample visit costs one
    query (labels ride along for free). Under the hidden model the seed's
    own report is free, having been fetched while selecting a seed that
    is public at all; afterwards the only charged queries are the label
    probes, whose reports double as the next sample's neighbor data.
    `exact_hidden` probes every neighbor of each sample once per visit,
    `approx_hidden` probes each selected neighbor. Arriving at a sample
    costs nothing more. With ``memoize`` only a node's first query counts.
    """
    model = AccessModel(model)
    pubdeg_mode = PubdegMode(pubdeg_mode)
    pubdeg_mode.check_model(model)
    if ledger is None:
        ledger = QueryLedger()
    elif ledger.raw_queries or ledger.unique_queried.size:
        raise ValueError("the ledger already holds charges; pass an empty QueryLedger")
    if view is None:
        view = largest_public_cluster(g)
    probes = _selections(g, view, seed_node, r, rng_seed)
    return _record(g, view, int(seed_node), probes, r, (pubdeg_mode,), (ledger,))[0]


def _selections(
    g: LabeledGraph, view: PublicClusterView, seed_node: int, r: int, rng_seed
) -> np.ndarray:
    """Check an ``r``-sample walk from ``seed_node``, then make its selections.

    The selections do not depend on the public-degree mode, so one pass
    can feed the records of several modes.
    """
    if r < 1:
        raise ValueError("walk length must be at least 1")
    if not 0 <= seed_node < g.node_count:
        raise GraphError(f"seed node {seed_node} is outside 0..{g.node_count - 1}")
    if g.is_private[seed_node]:
        raise GraphError(f"seed node {seed_node} is private")
    if not view.member_flag[seed_node]:
        raise GraphError(f"seed node {seed_node} is outside the largest public cluster")
    if view.member_count == 1:
        # every sample performs a trailing neighbor selection, which can
        # never succeed when the cluster has no second member
        raise StuckWalkError("largest public cluster is a single node")
    return _select(g, int(seed_node), r, rng_seed)


def _record(g: LabeledGraph, view: PublicClusterView, seed_node: int, probes, r: int, modes,
            ledgers) -> list[WalkRecord]:
    """The record of each of ``modes`` for the first ``r`` samples of a walk.

    ``probes`` is what :func:`_selections` returned for ``seed_node`` on
    ``view``, the view of ``g``, for at least ``r`` samples; mode ``i``
    fills ``ledgers[i]``, which must be empty.
    """
    # each sample's selections end at its first public hit, which is the
    # next sample; the r-th sample's trailing hit is selected but unused.
    # _select reads uniforms in order, so this cut is the r-sample walk
    hits = np.flatnonzero(~g.is_private[probes])[:r]
    probes = probes[: hits[-1] + 1]
    nodes = np.empty(r, dtype=np.int64)
    nodes[0] = seed_node
    nodes[1:] = probes[hits[:-1]]
    tries = np.diff(hits, prepend=-1)
    degs = g.degrees[nodes]

    # ids are dense: scattered in reverse, each node keeps its first sample
    n = g.node_count
    at = np.empty(n, dtype=np.int64)
    at[nodes[::-1]] = np.arange(r - 1, -1, -1)
    owner = at[nodes]  # the first sample of each sample's node
    first = np.flatnonzero(owner == np.arange(r))  # first visits, in order
    distinct = nodes[first]
    # a: one public hit per visit; b: every selection made from the node
    visits = np.bincount(owner)
    attempts = np.bincount(owner, weights=tries).astype(np.int64)
    ids = distinct.tolist()
    counters = SelectionCounters(
        dict(zip(ids, visits[first].tolist())), dict(zip(ids, attempts[first].tolist()))
    )

    records = []
    for mode, ledger in zip(modes, ledgers):
        if mode is PubdegMode.APPROX_HIDDEN:
            pub_out = degs * (visits[owner] / attempts[owner])
            _charge(ledger, n, probes, probes.size)
        else:
            # samples are cluster members, so all their public neighbors are members
            pub_out = view.public_degree[nodes].astype(np.float64)
        if mode is PubdegMode.EXACT_IDEAL:
            # every visit is one query; arrivals are never free here
            _charge(ledger, n, nodes, r)
        elif mode is PubdegMode.EXACT_HIDDEN:
            # each visit probes the node's neighbor list; a revisit probes
            # the same ids, so the distinct nodes' lists hold every id
            lens = g.degrees[distinct]
            ends = np.cumsum(lens)
            starts = np.repeat(g.indptr[distinct] - ends + lens, lens)
            nbr_ids = g.indices[starts + np.arange(ends[-1])]
            _charge(ledger, n, nbr_ids, degs.sum())
        records.append(WalkRecord(nodes, degs, pub_out, mode, ledger, counters))
    return records


def _select(g: LabeledGraph, seed_node: int, r: int, rng_seed) -> np.ndarray:
    """Every neighbor selection of an ``r``-sample walk, in order.

    From the current node a uniform neighbor is drawn, with replacement,
    until a public one is hit; it becomes the next node. The final sample
    makes its selections too. Draw ``i`` picks neighbor
    ``int(u_i * degree)``, with ``u_i`` read from the generator in blocks
    of ``_RAND_BLOCK`` uniforms. Raises IndexError naming the node when
    the walk must select from a node without neighbors.

    Each block goes to ``privwalk_select`` through :func:`privwalk.graph._run`;
    its compiled form and its Python twin compute each pick in double
    precision, so they return the same array for every seed.
    """
    rng = np.random.default_rng(rng_seed)
    u = np.empty(_RAND_BLOCK)
    state = np.array([seed_node, 0], dtype=np.int64)  # node walked from, samples done
    out = np.empty(r + _RAND_BLOCK, dtype=np.int64)  # each sample selects at least once
    n = 0
    while state[1] < r:
        if out.size - n < _RAND_BLOCK:  # a block writes at most one selection per uniform
            grown = np.empty(2 * out.size, dtype=np.int64)
            grown[:n] = out[:n]
            out = grown
        rng.random(out=u)
        k = graph._run("privwalk_select", g.indptr, g.indices, g.is_private, u, _RAND_BLOCK, r,
                       state, out[n:])
        if k < 0:
            raise IndexError(f"node {state[0]} has no neighbor to select")
        n += k
    return out[:n]


def _charge(ledger: QueryLedger, n: int, charged: np.ndarray, raw: int) -> None:
    """Fill ``ledger`` with a walk's queries over node ids ``0..n-1``.

    ``charged`` holds every queried id, repeats allowed, and ``raw`` counts
    the queries without memoization. With ``memoize`` each distinct id
    counts once.
    """
    queried = np.zeros(n, dtype=bool)
    queried[charged] = True
    ledger.unique_queried = np.flatnonzero(queried)
    ledger.raw_queries = int(ledger.unique_queried.size if ledger.memoize else raw)
