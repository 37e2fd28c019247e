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

The walk itself is one tight loop over the CSR arrays that records
every neighbor selection and nothing else. The node sequence, the tries
per sample, the degrees and public degrees, the selection counters and
the caller's query ledger are all derived from that record afterwards
with NumPy. They take the same values, under the same query conventions,
as charging each query through the :mod:`privwalk.access` facade as it
happens; the facade remains the reference those conventions are
defined and tested by.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .access import AccessModel, QueryLedger
from .graph import GraphError, LabeledGraph, PublicClusterView, largest_public_cluster


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


@dataclass
class SelectionCounters:
    """Per-node neighbor-selection tallies accumulated over the whole walk."""

    successes: dict[int, int]  # selections that hit a public node
    attempts: dict[int, int]  # all selections

    def ratio(self, v: int) -> float:
        return self.successes[v] / self.attempts[v]


class WalkRecord:
    """Ordered walk output: one (node, degree, public-degree value) per sample."""

    __slots__ = ("nodes", "degrees", "public_degrees", "pubdeg_mode", "ledger", "counters")

    def __init__(
        self,
        nodes: np.ndarray,
        degrees: np.ndarray,
        public_degrees: np.ndarray,
        pubdeg_mode: PubdegMode,
        ledger: QueryLedger | None = None,
        counters: SelectionCounters | None = None,
    ):
        self.nodes = nodes
        self.degrees = degrees
        self.public_degrees = public_degrees
        self.pubdeg_mode = pubdeg_mode
        self.ledger = ledger
        self.counters = counters

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
    count_visit_queries: bool = False,
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
        Query accounting; a fresh ledger is created when omitted. Charges
        are added on top of whatever the ledger already holds.
    view
        Precomputed largest-cluster view, to avoid recomputing it per walk.
    count_visit_queries
        Hidden model only: when True, arriving at a sample charges one
        extra query even though the node was already queried as a label
        probe. Default counts each query once.

    Query conventions: under the ideal model every sample visit costs one
    query (labels ride along for free). Under the hidden model the seed's
    own report is free, having been fetched while selecting a seed that
    is public at all; afterwards the only charged queries are the label
    probes, whose reports double as the next sample's neighbor data.
    `exact_hidden` probes every neighbor of each sample once per visit,
    `approx_hidden` probes each selected neighbor. Within a sample the
    arrival charge comes first, then the probes in selection order; with
    ``memoize`` only a node's first charge counts.
    """
    model = AccessModel(model)
    pubdeg_mode = PubdegMode(pubdeg_mode)
    if model is not pubdeg_mode.access_model:
        raise ValueError(
            f"pubdeg mode {pubdeg_mode.value} requires the "
            f"{pubdeg_mode.access_model.value} access model"
        )
    if r < 1:
        raise ValueError("walk length must be at least 1")
    if view is None:
        view = largest_public_cluster(g)
    if g.is_private[seed_node]:
        raise GraphError(f"seed node {seed_node} is private")
    if not view.member_flag[seed_node]:
        raise GraphError(f"seed node {seed_node} is outside the largest public cluster")
    if view.member_count == 1:
        # every sample performs a trailing neighbor selection, which can
        # never succeed when the cluster has no second member
        raise StuckWalkError("largest public cluster is a single node")
    if ledger is None:
        ledger = QueryLedger()

    probes = _select(g, int(seed_node), r, rng_seed)
    # each sample's selections end at its first public hit, which is the
    # next sample; the final sample's trailing hit is selected but unused
    hits = np.flatnonzero(~g.is_private[probes])
    nodes = np.empty(r, dtype=np.int64)
    nodes[0] = seed_node
    nodes[1:] = probes[hits[:-1]]
    tries = np.diff(hits, prepend=-1)
    degs = g.degrees[nodes]

    # distinct nodes renumbered in first-visit order; ``inv`` maps each
    # sample to its node's number
    uniq, first, inv, visits = np.unique(
        nodes, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    distinct, first, visits, inv = uniq[order], first[order], visits[order], rank[inv]
    # a: one public hit per visit; b: every selection made from the node
    attempts = np.bincount(inv, weights=tries).astype(np.int64)
    ids = distinct.tolist()
    counters = SelectionCounters(
        dict(zip(ids, visits.tolist())), dict(zip(ids, attempts.tolist()))
    )

    visit = int(count_visit_queries)
    n = g.node_count
    if pubdeg_mode is PubdegMode.APPROX_HIDDEN:
        pub_out = degs * (visits / attempts)[inv]
        # sample k charges its arrival, if counted, then its own probes
        charged = np.insert(probes, hits - tries + 1, nodes) if visit else probes
        per_sample = tries + visit
        _charge(ledger, n, charged, np.cumsum(per_sample), np.arange(r), per_sample)
        return WalkRecord(nodes, degs, pub_out, pubdeg_mode, ledger, counters)

    # the distinct nodes' neighbor lists, laid end to end
    lens = g.degrees[distinct]
    ends = np.cumsum(lens)
    nbr_ids = g.indices[np.repeat(g.indptr[distinct] - ends + lens, lens) + np.arange(ends[-1])]
    private_run = np.concatenate(([0], np.cumsum(g.is_private[nbr_ids])))
    public = lens - (private_run[ends] - private_run[ends - lens])
    pub_out = public[inv].astype(np.float64)

    if model is AccessModel.IDEAL:
        # every visit is one query; arrivals are never free here
        _charge(ledger, n, nodes, np.arange(1, r + 1), np.arange(r), np.ones(r, np.int64))
    else:
        # a revisit charges the same ids as the node's first visit, so the
        # distinct nodes in first-visit order carry every first charge
        charged = np.insert(nbr_ids, ends - lens, distinct) if visit else nbr_ids
        _charge(ledger, n, charged, np.cumsum(lens + visit), first, degs + visit)
    return WalkRecord(nodes, degs, pub_out, pubdeg_mode, ledger, counters)


def _select(g: LabeledGraph, seed_node: int, r: int, rng_seed) -> np.ndarray:
    """Every neighbor selection of an ``r``-sample walk, in order.

    From the current node a uniform neighbor is drawn, with replacement,
    until a public one is hit; it becomes the next node. The final sample
    makes its selections too. Draw ``i`` picks neighbor
    ``int(u_i * degree)``, with ``u_i`` read from the generator in blocks
    of ``_RAND_BLOCK`` uniforms.
    """
    rng = np.random.default_rng(rng_seed)
    indptr = memoryview(g.indptr)
    indices = memoryview(g.indices)
    private = g.is_private.tobytes()
    buf = memoryview(rng.random(_RAND_BLOCK))
    bi = 0
    probes = array("q")
    push = probes.append
    cur = seed_node
    for _ in range(r):
        lo = indptr[cur]
        deg = indptr[cur + 1] - lo
        while True:
            if bi == _RAND_BLOCK:
                buf = memoryview(rng.random(_RAND_BLOCK))
                bi = 0
            cur = indices[lo + int(buf[bi] * deg)]
            bi += 1
            push(cur)
            if not private[cur]:
                break
    return np.frombuffer(probes, dtype=np.int64)


def _charge(
    ledger: QueryLedger,
    n: int,
    charged: np.ndarray,
    seg_ends: np.ndarray,
    seg_sample: np.ndarray,
    plain_counts: np.ndarray,
) -> None:
    """Add a walk's queries to ``ledger``, one bucket per sample.

    ``charged`` lists queried ids in charge order, cut into segments that
    end at ``seg_ends``; segment ``i`` belongs to sample ``seg_sample[i]``.
    ``plain_counts`` is each sample's charge count without memoization.
    The result equals charging the ids one by one with
    :meth:`QueryLedger.charge`, after one ``begin_sample`` per sample.
    """
    if ledger.memoize:
        # a charge counts when it is the id's first, and the id is new
        ids, first = np.unique(charged, return_index=True)
        if ledger.unique_queried:
            prior = np.fromiter(ledger.unique_queried, np.int64, len(ledger.unique_queried))
            fresh = ~np.isin(ids, prior)
            ids, first = ids[fresh], first[fresh]
        owner = seg_sample[np.searchsorted(seg_ends, first, side="right")]
        counts = np.bincount(owner, minlength=plain_counts.size)
    else:
        queried = np.zeros(n, dtype=bool)
        queried[charged] = True
        ids = np.flatnonzero(queried)
        counts = plain_counts
    ledger.raw_queries += int(counts.sum())
    ledger.per_sample_queries.extend(counts.tolist())
    ledger.unique_queried.update(ids.tolist())
