"""Query facade for the two neighbor-data access models.

The facade defines what each piece of neighbor information costs: a
crawler gets it from :func:`query_node` (or the bulk variant
:func:`probe_all_neighbors`), and every query is charged to a
:class:`QueryLedger`. The walk in :mod:`privwalk.walk` reads the graph
arrays directly and fills the ledger in bulk after its loop, with the
counts these functions would have charged; the tests hold it to that.

Under the ``ideal`` model a report carries each neighbor's privacy flag.
Under the ``hidden`` model it carries ids only; learning a label costs a
further query of that node.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graph import LabeledGraph


class AccessModel(Enum):
    IDEAL = "ideal"
    HIDDEN = "hidden"


class PrivateNodeError(Exception):
    """Raised when a queried node is private. The query still counts."""

    def __init__(self, node: int):
        super().__init__(f"node {node} is private")
        self.node = node


@dataclass(slots=True)
class NeighborReport:
    """Answer to one node query."""

    queried_id: int
    neighbor_ids: np.ndarray
    neighbor_private: np.ndarray | None  # None under the hidden model
    model: AccessModel

    @property
    def degree(self) -> int:
        return len(self.neighbor_ids)

    @property
    def entries(self) -> list[tuple[int, str | None]]:
        """Neighbor list as (id, 'public'/'private'/None) tuples."""
        if self.neighbor_private is None:
            return [(int(v), None) for v in self.neighbor_ids]
        return [
            (int(v), "private" if p else "public")
            for v, p in zip(self.neighbor_ids, self.neighbor_private)
        ]


class QueryLedger:
    """Counts raw queries, distinct queried nodes and per-sample costs.

    With ``memoize`` enabled a repeat query of an already-queried node is
    assumed to be answered from cache and is not counted. Default is off,
    which matches crawlers that do not store past answers.
    """

    __slots__ = ("raw_queries", "unique_queried", "per_sample_queries", "memoize")

    def __init__(self, memoize: bool = False):
        self.raw_queries = 0
        self.unique_queried: set[int] = set()
        self.per_sample_queries: list[int] = []
        self.memoize = memoize

    def begin_sample(self) -> None:
        self.per_sample_queries.append(0)

    def charge(self, v: int) -> None:
        if self.memoize and v in self.unique_queried:
            return
        self.unique_queried.add(v)
        self.raw_queries += 1
        if self.per_sample_queries:
            self.per_sample_queries[-1] += 1

    def charge_many(self, ids) -> None:
        if self.memoize:
            for v in ids:
                self.charge(int(v))
            return
        self.unique_queried.update(int(v) for v in ids)
        k = len(ids)
        self.raw_queries += k
        if self.per_sample_queries:
            self.per_sample_queries[-1] += k

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryLedger(raw={self.raw_queries}, unique={len(self.unique_queried)}, "
            f"samples={len(self.per_sample_queries)}, memoize={self.memoize})"
        )


def query_node(
    g: LabeledGraph,
    v: int,
    model: AccessModel,
    ledger: QueryLedger | None = None,
) -> NeighborReport:
    """Query node ``v`` and return its neighbor report.

    Passing ``ledger=None`` leaves the query unaccounted (used for data a
    crawler already holds, e.g. the report obtained while acquiring the
    walk seed). Querying a private node raises :class:`PrivateNodeError`
    after charging the ledger: the failed query was still spent.
    """
    if not 0 <= v < g.node_count:
        raise ValueError(f"node id {v} out of range")
    if ledger is not None:
        ledger.charge(v)
    if g.is_private[v]:
        raise PrivateNodeError(v)
    nbrs = g.neighbors(v)
    flags = g.is_private[nbrs] if model is AccessModel.IDEAL else None
    return NeighborReport(v, nbrs, flags, model)


def is_public_via_model(
    g: LabeledGraph,
    u: int,
    model: AccessModel,
    ledger: QueryLedger | None = None,
) -> bool:
    """Check a privacy label the way each access model allows.

    Ideal model: the label was already visible in the parent's report, so
    the check is free. Hidden model: the label is learned by querying
    ``u`` itself, which costs one query (memoization aside).
    """
    if model is AccessModel.HIDDEN and ledger is not None:
        ledger.charge(u)
    return not bool(g.is_private[u])


def probe_all_neighbors(
    g: LabeledGraph,
    v: int,
    ledger: QueryLedger | None = None,
) -> np.ndarray:
    """Hidden-model bulk probe: query every neighbor of ``v`` once.

    Returns a boolean array aligned with ``g.neighbors(v)`` that is True
    for public neighbors. Charges one query per neighbor.
    """
    nbrs = g.neighbors(v)
    if ledger is not None:
        ledger.charge_many(nbrs)
    return ~g.is_private[nbrs]
