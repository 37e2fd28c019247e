"""Independent reference implementations used to check the package.

Everything here is deliberately naive: flood fill instead of sparse
component labeling, literal double loops instead of prefix sums, power
iteration instead of closed forms, exhaustive label enumeration instead
of moment algebra, and a walk that charges its queries one at a time
through the access facade below. Slow but obviously correct. The two graph
builders take the plain routes: a per-edge ``set`` loop, and an edge-list
pipeline that sorts its CSR again after keeping the largest component.
The collision count loops over nodes with one small search per node.
The NRMSE sweep walks each (p, r, seed) cell on its own through
``run_walk``, and the query census walks each trial once per hidden
mode, with nested loops over the grid and the trials.
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass, fields

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from privwalk import (
    ESTIMATOR_NAMES,
    AccessModel,
    GraphError,
    NoCollisionError,
    NrmseRow,
    PubdegMode,
    PublicClusterView,
    QueryLedger,
    SelectionCounters,
    StuckWalkError,
    WalkRecord,
    assign_labels_bernoulli,
    build_report,
    convergence_values,
    default_gap_threshold,
    largest_public_cluster,
    run_walk,
)
from privwalk.experiment import _write_csv
from privwalk.walk import pick_seed_node


# The access facade defines what neighbor information costs: a crawler
# gets it from ``query_node`` or ``probe_all_neighbors`` and each query is
# charged to a ``ReferenceLedger``. ``run_walk`` must charge the same.


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


class ReferenceLedger(QueryLedger):
    """A ledger charged one query at a time, one bucket per sample."""

    __slots__ = ()

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


def query_node(g, v: int, model: AccessModel, ledger: ReferenceLedger | None = None):
    """Query node ``v`` and return its :class:`NeighborReport`.

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


def is_public_via_model(g, u: int, model: AccessModel, ledger: ReferenceLedger | None = None):
    """Check a privacy label the way each access model allows.

    Ideal model: the label was already visible in the parent's report, so
    the check is free. Hidden model: the label is learned by querying
    ``u`` itself, which costs one query (memoization aside).
    """
    if model is AccessModel.HIDDEN and ledger is not None:
        ledger.charge(u)
    return not bool(g.is_private[u])


def probe_all_neighbors(g, v: int, ledger: ReferenceLedger | None = None) -> np.ndarray:
    """Hidden-model bulk probe: query every neighbor of ``v`` once.

    Returns a boolean array aligned with ``g.neighbors(v)`` that is True
    for public neighbors. Charges one query per neighbor.
    """
    nbrs = g.neighbors(v)
    if ledger is not None:
        ledger.charge_many(nbrs)
    return ~g.is_private[nbrs]


def flood_fill_public_clusters(edges, is_private) -> list[set[int]]:
    """All connected clusters of the public-induced subgraph."""
    n = len(is_private)
    adj = [[] for _ in range(n)]
    for a, b in edges:
        if not is_private[a] and not is_private[b]:
            adj[a].append(b)
            adj[b].append(a)
    seen = set()
    clusters = []
    for v in range(n):
        if is_private[v] or v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        clusters.append(comp)
    return clusters


def reference_public_cluster(edges, is_private) -> PublicClusterView:
    """``largest_public_cluster`` from the flood-fill clusters of a simple graph.

    The largest cluster by size, ties going to the cluster with the
    smallest id; in-cluster neighbor counts, zero elsewhere, as int64;
    the census of cluster sizes with the largest size first.
    """
    clusters = flood_fill_public_clusters(edges, is_private)
    if not clusters:
        raise GraphError("graph has no public node")
    best = min(clusters, key=lambda c: (-len(c), min(c)))
    member_flag = np.zeros(len(is_private), dtype=bool)
    member_flag[list(best)] = True
    public_degree = np.zeros(len(is_private), dtype=np.int64)
    for a, b in edges:
        if a in best and b in best:
            public_degree[a] += 1
            public_degree[b] += 1
    sizes = [len(c) for c in clusters]
    census = tuple((s, sizes.count(s)) for s in sorted(set(sizes), reverse=True))
    return PublicClusterView(
        member_flag, len(best), public_degree, int(public_degree.sum()), census
    )


def reference_build_graph(edges, n: int, drop_duplicates: bool = False):
    """``build_graph``'s adjacency as ``(indptr, indices)``, one edge at a time.

    Raises :class:`GraphError` for the first bad edge in input order, and
    for an empty or disconnected graph.
    """
    if n == 0:
        raise GraphError("graph needs at least one node")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) references a node outside 0..{n - 1}")
        if u == v:
            if drop_duplicates:
                continue
            raise GraphError(f"self-loop at node {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            if drop_duplicates:
                continue
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add(key)
    if not seen:
        raise GraphError("edge list must be non-empty")

    pairs = np.array(sorted(seen), dtype=np.int64)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])

    adj = csr_matrix((np.ones(dst.size, dtype=np.int8), dst, indptr), shape=(n, n))
    n_comp, _ = connected_components(adj, directed=False)
    if n_comp != 1:
        raise GraphError(f"graph is not connected ({n_comp} components)")
    return indptr, dst


def reference_edge_list(pairs):
    """``load_edge_list``'s ``(indptr, indices, orig_ids)`` for parsed ``(src, dst)`` pairs.

    Drops self-loops, renumbers densely, deduplicates undirected edges,
    keeps the largest component (ties: the one holding the smallest id)
    and sorts the CSR again after the restriction. Returns None when no
    edge is left.
    """
    pairs = [(u, v) for u, v in pairs if u != v]
    if not pairs:
        return None
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)

    ids = np.unique(np.concatenate([src, dst]))
    n0 = ids.size
    src = np.searchsorted(ids, src)
    dst = np.searchsorted(ids, dst)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    key = np.unique(lo * n0 + hi)
    lo, hi = key // n0, key % n0

    both_src = np.concatenate([lo, hi])
    both_dst = np.concatenate([hi, lo])
    counts = np.bincount(both_src, minlength=n0)
    indptr0 = np.zeros(n0 + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr0[1:])
    order = np.argsort(both_src, kind="stable")
    adj0 = csr_matrix(
        (np.ones(both_dst.size, dtype=np.int8), both_dst[order], indptr0), shape=(n0, n0)
    )
    n_comp, comp = connected_components(adj0, directed=False)
    if n_comp > 1:
        sizes = np.bincount(comp)
        keep_comp = int(np.argmax(sizes))
        node_keep = comp == keep_comp
        edge_keep = node_keep[lo]
        lo, hi = lo[edge_keep], hi[edge_keep]
        remap = np.cumsum(node_keep) - 1
        lo, hi = remap[lo], remap[hi]
        ids = ids[node_keep]

    n = ids.size
    both_src = np.concatenate([lo, hi])
    both_dst = np.concatenate([hi, lo])
    order = np.lexsort((both_dst, both_src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(both_src, minlength=n), out=indptr[1:])
    return indptr, both_dst[order], ids


def naive_pair_stats(nodes, degrees, pubdegs, m):
    """Literal double loop over ordered pairs with |k - l| >= m.

    Returns (pair_count, collision_mean, weight_mean_prior,
    weight_mean_proposed); the means are nan when no pair qualifies.
    """
    r = len(nodes)
    count = 0
    coll = 0
    psi = 0.0
    psi_hat = 0.0
    for k in range(r):
        for l in range(r):
            if abs(k - l) < m:
                continue
            count += 1
            if nodes[k] == nodes[l]:
                coll += 1
            psi += pubdegs[k] / pubdegs[l]
            psi_hat += degrees[k] / pubdegs[l]
    if count == 0:
        return 0, float("nan"), float("nan"), float("nan")
    return count, coll / count, psi / count, psi_hat / count


def reference_collision_pairs(nodes, m: int) -> int:
    """Ordered index pairs with equal nodes and gap >= m, one node at a time.

    A stable sort groups each node's positions in ascending order, then a
    per-node ``searchsorted`` counts each position's partners m or more
    positions back.
    """
    nodes = np.asarray(nodes)
    order = np.argsort(nodes, kind="stable")  # ties keep ascending positions
    svals = nodes[order]
    change = np.nonzero(np.diff(svals))[0] + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [svals.size]))
    total = 0
    for s, e in zip(starts, ends):
        if e - s < 2:
            continue
        pos = order[s:e]
        total += int(np.searchsorted(pos, pos - m, side="right").sum())
    return 2 * total


def outer_pair_stats(nodes, degrees, pubdegs, m):
    """Same statistics via dense outer products; O(r^2) memory."""
    nodes = np.asarray(nodes)
    d = np.asarray(degrees, dtype=float)
    ds = np.asarray(pubdegs, dtype=float)
    r = nodes.size
    idx = np.arange(r)
    mask = np.abs(idx[:, None] - idx[None, :]) >= m
    count = int(mask.sum())
    if count == 0:
        return 0, float("nan"), float("nan"), float("nan")
    coll = int((nodes[:, None] == nodes[None, :])[mask].sum())
    inv = 1.0 / ds
    psi = float(np.outer(ds, inv)[mask].sum())
    psi_hat = float(np.outer(d, inv)[mask].sum())
    return count, coll / count, psi / count, psi_hat / count


def power_iteration_stationary(transition: np.ndarray, iters: int = 20000) -> np.ndarray:
    pi = np.full(transition.shape[0], 1.0 / transition.shape[0])
    for _ in range(iters):
        nxt = pi @ transition
        if np.max(np.abs(nxt - pi)) < 1e-15:
            return nxt
        pi = nxt
    return pi


def walk_transition_matrix(g, view) -> np.ndarray:
    """Transition matrix of the public-reselection walk on cluster members.

    Redrawing on private hits makes each step a uniform choice among the
    current node's public neighbors.
    """
    members = list(view.members)
    pos = {v: i for i, v in enumerate(members)}
    t = np.zeros((len(members), len(members)))
    for v in members:
        pubs = [int(w) for w in g.neighbors(v) if view.member_flag[w]]
        for w in pubs:
            t[pos[v], pos[w]] += 1.0 / len(pubs)
    return t


def enumerate_public_count_moments(d: int, p: float) -> tuple[float, float]:
    """Mean and second moment of the public-neighbor count among d neighbors,
    by exhausting all 2^d label assignments."""
    masks = np.arange(1 << d, dtype=np.uint64)[:, None]
    bits = (masks >> np.arange(d, dtype=np.uint64)[None, :]) & 1  # 1 = private
    k_private = bits.sum(axis=1).astype(np.int64)
    k_public = d - k_private
    prob = (p**k_private) * ((1.0 - p) ** k_public)
    mean = float(np.sum(prob * k_public))
    second = float(np.sum(prob * k_public.astype(float) ** 2))
    return mean, second


def label_redraw_sums(g, view) -> dict:
    """Cluster sums entering the expectation formulas, computed directly."""
    members = view.members
    d = g.degrees[members].astype(np.int64)
    dstar = view.public_degree[members].astype(np.int64)
    return {
        "n_star": int(view.member_count),
        "dsum_star": int(dstar.sum()),
        "sum_dstar_sq": int(np.sum(dstar * dstar)),
        "sum_dstar_d": int(np.sum(dstar * d)),
        "sum_ratio": float(np.sum(dstar / d)),
    }


_RAND_BLOCK = 1 << 14


def reference_walk(
    g,
    model,
    seed_node: int,
    r: int,
    pubdeg_mode,
    rng_seed,
    ledger: ReferenceLedger | None = None,
    *,
    count_visit_queries: bool = False,
) -> WalkRecord:
    """The designed walk, one facade query at a time.

    Takes ``run_walk``'s arguments for a valid walk (public seed on a
    cluster of at least two members) and charges the ledger query by
    query, exactly as a crawler would meet them. Consumes the random
    stream as ``run_walk`` documents: uniforms in blocks of 16384, draw
    ``u`` picks neighbor ``int(u * degree)``.
    """
    model = AccessModel(model)
    pubdeg_mode = PubdegMode(pubdeg_mode)
    if ledger is None:
        ledger = ReferenceLedger()

    ideal = model is AccessModel.IDEAL
    exact_hidden = pubdeg_mode is PubdegMode.EXACT_HIDDEN
    approx = pubdeg_mode is PubdegMode.APPROX_HIDDEN

    rng = np.random.default_rng(rng_seed)
    buf = rng.random(_RAND_BLOCK)
    bi = 0

    nodes_out = np.empty(r, dtype=np.int64)
    degs_out = np.empty(r, dtype=np.int64)
    pub_out = np.zeros(r, dtype=np.float64)

    succ: dict[int, int] = {}
    att: dict[int, int] = {}

    cur = int(seed_node)

    ledger.begin_sample()
    if ideal:
        rep = query_node(g, cur, model, ledger)
    else:
        rep = query_node(g, cur, model, None)  # seed report came with seed selection
        if count_visit_queries:
            ledger.charge(cur)

    for k in range(r):
        nbrs = rep.neighbor_ids
        deg = len(nbrs)
        nodes_out[k] = cur
        degs_out[k] = deg

        if ideal:
            priv_flags = rep.neighbor_private
            pub_out[k] = deg - np.count_nonzero(priv_flags)
        elif exact_hidden:
            priv_flags = ~probe_all_neighbors(g, cur, ledger)
            pub_out[k] = deg - np.count_nonzero(priv_flags)
        else:
            priv_flags = None

        if cur not in att:
            succ[cur] = 0
            att[cur] = 0

        # uniform neighbor selection with replacement until a public hit;
        # the trailing selection of the final sample runs and counts too
        tries = 0
        while True:
            if bi == _RAND_BLOCK:
                buf = rng.random(_RAND_BLOCK)
                bi = 0
            idx = int(buf[bi] * deg)
            bi += 1
            tries += 1
            u = int(nbrs[idx])
            if priv_flags is not None:
                ok = not priv_flags[idx]
            else:
                ok = is_public_via_model(g, u, model, ledger)  # one query per probe
            if ok:
                break
        att[cur] += tries
        succ[cur] += 1

        if k + 1 < r:
            ledger.begin_sample()
            if ideal:
                rep = query_node(g, u, model, ledger)
            else:
                rep = query_node(g, u, model, None)  # reuse the probe's report
                if count_visit_queries:
                    ledger.charge(u)
            cur = u

    if approx:
        uniq, inv = np.unique(nodes_out, return_inverse=True)
        ratios = np.array([succ[int(v)] / att[int(v)] for v in uniq])
        pub_out = degs_out * ratios[inv]

    return WalkRecord(
        nodes_out, degs_out, pub_out, pubdeg_mode, ledger, SelectionCounters(succ, att)
    )


def _grid(cfg, n: int):
    """The run's label rates (None for file labels) and sample sizes."""
    if cfg.sample_sizes is not None:
        sizes = cfg.sample_sizes
    else:
        sizes = tuple(max(2, int(round(f * n))) for f in cfg.sample_fractions)
    return ([None] if cfg.labels == "file" else list(cfg.p_grid)), sizes


def reference_run_experiment(cfg, graph) -> list[NrmseRow]:
    """The NRMSE sweep with one ``run_walk`` per (p, r, seed) cell.

    Runs serially whatever ``cfg.workers`` says and writes ``nrmse.csv``
    in ``cfg.outdir``. Trial ``i`` spawns its labels, seed pick and walk
    keys from ``base_seed + i``, as the experiment driver documents.
    """
    g = graph
    n = g.node_count
    truths = (float(n), float(n), g.avg_degree, g.avg_degree)
    p_cells, sizes = _grid(cfg, n)
    nan = float("nan")
    rows: list[NrmseRow] = []
    for p in p_cells:
        for r in sizes:
            estimates, ratios = [], []
            for t in range(cfg.trials):
                keys = np.random.SeedSequence(cfg.base_seed + t).spawn(3)
                try:
                    gl = g if p is None else assign_labels_bernoulli(g, p, keys[0])
                    view = largest_public_cluster(gl)
                    seed_node = pick_seed_node(view, keys[1])
                except GraphError:
                    ratios.append(nan)
                    continue
                if cfg.nrmse_target == "convergence":
                    estimates.append(astuple(convergence_values(gl, view)))
                    ratios.append(nan)
                    continue
                ledger = QueryLedger()
                try:
                    rec = run_walk(
                        gl,
                        cfg.model,
                        seed_node,
                        r,
                        cfg.pubdeg_mode,
                        keys[2],
                        ledger,
                        view=view,
                        count_visit_queries=cfg.count_visit_queries,
                    )
                except StuckWalkError:
                    ratios.append(nan)
                    continue
                ratios.append(ledger.raw_queries / r)
                try:
                    rep = build_report(rec, default_gap_threshold(r, cfg.m_fraction))
                except NoCollisionError:
                    continue
                estimates.append(
                    (rep.size_nc, rep.size_proposed, rep.avg_degree_smooth, rep.avg_degree_proposed)
                )
            est = np.array(estimates, dtype=float)
            ratio = np.array(ratios, dtype=float)
            mean_ratio = nan if np.all(np.isnan(ratio)) else float(np.nanmean(ratio))
            failed = cfg.trials - len(estimates)
            p_label = g.private_fraction if p is None else float(p)
            for j, name in enumerate(ESTIMATOR_NAMES):
                nrmse = nan
                if estimates:
                    nrmse = float(np.sqrt(np.mean((est[:, j] / truths[j] - 1.0) ** 2)))
                rows.append(NrmseRow(p_label, r, name, nrmse, failed, mean_ratio, cfg.trials))

    os.makedirs(cfg.outdir, exist_ok=True)
    header = [f.name for f in fields(NrmseRow)]
    _write_csv(os.path.join(cfg.outdir, "nrmse.csv"), header, [astuple(row) for row in rows])
    return rows


def reference_query_census(cfg, graph) -> list[dict]:
    """The query census with one walk per trial and hidden mode.

    Runs serially whatever ``cfg.workers`` says and writes ``census.csv``
    in ``cfg.outdir``. Trial ``i`` spawns its labels, seed pick and walk
    keys from ``base_seed + i``, as the experiment driver documents.
    """
    g = graph
    n = g.node_count
    p_cells, sizes = _grid(cfg, n)
    modes = (PubdegMode.EXACT_HIDDEN, PubdegMode.APPROX_HIDDEN)

    rows: list[dict] = []
    for p in p_cells:
        for r in sizes:
            stats = {mode: {"unique": [], "raw": []} for mode in modes}
            for t in range(cfg.trials):
                keys = np.random.SeedSequence(cfg.base_seed + t).spawn(3)
                try:
                    gl = g if p is None else assign_labels_bernoulli(g, p, keys[0])
                    view = largest_public_cluster(gl)
                    seed_node = pick_seed_node(view, keys[1])
                except GraphError:
                    continue
                for mode in modes:
                    ledger = QueryLedger(memoize=cfg.census_memoize)
                    try:
                        run_walk(
                            gl,
                            AccessModel.HIDDEN,
                            seed_node,
                            r,
                            mode,
                            keys[2],
                            ledger,
                            view=view,
                            count_visit_queries=cfg.count_visit_queries,
                        )
                    except StuckWalkError:
                        continue
                    stats[mode]["unique"].append(len(ledger.unique_queried) / n)
                    stats[mode]["raw"].append(ledger.raw_queries)
            p_label = g.private_fraction if p is None else float(p)
            for mode in modes:
                uniq = stats[mode]["unique"]
                raw = stats[mode]["raw"]
                rows.append(
                    {
                        "p": p_label,
                        "sample_size": r,
                        "mode": mode.value,
                        "trials": len(raw),
                        "mean_unique_fraction": float(np.mean(uniq)) if uniq else float("nan"),
                        "mean_raw_queries": float(np.mean(raw)) if raw else float("nan"),
                        "mean_query_ratio": float(np.mean(raw)) / r if raw else float("nan"),
                    }
                )

    os.makedirs(cfg.outdir, exist_ok=True)
    cols = (
        "p",
        "sample_size",
        "mode",
        "trials",
        "mean_unique_fraction",
        "mean_raw_queries",
        "mean_query_ratio",
    )
    _write_csv(
        os.path.join(cfg.outdir, "census.csv"),
        cols,
        [tuple(row[c] for c in cols) for row in rows],
    )
    return rows
