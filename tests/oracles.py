"""Independent reference implementations used to check the package.

Everything here is deliberately naive: flood fill instead of sparse
component labeling, literal double loops instead of prefix sums, power
iteration instead of closed forms, exhaustive label enumeration instead
of moment algebra, and a walk that charges its queries one at a time
through the access facade. Slow but obviously correct.
"""

from __future__ import annotations

import numpy as np

from privwalk import (
    AccessModel,
    PubdegMode,
    QueryLedger,
    SelectionCounters,
    WalkRecord,
    is_public_via_model,
    probe_all_neighbors,
    query_node,
)


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
    ledger: QueryLedger | None = None,
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
        ledger = QueryLedger()

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
