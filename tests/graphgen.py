"""Small graph generators for tests, deterministic given a seed, and the
switch between privwalk's compiled steps and their Python twins."""

from __future__ import annotations

from contextlib import nullcontext
from unittest import mock

import numpy as np

from privwalk import graph

# the compiled steps of _kernels.c, and the Python twins they fall back to
RUNNERS = {
    "compiled": nullcontext,
    "python": lambda: mock.patch.object(graph, "_kernels", lambda: None),
}


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def star_edges(n: int) -> list[tuple[int, int]]:
    """Node 0 is the hub."""
    return [(0, i) for i in range(1, n)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def random_connected_edges(n: int, extra: int, seed: int) -> list[tuple[int, int]]:
    """Uniform random tree plus ``extra`` random chords; always connected."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    edges = set()
    for i in range(1, n):
        a, b = int(perm[i]), int(perm[rng.integers(i)])
        edges.add((min(a, b), max(a, b)))
    while len(edges) < n - 1 + extra:
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def regular_edges(n: int, d: int, seed: int) -> list[tuple[int, int]]:
    """Random d-regular simple connected graph.

    Starts from a circulant graph (regular and connected by construction) and
    randomizes it with degree-preserving double-edge swaps, retrying the swap
    phase if it happens to disconnect the graph.
    """
    assert (n * d) % 2 == 0 and d < n
    base = set()
    for step in range(1, d // 2 + 1):
        for v in range(n):
            w = (v + step) % n
            base.add((min(v, w), max(v, w)))
    if d % 2:
        for v in range(n // 2):
            base.add((v, v + n // 2))
    rng = np.random.default_rng(seed)
    for _ in range(50):
        edges = set(base)
        order = sorted(edges)
        swaps = 0
        while swaps < 10 * len(order):
            i, j = rng.integers(len(order), size=2)
            a, b = order[int(i)]
            c, e = order[int(j)]
            if len({a, b, c, e}) < 4:
                continue
            if rng.integers(2):
                p1 = (min(a, e), max(a, e))
                p2 = (min(b, c), max(b, c))
            else:
                p1 = (min(a, c), max(a, c))
                p2 = (min(b, e), max(b, e))
            if p1 in edges or p2 in edges:
                swaps += 1
                continue
            edges.discard((a, b))
            edges.discard((c, e))
            edges.add(p1)
            edges.add(p2)
            order[int(i)] = p1
            order[int(j)] = p2
            swaps += 1
        if _connected(n, edges):
            return sorted(edges)
    raise RuntimeError("failed to build a regular graph")


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def preferential_attachment_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Growing graph: each new node attaches to m distinct degree-weighted targets."""
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    repeated: list[int] = []
    targets = list(range(m))
    for v in range(m, n):
        for t in targets:
            edges.append((t, v))
        repeated.extend(targets)
        repeated.extend([v] * m)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(repeated[rng.integers(len(repeated))])
        targets = sorted(chosen)
    return edges


def write_edge_file(path, edges, header: str | None = None) -> None:
    with open(path, "w") as f:
        if header:
            f.write(f"# {header}\n")
        for a, b in edges:
            f.write(f"{a} {b}\n")


# 10-node fixture with two private nodes (0 and 1). Its public part splits
# into a 5-node star cluster {3,4,5,6,8}, a pair {7,9} and a singleton {2}.
FIXTURE_EDGES = [(3, 4), (4, 5), (4, 6), (4, 8), (7, 9), (1, 3), (0, 1), (0, 2), (0, 7)]
FIXTURE_PRIVATE = [True, True, False, False, False, False, False, False, False, False]
