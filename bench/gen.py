"""Seeded input generators for the benchmark, plus reference values.

Every generator is a pure function of its seed and sizes: the same
arguments give the same bytes. Each writer also returns reference values
computed from its own in-memory arrays by code independent of the
package, which the benchmark compares against what the package reads
back. Run as a script, a generator writes its file and a
``<file>.ref.json`` beside it, so that generation never runs inside the
benchmark's measured process::

    python3 bench/gen.py edges --nodes 20480 --lines 200000 --tail 0.6 --seed 1 --out e.txt
    python3 bench/gen.py samples --lines 100000 --population 100000 \
        --gaps 2000,2500 --seed 1 --out s.txt
"""

from __future__ import annotations

import argparse
import json
import math

import numpy as np
from scipy.signal import fftconvolve
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

_EDGE_TAG = 0xED6E
_SAMPLE_TAG = 0x5A3F


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([tag, seed]))


def _sparse_ids(rng: np.random.Generator, count: int, start: int) -> np.ndarray:
    """``count`` distinct ids with random gaps, in random order."""
    ids = start + np.cumsum(rng.integers(1, 64, count))
    return ids[rng.permutation(count)]


# -- edge files ----------------------------------------------------------------


def edge_lines(seed: int, nodes: int, lines: int, tail: float) -> tuple[np.ndarray, np.ndarray]:
    """Heavy-tailed Chung-Lu edge lines over sparse ids.

    Node ``i`` has weight ``(i + 1) ** -tail``: the expected degrees follow
    a power law of exponent ``1 + 1 / tail`` (2.5 for ``tail = 2/3``),
    heavier as ``tail`` grows. The weights are fixed, so graphs of
    different seeds share one degree profile (and so one cost per trial)
    and differ only in which edges are drawn. Besides the random edges,
    the lines hold duplicate and reversed copies of some edges, self-loops
    and a detached 6-node cycle, so ingest has every kind of line to drop
    or merge. Returns (src, dst) original ids in file order; the last six
    lines are the detached cycle.
    """
    rng = _rng(seed, _EDGE_TAG)
    weight = (np.arange(nodes) + 1.0) ** -tail
    cum = np.cumsum(weight)
    n_dup, n_rev, n_loop = lines // 50, lines // 50, lines // 200
    base = lines - n_dup - n_rev - n_loop - 6
    src = np.searchsorted(cum, rng.random(base) * cum[-1], side="right")
    dst = np.searchsorted(cum, rng.random(base) * cum[-1], side="right")
    dup = rng.integers(base, size=n_dup)
    rev = rng.integers(base, size=n_rev)
    loop = rng.integers(nodes, size=n_loop)
    src, dst = (
        np.concatenate([src, src[dup], dst[rev], loop]),
        np.concatenate([dst, dst[dup], src[rev], loop]),
    )
    order = rng.permutation(src.size)
    ids = _sparse_ids(rng, nodes, 1_000)
    src, dst = ids[src[order]], ids[dst[order]]
    cycle = int(ids.max()) + 1_000 + 7 * np.arange(6)
    return np.concatenate([src, cycle]), np.concatenate([dst, np.roll(cycle, -1)])


def edge_reference(src: np.ndarray, dst: np.ndarray) -> dict:
    """Node and edge count of the largest component, self-loops and repeats dropped."""
    ids, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    u, v = inv[: src.size], inv[src.size :]
    keep = u != v
    n0 = ids.size
    key = np.unique(np.minimum(u, v)[keep] * n0 + np.maximum(u, v)[keep])
    lo, hi = key // n0, key % n0
    adj = coo_matrix((np.ones(key.size), (lo, hi)), shape=(n0, n0))
    _, comp = connected_components(adj, directed=False)
    big = comp == int(np.argmax(np.bincount(comp)))
    return {
        "nodes": int(big.sum()),
        "edges": int(big[lo].sum()),
        "data_lines": int(src.size),
    }


def write_edge_file(path, seed: int, nodes: int, lines: int, tail: float) -> dict:
    src, dst = edge_lines(seed, nodes, lines, tail)
    text = [f"{a} {b}" for a, b in zip(src.tolist(), dst.tolist())]
    quarter = len(text) // 4
    with open(path, "w") as f:
        f.write(f"# synthetic heavy-tailed edge list, seed {seed}\n# src dst\n")
        for k in range(4):
            chunk = text[k * quarter : (k + 1) * quarter if k < 3 else len(text)]
            f.write("\n".join(chunk))
            f.write(f"\n% block {k + 1} of 4\n\n")
    return edge_reference(src, dst)


# -- sample files ----------------------------------------------------------------


def sample_records(seed: int, lines: int, population: int, p: float = 0.25):
    """Kurant-shaped walk sample: (ids, degrees, public degrees) per line.

    Samples are drawn in proportion to a heavy-tailed degree, so
    well-connected nodes recur often. The degrees are the quantiles of a
    Pareto law of index 1.5 (at least 10, at most 5000), fixed across seeds
    so the number of distinct nodes barely moves with the seed. One
    sample in twenty backtracks to the node two steps earlier, as a walk
    does. Public degrees are Binomial(degree, 1 - p), at least 1, fixed
    per node.
    """
    rng = _rng(seed, _SAMPLE_TAG)
    quantile = (np.arange(population) + 0.5) / population
    deg = np.minimum(5000, np.floor(10.0 * quantile ** (-1.0 / 1.5))).astype(np.int64)
    pub = np.maximum(1, rng.binomial(deg, 1.0 - p))
    cum = np.cumsum(deg.astype(np.float64))
    seq = np.searchsorted(cum, rng.random(lines) * cum[-1], side="right")
    back = np.nonzero(rng.random(lines) < 0.05)[0]
    back = back[back >= 2]
    seq[back] = seq[back - 2]
    ids = _sparse_ids(rng, population, 100_000_000)
    return ids[seq], deg[seq], pub[seq]


def collision_pairs_reference(nodes: np.ndarray, m: int) -> int:
    """Ordered pairs (k, l) with nodes[k] == nodes[l] and |k - l| >= m.

    Sorts on (node, position) keys once and counts, for every sample, the
    earlier samples of the same node at least ``m`` positions back.
    """
    r = nodes.size
    _, dense = np.unique(nodes, return_inverse=True)
    pos = np.arange(r, dtype=np.int64)
    key = np.sort(dense.astype(np.int64) * r + pos)
    node_of = key // r
    first = np.searchsorted(key, node_of * r, side="left")
    upto = np.searchsorted(key, key - m, side="right")
    return 2 * int(np.maximum(upto - first, 0).sum())


def estimate_reference(nodes, degrees, pubdegs, m: int) -> dict:
    """Every estimate of a record at gap ``m``, by an independent route.

    Pair sums over |k - l| >= m are the full product minus a windowed
    sum taken by FFT convolution; harmonic means use exact summation.
    """
    r = nodes.size
    dstar = pubdegs.astype(np.float64)
    d = degrees.astype(np.float64)
    inv = 1.0 / dstar
    near = fftconvolve(inv, np.ones(2 * m - 1), mode="full")[m - 1 : m - 1 + r]
    far = math.fsum(inv) - near
    pairs = (r - m) * (r - m + 1)
    collisions = collision_pairs_reference(nodes, m)
    phi = collisions / pairs
    psi_prior = math.fsum(dstar * far) / pairs
    psi_proposed = math.fsum(d * far) / pairs
    size_nc, size_proposed = psi_prior / phi, psi_proposed / phi
    smooth = r / math.fsum(inv)
    proposed = r / math.fsum(1.0 / d)
    return {
        "gap_threshold": m,
        "collisions": collisions,
        "collision_mean": phi,
        "weight_mean_prior": psi_prior,
        "weight_mean_proposed": psi_proposed,
        "size_nc": size_nc,
        "size_proposed": size_proposed,
        "avg_degree_smooth": smooth,
        "avg_degree_proposed": proposed,
        "privacy_rate_size": 1.0 - size_nc / size_proposed,
        "privacy_rate_avg_degree": 1.0 - smooth / proposed,
    }


def write_sample_file(path, seed: int, lines: int, population: int, gaps) -> dict:
    ids, deg, pub = sample_records(seed, lines, population)
    with open(path, "w") as f:
        f.write(f"# synthetic walk samples, seed {seed}\n# index id degree public_degree\n")
        f.write("\n".join(
            f"{k} {v} {d} {s}"
            for k, v, d, s in zip(range(1, lines + 1), ids.tolist(), deg.tolist(), pub.tolist())
        ))
        f.write("\n")
    return {
        "data_lines": lines,
        "distinct": int(np.unique(ids).size),
        "reports": [estimate_reference(ids, deg, pub, int(m)) for m in gaps],
    }


# -- the long-walk graph --------------------------------------------------------


def random_connected_edges(n: int, extra: int, seed: int) -> list[tuple[int, int]]:
    """Uniform random tree plus ``extra`` random chords; always connected.

    Same construction and random stream as the test suite's helper of
    this name, so ``(100, 250, 41)`` is the acceptance suite's
    estimator-consistency graph.
    """
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


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("kind", choices=("edges", "samples"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--nodes", type=int, default=20_480)
    ap.add_argument("--tail", type=float, default=0.6)
    ap.add_argument("--lines", type=int, default=200_000)
    ap.add_argument("--population", type=int, default=100_000)
    ap.add_argument("--gaps", default="2500")
    args = ap.parse_args(argv)
    if args.kind == "edges":
        ref = write_edge_file(args.out, args.seed, args.nodes, args.lines, args.tail)
    else:
        gaps = [int(t) for t in args.gaps.split(",")]
        ref = write_sample_file(args.out, args.seed, args.lines, args.population, gaps)
    with open(args.out + ".ref.json", "w") as f:
        json.dump(ref, f)


if __name__ == "__main__":
    main()
