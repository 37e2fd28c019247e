"""The merge-based collision count and the sliced weight sums against their
references, on random inputs."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from graphgen import random_connected_edges
from oracles import naive_pair_stats, reference_collision_pairs, reference_weight_sums

import privwalk.estimators as estimators
from privwalk import (
    AccessModel,
    PubdegMode,
    WalkRecord,
    assign_labels_bernoulli,
    build_graph,
    build_report,
    largest_public_cluster,
    run_walk,
)
from privwalk.walk import pick_seed_node

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def id_pools(draw):
    """Distinct node ids: few or many, small, negative, or near the int64 ends."""
    size = draw(st.sampled_from((1, 2, 3, 7)) | st.integers(8, 4000))
    where = draw(st.sampled_from(("small", "negative", "top", "bottom", "both_ends", "wide")))
    if where == "wide":
        return draw(st.lists(st.integers(INT64_MIN, INT64_MAX), min_size=1,
                             max_size=min(size, 200), unique=True))
    base = {"small": 0, "negative": -3 * size, "top": INT64_MAX - size + 1,
            "bottom": INT64_MIN}.get(where, INT64_MIN)
    pool = list(range(base, base + size))
    if where == "both_ends":  # the span alone overflows int64: forces dense ranks
        pool = pool[: (size + 1) // 2] + list(range(INT64_MAX - size // 2 + 1, INT64_MAX + 1))
    return pool


@st.composite
def collision_cases(draw):
    """A node sequence over an id pool, iid or in repeated runs, and a gap m."""
    pool = np.array(draw(id_pools()), dtype=np.int64)
    r = draw(st.integers(2, 60) | st.integers(61, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pick = rng.integers(0, pool.size, r)
    if draw(st.booleans()):  # walk-like: each node held for a run of steps
        pick = np.repeat(pick, rng.integers(1, 6, r))[:r]
    m = draw(st.integers(1, r - 1))
    return pool[pick], m


def _key_limit(r, m):
    """The widest id span that the collision count's int64 key layout fits."""
    return 2**63 >> ((r + m - 1).bit_length() + 1)


def _span_case(r, m, span, lo=INT64_MIN):
    """Three ids spread over ``span`` (lowest, middle, highest), visited in turn."""
    ids = np.array([lo, lo + span // 2, lo + span - 1], dtype=np.int64)
    return ids[np.arange(r) % 3], m


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(collision_cases())
@example((np.array([INT64_MIN, INT64_MAX] * 3, dtype=np.int64), 2))
@example((np.array([INT64_MAX, -1, INT64_MAX, INT64_MAX], dtype=np.int64), 1))
@example((np.array([5, 5], dtype=np.int64), 1))
@example(_span_case(7, 2, _key_limit(7, 2)))  # the span fits the layout exactly
@example(_span_case(7, 2, _key_limit(7, 2) + 1))  # one past: dense ranks
@example(_span_case(40, 39, _key_limit(40, 39), lo=INT64_MAX - _key_limit(40, 39) + 1))
@example((np.full(50, INT64_MAX, dtype=np.int64), 1))  # one node, r times
@example((np.full(50, INT64_MAX, dtype=np.int64), 49))
def test_collision_count_matches_reference(case):
    nodes, m = case
    got = estimators._collision_pairs(nodes, m)
    assert type(got) is int
    assert got == reference_collision_pairs(nodes, m)
    if nodes.size <= 60:
        ones = np.ones(nodes.size)
        count, collision_mean, _, _ = naive_pair_stats(list(nodes), ones, ones, m)
        assert got == round(collision_mean * count)


@pytest.mark.parametrize("extra, dense", [(0, False), (1, True)])
def test_key_layout_switches_to_dense_ranks_one_past_its_limit(monkeypatch, extra, dense):
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    nodes, m = _span_case(7, 2, _key_limit(7, 2) + extra)
    assert estimators._collision_pairs(nodes, m) == reference_collision_pairs(nodes, m)
    assert bool(calls) is dense


@st.composite
def weight_cases(draw):
    """Degrees, public degrees and a gap m anywhere in 1..r-1."""
    r = draw(st.integers(2, 40) | st.integers(41, 2000))
    m = draw(st.integers(1, r - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    degrees = rng.integers(1, 10 ** draw(st.integers(1, 6)), r)
    if draw(st.booleans()):  # integer public degrees, as exact modes give
        pubdegs = rng.integers(1, degrees + 1).astype(np.float64)
    else:
        pubdegs = degrees * rng.uniform(1e-3, 1.0, r)
    return degrees, pubdegs, m


@settings(max_examples=300, deadline=None, database=None)
@given(weight_cases())
@example((np.array([3, 1]), np.array([2.0, 0.5]), 1))  # r = 2
@example((np.arange(1, 11), np.linspace(0.5, 5.0, 10), 5))  # m = r/2
@example((np.arange(1, 11), np.linspace(0.5, 5.0, 10), 9))  # m = r - 1
def test_weight_sums_are_bitwise_equal_with_reference(case):
    degrees, pubdegs, m = case
    r = degrees.size
    nodes = np.zeros(r, dtype=np.int64)  # samples 0 and r - 1 always collide
    rep = build_report(WalkRecord(nodes, degrees, pubdegs, PubdegMode.EXACT_HIDDEN), m)
    got = (rep.weight_mean_prior, rep.weight_mean_proposed,
           rep.avg_degree_smooth, rep.avg_degree_proposed)
    assert repr(got) == repr(reference_weight_sums(degrees, pubdegs, m))


def _walk_record(r, seed):
    g = build_graph(random_connected_edges(300, 900, seed=seed), [False] * 300)
    gl = assign_labels_bernoulli(g, 0.2, seed)
    view = largest_public_cluster(gl)
    seed_node = pick_seed_node(view, seed)
    return run_walk(gl, AccessModel.HIDDEN, seed_node, r, PubdegMode.APPROX_HIDDEN, seed,
                    view=view)


def _file_record(r, seed):
    # 64-bit ids whose span times r overflows int64, as in real sample files
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 2**62, 400) * np.where(rng.random(400) < 0.5, -1, 1)
    degrees = rng.integers(1, 50, r)
    return WalkRecord(ids[rng.integers(0, ids.size, r)], degrees,
                      degrees * rng.uniform(0.1, 1.0, r), PubdegMode.EXACT_HIDDEN)


def _sparse_record(r, seed):
    # shaped like a real sample file: sparse 40-bit ids, about 0.43 r of
    # them distinct, with heavy-tailed revisit counts and short repeat runs
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 2**40, r)
    weight = rng.pareto(2.0, r) + 1.0
    pick = np.repeat(rng.choice(r, r, p=weight / weight.sum()), rng.integers(1, 3, r))[:r]
    degrees = np.minimum(weight[pick].astype(np.int64) * 3, 10**5)
    return WalkRecord(ids[pick], degrees, degrees * rng.uniform(0.1, 1.0, r),
                      PubdegMode.EXACT_HIDDEN)


def test_report_is_bitwise_equal_with_reference_count(monkeypatch):
    records = [_walk_record(5000, 3), _walk_record(1200, 8), _file_record(20_000, 5),
               _sparse_record(120_000, 11)]
    got = [build_report(rec) for rec in records]
    monkeypatch.setattr(estimators, "_collision_pairs", reference_collision_pairs)
    want = [build_report(rec) for rec in records]
    # float repr round-trips, so equal reprs mean bitwise-equal fields
    assert [repr(rep) for rep in got] == [repr(rep) for rep in want]
