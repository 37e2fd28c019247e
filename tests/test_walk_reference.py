"""The lean walk against the facade-driven reference walk, on random inputs."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphgen import RUNNERS, random_connected_edges
from oracles import ReferenceLedger, reference_walk

from privwalk import (
    GraphError,
    PubdegMode,
    QueryLedger,
    assign_labels_bernoulli,
    build_graph,
    largest_public_cluster,
    run_walk,
)
from privwalk.walk import _record, _selections


@st.composite
def walk_cases(draw):
    """A valid walk: random connected graph, labeling, seed, length, ledger."""
    n = draw(st.integers(2, 40))
    extra = draw(st.integers(0, min(2 * n, (n - 1) * (n - 2) // 2)))
    g = build_graph(random_connected_edges(n, extra, seed=draw(st.integers(0, 999))), [False] * n)
    gl = assign_labels_bernoulli(g, draw(st.sampled_from((0.0, 0.2, 0.5))), draw(st.integers(0, 999)))
    try:
        view = largest_public_cluster(gl)
    except GraphError:  # every node private: fall back to the unlabeled graph
        gl, view = g, largest_public_cluster(g)
    if view.member_count == 1:
        gl, view = g, largest_public_cluster(g)
    seed_node = int(view.members[draw(st.integers(0, view.member_count - 1))])
    # long walks draw more than one 16384-uniform block
    r = draw(st.integers(1, 300) | st.integers(16_385, 17_000))
    return dict(
        g=gl,
        view=view,
        seed_node=seed_node,
        r=r,
        mode=draw(st.sampled_from(list(PubdegMode))),
        memoize=draw(st.booleans()),
        rng_seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(walk_cases(), st.sampled_from(sorted(RUNNERS)))
def test_walk_matches_facade_reference(case, runner):
    mode = case["mode"]
    args = (case["g"], mode.access_model, case["seed_node"], case["r"], mode, case["rng_seed"])
    with RUNNERS[runner]():
        got = run_walk(*args, QueryLedger(memoize=case["memoize"]), view=case["view"])
    ref = reference_walk(*args, ReferenceLedger(memoize=case["memoize"]))

    assert np.array_equal(got.nodes, ref.nodes)
    assert np.array_equal(got.degrees, ref.degrees)
    assert got.public_degrees.dtype == ref.public_degrees.dtype == np.float64
    assert np.array_equal(got.public_degrees.view(np.uint64), ref.public_degrees.view(np.uint64))
    assert got.counters.successes == ref.counters.successes
    assert got.counters.attempts == ref.counters.attempts
    assert list(got.counters.attempts) == list(ref.counters.attempts)  # first-visit order
    assert got.ledger.raw_queries == ref.ledger.raw_queries
    queried = got.ledger.unique_queried
    assert queried.dtype == np.int64 and (np.diff(queried) > 0).all()
    assert set(queried.tolist()) == ref.ledger.unique_queried


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(walk_cases(), st.data())
def test_a_walk_prefix_is_the_shorter_walk(case, data):
    """Each mode's record of an r-sample walk cut from the selections of a
    longer walk equals that mode's r-sample walk, so one walk can serve
    every size and mode."""
    g, view, seed_node = case["g"], case["view"], case["seed_node"]
    modes = [case["mode"], *data.draw(st.lists(st.sampled_from(list(PubdegMode)), max_size=2))]
    longest = case["r"] + 1  # a draw above 16384 reads a second uniform block
    r = data.draw(st.integers(1, longest - 1))
    probes = _selections(g, view, seed_node, longest, case["rng_seed"])
    ledgers = [QueryLedger(memoize=case["memoize"]) for _ in range(2 * len(modes))]
    records = _record(g, view, seed_node, probes, r, modes, ledgers[: len(modes)])
    assert len(records) == len(modes)
    for mode, got, ledger in zip(modes, records, ledgers[len(modes) :]):
        want = run_walk(g, mode.access_model, seed_node, r, mode, case["rng_seed"], ledger,
                        view=view)

        assert got.pubdeg_mode is mode
        assert np.array_equal(got.nodes, want.nodes)
        assert np.array_equal(got.public_degrees.view(np.uint64),
                              want.public_degrees.view(np.uint64))
        assert list(got.counters.successes.items()) == list(want.counters.successes.items())
        assert list(got.counters.attempts.items()) == list(want.counters.attempts.items())
        assert got.ledger.raw_queries == want.ledger.raw_queries
        queried = got.ledger.unique_queried
        assert queried.dtype == np.int64 and (np.diff(queried) > 0).all()
        assert np.array_equal(queried, want.ledger.unique_queried)
