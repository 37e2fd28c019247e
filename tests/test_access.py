import numpy as np
import pytest

from graphgen import regular_edges
from oracles import (
    PrivateNodeError,
    ReferenceLedger,
    is_public_via_model,
    probe_all_neighbors,
    query_node,
)

from privwalk import (
    AccessModel,
    PubdegMode,
    QueryLedger,
    build_graph,
    largest_public_cluster,
    run_walk,
)


def test_ideal_report_carries_labels(fixture_graph):
    ledger = ReferenceLedger()
    ledger.begin_sample()
    rep = query_node(fixture_graph, 4, AccessModel.IDEAL, ledger)
    assert rep.model is AccessModel.IDEAL
    assert rep.degree == 4
    assert list(rep.neighbor_ids) == [3, 5, 6, 8]
    assert list(rep.neighbor_private) == [False] * 4
    assert ledger.raw_queries == 1

    rep3 = query_node(fixture_graph, 3, AccessModel.IDEAL, ledger)
    assert list(rep3.neighbor_ids) == [1, 4]
    assert list(rep3.neighbor_private) == [True, False]


def test_hidden_report_hides_labels(fixture_graph):
    rep = query_node(fixture_graph, 3, AccessModel.HIDDEN)
    assert rep.neighbor_private is None
    assert list(rep.neighbor_ids) == [1, 4]


def test_private_node_rejects_query_but_charges(fixture_graph):
    ledger = ReferenceLedger()
    ledger.begin_sample()
    with pytest.raises(PrivateNodeError) as exc:
        query_node(fixture_graph, 1, AccessModel.HIDDEN, ledger)
    assert exc.value.node == 1
    # the refused request still consumed a query
    assert ledger.raw_queries == 1


def test_label_check_costs_vary_by_model(fixture_graph):
    ledger = ReferenceLedger()
    ledger.begin_sample()
    assert is_public_via_model(fixture_graph, 5, AccessModel.IDEAL, ledger)
    assert ledger.raw_queries == 0
    assert is_public_via_model(fixture_graph, 5, AccessModel.HIDDEN, ledger)
    assert not is_public_via_model(fixture_graph, 1, AccessModel.HIDDEN, ledger)
    assert ledger.raw_queries == 2


def test_probe_all_neighbors_charges_degree(fixture_graph):
    ledger = ReferenceLedger()
    ledger.begin_sample()
    flags = probe_all_neighbors(fixture_graph, 3, ledger)
    assert list(flags) == [False, True]
    assert ledger.raw_queries == fixture_graph.degree(3) == 2


def test_ledger_per_sample_partition():
    ledger = ReferenceLedger()
    for k in range(5):
        ledger.begin_sample()
        for v in range(k + 1):
            ledger.charge(v)
    assert ledger.per_sample_queries == [1, 2, 3, 4, 5]
    assert ledger.raw_queries == 15
    assert sum(ledger.per_sample_queries) == ledger.raw_queries


def test_ledger_memoization_dedupes_repeats():
    plain = ReferenceLedger()
    memo = ReferenceLedger(memoize=True)
    for ledger in (plain, memo):
        ledger.begin_sample()
        ledger.charge(7)
        ledger.charge(7)
        ledger.charge_many(np.array([7, 8, 8]))
    assert plain.raw_queries == 5
    assert memo.raw_queries == 2
    assert memo.unique_queried == {7, 8}


def test_ideal_walk_charges_one_query_per_sample(fixture_graph):
    r = 500
    rec = run_walk(
        fixture_graph, AccessModel.IDEAL, 4, r, PubdegMode.EXACT_IDEAL, rng_seed=7
    )
    assert rec.ledger.raw_queries == r
    assert np.array_equal(rec.ledger.unique_queried, np.unique(rec.nodes))


def test_hidden_exact_walk_on_regular_graph_charges_r_times_d():
    d = 6
    g = build_graph(regular_edges(60, d, seed=2), [False] * 60)
    r = 400
    rec = run_walk(g, AccessModel.HIDDEN, 0, r, PubdegMode.EXACT_HIDDEN, rng_seed=5)
    # every sample probes all d neighbors; reselection never happens with all
    # nodes public, and probe reports double as the next sample's data
    assert rec.ledger.raw_queries == r * d
    probed = np.concatenate([g.neighbors(v) for v in rec.nodes])
    assert np.array_equal(rec.ledger.unique_queried, np.unique(probed))


@pytest.mark.parametrize("memoize", [False, True])
def test_walk_refuses_a_charged_ledger(fixture_graph, monkeypatch, memoize):
    from privwalk import walk

    walked = QueryLedger(memoize=memoize)
    run_walk(fixture_graph, AccessModel.HIDDEN, 4, 50, PubdegMode.APPROX_HIDDEN, 3, walked)
    assert walked.raw_queries > 0
    known = QueryLedger(memoize=memoize)
    known.unique_queried = np.array([5])  # a node queried before, with no charge counted

    def no_selection(*args):
        raise AssertionError("the walk made selections")

    monkeypatch.setattr(walk, "_select", no_selection)
    for ledger in (walked, known):
        held = (ledger.raw_queries, ledger.unique_queried.copy())
        for mode in PubdegMode:
            with pytest.raises(ValueError, match="^the ledger already holds charges"):
                run_walk(fixture_graph, mode.access_model, 4, 50, mode, 3, ledger)
        assert ledger.raw_queries == held[0]
        assert np.array_equal(ledger.unique_queried, held[1])


@pytest.mark.parametrize("memoize", [False, True])
def test_walk_raw_queries_per_mode(fixture_graph, memoize):
    view = largest_public_cluster(fixture_graph)
    for mode in PubdegMode:
        rec = run_walk(fixture_graph, mode.access_model, 4, 300, mode, 13,
                       QueryLedger(memoize=memoize), view=view)
        queried = rec.ledger.unique_queried
        assert queried.dtype == np.int64 and (np.diff(queried) > 0).all()
        if memoize:
            want = queried.size
        elif mode is PubdegMode.EXACT_IDEAL:
            want = rec.r  # one query per visit
        elif mode is PubdegMode.EXACT_HIDDEN:
            want = rec.degrees.sum()  # every neighbor, every visit
        else:
            want = sum(rec.counters.attempts.values())  # one probe per selection
        assert rec.ledger.raw_queries == want
