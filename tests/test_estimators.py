import numpy as np
import pytest

from graphgen import random_connected_edges
from oracles import naive_pair_stats, outer_pair_stats, reference_weight_sums

from privwalk import (
    AccessModel,
    NoCollisionError,
    PubdegMode,
    WalkRecord,
    assign_labels_bernoulli,
    build_graph,
    build_report,
    default_gap_threshold,
    largest_public_cluster,
    run_walk,
)


def _record(nodes, degrees, pubdegs):
    return WalkRecord(
        np.asarray(nodes, dtype=np.int64),
        np.asarray(degrees, dtype=np.int64),
        np.asarray(pubdegs, dtype=np.float64),
        PubdegMode.EXACT_HIDDEN,
    )


def test_default_gap_threshold():
    assert default_gap_threshold(100) == 3
    assert default_gap_threshold(1000) == 25
    assert default_gap_threshold(10) == 1
    assert default_gap_threshold(41) == 2
    # clamped to 1..r-1
    assert default_gap_threshold(10, 1.0) == 9
    assert default_gap_threshold(2, 0.9) == 1
    assert default_gap_threshold(1) == 1


def test_constant_record_collapses_to_unit_statistics():
    # one node revisited forever: every admissible pair collides and every
    # ratio is 1, so both sizes estimate a single-node cluster
    rec = _record([7] * 20, [3] * 20, [3.0] * 20)
    est = build_report(rec, 2)
    assert est.collision_mean == 1.0
    assert est.weight_mean_prior == pytest.approx(1.0)
    assert est.weight_mean_proposed == pytest.approx(1.0)
    assert est.size_nc == pytest.approx(1.0)
    assert est.size_proposed == pytest.approx(1.0)


def test_no_collision_raises():
    rec = _record(range(12), [2] * 12, [2.0] * 12)
    with pytest.raises(NoCollisionError):
        build_report(rec, 1)


def test_gap_threshold_validation():
    rec = _record([1, 2, 1], [2] * 3, [2.0] * 3)
    with pytest.raises(ValueError):
        build_report(rec, 0)
    with pytest.raises(ValueError):
        build_report(rec, 3)


def test_nonpositive_public_degree_rejected():
    for bad in (0.0, -1.0, float("nan")):  # NaN fails every comparison
        rec = _record([1, 2, 1], [2, 2, 2], [2.0, bad, 2.0])
        with pytest.raises(ValueError, match="positive public-degree"):
            build_report(rec, 1)
        with pytest.raises(ValueError, match="positive public-degree"):
            build_report(rec)


def test_nonpositive_degree_rejected():
    # checked after the collision count, even where every public degree is fine
    for bad in (0, -1):
        rec = _record([1, 2, 1], [2, bad, 2], [2.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="positive degree"):
            build_report(rec, 1)
    with pytest.raises(NoCollisionError):
        build_report(_record([1, 2, 3], [2, 0, 2], [2.0, 1.0, 2.0]), 1)


def test_gap_excludes_near_pairs():
    # nodes repeat with lag 1 only; any m >= 1 excludes (k, k+-0) but lag-1
    # pairs survive m=1 and die at m=2
    rec = _record([1, 1, 2, 2, 3, 3], [2] * 6, [2.0] * 6)
    assert build_report(rec, 1).collision_mean > 0
    with pytest.raises(NoCollisionError):
        build_report(rec, 2)


def test_matches_naive_oracle(fixture_graph):
    rec = run_walk(
        fixture_graph, AccessModel.HIDDEN, 4, 200, PubdegMode.APPROX_HIDDEN, 3
    )
    for m in (1, 3, 10):
        est = build_report(rec, m)
        count, phi, psi, psi_hat = naive_pair_stats(
            rec.nodes, rec.degrees, rec.public_degrees, m
        )
        assert est.collision_mean == pytest.approx(phi, rel=1e-9)
        assert est.weight_mean_prior == pytest.approx(psi, rel=1e-9)
        assert est.weight_mean_proposed == pytest.approx(psi_hat, rel=1e-9)


def test_matches_outer_product_oracle():
    rng = np.random.default_rng(0)
    nodes = rng.integers(0, 8, size=60)
    degs = rng.integers(1, 9, size=60)
    pubs = degs - rng.integers(0, 2, size=60).astype(float)
    pubs[pubs <= 0] = 1.0
    rec = _record(nodes, degs, pubs)
    for m in (1, 2, 7):
        est = build_report(rec, m)
        count, phi, psi, psi_hat = outer_pair_stats(nodes, degs, pubs, m)
        assert est.collision_mean == pytest.approx(phi, rel=1e-12)
        assert est.weight_mean_prior == pytest.approx(psi, rel=1e-12)
        assert est.weight_mean_proposed == pytest.approx(psi_hat, rel=1e-12)


def test_ordered_pairs_average_reciprocal_ratios():
    # over ordered index pairs the ratio mean equals the unordered mean of
    # (x/y + y/x) / 2, which is what makes the collision-count doubling and
    # the weight sums consistent with each other
    rng = np.random.default_rng(5)
    pubs = rng.integers(1, 6, size=30).astype(float)
    rec = _record(rng.integers(0, 5, size=30), pubs.astype(int) + 1, pubs)
    m = 4
    est = build_report(rec, m)
    acc = []
    for k in range(30):
        for l in range(30):
            if abs(k - l) >= m:
                acc.append(pubs[k] / pubs[l])
    assert est.weight_mean_prior == pytest.approx(np.mean(acc), rel=1e-12)
    sym = []
    for k in range(30):
        for l in range(k + m, 30):
            sym.append(0.5 * (pubs[k] / pubs[l] + pubs[l] / pubs[k]))
    assert est.weight_mean_prior == pytest.approx(np.mean(sym), rel=1e-12)


def test_all_public_walk_makes_both_routes_agree():
    g = build_graph(random_connected_edges(25, 40, seed=11), [False] * 25)
    rec = run_walk(g, AccessModel.HIDDEN, 0, 4000, PubdegMode.EXACT_HIDDEN, 7)
    est = build_report(rec, default_gap_threshold(rec.r))
    assert est.size_nc == pytest.approx(est.size_proposed, rel=1e-12)
    assert est.avg_degree_smooth == pytest.approx(est.avg_degree_proposed, rel=1e-12)
    # estimates should land near the true values on a public graph
    assert est.size_nc == pytest.approx(25, rel=0.2)
    assert est.avg_degree_smooth == pytest.approx(g.avg_degree, rel=0.15)


def test_size_estimates_converge_on_fixture(fixture_graph):
    view = largest_public_cluster(fixture_graph)
    rec = run_walk(
        fixture_graph, AccessModel.IDEAL, 4, 60_000, PubdegMode.EXACT_IDEAL, 19
    )
    est = build_report(rec, default_gap_threshold(rec.r))
    assert est.size_nc == pytest.approx(view.member_count, rel=0.05)
    # the degree-substituted route inflates by sum(d* d)/sum(d*^2)
    dstar = view.public_degree[view.members].astype(float)
    full = fixture_graph.degrees[view.members].astype(float)
    inflate = float(dstar @ full) / float(dstar @ dstar)
    assert est.size_proposed == pytest.approx(view.member_count * inflate, rel=0.05)


def test_privacy_rate_zero_when_routes_match():
    # every public degree equals the degree: both routes give equal estimates
    degs = [3, 2, 3, 4, 2, 3]
    rep = build_report(_record([1, 2, 1, 3, 2, 1], degs, degs), 1)
    assert (rep.privacy_rate_size, rep.privacy_rate_avg_degree) == (0.0, 0.0)


def test_privacy_rate_recovers_label_rate():
    g = build_graph(random_connected_edges(3000, 9000, seed=13), [False] * 3000)
    gl = assign_labels_bernoulli(g, 0.3, 17)
    view = largest_public_cluster(gl)
    rec = run_walk(
        gl,
        AccessModel.HIDDEN,
        int(view.members[0]),
        60_000,
        PubdegMode.EXACT_HIDDEN,
        23,
        view=view,
    )
    rep = build_report(rec)
    assert rep.privacy_rate_size == pytest.approx(0.3, abs=0.08)
    assert rep.privacy_rate_avg_degree == pytest.approx(0.3, abs=0.08)


def test_build_report_defaults_and_fields(fixture_graph):
    rec = run_walk(
        fixture_graph, AccessModel.IDEAL, 4, 400, PubdegMode.EXACT_IDEAL, 29
    )
    rep = build_report(rec)
    assert rep.gap_threshold == default_gap_threshold(400)
    assert rep.sample_count == 400
    # the literal pair loop and the gathered prefix sums, not the report's slices
    m = rep.gap_threshold
    count, phi, psi, psi_hat = naive_pair_stats(
        rec.nodes.tolist(), rec.degrees.tolist(), rec.public_degrees.tolist(), m
    )
    assert count == (400 - m) * (400 - m + 1)
    assert rep.collision_mean == pytest.approx(phi, rel=1e-12)
    assert rep.size_nc == pytest.approx(psi / phi, rel=1e-9)
    assert rep.size_proposed == pytest.approx(psi_hat / phi, rel=1e-9)
    *_, smooth, proposed = reference_weight_sums(rec.degrees, rec.public_degrees, m)
    assert (rep.avg_degree_smooth, rep.avg_degree_proposed) == (smooth, proposed)
    assert rep.privacy_rate_size == 1.0 - rep.size_nc / rep.size_proposed
    assert rep.privacy_rate_avg_degree == 1.0 - rep.avg_degree_smooth / rep.avg_degree_proposed
