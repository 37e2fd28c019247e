import math

import numpy as np
import pytest

from graphgen import (
    path_edges,
    random_connected_edges,
    regular_edges,
    star_edges,
)
from oracles import enumerate_public_count_moments, label_redraw_sums

from privwalk import (
    GraphError,
    THEORY_COLUMNS,
    assign_labels_bernoulli,
    build_graph,
    convergence_values,
    expected_error_inequalities,
    public_count_moments,
    expected_errors,
    expected_query_ratios,
    largest_public_cluster,
    theory_report_rows,
)


def test_all_public_convergence_values():
    g = build_graph(random_connected_edges(40, 60, seed=1), [False] * 40)
    view = largest_public_cluster(g)
    cv = convergence_values(g, view)
    assert cv.cluster_size == 40
    assert cv.size_proposed == pytest.approx(40.0)
    assert cv.avg_degree_prior == pytest.approx(g.avg_degree)
    assert cv.avg_degree_proposed == pytest.approx(g.avg_degree)


def test_fixture_convergence_values(fixture_graph):
    view = largest_public_cluster(fixture_graph)
    cv = convergence_values(fixture_graph, view)
    assert cv.cluster_size == 5
    # d* = (1,4,1,1,1), d = (2,4,1,1,1) on the cluster
    assert cv.size_proposed == pytest.approx(5 * 21 / 20)
    assert cv.avg_degree_prior == pytest.approx(8 / 5)
    assert cv.avg_degree_proposed == pytest.approx(8 / 4.5)


def test_fixture_query_ratios(fixture_graph):
    view = largest_public_cluster(fixture_graph)
    q_exact, q_counter, quotient = expected_query_ratios(view, fixture_graph)
    assert q_exact == pytest.approx(21 / 8)
    assert q_counter == pytest.approx(9 / 8)
    assert quotient == pytest.approx(21 / 9)


def test_convergence_values_match_label_redraw_sums():
    g = build_graph(random_connected_edges(60, 100, seed=2), [False] * 60)
    gl = assign_labels_bernoulli(g, 0.35, 4)
    view = largest_public_cluster(gl)
    sums = label_redraw_sums(gl, view)
    cv = convergence_values(gl, view)
    assert cv.cluster_size == sums["n_star"]
    assert cv.size_proposed == pytest.approx(
        sums["n_star"] * sums["sum_dstar_d"] / sums["sum_dstar_sq"]
    )
    assert cv.avg_degree_prior == pytest.approx(sums["dsum_star"] / sums["n_star"])
    assert cv.avg_degree_proposed == pytest.approx(
        sums["dsum_star"] / sums["sum_ratio"]
    )


def test_moments_match_exhaustive_enumeration():
    for d in (1, 3, 6, 10):
        for p in (0.0, 0.2, 0.5, 0.9, 1.0):
            mean, second = public_count_moments(d, p)
            ref_mean, ref_second = enumerate_public_count_moments(d, p)
            assert mean == pytest.approx(ref_mean, abs=1e-12)
            assert second == pytest.approx(ref_second, abs=1e-12)
    with pytest.raises(ValueError, match="^degree must be non-negative$"):
        public_count_moments(-1, 0.2)


def test_expected_errors_bounds_and_extremes():
    g = build_graph(random_connected_edges(50, 120, seed=3), [False] * 50)
    for p in (0.0, 0.1, 0.4, 0.7, 1.0):
        ee = expected_errors(g, p)
        # the size coefficient sits between 1-p and 1
        assert (1.0 - p) - 1e-12 <= ee.size_coefficient <= 1.0 + 1e-12
        assert ee.expected_cluster_size == pytest.approx((1 - p) * 50)
        assert ee.expected_avg_degree_proposed == pytest.approx(g.avg_degree)
        assert ee.expected_avg_degree_prior == pytest.approx((1 - p) * g.avg_degree)
    assert expected_errors(g, 0.0).size_coefficient == pytest.approx(1.0)
    assert expected_errors(g, 1.0).size_coefficient == 0.0
    with pytest.raises(GraphError):
        expected_errors(g, -0.1)


def test_size_coefficient_closed_form():
    g = build_graph(star_edges(9), [False] * 9)
    d = g.degrees.astype(float)
    for p in (0.25, 0.6):
        q = 1 - p
        expect = q * np.sum(d * d) / (q * np.sum(d * d) + p * np.sum(d))
        assert expected_errors(g, p).size_coefficient == pytest.approx(expect)


def test_regular_graph_proposed_size_is_scaled_n():
    # with equal degrees the coefficient is qd/(qd+p) on every node
    d = 6
    g = build_graph(regular_edges(48, d, seed=4), [False] * 48)
    for p in (0.3, 0.8):
        q = 1 - p
        ee = expected_errors(g, p)
        assert ee.expected_size_proposed == pytest.approx(48 * q * d / (q * d + p))


def test_error_dominance_holds_across_graphs():
    graphs = [
        build_graph(star_edges(12), [False] * 12),
        build_graph(path_edges(15), [False] * 15),
        build_graph(regular_edges(30, 4, seed=5), [False] * 30),
        build_graph(random_connected_edges(80, 200, seed=6), [False] * 80),
    ]
    for g in graphs:
        for p in (0.0, 0.2, 0.5, 0.9, 1.0):
            size_ok, avg_ok = expected_error_inequalities(g, p)
            assert size_ok and avg_ok


def test_avg_degree_flag_reads_the_expected_targets(monkeypatch):
    import dataclasses

    import privwalk.theory as theory

    g = build_graph(random_connected_edges(40, 80, seed=8), [False] * 40)
    real = theory.expected_errors

    def off_target(g, p):
        # a proposed target farther from the average degree than the prior's
        ee = real(g, p)
        return dataclasses.replace(ee, expected_avg_degree_proposed=3 * ee.expected_avg_degree_proposed)

    monkeypatch.setattr(theory, "expected_errors", off_target)
    size_ok, avg_ok = expected_error_inequalities(g, 0.3)
    assert size_ok and not avg_ok


def test_report_rows_columns_and_monotone_size():
    g = build_graph(random_connected_edges(200, 500, seed=7), [False] * 200)
    ps = [0.0, 0.25, 0.5, 0.75]
    rows = theory_report_rows(g, ps, label_seed=11)
    assert len(rows) == 4
    for row in rows:
        assert tuple(row.keys()) == THEORY_COLUMNS
    sizes = [row["expected_size_proposed"] for row in rows]
    assert sizes == sorted(sizes, reverse=True)
    assert rows[0]["expected_cluster_size"] == 200
    assert rows[0]["expected_q_exact"] == pytest.approx(
        float(g.degrees @ g.degrees) / g.degree_sum
    )
    assert rows[0]["expected_q_counter"] == pytest.approx(1.0)


def test_report_rows_with_everything_private_yields_nan_queries():
    g = build_graph(path_edges(6), [False] * 6)
    rows = theory_report_rows(g, [1.0], label_seed=0)
    assert math.isnan(rows[0]["expected_q_exact"])
    assert math.isnan(rows[0]["expected_q_counter"])
    assert rows[0]["expected_cluster_size"] == 0.0


def test_report_rows_reuse_fixed_view(fixture_graph):
    # without a grid, one row reads the labels the graph carries
    rows = theory_report_rows(fixture_graph)
    assert [row["p"] for row in rows] == [fixture_graph.private_fraction]
    for row in rows:
        assert row["expected_q_exact"] == pytest.approx(21 / 8)
        assert row["expected_q_counter"] == pytest.approx(9 / 8)
