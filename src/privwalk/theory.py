"""Closed-form convergence targets and expected biases.

Everything here is computed directly from graph structure, never from a
walk, so these values serve as oracles for the sampling estimators:

* the limits the four estimators converge to for a fixed labeling,
* expectations of those limits under independent Bernoulli(p) labels,
* expected per-sample query costs of the exact and the counter-based
  public-degree methods.

Degree sums are accumulated in 64-bit integers where exact and with
compensated floating-point summation otherwise; graphs with hundreds of
millions of adjacency entries stay well inside int64 range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import GraphError, LabeledGraph, PublicClusterView, _check_rate, assign_labels_bernoulli, largest_public_cluster


@dataclass(frozen=True)
class ConvergenceValues:
    """Limits of the four estimators for one fixed labeling."""

    cluster_size: float  # prior size estimator target
    size_proposed: float  # proposed size estimator target
    avg_degree_prior: float  # prior average-degree target (cluster average)
    avg_degree_proposed: float  # proposed average-degree target


@dataclass(frozen=True)
class ExpectedErrors:
    """Expected estimator limits under Bernoulli(p) labels, from degrees only."""

    expected_cluster_size: float  # (1-p) n
    size_coefficient: float  # multiplier relating proposed size target to n
    expected_size_proposed: float  # coefficient * n
    expected_avg_degree_prior: float  # (1-p) * average degree
    expected_avg_degree_proposed: float  # average degree


def convergence_values(g: LabeledGraph, view: PublicClusterView) -> ConvergenceValues:
    """Exact estimator limits on the largest public cluster of ``g``."""
    members = view.members
    d = g.degrees[members].astype(np.int64)
    dstar = view.public_degree[members].astype(np.int64)
    n_star = view.member_count
    if n_star < 1:
        raise GraphError("empty cluster view")

    sum_dstar_d = int(np.sum(dstar * d))
    sum_dstar_sq = int(np.sum(dstar * dstar))
    dsum = view.public_degree_sum

    size_proposed = n_star * (sum_dstar_d / sum_dstar_sq) if sum_dstar_sq else float("nan")
    avg_prior = dsum / n_star
    ratio_sum = math.fsum((dstar / d).tolist())
    avg_proposed = dsum / ratio_sum if ratio_sum else float("nan")
    return ConvergenceValues(float(n_star), size_proposed, avg_prior, avg_proposed)


def expected_errors(g: LabeledGraph, p: float) -> ExpectedErrors:
    """Expected estimator limits when labels are redrawn Bernoulli(p).

    Label-free: uses only the full-graph degree sequence. The expressions
    assume the public part of the graph keeps (almost) all public nodes
    in one cluster, which holds for well-connected graphs at moderate p.
    """
    _check_rate(p)
    d = g.degrees.astype(np.int64)
    n = g.node_count
    sum_d = int(np.sum(d))
    sum_d_sq = int(np.sum(d * d))
    q = 1.0 - p

    denom = q * sum_d_sq + p * sum_d  # sum of d*((1-p)d + p)
    coeff = q * sum_d_sq / denom if denom else 0.0
    d_avg = sum_d / n
    return ExpectedErrors(q * n, coeff, coeff * n, q * d_avg, d_avg)


def expected_query_ratios(view: PublicClusterView, g: LabeledGraph) -> tuple[float, float, float]:
    """Expected queries per sample: (exact method, counter method, quotient).

    Exact method: every neighbor of each sample is probed, costing the
    sample's degree. Counter method: probes follow a geometric law with
    success probability pubdeg/degree, costing degree/pubdeg on average.
    Both are then averaged under the walk's stationary law.
    """
    members = view.members
    d = g.degrees[members].astype(np.int64)
    dstar = view.public_degree[members].astype(np.int64)
    dsum = view.public_degree_sum
    if dsum <= 0:
        raise GraphError("cluster has no internal edge")
    q_exact = int(np.sum(dstar * d)) / dsum
    q_counter = int(np.sum(d)) / dsum
    return q_exact, q_counter, q_exact / q_counter


def public_count_moments(d: int, p: float) -> tuple[float, float]:
    """First two moments of a Binomial(d, 1-p) public-neighbor count.

    Returns (mean, second moment): (1-p)d and (1-p)d((1-p)d + p).
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    _check_rate(p)
    q = 1.0 - p
    return q * d, q * d * (q * d + p)


def expected_error_inequalities(g: LabeledGraph, p: float) -> tuple[bool, bool]:
    """Check that each proposed target is no farther from truth than the prior's.

    First flag: expected proposed size target vs expected cluster size,
    both against n. Second flag: expected proposed average-degree target
    vs the prior's, both against the true average degree. The expected
    ratios are evaluated with their common (1-p) powers cancelled, which
    keeps p = 1 finite.
    """
    ee = expected_errors(g, p)
    n = g.node_count
    d_avg = g.avg_degree

    size_ok = abs(n - ee.expected_size_proposed) <= abs(n - ee.expected_cluster_size)
    avg_ok = abs(d_avg - ee.expected_avg_degree_proposed) <= abs(
        d_avg - ee.expected_avg_degree_prior
    )
    return size_ok, avg_ok


THEORY_COLUMNS = (
    "p",
    "expected_cluster_size",
    "expected_size_proposed",
    "expected_avg_degree_prior",
    "avg_degree",
    "expected_q_exact",
    "expected_q_counter",
)


def theory_report_rows(g: LabeledGraph, p_values=None, label_seed: int = 0) -> list[dict]:
    """One row of closed-form expectations per privacy rate.

    Query-cost columns depend on a realized labeling: labels are drawn
    once per row with seed ``label_seed + i``. With ``p_values`` None
    there is one row, at the private fraction of the labels ``g``
    carries, and its query costs come from those labels. A labeling that
    leaves no usable public cluster gets NaN query costs.
    """
    fixed = p_values is None
    rows = []
    for i, p in enumerate([g.private_fraction] if fixed else p_values):
        ee = expected_errors(g, p)
        q_exact = q_counter = float("nan")
        try:
            gl = g if fixed else assign_labels_bernoulli(g, float(p), label_seed + i)
            q_exact, q_counter, _ = expected_query_ratios(largest_public_cluster(gl), g)
        except GraphError:
            pass  # labeling left no usable public cluster
        rows.append(
            {
                "p": float(p),
                "expected_cluster_size": ee.expected_cluster_size,
                "expected_size_proposed": ee.expected_size_proposed,
                "expected_avg_degree_prior": ee.expected_avg_degree_prior,
                "avg_degree": ee.expected_avg_degree_proposed,
                "expected_q_exact": q_exact,
                "expected_q_counter": q_counter,
            }
        )
    return rows
