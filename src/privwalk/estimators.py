"""Size, average-degree and privacy-rate estimators over walk records.

The size estimators average indicator and weight terms over all ordered
index pairs (k, l) with |k - l| >= m, where the gap threshold m discards
pairs too close along the walk to be treated as independent:

  collision mean        mean of [node_k == node_l]
  prior weight mean     mean of pubdeg_k / pubdeg_l
  proposed weight mean  mean of degree_k / pubdeg_l

and each size estimate is a weight mean over the collision mean. The
prior pair weights need exact public degrees; the proposed weights put
the plain degree in the numerator so they work with cheap hidden-model
sampling, at the price of converging to a slightly rescaled target.

Both average-degree estimators are harmonic sample means: the prior one
over public degrees, the proposed one over plain degrees.

The collision count is one sort of (node, position) keys plus one
``searchsorted``. The weight sums are prefix sums over the banded index
set and match the literal O(r^2) double loop to within rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .walk import WalkRecord


class NoCollisionError(RuntimeError):
    """No node collision among the admissible index pairs; size undefined."""


class _SizeEstimates(NamedTuple):
    collision_mean: float
    weight_mean_prior: float
    weight_mean_proposed: float
    size_nc: float
    size_proposed: float


@dataclass(frozen=True)
class EstimateReport:
    """Every estimate computable from one walk record.

    Each privacy rate is ``1 - prior / proposed``, for the size pair and
    for the average-degree pair. They are raw values, not clamped to
    [0, 1], so sampling noise can push either slightly negative.
    """

    collision_mean: float
    weight_mean_prior: float
    weight_mean_proposed: float
    size_nc: float
    size_proposed: float
    avg_degree_smooth: float
    avg_degree_proposed: float
    privacy_rate_size: float
    privacy_rate_avg_degree: float
    gap_threshold: int
    sample_count: int


def default_gap_threshold(r: int, fraction: float = 0.025) -> int:
    """Index-pair gap: ``fraction`` of the walk length, within ``1..r-1``."""
    return max(1, min(r - 1, math.ceil(fraction * r)))


def _pair_count(r: int, m: int) -> int:
    # ordered pairs (k, l), k != l, |k - l| >= m
    span = r - m
    return span * (span + 1)


def _collision_pairs(nodes: np.ndarray, m: int) -> int:
    """Count ordered index pairs with equal nodes and gap >= m.

    Sample k becomes the key ``id_k * r + k``, where ``id_k`` is the node
    minus the smallest node, or the node's dense rank when the largest key,
    ``(max - min + 1) * r - 1`` in Python ints, would not fit in int64.
    One sort groups the keys by node in position order, and one
    ``searchsorted`` counts each key's partners m or more positions back.
    """
    r = nodes.size
    lo, hi = int(nodes.min()), int(nodes.max())
    if (hi - lo + 1) * r <= 2**63:
        key = np.subtract(nodes, lo, dtype=np.int64)
    else:
        key = np.unique(nodes, return_inverse=True)[1]
    key = np.sort(key * r + np.arange(r))  # keys are unique: stability is moot
    run_start = np.arange(r)
    run_start[1:][np.diff(key // r) == 0] = 0
    np.maximum.accumulate(run_start, out=run_start)
    # a position below m searches below its run start and is clipped to 0
    below = np.searchsorted(key, key - m, side="right") - run_start
    return 2 * int(below[below > 0].sum())


def size_estimates(record: WalkRecord, m: int) -> _SizeEstimates:
    """Collision mean, both weight means, and both size estimates.

    Raises :class:`NoCollisionError` when no admissible pair collides.
    """
    r = record.r
    if not 1 <= m < r:
        raise ValueError(f"gap threshold must satisfy 1 <= m < r, got m={m}, r={r}")
    dstar = record.public_degrees
    if not np.all(dstar > 0):
        raise ValueError("every sample needs a positive public-degree value")
    d = record.degrees.astype(np.float64)

    pairs = _pair_count(r, m)
    collisions = _collision_pairs(record.nodes, m)

    # sum over far-away partners via prefix sums: for index k the partners
    # are everything outside the window [k-m+1, k+m-1]
    inv = 1.0 / dstar
    csum = np.concatenate(([0.0], np.cumsum(inv)))
    k_idx = np.arange(r)
    near = csum[np.minimum(k_idx + m, r)] - csum[np.maximum(k_idx - m + 1, 0)]
    far = csum[-1] - near

    psi_prior = float(dstar @ far) / pairs
    psi_proposed = float(d @ far) / pairs

    if collisions == 0:
        raise NoCollisionError(
            f"no node collision among pairs with gap >= {m} in {r} samples"
        )
    phi = collisions / pairs
    return _SizeEstimates(phi, psi_prior, psi_proposed, psi_prior / phi, psi_proposed / phi)


def avg_degree_estimates(record: WalkRecord) -> tuple[float, float]:
    """Harmonic-mean average-degree estimates: (prior, proposed)."""
    if not np.all(record.degrees > 0):
        raise ValueError("every sample needs a positive degree")
    dstar = record.public_degrees
    if not np.all(dstar > 0):
        raise ValueError("every sample needs a positive public-degree value")
    r = record.r
    smooth = r / float(np.sum(1.0 / dstar))
    proposed = r / float(np.sum(1.0 / record.degrees))
    return smooth, proposed


def build_report(record: WalkRecord, m: int | None = None) -> EstimateReport:
    """Compute all estimates of one record; ``m`` defaults to
    :func:`default_gap_threshold` of the record length."""
    if m is None:
        m = default_gap_threshold(record.r)
    size = size_estimates(record, m)
    smooth, proposed = avg_degree_estimates(record)
    return EstimateReport(
        **size._asdict(),
        avg_degree_smooth=smooth,
        avg_degree_proposed=proposed,
        privacy_rate_size=1.0 - size.size_nc / size.size_proposed,
        privacy_rate_avg_degree=1.0 - smooth / proposed,
        gap_threshold=m,
        sample_count=record.r,
    )
