"""Size, average-degree and privacy-rate estimators over walk records.

:func:`build_report` is the one entry point: it computes every estimate
below from one record in one pass and returns an :class:`EstimateReport`.

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

The collision count packs each sample into one int64 (node, position)
key, sorts the keys once and counts every sample's far-back partners
with one linear merge of the keys against themselves shifted by m. The
weight sums are slices of one prefix sum over the banded index set and
match the literal O(r^2) double loop to within rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .walk import WalkRecord


class NoCollisionError(RuntimeError):
    """No node collision among the admissible index pairs; size undefined."""


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


_M_FRACTION = 0.025  # the default gap threshold, as a fraction of the walk length


def default_gap_threshold(r: int, fraction: float = _M_FRACTION) -> int:
    """Index-pair gap: ``fraction`` of the walk length, within ``1..r-1``."""
    return max(1, min(r - 1, math.ceil(fraction * r)))


def _pair_count(r: int, m: int) -> int:
    # ordered pairs (k, l), k != l, |k - l| >= m
    span = r - m
    return span * (span + 1)


def _collision_pairs(nodes: np.ndarray, m: int) -> int:
    """Count ordered index pairs with equal nodes and gap >= m.

    Sample k becomes the key ``id_k << (s + 1) | (k + m) << 1``, where
    ``s`` is the bit length of ``r + m - 1`` and ``id_k`` is the node
    minus the smallest node, or the node's dense rank when the id span
    shifted left by ``s + 1`` would pass 2**63. Its needle
    ``id_k << (s + 1) | k << 1 | 1`` is the key moved m positions back
    with the low tag bit set; it stays in its node's run, and the keys
    below it are those of earlier nodes and those of its own node m or
    more positions back.

    The keys are sorted once, so the needles are sorted too, and one
    stable merge of the two runs puts the j-th needle at rank j plus the
    number of keys below it. The needles' ranks, less ``r(r-1)/2`` and
    less the keys of earlier nodes (each run's start times its length),
    sum to every sample's partners m or more positions back.
    """
    r = nodes.size
    shift = (r + m - 1).bit_length() + 1
    lo, hi = int(nodes.min()), int(nodes.max())
    merged = np.empty(2 * r, dtype=np.int64)
    key = merged[:r]
    if (hi - lo + 1) << shift <= 2**63:
        np.subtract(nodes, lo, out=key, dtype=np.int64)
    else:
        key[:] = np.unique(nodes, return_inverse=True)[1]
    key <<= shift
    key |= np.arange(2 * m, 2 * (r + m), 2)
    key.sort()
    ids = key >> shift
    runs = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1], [True])))
    earlier = int(runs[:-1] @ np.diff(runs))
    np.subtract(key, 2 * m - 1, out=merged[r:])
    merged.sort(kind="stable")  # timsort: one merge of two sorted runs
    merged &= 1  # the tag bit: 1 marks a needle
    ranks = int(np.flatnonzero(merged.astype(bool)).sum())
    return 2 * (ranks - r * (r - 1) // 2 - earlier)


def _check_gap(r: int, m: int) -> None:
    if not 1 <= m < r:
        raise ValueError(f"gap threshold must satisfy 1 <= m < r, got m={m}, r={r}")


def _check_positive(values: np.ndarray, what: str) -> None:
    if not np.all(values > 0):
        raise ValueError(f"every sample needs a positive {what}")


def build_report(record: WalkRecord, m: int | None = None) -> EstimateReport:
    """Compute all estimates of one record; ``m`` defaults to
    :func:`default_gap_threshold` of the record length.

    The checks run in this order: the gap threshold, the public degrees,
    the collision count (:class:`NoCollisionError`), then the degrees.
    """
    r = record.r
    if m is None:
        m = default_gap_threshold(r)
    _check_gap(r, m)
    _check_positive(record.public_degrees, "public-degree value")
    inv = 1.0 / record.public_degrees
    pairs = _pair_count(r, m)
    collisions = _collision_pairs(record.nodes, m)

    # sum over far-away partners via prefix sums: for index k the partners
    # are everything outside the window [k-m+1, k+m-1], so its near sum is
    # csum[min(k+m, r)] - csum[max(k-m+1, 0)], taken here as slices
    csum = np.empty(r + 1)
    csum[0] = 0.0
    np.cumsum(inv, out=csum[1:])
    far = np.empty(r)
    far[: r - m + 1] = csum[m:]
    far[r - m + 1 :] = csum[r]
    far[m:] -= csum[1 : r - m + 1]  # csum[0] is 0: nothing to take below m
    np.subtract(csum[r], far, out=far)

    psi_prior = float(record.public_degrees @ far) / pairs
    psi_proposed = float(record.degrees.astype(np.float64) @ far) / pairs

    if collisions == 0:
        raise NoCollisionError(
            f"no node collision among pairs with gap >= {m} in {r} samples"
        )
    phi = collisions / pairs
    size_nc, size_proposed = psi_prior / phi, psi_proposed / phi

    _check_positive(record.degrees, "degree")
    smooth = r / float(np.sum(inv))
    proposed = r / float(np.sum(1.0 / record.degrees))
    return EstimateReport(
        collision_mean=phi,
        weight_mean_prior=psi_prior,
        weight_mean_proposed=psi_proposed,
        size_nc=size_nc,
        size_proposed=size_proposed,
        avg_degree_smooth=smooth,
        avg_degree_proposed=proposed,
        privacy_rate_size=1.0 - size_nc / size_proposed,
        privacy_rate_avg_degree=1.0 - smooth / proposed,
        gap_threshold=m,
        sample_count=r,
    )
