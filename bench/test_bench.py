"""Tests for the benchmark's own logic. Run with ``python3 -m pytest bench -q``."""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer, covered, self_times, tail_percentile  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_covered_merges_overlaps_and_clips_to_the_window():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 5)]) == 4
    assert covered(0, 10, [(8, 12), (-3, 1)]) == 3
    assert covered(0, 10, [(2, 4), (2, 4), (6, 7)]) == 3
    assert covered(0, 10, [(11, 12)]) == 0


def test_self_time_is_duration_minus_child_cover():
    # trial [0, 10] with children [1, 3] and [4, 9]; the second child has a
    # grandchild [5, 6] that counts against the child, not the trial
    tracer = Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 9, 10]))
    with tracer.span("trial") as t:
        with tracer.span("a", t):
            pass
        with tracer.span("b", t) as b:
            with tracer.span("c", b):
                pass
    own = self_times(tracer.spans)
    by_name = {s.name: own[s.sid] for s in tracer.spans}
    assert by_name == {"trial": 3, "a": 2, "b": 4, "c": 1}
    assert sum(own.values()) == tracer.named("trial")[0].duration


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock([0, 2]))
    with pytest.raises(ValueError):
        with tracer.span("x"):
            raise ValueError
    assert tracer.spans[0].duration == 2


@pytest.mark.parametrize(
    "count, pct",
    [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_values_beyond(count, pct):
    values = list(range(count, 0, -1))  # unsorted on purpose
    got_pct, n, value = tail_percentile(values)
    assert (got_pct, n) == (pct, count)
    assert sum(v > value for v in values) >= 10
    # the next step up the ladder would leave fewer than ten beyond
    higher = [p for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0) if p > pct]
    assert all(int(count * (1 - p / 100) + 1e-9) < 10 for p in higher)


def test_tail_percentile_falls_back_to_the_median():
    assert tail_percentile([3.0, 1.0, 2.0]) == (50.0, 3, 2.0)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_correction_scales_by_the_kernel_time():
    quiet = speed.QUIET_KERNEL_S
    assert speed.corrected(1.0, quiet, quiet) == 1.0
    assert speed.corrected(2.0, 2 * quiet, 2 * quiet) == pytest.approx(1.0)  # twice as slow
    assert speed.corrected(3.0, 0.5 * quiet, 1.5 * quiet) == pytest.approx(3.0)  # mean of both
    assert speed.SpeedProbe().sample() > 0


def test_edge_file_is_a_function_of_the_seed(tmp_path):
    paths = [tmp_path / name for name in ("a", "b", "c")]
    refs = [gen.write_edge_file(p, seed, 500, 4000, 0.6) for p, seed in zip(paths, (7, 7, 8))]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    assert refs[0] == refs[1]
    text = paths[0].read_text().splitlines()
    assert any(line.startswith("#") for line in text)
    assert any(line.startswith("%") for line in text)
    pairs = [tuple(map(int, line.split())) for line in text if line and line[0].isdigit()]
    assert len(pairs) == 4000 == refs[0]["data_lines"]
    assert any(a == b for a, b in pairs)  # self-loops
    assert len({tuple(sorted(p)) for p in pairs}) < len(pairs)  # repeats
    assert refs[0]["nodes"] < len({v for p in pairs for v in p})  # detached part


def test_sample_file_is_a_function_of_the_seed(tmp_path):
    paths = [tmp_path / name for name in ("a", "b", "c")]
    refs = [gen.write_sample_file(p, seed, 3000, 2000, (50, 80))
            for p, seed in zip(paths, (3, 3, 4))]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    assert refs[0] == refs[1]
    rows = [line.split() for line in paths[0].read_text().splitlines() if line[0] != "#"]
    assert len(rows) == 3000
    assert all(1 <= int(s) <= int(d) for _, _, d, s in rows)


def test_reference_estimates_match_the_pairwise_definition():
    ids, deg, pub = gen.sample_records(5, 400, 60)
    m = 17
    k, l = np.meshgrid(np.arange(ids.size), np.arange(ids.size), indexing="ij")
    far = np.abs(k - l) >= m
    ref = gen.estimate_reference(ids, deg, pub, m)
    assert ref["collisions"] == int(np.sum(far & (ids[k] == ids[l])))
    pairs = int(far.sum())
    prior = np.sum(np.where(far, pub[k] / pub[l], 0.0)) / pairs
    proposed = np.sum(np.where(far, deg[k] / pub[l], 0.0)) / pairs
    assert ref["weight_mean_prior"] == pytest.approx(prior, rel=1e-12)
    assert ref["weight_mean_proposed"] == pytest.approx(proposed, rel=1e-12)


def test_benchmark_file_names_every_metric_the_driver_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == [os.path.basename(HERE)]
