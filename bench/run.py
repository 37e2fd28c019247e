"""Benchmark driver for privwalk: one workload, one seed, one run.

Usage, from the repository root::

    python3 bench/run.py --workload paper_sweep --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run times the program's own entry point and
prints the end-to-end metrics. With ``--trace 1`` it follows each
untraced batch with a replay of its trials through the public layer
functions, a span around every call, and prints the per-layer metrics.
``DESIGN.md`` beside this file describes the workloads and metrics. The last
line of standard output is one JSON object; the line before it, starting
with ``record``, holds the environment, per-batch CSV digests and every
output check. Inputs are generated from the seed into
``.bench_build/`` under the repository root and deleted afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

from speed import SpeedProbe, corrected
from tracing import Tracer, self_times, tail_percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIB = 1 << 20
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 5001
SETUP_MIN_SECONDS = 2.0
MODES = ("exact_ideal", "exact_hidden", "approx_hidden")
FAILURE_CAUSES = ("no_public_node", "stuck", "no_collision")

END_TO_END = {"setup_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "ingest.load_edge_list_s": "s",
    "ingest.edge_lines_per_s": "1/s",
    "ingest.load_sample_records_s": "s",
    "ingest.sample_lines_per_s": "1/s",
    "graph.assign_labels_ms": "ms",
    "graph.largest_public_cluster_ms": "ms",
    "graph.adjacency_entries_per_s": "1/s",
    "graph.cluster_members": "count",
    "graph.cluster_share": "ratio",
    "walk.run_walk_ms": "ms",
    **{f"walk.us_per_sample.{m}": "us" for m in MODES},
    "walk.tries_per_sample": "count",
    "walk.share": "ratio",
    **{f"access.queries_per_sample.{m}": "count" for m in MODES},
    **{f"access.unique_queried_frac.{m}": "ratio" for m in MODES},
    "estimators.build_report_ms": "ms",
    "estimators.ns_per_sample": "ns",
    "estimators.distinct_nodes": "count",
    "estimators.collision_pairs": "count",
    "estimators.share": "ratio",
    "theory.report_rows_ms": "ms",
    "experiment.trial_ms_p50": "ms",
    "experiment.trial_ms_tail": "ms",
    "experiment.trial_ms_tail_pct": "pct",
    "experiment.trials": "count",
    "experiment.self_ms_per_trial": "ms",
    **{f"experiment.failed.{cause}": "count" for cause in FAILURE_CAUSES},
    "trace.overhead_frac": "ratio",
    "queries_per_sample": "count",
    "failed_trial_frac": "ratio",
    "nrmse_proposed_size": "ratio",
}


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import privwalk from this checkout's ``src``, never from elsewhere."""
    # One serial process: BLAS and OpenMP pools get one thread before numpy
    # loads. Their idle worker threads otherwise spin on the second of the
    # two cores and slow the trial loop by a varying amount.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "privwalk", "__init__.py")):
        fail(f"no privwalk sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import privwalk

    if not os.path.abspath(privwalk.__file__).startswith(SRC + os.sep):
        fail(f"imported privwalk from {privwalk.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "privwalk")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "l3_bytes": l3_bytes(),
    }


def l3_bytes() -> int | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as f:
                if f.read().strip() != "3":
                    continue
            with open(os.path.join(base, entry, "size")) as f:
                size = f.read().strip()
            units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
            return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    except (OSError, ValueError):
        pass
    return None


def timed_setup(wl, probe, timings, min_reps):
    """Repeat the set-up ``min_reps`` times and for two seconds.

    Appends the raw and the corrected seconds of each repetition to
    ``timings``; the machine's speed is sampled before and after.
    """
    obj, raw = None, []
    before = probe.sample()
    while len(raw) < min_reps or (sum(raw) < SETUP_MIN_SECONDS and len(raw) < SETUP_MAX_REPS):
        obj = None  # free the previous copy before loading the next
        t0 = time.perf_counter()
        obj = wl.setup()
        raw.append(time.perf_counter() - t0)
    after = probe.sample()
    timings += [(t, corrected(t, before, after)) for t in raw]
    return obj


def run_batch(wl, obj, k, workdir):
    outdir = os.path.join(workdir, f"batch{k}")
    return wl.batch(obj, k, outdir)


def untraced(wl, obj, seconds, workdir, probe):
    """Closed loop of entry-point calls until ``seconds`` have been measured.

    Returns the batches and each batch's corrected seconds, from machine
    speed samples taken between batches.
    """
    batches, fixed = [], []
    before = probe.sample()
    while not batches or sum(b.seconds for b in batches) < seconds:
        batches.append(run_batch(wl, obj, len(batches), workdir))
        after = probe.sample()
        fixed.append(corrected(batches[-1].seconds, before, after))
        before = after
    return batches, fixed


def traced(wl, obj, seconds, workdir):
    """Untraced batches, each followed by a traced replay of its trials.

    Each pair runs back to back, so both halves meet the same machine
    load; the overhead is the median ratio over the pairs after the first
    (which fills lazy caches). Replays then go on with new trials until
    ``seconds`` have passed. The sweeps' theory report is traced once and
    counted once per pair, as each untraced batch computes it once.
    """
    tracer, log, batches, ratios = Tracer(), [], [], []
    t0 = time.perf_counter()
    wl.theory(tracer, obj)
    theory_s = sum(s.duration for s in tracer.named("theory_report_rows"))
    while len(batches) < 3 or time.perf_counter() - t0 < seconds / 2:
        k = len(batches)
        batches.append(run_batch(wl, obj, k, workdir))
        t1 = time.perf_counter()
        for trial in wl.trials(obj, k):
            wl.replay(tracer, obj, trial, log)
        ratios.append((time.perf_counter() - t1 + theory_s) / batches[-1].seconds)
        if k == 0:
            first = list(log)
    k = len(batches)
    while time.perf_counter() - t0 < seconds:
        for trial in wl.trials(obj, k):
            wl.replay(tracer, obj, trial, log)
        k += 1
    return batches, tracer, log, first, statistics.median(ratios[1:]) - 1.0


def layer_metrics(wl, setup_times, tracer, log, overhead, summary, batches):
    """Per-layer figures from the spans. Times here are raw, not corrected."""
    med = statistics.median
    spans = tracer.spans
    trials = tracer.named("trial")
    trial_total = sum(s.duration for s in trials)
    own = self_times(spans)

    def named(name, **match):
        return [s for s in tracer.named(name)
                if all(s.attrs.get(k) == v for k, v in match.items())]

    def total(name, **match):
        return sum(s.duration for s in named(name, **match))

    def med_ms(name):
        xs = named(name)
        return 1e3 * med([s.duration for s in xs]) if xs else 0.0

    def attr_sum(name, key, **match):
        return sum(s.attrs.get(key, 0) for s in named(name, **match))

    def ratio(a, b):
        return a / b if b else 0.0

    out = dict.fromkeys(PER_LAYER, 0.0)
    if wl.setup_metrics:  # the set-up is an ingest call
        seconds_name, rate_name = wl.setup_metrics
        out[seconds_name] = med(setup_times)
        out[rate_name] = wl.ref["data_lines"] / out[seconds_name]

    clusters = named("largest_public_cluster")
    out["graph.assign_labels_ms"] = med_ms("assign_labels_bernoulli")
    out["graph.largest_public_cluster_ms"] = med_ms("largest_public_cluster")
    out["graph.adjacency_entries_per_s"] = ratio(
        attr_sum("largest_public_cluster", "adjacency_entries"), total("largest_public_cluster"))
    out["graph.cluster_members"] = (
        med([s.attrs["members"] for s in clusters]) if clusters else 0.0)
    out["graph.cluster_share"] = ratio(total("largest_public_cluster"), trial_total)

    walks = named("run_walk")
    out["walk.run_walk_ms"] = med_ms("run_walk")
    for mode in MODES:
        samples = attr_sum("run_walk", "samples", mode=mode)
        out[f"walk.us_per_sample.{mode}"] = 1e6 * ratio(total("run_walk", mode=mode), samples)
        out[f"access.queries_per_sample.{mode}"] = ratio(
            attr_sum("run_walk", "raw_queries", mode=mode), samples)
        fracs = [s.attrs["unique_frac"] for s in named("run_walk", mode=mode)]
        out[f"access.unique_queried_frac.{mode}"] = statistics.fmean(fracs) if fracs else 0.0
    out["walk.tries_per_sample"] = ratio(attr_sum("run_walk", "tries"),
                                         attr_sum("run_walk", "samples"))
    out["walk.share"] = ratio(sum(s.duration for s in walks), trial_total)

    reports = named("build_report")
    out["estimators.build_report_ms"] = med_ms("build_report")
    out["estimators.ns_per_sample"] = 1e9 * ratio(total("build_report"),
                                                  attr_sum("build_report", "samples"))
    if reports:
        out["estimators.distinct_nodes"] = med([s.attrs["distinct"] for s in reports])
        out["estimators.collision_pairs"] = med([s.attrs["collisions"] for s in reports])
    out["estimators.share"] = ratio(total("build_report"), trial_total)
    out["theory.report_rows_ms"] = 1e3 * total("theory_report_rows")

    ms = [1e3 * s.duration for s in trials]
    pct, count, tail = tail_percentile(ms)
    out["experiment.trial_ms_p50"] = med(ms)
    out["experiment.trial_ms_tail"] = tail
    out["experiment.trial_ms_tail_pct"] = pct
    out["experiment.trials"] = count
    out["experiment.self_ms_per_trial"] = 1e3 * sum(own[s.sid] for s in trials) / count
    for cause in FAILURE_CAUSES:
        out[f"experiment.failed.{cause}"] = sum(1 for o in log if o["failed"] == cause)
    out["trace.overhead_frac"] = overhead
    out["queries_per_sample"] = summary.get("queries_per_sample", 0.0)
    out["failed_trial_frac"] = sum(b.failed for b in batches) / sum(b.trials for b in batches)
    out["nrmse_proposed_size"] = summary.get("nrmse_proposed_size", 0.0)
    return out


def plain(value):
    """Summary values as JSON: tuple keys such as (p, estimator) become 'p/estimator'."""
    if isinstance(value, dict):
        return {"/".join(map(str, k)) if isinstance(k, tuple) else str(k): v
                for k, v in value.items()}
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="privwalk benchmark, one workload per run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()

    # a terminated run still deletes its generated inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = os.path.join(ROOT, ".bench_build", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl.generate(workdir, args.seed)
        probe = SpeedProbe()
        setup = []  # (raw, corrected) seconds of every set-up repetition
        obj = timed_setup(wl, probe, setup, SETUP_MIN_REPS)
        shape = wl.describe(obj)
        if args.trace:
            batches, tracer, log, first, overhead = traced(wl, obj, args.seconds, workdir)
        else:
            batches, fixed = untraced(wl, obj, args.seconds, workdir, probe)
        summary = wl.summarize(batches)
        checks = wl.check(obj, batches, summary)
        if args.trace:
            checks += wl.check_replay(obj, batches[0], first)
        # the set-up runs again after the trials, so that one slow spell of
        # the machine does not decide its median
        obj = None
        timed_setup(wl, probe, setup, 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only if no other run is using it
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB

    raw_setup = [t for t, _ in setup]
    raw = {"setup_s": statistics.median(raw_setup)}
    if args.trace:
        values = layer_metrics(wl, raw_setup, tracer, log, overhead, summary, batches)
        units = PER_LAYER
        attempted = len(log)
        failed = sum(1 for o in log if o["failed"])
    else:
        attempted = sum(b.trials for b in batches)
        failed = sum(b.failed for b in batches)
        raw["trials_per_s"] = attempted / sum(b.seconds for b in batches)
        values = {
            "setup_s": statistics.median(c for _, c in setup),
            "trials_per_s": attempted / sum(fixed),
            "peak_rss_mb": peak_mib,
        }
        units = END_TO_END

    env = environment()
    l3 = env["l3_bytes"]
    shape["bytes_are"] = "computed from array sizes, not measured"
    shape["fits_l3"] = bool(l3 and shape["bytes"] < l3)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "input": shape,
        "setup_runs": len(setup),
        "uncorrected": raw,
        "batches": [{"trials": b.trials, "failed": b.failed, "seconds": b.seconds,
                     "sha256": b.digests} for b in batches],
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "summary": {key: plain(value) for key, value in summary.items()},
        "peak_rss_mb": peak_mib,
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
