"""The benchmark's four workloads, each driving privwalk's public entry points.

Every workload has the same life cycle:

- ``generate`` writes its inputs in a child process (never measured);
- ``setup`` is the one-time load that ``setup_s`` times;
- ``batch`` is one untraced call of the program's entry point, a fixed
  number of trials with seeds that follow on from the previous batch;
- ``replay`` repeats one trial through the public layer functions, in the
  order the entry point calls them, recording a span around each call;
- ``check`` compares what the batches wrote against reference values:
  the generator's, the closed forms', or exact conventions.

Trials run one after another in this process (a closed loop, one
worker). Why each workload exists, and which layer it loads, is in
``DESIGN.md`` beside this file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from privwalk import (
    AccessModel,
    ExperimentConfig,
    GraphError,
    NoCollisionError,
    PubdegMode,
    QueryLedger,
    StuckWalkError,
    assign_labels_bernoulli,
    build_graph,
    build_report,
    expected_query_ratios,
    largest_public_cluster,
    load_edge_list,
    load_sample_records,
    query_census,
    run_experiment,
    run_walk,
    theory_report_rows,
)

import gen

GEN_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gen.py")
ESTIMATORS = ("nc_size", "proposed_size", "smooth_avg_degree", "proposed_avg_degree")
# tolerance on queries per sample against expected_query_ratios: 5 %, as
# in the acceptance suite's query-cost check, or four standard errors of
# the per-batch figures when a heavy-tailed walk is noisier than that
QUERY_TOL = 0.05
QUERY_SE = 4.0
ESTIMATE_REL_TOL = 1e-9
# per-layer metrics that time a workload's set-up, when it is an ingest call
EDGE_INGEST = ("ingest.load_edge_list_s", "ingest.edge_lines_per_s")
SAMPLE_INGEST = ("ingest.load_sample_records_s", "ingest.sample_lines_per_s")


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def run_generator(kind: str, out: str, seed: int, **sizes) -> dict:
    """Write one input file in a child process; return its reference values."""
    cmd = [sys.executable, GEN_SCRIPT, kind, "--seed", str(seed), "--out", out]
    for key, value in sizes.items():
        cmd += [f"--{key}", str(value)]
    subprocess.run(cmd, check=True, timeout=170)
    with open(out + ".ref.json") as f:
        return json.load(f)


def generate_edges(path, seed, graph):
    nodes, lines, tail = graph
    return run_generator("edges", path, seed, nodes=nodes, lines=lines, tail=tail)


@dataclass
class Batch:
    """What one untraced entry-point call did and wrote."""

    trials: int
    failed: int
    seconds: float
    digests: dict  # output name to the sha256 of its bytes
    rows: object  # the parsed output, in the workload's own shape


@dataclass
class Trial:
    """One trial to replay: privacy rate (None for the file workload) and seed."""

    p: float | None
    seed: int
    arg: int = 0  # walk length, or gap threshold for the file workload


def replay_walk_trial(tracer, g, trial: Trial, modes, model, m_fraction, log):
    """Replay one experiment or census trial span by span.

    Follows the experiment driver's documented stream order: trial seed
    ``s`` spawns three keys, for the labels, the seed pick and the walk.
    The last walk is estimated from unless ``m_fraction`` is None. ``log``
    collects per-call figures, read off once the trial has ended.
    """
    keys = np.random.SeedSequence(trial.seed).spawn(3)
    out = {"p": trial.p, "seed": trial.seed, "walks": [], "estimate": None, "failed": None}
    sc = view = None
    with tracer.span("trial") as ts:
        try:
            with tracer.span("assign_labels_bernoulli", ts):
                gl = assign_labels_bernoulli(g, trial.p, keys[0])
            with tracer.span("largest_public_cluster", ts) as sc:
                view = largest_public_cluster(gl)
            with tracer.span("seed_pick", ts):
                members = view.members
                pick = np.random.default_rng(keys[1])
                seed_node = int(members[pick.integers(members.size)])
            for mode in modes:
                ledger = QueryLedger()
                with tracer.span("run_walk", ts) as sw:
                    rec = run_walk(gl, model, seed_node, trial.arg, mode, keys[2], ledger,
                                   view=view)
                out["walks"].append((sw, mode, rec, ledger))
            if m_fraction is not None:
                m = max(1, min(trial.arg - 1, math.ceil(m_fraction * trial.arg)))
                with tracer.span("build_report", ts) as se:
                    rep = build_report(rec, m)
                out["estimate"] = (se, rec, rep)
        except (GraphError, StuckWalkError, NoCollisionError) as exc:
            out["failed"] = failure_cause(exc)
    if sc is not None:
        sc.attrs.update(members=view.member_count if view is not None else 0,
                        adjacency_entries=g.indices.size)
    for sw, mode, rec, ledger in out["walks"]:
        sw.attrs.update(mode=mode.value, samples=rec.r,
                        tries=sum(rec.counters.attempts.values()),
                        raw_queries=ledger.raw_queries,
                        unique_frac=len(ledger.unique_queried) / g.node_count)
    if out["estimate"] is not None:
        se, rec, rep = out["estimate"]
        se.attrs.update(samples=rec.r, distinct=int(np.unique(rec.nodes).size),
                        collisions=collisions_of(rep, rec.r))
    log.append(out)
    return out


def query_check(name, per_batch, want):
    got = float(np.mean(per_batch))
    se = float(np.std(per_batch, ddof=1)) / math.sqrt(len(per_batch)) if len(per_batch) > 1 else 0.0
    tol = max(QUERY_TOL * want, QUERY_SE * se)
    return (name, abs(got - want) <= tol,
            f"{got:.4f} vs expected {want:.4f}, tolerance {tol:.4f}")


def ingest_check(g, ref):
    got = (g.node_count, g.edge_count)
    want = (ref["nodes"], ref["edges"])
    return ("ingest.largest_component", got == want, f"nodes, edges {got} vs {want}")


def failure_cause(exc: Exception) -> str:
    """The failure taxonomy: which layer's exception ended the trial."""
    if isinstance(exc, GraphError):
        return "no_public_node"
    if isinstance(exc, StuckWalkError):
        return "stuck"
    return "no_collision"


def collisions_of(rep, r: int) -> int:
    m = rep.gap_threshold
    return round(rep.collision_mean * (r - m) * (r - m + 1))


# -- NRMSE sweeps: paper_sweep and long_walk -------------------------------------


class Sweep:
    """``run_experiment`` over a grid of privacy rates at one walk length."""

    def __init__(self, name, p_grid, model, mode, batch_trials, graph=None,
                 sample_size=None, sample_fraction=None, gate_nrmse=False):
        self.name = name
        self.gate_nrmse = gate_nrmse
        self.p_grid = p_grid
        self.model = model
        self.mode = mode
        self.batch_trials = batch_trials
        self.graph = graph  # (nodes, lines, tail) for a generated edge file
        self.sample_size = sample_size
        self.sample_fraction = sample_fraction
        self.m_fraction = ExperimentConfig(dataset="").m_fraction

    # inputs and set-up

    def generate(self, workdir, seed):
        self.base_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
        if self.graph is None:  # the fixed 100-node consistency graph
            self.edges = gen.random_connected_edges(100, 250, seed=41)
            self.ref = {"nodes": 100, "edges": len(self.edges), "data_lines": len(self.edges)}
            self.path = None
        else:
            self.path = os.path.join(workdir, "edges.txt")
            self.ref = generate_edges(self.path, seed, self.graph)

    def setup(self):
        if self.path is None:
            return build_graph(self.edges, [False] * self.ref["nodes"])
        return load_edge_list(self.path)

    @property
    def setup_metrics(self):
        return () if self.path is None else EDGE_INGEST

    def describe(self, g):
        return {"nodes": g.node_count, "edge_lines": self.ref["data_lines"],
                "samples": self.walk_length(g),
                "bytes": g.indptr.nbytes + g.indices.nbytes + g.is_private.nbytes}

    def walk_length(self, g):
        if self.sample_size is not None:
            return self.sample_size
        return max(2, int(round(self.sample_fraction * g.node_count)))

    # untraced

    def config(self, g, k, outdir):
        return ExperimentConfig(
            dataset="in-memory", p_grid=self.p_grid, model=self.model,
            pubdeg_mode=self.mode, sample_fractions=None,
            sample_sizes=(self.walk_length(g),), trials=self.batch_trials,
            base_seed=self.base_seed + k * self.batch_trials, outdir=outdir)

    def batch(self, g, k, outdir):
        cfg = self.config(g, k, outdir)
        t0 = time.perf_counter()
        run_experiment(cfg, graph=g)
        seconds = time.perf_counter() - t0
        rows = read_csv(os.path.join(outdir, "nrmse.csv"))
        theory = read_csv(os.path.join(outdir, "theory.csv"))
        cells = [r for r in rows if r["estimator"] == ESTIMATORS[0]]
        return Batch(
            trials=self.batch_trials * len(self.p_grid),
            failed=sum(int(r["failed_trials"]) for r in cells),
            seconds=seconds,
            digests={n: sha256_file(os.path.join(outdir, n)) for n in ("nrmse.csv", "theory.csv")},
            rows=(rows, theory))

    def trials(self, g, k):
        cfg = self.config(g, k, "")
        r = self.walk_length(g)
        return [Trial(p, cfg.base_seed + t, r) for p in self.p_grid
                for t in range(cfg.trials)]

    def replay(self, tracer, g, trial, log):
        return replay_walk_trial(tracer, g, trial, (self.mode,), self.model,
                                 self.m_fraction, log)

    def theory(self, tracer, g):
        with tracer.span("theory_report_rows"):
            theory_report_rows(g, self.p_grid, label_seed=self.base_seed)

    # results

    def summarize(self, batches):
        """Per-cell NRMSE and queries per sample, pooled over every batch."""
        sq, ok, ratio = {}, {}, {}
        for b in batches:
            for row in b.rows[0]:
                key = (float(row["p"]), row["estimator"])
                n_ok = int(row["trials"]) - int(row["failed_trials"])
                if n_ok:
                    sq[key] = sq.get(key, 0.0) + float(row["nrmse"]) ** 2 * n_ok
                    ok[key] = ok.get(key, 0) + n_ok
                if row["estimator"] == ESTIMATORS[0]:
                    ratio.setdefault(key[0], []).append(float(row["mean_query_ratio"]))
        nrmse = {key: math.sqrt(sq[key] / ok[key]) for key in ok}
        query_ratio = {p: float(np.mean(v)) for p, v in ratio.items()}
        return {
            "nrmse": nrmse,
            "query_ratio": query_ratio,
            "queries_per_sample": float(np.mean(list(query_ratio.values()))),
            "nrmse_proposed_size": max(v for (p, e), v in nrmse.items()
                                       if e == "proposed_size"),
        }

    def check(self, g, batches, summary):
        checks = [ingest_check(g, self.ref)]
        want = sorted((float(p), e) for p in self.p_grid for e in ESTIMATORS)
        for i, b in enumerate(batches):
            rows, theory = b.rows
            got = sorted((float(r["p"]), r["estimator"]) for r in rows)
            checks.append((f"batch{i}.grid_rows", got == want, f"{len(got)} rows"))
            checks.append((f"batch{i}.theory_rows",
                           sorted(float(r["p"]) for r in theory) == sorted(self.p_grid),
                           f"{len(theory)} rows"))
        for p in self.p_grid:
            got = [float(r["mean_query_ratio"]) for b in batches for r in b.rows[0]
                   if float(r["p"]) == p and r["estimator"] == ESTIMATORS[0]]
            if self.model is AccessModel.IDEAL:
                # every sample visit costs exactly one query
                checks.append((f"p{p}.queries_per_sample", set(got) == {1.0}, f"{set(got)}"))
                continue
            column = ("expected_q_counter" if self.mode is PubdegMode.APPROX_HIDDEN
                      else "expected_q_exact")
            want = float(np.mean([float(r[column]) for b in batches for r in b.rows[1]
                                  if float(r["p"]) == p]))
            checks.append(query_check(f"p{p}.queries_per_sample", got, want))
        if self.gate_nrmse:
            nr = summary["nrmse"]
            for p in self.p_grid:
                prior, proposed = nr[(float(p), "nc_size")], nr[(float(p), "proposed_size")]
                checks.append((f"p{p}.proposed_beats_prior", proposed < prior,
                               f"proposed {proposed:.4f} vs prior {prior:.4f}"))
        return checks

    def check_replay(self, g, batch, log):
        """The replayed trials reproduce the first batch's NRMSE column."""
        out = []
        for p in self.p_grid:
            est = np.array([[o["estimate"][2].size_nc, o["estimate"][2].size_proposed,
                             o["estimate"][2].avg_degree_smooth,
                             o["estimate"][2].avg_degree_proposed]
                            for o in log if o["p"] == p and o["estimate"] is not None])
            for row in batch.rows[0]:
                if float(row["p"]) != p:
                    continue
                j = ESTIMATORS.index(row["estimator"])
                truth = float(g.node_count) if j < 2 else g.avg_degree
                got = float(np.sqrt(np.mean((est[:, j] / truth - 1.0) ** 2)))
                want = float(row["nrmse"])
                out.append((f"replay.p{p}.{row['estimator']}",
                            abs(got - want) <= 1e-12 * abs(want), f"{got!r} vs {want!r}"))
        return out


# -- query census -------------------------------------------------------------------


class Census:
    """``query_census``: exact and counter-based hidden modes from identical seeds."""

    modes = (PubdegMode.EXACT_HIDDEN, PubdegMode.APPROX_HIDDEN)
    setup_metrics = EDGE_INGEST

    def __init__(self, name, p, batch_trials, graph):
        self.name = name
        self.p = p
        self.batch_trials = batch_trials
        self.graph = graph

    def generate(self, workdir, seed):
        self.base_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
        self.path = os.path.join(workdir, "edges.txt")
        self.ref = generate_edges(self.path, seed, self.graph)

    def setup(self):
        return load_edge_list(self.path)

    def describe(self, g):
        return {"nodes": g.node_count, "edge_lines": self.ref["data_lines"],
                "samples": g.node_count,
                "bytes": g.indptr.nbytes + g.indices.nbytes + g.is_private.nbytes}

    def config(self, k, outdir):
        return ExperimentConfig(
            dataset="in-memory", p_grid=(self.p,), sample_fractions=(1.0,),
            trials=self.batch_trials, base_seed=self.base_seed + k * self.batch_trials,
            census_memoize=False, outdir=outdir)

    def batch(self, g, k, outdir):
        cfg = self.config(k, outdir)
        t0 = time.perf_counter()
        rows = query_census(cfg, graph=g)
        seconds = time.perf_counter() - t0
        ran = min(row["trials"] for row in rows)
        return Batch(trials=self.batch_trials, failed=self.batch_trials - ran, seconds=seconds,
                     digests={"census.csv": sha256_file(os.path.join(outdir, "census.csv"))},
                     rows=read_csv(os.path.join(outdir, "census.csv")))

    def trials(self, g, k):
        cfg = self.config(k, "")
        return [Trial(self.p, cfg.base_seed + t, g.node_count) for t in range(cfg.trials)]

    def replay(self, tracer, g, trial, log):
        return replay_walk_trial(tracer, g, trial, self.modes, AccessModel.HIDDEN, None, log)

    def theory(self, tracer, g):
        pass

    def summarize(self, batches):
        per_mode = {}
        for b in batches:
            for row in b.rows:
                n = int(row["trials"])
                s, c = per_mode.get(row["mode"], (0.0, 0))
                per_mode[row["mode"]] = (s + float(row["mean_query_ratio"]) * n, c + n)
        ratios = {mode: s / c for mode, (s, c) in per_mode.items()}
        return {"ratios": ratios, "queries_per_sample": sum(ratios.values())}

    def check(self, g, batches, summary):
        """Queries per sample against the closed form, averaged over the same labelings."""
        exact, counter = [], []
        for k in range(len(batches)):
            for trial in self.trials(g, k):
                keys = np.random.SeedSequence(trial.seed).spawn(3)
                view = largest_public_cluster(assign_labels_bernoulli(g, self.p, keys[0]))
                q_exact, q_counter, _ = expected_query_ratios(view, g)
                exact.append(q_exact)
                counter.append(q_counter)
        expected = {"exact_hidden": float(np.mean(exact)),
                    "approx_hidden": float(np.mean(counter))}
        checks = [ingest_check(g, self.ref)]
        checks += [(f"batch{i}.rows",
                    sorted(r["mode"] for r in b.rows) == sorted(m.value for m in self.modes),
                    f"{len(b.rows)} rows") for i, b in enumerate(batches)]
        for mode, want in expected.items():
            got = [float(r["mean_query_ratio"]) for b in batches for r in b.rows
                   if r["mode"] == mode]
            checks.append(query_check(f"{mode}.queries_per_sample", got, want))
        return checks

    def check_replay(self, g, batch, log):
        out = []
        for row in batch.rows:
            raw = [ledger.raw_queries / rec.r for o in log for _, mode, rec, ledger in o["walks"]
                   if mode.value == row["mode"]]
            got, want = float(np.mean(raw)), float(row["mean_query_ratio"])
            out.append((f"replay.{row['mode']}.query_ratio",
                        abs(got - want) <= 1e-12 * want, f"{got!r} vs {want!r}"))
        return out


# -- estimates from a sample file ---------------------------------------------


class EstimateFile:
    """``build_report`` on a parsed sample file, one gap threshold per batch.

    Batch ``k`` uses ``gaps[k % len(gaps)]``, so a run cycles through the
    thresholds and each one is checked against its reference.
    """

    setup_metrics = SAMPLE_INGEST
    batch_trials = 1

    def __init__(self, name, lines, population, gaps):
        self.name = name
        self.lines = lines
        self.population = population
        self.gaps = gaps

    def generate(self, workdir, seed):
        self.path = os.path.join(workdir, "samples.txt")
        self.ref = run_generator("samples", self.path, seed, lines=self.lines,
                                 population=self.population,
                                 gaps=",".join(str(m) for m in self.gaps))

    def setup(self):
        return load_sample_records(self.path)

    def describe(self, rec):
        return {"nodes": self.ref["distinct"], "edge_lines": 0, "samples": rec.r,
                "bytes": rec.nodes.nbytes + rec.degrees.nbytes + rec.public_degrees.nbytes}

    def gap(self, k):
        return self.gaps[k % len(self.gaps)]

    def batch(self, rec, k, outdir):
        t0 = time.perf_counter()
        try:
            reports = [build_report(rec, self.gap(k))]
        except NoCollisionError:
            reports = []
        seconds = time.perf_counter() - t0
        text = "\n".join(repr(rep) for rep in reports).encode()
        return Batch(trials=1, failed=1 - len(reports), seconds=seconds,
                     digests={"report": hashlib.sha256(text).hexdigest()}, rows=reports)

    def trials(self, rec, k):
        return [Trial(None, k, self.gap(k))]

    def replay(self, tracer, rec, trial, log):
        out = {"p": None, "seed": trial.seed, "walks": [], "estimate": None, "failed": None}
        with tracer.span("trial") as ts:
            try:
                with tracer.span("build_report", ts) as se:
                    rep = build_report(rec, trial.arg)
                out["estimate"] = (se, rec, rep)
            except NoCollisionError:
                out["failed"] = "no_collision"
        if out["estimate"] is not None:
            se.attrs.update(samples=rec.r, distinct=self.ref["distinct"],
                            collisions=collisions_of(rep, rec.r))
        log.append(out)
        return out

    def theory(self, tracer, rec):
        pass

    def summarize(self, batches):
        return {}

    def check(self, rec, batches, summary):
        checks = [("samples_loaded", rec.r == self.ref["data_lines"],
                   f"{rec.r} of {self.ref['data_lines']}")]
        refs = {want["gap_threshold"]: want for want in self.ref["reports"]}
        for k, b in enumerate(batches):
            m = self.gap(k)
            checks.append((f"batch{k}.report", len(b.rows) == 1, f"{len(b.rows)} reports"))
            for rep in b.rows:
                want = refs[m]
                worst = max(abs(getattr(rep, key) / want[key] - 1.0) for key in want
                            if key not in ("collisions", "gap_threshold"))
                checks.append((f"batch{k}.m{m}.estimates", worst <= ESTIMATE_REL_TOL,
                               f"worst relative difference {worst:.2e}"))
                got = collisions_of(rep, rec.r)
                checks.append((f"batch{k}.m{m}.collisions", got == want["collisions"],
                               f"{got} vs {want['collisions']}"))
        return checks

    def check_replay(self, rec, batch, log):
        got = [o["estimate"][2] for o in log if o["estimate"] is not None]
        return [("replay.report", got == batch.rows, f"{len(got)} reports")]


# constructors, so that each run gets fresh workload state
WORKLOADS = {
    "paper_sweep": partial(
        Sweep, "paper_sweep", (0.1, 0.3), AccessModel.HIDDEN, PubdegMode.APPROX_HIDDEN,
        batch_trials=10, graph=(102_400, 1_000_000, 2 / 3), sample_fraction=0.01),
    # at r = 1e5 the prior's bias is six times the proposed NRMSE, so the
    # NRMSE comparison is gated here; at r = 1 % of n (paper_sweep) both
    # NRMSEs are within sampling noise at p = 0.1 and the comparison is
    # only recorded
    "long_walk": partial(
        Sweep, "long_walk", (0.3,), AccessModel.IDEAL, PubdegMode.EXACT_IDEAL,
        batch_trials=1, sample_size=100_000, gate_nrmse=True),
    "census": partial(Census, "census", 0.2, batch_trials=1, graph=(20_480, 200_000, 0.6)),
    "estimate_file": partial(EstimateFile, "estimate_file", lines=1_016_275,
                             population=1_000_000, gaps=(20_000, 25_407, 30_000)),
}
