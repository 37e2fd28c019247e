"""Monte-Carlo experiment driver: NRMSE sweeps and query censuses.

A run sweeps a grid of privacy rates (or uses a fixed label file) and
sample sizes. Each trial redraws labels, picks a fresh uniform seed on
the largest public cluster, walks, estimates, and scores against the
full-graph truths; NRMSE is sqrt(mean((estimate/truth - 1)^2)) over the
trials that produced an estimate. Trials without a node collision are
excluded and counted as failed.

Determinism: trial i derives every random stream from ``base_seed + i``
through numpy ``SeedSequence.spawn`` (labels, seed pick, walk, in that
order), so results do not depend on execution order or worker count and
repeated runs write byte-identical CSVs.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields, replace
from multiprocessing import get_context

import numpy as np

from .estimators import NoCollisionError, build_report, default_gap_threshold
from .graph import GraphError, LabeledGraph, assign_labels_bernoulli, largest_public_cluster
from .ingest import load_edge_list, load_labels
from .theory import THEORY_COLUMNS, convergence_values, theory_report_rows
from .walk import (
    AccessModel,
    PubdegMode,
    QueryLedger,
    StuckWalkError,
    _record,
    _selections,
    pick_seed_node,
    run_walk,
)

ESTIMATOR_NAMES = ("nc_size", "proposed_size", "smooth_avg_degree", "proposed_avg_degree")
CENSUS_MODES = (PubdegMode.EXACT_HIDDEN, PubdegMode.APPROX_HIDDEN)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    labels: str = "bernoulli"  # "bernoulli" or "file"
    label_file: str | None = None
    p_grid: tuple[float, ...] = (0.0,)
    model: AccessModel = AccessModel.HIDDEN
    pubdeg_mode: PubdegMode = PubdegMode.APPROX_HIDDEN
    sample_fractions: tuple[float, ...] | None = (0.01,)
    sample_sizes: tuple[int, ...] | None = None
    m_fraction: float = 0.025
    trials: int = 1000
    base_seed: int = 1
    outdir: str = "results"
    nrmse_target: str = "estimates"  # or "convergence"
    count_visit_queries: bool = False
    census_memoize: bool = False
    workers: int = 1


@dataclass(frozen=True)
class NrmseRow:
    """One estimator's score for one grid cell: a row of ``nrmse.csv``,
    whose columns are these fields in order."""

    p: float
    sample_size: int
    estimator: str
    nrmse: float
    failed_trials: int
    mean_query_ratio: float
    trials: int


_BOOL_TOKENS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_floats(s: str) -> tuple[float, ...]:
    """Parse ``start:stop:step`` (stop inclusive within half a step) or a comma list.

    Raises ValueError with a one-line message for a malformed, zero-step,
    reversed or empty grid.
    """
    text = s.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {s!r}: expected start:stop:step")
        start, stop, step = (float(t) for t in parts)
        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise ValueError(f"grid {s!r}: bounds and step must be finite")
        if step == 0:
            raise ValueError(f"grid {s!r}: step must be non-zero")
        count = int(round((stop - start) / step)) + 1
        if count < 1:
            raise ValueError(f"grid {s!r}: step {step:g} leads away from stop {stop:g}")
        values = tuple(round(start + i * step, 10) for i in range(count))
    else:
        values = tuple(float(t) for t in text.split(",") if t.strip())
    if not values:
        raise ValueError(f"grid {s!r} is empty")
    return values


def load_config(path) -> ExperimentConfig:
    """Parse a ``key = value`` config file (see README for the key list)."""
    raw: dict[str, str] = {}
    set_at: dict[str, int] = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            if "=" not in s:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = s.partition("=")
            key = key.strip()
            if key in set_at:
                raise ValueError(
                    f"{path}: line {lineno}: key {key} already set at line {set_at[key]}"
                )
            raw[key], set_at[key] = value.strip(), lineno

    def pop_bool(key: str, default: bool) -> bool:
        if key not in raw:
            return default
        token = raw.pop(key).lower()
        if token not in _BOOL_TOKENS:
            raise ValueError(f"{path}: {key} must be true/false, got {token!r}")
        return _BOOL_TOKENS[token]

    def pop_value(key: str, default: str, convert, expected: str):
        token = raw.pop(key, default)
        try:
            return convert(token)
        except ValueError:
            raise ValueError(f"{path}: {key}: expected {expected}, got {token!r}") from None

    def pop_enum(key: str, default: str, enum):
        allowed = ", ".join(e.value for e in enum)
        return pop_value(key, default, enum, f"one of {allowed}")

    def pop_grid(key: str, default: str) -> tuple[float, ...]:
        try:
            return _parse_floats(raw.pop(key, default))
        except ValueError as e:
            raise ValueError(f"{path}: {key}: {e}") from None

    if "dataset" not in raw:
        raise ValueError(f"{path}: missing required key 'dataset'")
    cfg = ExperimentConfig(
        dataset=raw.pop("dataset"),
        labels=raw.pop("labels", "bernoulli"),
        label_file=raw.pop("label_file", None),
        p_grid=pop_grid("p_grid", "0.0"),
        model=pop_enum("model", "hidden", AccessModel),
        pubdeg_mode=pop_enum("pubdeg_mode", "approx_hidden", PubdegMode),
        sample_fractions=(
            pop_grid("sample_fraction", "") if "sample_fraction" in raw else None
        ),
        sample_sizes=(
            pop_value("sample_size", "", lambda t: tuple(int(x) for x in t.split(",")),
                      "comma-separated integers")
            if "sample_size" in raw
            else None
        ),
        m_fraction=pop_value("m_fraction", "0.025", float, "a number"),
        trials=pop_value("trials", "1000", int, "an integer"),
        base_seed=pop_value("base_seed", "1", int, "an integer"),
        outdir=raw.pop("outdir", "results"),
        nrmse_target=raw.pop("nrmse_target", "estimates"),
        count_visit_queries=pop_bool("count_visit_queries", False),
        census_memoize=pop_bool("census_memoize", False),
        workers=pop_value("workers", "1", int, "an integer"),
    )
    if cfg.sample_fractions is None and cfg.sample_sizes is None:
        cfg = replace(cfg, sample_fractions=(0.01,))
    if raw:
        raise ValueError(f"{path}: unknown config keys: {', '.join(sorted(raw))}")
    if cfg.labels not in ("bernoulli", "file"):
        raise ValueError(f"{path}: labels must be 'bernoulli' or 'file'")
    if cfg.labels == "file" and not cfg.label_file:
        raise ValueError(f"{path}: labels = file requires label_file")
    if cfg.nrmse_target not in ("estimates", "convergence"):
        raise ValueError(f"{path}: nrmse_target must be 'estimates' or 'convergence'")
    if cfg.trials < 1:
        raise ValueError(f"{path}: trials must be at least 1, got {cfg.trials}")
    if cfg.workers < 1:
        raise ValueError(f"{path}: workers must be at least 1, got {cfg.workers}")
    if cfg.base_seed < 0:
        raise ValueError(f"{path}: base_seed must be at least 0, got {cfg.base_seed}")
    for p in cfg.p_grid:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{path}: p_grid values must lie in [0, 1], got {p}")
    for f in cfg.sample_fractions or ():
        if not 0.0 < f <= 1.0:
            raise ValueError(f"{path}: sample_fraction must lie in (0, 1], got {f}")
    for r in cfg.sample_sizes or ():
        if r < 2:
            raise ValueError(f"{path}: sample_size must be at least 2, got {r}")
    if not 0.0 < cfg.m_fraction <= 1.0:
        raise ValueError(f"{path}: m_fraction must lie in (0, 1], got {cfg.m_fraction}")
    if cfg.model is not cfg.pubdeg_mode.access_model:
        raise ValueError(
            f"{path}: pubdeg_mode = {cfg.pubdeg_mode.value} requires "
            f"model = {cfg.pubdeg_mode.access_model.value}, got model = {cfg.model.value}"
        )
    return cfg


def _cells(cfg: ExperimentConfig, n: int) -> list[tuple[float | None, int]]:
    """The run's (p, r) grid cells; p is None when the labels come from a file."""
    if cfg.sample_sizes is not None:
        sizes = cfg.sample_sizes
    else:
        sizes = tuple(max(2, int(round(f * n))) for f in cfg.sample_fractions)
    p_cells: list[float | None] = [None] if cfg.labels == "file" else list(cfg.p_grid)
    return [(p, r) for p in p_cells for r in sizes]


def _load_graph(cfg: ExperimentConfig) -> LabeledGraph:
    g = load_edge_list(cfg.dataset)
    if cfg.labels == "file":
        g = load_labels(cfg.label_file, g)
    return g


# -- per-trial work ---------------------------------------------------------

_POOL_STATE: dict = {}


def _pool_init(g, cfg, trial):  # pragma: no cover - exercised only with workers > 1
    _POOL_STATE.update(g=g, cfg=cfg, trial=trial)


def _pool_trial(args):  # pragma: no cover - exercised only with workers > 1
    p, r, trial_seed = args
    return _POOL_STATE["trial"](_POOL_STATE["g"], _POOL_STATE["cfg"], p, r, trial_seed)


def _run_cells(g: LabeledGraph, cfg: ExperimentConfig, trial, cells) -> list[list]:
    """Each cell's outcomes of ``trial(g, cfg, p, r, seed)``, in seed order.

    With ``workers > 1`` one process pool serves every trial of the run,
    so the graph is sent to each worker once.
    """
    tasks = [(p, r, cfg.base_seed + t) for p, r in cells for t in range(cfg.trials)]
    if cfg.workers <= 1:
        outcomes = [trial(g, cfg, p, r, seed) for p, r, seed in tasks]
    else:
        with ProcessPoolExecutor(
            max_workers=cfg.workers,
            mp_context=get_context("spawn"),
            initializer=_pool_init,
            initargs=(g, cfg, trial),
        ) as pool:
            outcomes = list(pool.map(_pool_trial, tasks, chunksize=8))
    return [outcomes[i * cfg.trials : (i + 1) * cfg.trials] for i in range(len(cells))]


def _trial_context(g: LabeledGraph, p: float | None, trial_seed: int):
    """Labeled graph, cluster view, seed node and walk seed for one trial."""
    keys = np.random.SeedSequence(trial_seed).spawn(3)
    if p is None:  # labels came from a file and stay fixed
        gl = g
    else:
        gl = assign_labels_bernoulli(g, p, keys[0])
    view = largest_public_cluster(gl)
    return gl, view, pick_seed_node(view, keys[1]), keys[2]


def _run_trial(g, cfg: ExperimentConfig, p: float | None, r: int, trial_seed: int):
    """Returns (estimates or None, query_ratio or nan)."""
    try:
        gl, view, seed_node, walk_seed = _trial_context(g, p, trial_seed)
    except GraphError:
        return None, float("nan")

    if cfg.nrmse_target == "convergence":
        # ConvergenceValues lists its targets in ESTIMATOR_NAMES order
        return astuple(convergence_values(gl, view)), float("nan")

    ledger = QueryLedger()
    try:
        record = run_walk(
            gl,
            cfg.model,
            seed_node,
            r,
            cfg.pubdeg_mode,
            walk_seed,
            ledger,
            view=view,
            count_visit_queries=cfg.count_visit_queries,
        )
    except StuckWalkError:
        return None, float("nan")
    ratio = ledger.raw_queries / r
    try:
        rep = build_report(record, default_gap_threshold(r, cfg.m_fraction))
    except NoCollisionError:
        return None, ratio
    return (rep.size_nc, rep.size_proposed, rep.avg_degree_smooth, rep.avg_degree_proposed), ratio


def _census_trial(g, cfg: ExperimentConfig, p: float | None, r: int, trial_seed: int):
    """Returns each census mode's (unique-queried fraction, raw queries), or
    None when the trial has no walk; one walk feeds both modes' ledgers."""
    try:
        gl, view, seed_node, walk_seed = _trial_context(g, p, trial_seed)
        probes = _selections(gl, seed_node, r, walk_seed, view)
    except (GraphError, StuckWalkError):
        return None
    out = []
    for mode in CENSUS_MODES:
        ledger = QueryLedger(memoize=cfg.census_memoize)
        _record(gl, seed_node, probes, mode, ledger, cfg.count_visit_queries)
        out.append((len(ledger.unique_queried) / g.node_count, ledger.raw_queries))
    return out


def _nrmse(estimates: np.ndarray, truth: float) -> float:
    return float(np.sqrt(np.mean((estimates / truth - 1.0) ** 2)))


def run_experiment(cfg: ExperimentConfig, graph: LabeledGraph | None = None) -> list[NrmseRow]:
    """Run the configured sweep and write ``nrmse.csv`` and ``theory.csv``."""
    g = graph if graph is not None else _load_graph(cfg)
    n = g.node_count
    truths = {
        "nc_size": float(n),
        "proposed_size": float(n),
        "smooth_avg_degree": g.avg_degree,
        "proposed_avg_degree": g.avg_degree,
    }
    cells = _cells(cfg, n)
    rows: list[NrmseRow] = []
    for (p, r), outcomes in zip(cells, _run_cells(g, cfg, _run_trial, cells)):
        est = np.array([o[0] for o in outcomes if o[0] is not None], dtype=float)
        ratios = np.array([o[1] for o in outcomes], dtype=float)
        failed = sum(1 for o in outcomes if o[0] is None)
        mean_ratio = float(np.nanmean(ratios)) if not np.all(np.isnan(ratios)) else float("nan")
        p_label = g.private_fraction if p is None else float(p)
        for j, name in enumerate(ESTIMATOR_NAMES):
            nrmse = _nrmse(est[:, j], truths[name]) if est.size else float("nan")
            rows.append(NrmseRow(p_label, r, name, nrmse, failed, mean_ratio, cfg.trials))

    os.makedirs(cfg.outdir, exist_ok=True)
    header = [f.name for f in fields(NrmseRow)]
    _write_csv(os.path.join(cfg.outdir, "nrmse.csv"), header, [astuple(row) for row in rows])
    p_grid = None if cfg.labels == "file" else cfg.p_grid
    _write_theory(os.path.join(cfg.outdir, "theory.csv"), g, p_grid, cfg.base_seed)
    return rows


def _write_theory(path, g: LabeledGraph, p_grid, label_seed: int) -> int:
    """Write the theory table and return its row count.

    One row per rate of ``p_grid``, labels drawn from ``label_seed``; with
    ``p_grid`` None, one row for the labels ``g`` carries.
    """
    if p_grid is None:
        rows = theory_report_rows(g, [g.private_fraction], view=largest_public_cluster(g))
    else:
        rows = theory_report_rows(g, p_grid, label_seed=label_seed)
    _write_csv(path, THEORY_COLUMNS, [tuple(row[c] for c in THEORY_COLUMNS) for row in rows])
    return len(rows)


def query_census(cfg: ExperimentConfig, graph: LabeledGraph | None = None) -> list[dict]:
    """Compare query footprints of the exact and counter-based hidden modes.

    One walk per trial feeds both modes' ledgers: the neighbor selections
    do not depend on the mode, so both see the same node sequence; what
    differs is what each one queries. A trial whose walk cannot run fails
    for both modes. Reports the unique-queried fraction of all nodes and
    raw totals. Memoization is off by default so raw counts match the
    per-sample cost conventions; enable ``census_memoize`` to model a
    caching crawler.
    """
    g = graph if graph is not None else _load_graph(cfg)
    cells = _cells(cfg, g.node_count)
    rows: list[dict] = []
    for (p, r), outcomes in zip(cells, _run_cells(g, cfg, _census_trial, cells)):
        walked = [o for o in outcomes if o is not None]
        p_label = g.private_fraction if p is None else float(p)
        for j, mode in enumerate(CENSUS_MODES):
            uniq = [o[j][0] for o in walked]
            raw = [o[j][1] for o in walked]
            rows.append(
                {
                    "p": p_label,
                    "sample_size": r,
                    "mode": mode.value,
                    "trials": len(raw),
                    "mean_unique_fraction": float(np.mean(uniq)) if uniq else float("nan"),
                    "mean_raw_queries": float(np.mean(raw)) if raw else float("nan"),
                    "mean_query_ratio": float(np.mean(raw)) / r if raw else float("nan"),
                }
            )

    os.makedirs(cfg.outdir, exist_ok=True)
    # every cell has a row per mode, and the rows' keys are the columns
    _write_csv(
        os.path.join(cfg.outdir, "census.csv"), list(rows[0]), [tuple(row.values()) for row in rows]
    )
    return rows


def _format_cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path, header, rows) -> None:
    """CSV with stable float formatting; reruns produce identical bytes."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(x) for x in row])
