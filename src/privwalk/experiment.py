"""Monte-Carlo experiment driver: NRMSE sweeps and query censuses.

A run sweeps a grid of privacy rates (or uses a fixed label file) and
sample sizes. Each trial seed redraws labels, picks a fresh uniform seed
on the largest public cluster and walks once, at the longest size. Each
size estimates from its prefix of that walk and scores against the
full-graph truths: NRMSE is sqrt(mean((estimate/truth - 1)^2)) over the
trials that produced an estimate; a size without a node collision fails.

Determinism: trial i derives every random stream from ``base_seed + i``
through numpy ``SeedSequence.spawn`` (labels, seed pick, walk, in that
order). The walk reads its uniforms in order, so a prefix is the walk
run at its size alone. Results do not depend on execution order or
worker count, and repeated runs write byte-identical CSVs.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields
from multiprocessing import get_context

import numpy as np

from .estimators import _M_FRACTION, NoCollisionError, build_report, default_gap_threshold
from .graph import GraphError, LabeledGraph, _check_rate, assign_labels_bernoulli
from .graph import largest_public_cluster
from .ingest import _data_lines, load_edge_list, load_labels
from .theory import THEORY_COLUMNS, convergence_values, theory_report_rows
from .walk import (
    AccessModel,
    PubdegMode,
    QueryLedger,
    StuckWalkError,
    _record,
    _selections,
    pick_seed_node,
)

ESTIMATOR_NAMES = ("nc_size", "proposed_size", "smooth_avg_degree", "proposed_avg_degree")
CENSUS_MODES = (PubdegMode.EXACT_HIDDEN, PubdegMode.APPROX_HIDDEN)


def _check_fraction(name: str, x: float) -> None:
    if not 0.0 < x <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {x}")


def _check_at_least(name: str, x: int, k: int) -> None:
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if x < k:
        raise ValueError(f"{name} must be at least {k}, got {x}")


def _walk_length(fraction: float, n: int) -> int:
    return max(2, int(round(fraction * n)))


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings; construction rejects what a config file may not hold."""

    dataset: str
    label_file: str | None = None  # fixed labels; otherwise redrawn per trial on p_grid
    p_grid: tuple[float, ...] = (0.0,)
    model: AccessModel = AccessModel.HIDDEN
    pubdeg_mode: PubdegMode = PubdegMode.APPROX_HIDDEN
    sample_fractions: tuple[float, ...] | None = (0.01,)
    sample_sizes: tuple[int, ...] | None = None  # overrides sample_fractions
    m_fraction: float = _M_FRACTION
    trials: int = 1000
    base_seed: int = 1
    outdir: str = "results"
    nrmse_target: str = "estimates"  # or "convergence"
    census_memoize: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.label_file == "":
            raise ValueError("label_file is empty")
        if self.nrmse_target not in ("estimates", "convergence"):
            raise ValueError("nrmse_target must be 'estimates' or 'convergence'")
        _check_at_least("trials", self.trials, 1)
        _check_at_least("workers", self.workers, 1)
        _check_at_least("base_seed", self.base_seed, 0)
        if not self.p_grid:
            raise ValueError("p_grid is empty")
        for p in self.p_grid:
            _check_rate(p, "p_grid values")
        for f in self.sample_fractions or ():
            _check_fraction("sample_fraction", f)
        for r in self.sample_sizes or ():
            _check_at_least("sample_size", r, 2)
        if not (self.sample_fractions if self.sample_sizes is None else self.sample_sizes):
            raise ValueError("no walk length: sample_size, or else sample_fraction, is empty")
        _check_fraction("m_fraction", self.m_fraction)
        PubdegMode(self.pubdeg_mode).check_model(AccessModel(self.model))


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


def _parse_floats(s: str) -> tuple[float, ...]:
    """Parse ``start:stop:step`` (stop inclusive within half a step) or a comma list.

    Raises ValueError with a one-line message for a malformed, zero-step,
    reversed or empty grid, a non-numeric entry, or an empty list entry.
    """

    def number(token: str) -> float:
        try:
            return float(token)
        except ValueError:
            raise ValueError(f"grid {s!r}: {token.strip()!r} is not a number") from None

    text = s.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {s!r}: expected start:stop:step")
        start, stop, step = map(number, parts)
        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise ValueError(f"grid {s!r}: bounds and step must be finite")
        if step == 0:
            raise ValueError(f"grid {s!r}: step must be non-zero")
        count = int(round((stop - start) / step)) + 1
        if count < 1:
            raise ValueError(f"grid {s!r}: step {step:g} leads away from stop {stop:g}")
        values = tuple(round(start + i * step, 10) for i in range(count))
    else:
        tokens = [t.strip() for t in text.split(",")]
        if any(tokens) and not all(tokens):
            raise ValueError(f"grid {s!r}: empty entry")
        values = tuple(map(number, filter(None, tokens)))
    if not values:
        raise ValueError(f"grid {s!r} is empty")
    return values


def _parse_bool(token: str) -> bool:
    tokens = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
    if token.lower() not in tokens:
        raise ValueError(token)
    return tokens[token.lower()]


def _parse_ints(token: str) -> tuple[int, ...]:
    return tuple(int(x) for x in token.split(","))


def _one_of(enum) -> str:
    return "one of " + ", ".join(e.value for e in enum)


# config key -> (ExperimentConfig field, parser, expected-value text); a key
# without the text reports its parser's own message
_CONFIG_KEYS = {
    "dataset": ("dataset", str, None),
    "label_file": ("label_file", str, None),
    "p_grid": ("p_grid", _parse_floats, None),
    "model": ("model", AccessModel, _one_of(AccessModel)),
    "pubdeg_mode": ("pubdeg_mode", PubdegMode, _one_of(PubdegMode)),
    "sample_fraction": ("sample_fractions", _parse_floats, None),
    "sample_size": ("sample_sizes", _parse_ints, "comma-separated integers"),
    "m_fraction": ("m_fraction", float, "a number"),
    "trials": ("trials", int, "an integer"),
    "base_seed": ("base_seed", int, "an integer"),
    "outdir": ("outdir", str, None),
    "nrmse_target": ("nrmse_target", str, None),
    "census_memoize": ("census_memoize", _parse_bool, "true/false"),
    "workers": ("workers", int, "an integer"),
}


def load_config(path) -> ExperimentConfig:
    """Parse a ``key = value`` config file; ``ExperimentConfig`` checks the values."""
    raw: dict[str, tuple[str, int]] = {}  # key -> (value, line number)
    for lineno, s in _data_lines(path):
        if "=" not in s:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = s.partition("=")
        key = key.strip()
        if key in raw:
            raise ValueError(f"{path}: line {lineno}: key {key} already set at line {raw[key][1]}")
        raw[key] = value.strip(), lineno
    if "dataset" not in raw:
        raise ValueError(f"{path}: missing required key 'dataset'")
    unknown = sorted(raw.keys() - _CONFIG_KEYS.keys())
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for key, other in (("sample_size", "sample_fraction"), ("label_file", "p_grid")):
        if key in raw and other in raw:
            raise ValueError(f"{path}: {key} excludes {other}")
    kwargs = {}
    for key, (token, _) in raw.items():
        name, parse, expected = _CONFIG_KEYS[key]
        try:
            kwargs[name] = parse(token)
        except ValueError as e:
            why = e if expected is None else f"expected {expected}, got {token!r}"
            raise ValueError(f"{path}: {key}: {why}") from None
    if "sample_sizes" in kwargs:  # the fraction's default yields to a given size
        kwargs.setdefault("sample_fractions", None)
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _sizes(cfg: ExperimentConfig, n: int) -> tuple[int, ...]:
    """The run's sample sizes in config order, repeats kept."""
    return cfg.sample_sizes or tuple(_walk_length(f, n) for f in cfg.sample_fractions)


def _load_graph(cfg: ExperimentConfig) -> LabeledGraph:
    g = load_edge_list(cfg.dataset)
    if cfg.label_file:
        g = load_labels(cfg.label_file, g)
    return g


# -- per-trial work ---------------------------------------------------------

_POOL_STATE: dict = {}


def _pool_init(g, cfg, trial):  # pragma: no cover - exercised only with workers > 1
    _POOL_STATE.update(g=g, cfg=cfg, trial=trial)


def _pool_trial(args):  # pragma: no cover - exercised only with workers > 1
    p, trial_seed = args
    return _POOL_STATE["trial"](_POOL_STATE["g"], _POOL_STATE["cfg"], p, trial_seed)


def _run_cells(g: LabeledGraph, cfg: ExperimentConfig, trial) -> list[tuple]:
    """Each (p, r) cell with its outcomes in seed order; p is None for file labels.

    ``trial(g, cfg, p, seed)`` returns one outcome per sample size. With
    ``workers > 1`` one pool of at most ``os.cpu_count()`` processes
    serves every trial of the run, so the graph is sent to each worker once.
    """
    p_cells: list[float | None] = [None] if cfg.label_file else list(cfg.p_grid)
    tasks = [(p, cfg.base_seed + t) for p in p_cells for t in range(cfg.trials)]
    if cfg.workers <= 1:
        outcomes = [trial(g, cfg, p, seed) for p, seed in tasks]
    else:
        with ProcessPoolExecutor(
            max_workers=min(cfg.workers, os.cpu_count() or 1),
            mp_context=get_context("spawn"),
            initializer=_pool_init,
            initargs=(g, cfg, trial),
        ) as pool:
            outcomes = list(pool.map(_pool_trial, tasks, chunksize=8))
    t = cfg.trials
    return [
        (p, r, [o[j] for o in outcomes[i * t : (i + 1) * t]])
        for i, p in enumerate(p_cells)
        for j, r in enumerate(_sizes(cfg, g.node_count))
    ]


def _trial_context(g: LabeledGraph, p: float | None, trial_seed: int):
    """Labeled graph, cluster view, seed node and walk seed for one trial."""
    keys = np.random.SeedSequence(trial_seed).spawn(3)
    # labels from a file (p is None) stay fixed
    gl = g if p is None else assign_labels_bernoulli(g, p, keys[0])
    view = largest_public_cluster(gl)
    return gl, view, pick_seed_node(view, keys[1]), keys[2]


def _run_trial(g, cfg: ExperimentConfig, p: float | None, trial_seed: int) -> list[tuple]:
    """Each sample size's (estimates or None, query_ratio or nan)."""
    sizes = _sizes(cfg, g.node_count)
    try:
        gl, view, seed_node, walk_seed = _trial_context(g, p, trial_seed)
        if cfg.nrmse_target == "convergence":
            # ConvergenceValues lists its targets in ESTIMATOR_NAMES order
            return [(astuple(convergence_values(gl, view)), float("nan"))] * len(sizes)
        probes = _selections(gl, view, seed_node, max(sizes), walk_seed)
    except (GraphError, StuckWalkError):
        return [(None, float("nan"))] * len(sizes)
    modes = (PubdegMode(cfg.pubdeg_mode),)
    out = []
    for r in sizes:
        (record,) = _record(gl, view, seed_node, probes, r, modes, (QueryLedger(),))
        try:
            rep = build_report(record, default_gap_threshold(r, cfg.m_fraction))
            est = (rep.size_nc, rep.size_proposed, rep.avg_degree_smooth, rep.avg_degree_proposed)
        except NoCollisionError:
            est = None
        out.append((est, record.ledger.raw_queries / r))
    return out


def _census_trial(g, cfg: ExperimentConfig, p: float | None, trial_seed: int) -> list:
    """Each sample size's census modes' (unique-queried fraction, raw queries),
    or None when the trial has no walk; one walk feeds every size and mode."""
    sizes = _sizes(cfg, g.node_count)
    try:
        gl, view, seed_node, walk_seed = _trial_context(g, p, trial_seed)
        probes = _selections(gl, view, seed_node, max(sizes), walk_seed)
    except (GraphError, StuckWalkError):
        return [None] * len(sizes)
    out = []
    for r in sizes:
        ledgers = [QueryLedger(memoize=cfg.census_memoize) for _ in CENSUS_MODES]
        _record(gl, view, seed_node, probes, r, CENSUS_MODES, ledgers)
        out.append([(len(q.unique_queried) / g.node_count, q.raw_queries) for q in ledgers])
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
    rows: list[NrmseRow] = []
    for p, r, outcomes in _run_cells(g, cfg, _run_trial):
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
    p_grid = None if cfg.label_file else cfg.p_grid
    _write_theory(os.path.join(cfg.outdir, "theory.csv"), g, p_grid, cfg.base_seed)
    return rows


def _write_theory(path, g: LabeledGraph, p_grid, label_seed: int) -> int:
    """Write the theory table and return its row count.

    One row per rate of ``p_grid``, labels drawn from ``label_seed``; with
    ``p_grid`` None, one row for the labels ``g`` carries.
    """
    rows = theory_report_rows(g, p_grid, label_seed)
    _write_csv(path, THEORY_COLUMNS, [tuple(row[c] for c in THEORY_COLUMNS) for row in rows])
    return len(rows)


def query_census(cfg: ExperimentConfig, graph: LabeledGraph | None = None) -> list[dict]:
    """Compare query footprints of the exact and counter-based hidden modes.

    One walk per trial seed feeds both modes' ledgers at every size: the
    neighbor selections do not depend on the mode, so both see the same
    node sequence; what differs is what each one queries. A trial whose
    walk cannot run fails for both modes and every size. Reports the
    unique-queried fraction of all nodes and raw totals. Memoization is
    off by default so raw counts match the per-sample cost conventions;
    enable ``census_memoize`` to model a caching crawler.
    """
    g = graph if graph is not None else _load_graph(cfg)
    rows: list[dict] = []
    for p, r, outcomes in _run_cells(g, cfg, _census_trial):
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
