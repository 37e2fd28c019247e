"""Command-line interface.

Subcommands: ingest, labels, walk, estimate, theory, experiment, census.
Every command exits non-zero with a message on stderr when anything is
wrong with its inputs.
"""

from __future__ import annotations

import argparse
import sys

from .estimators import _M_FRACTION, NoCollisionError, build_report, default_gap_threshold
from .experiment import (
    _check_at_least,
    _check_fraction,
    _parse_floats,
    _walk_length,
    _write_csv,
    _write_theory,
    load_config,
    query_census,
    run_experiment,
)
from .graph import GraphError, LabeledGraph, assign_labels_bernoulli, largest_public_cluster
from .ingest import IngestError, load_edge_list, load_labels, load_sample_records, save_labels
from .walk import PubdegMode, QueryLedger, StuckWalkError, pick_seed_node, run_walk


def _load_labeled(args) -> LabeledGraph:
    if args.label_file and args.bernoulli is not None:
        raise ValueError("--label-file excludes --bernoulli")
    if args.label_seed is not None and args.bernoulli is None:
        raise ValueError("--label-seed requires --bernoulli")
    g = load_edge_list(args.edges)
    if args.label_file:
        g = load_labels(args.label_file, g, strict=not args.lenient)
    elif args.bernoulli is not None:
        g = assign_labels_bernoulli(g, args.bernoulli, args.label_seed or 0)
    return g


def _add_label_opts(sub) -> None:
    sub.add_argument("--label-file", help="per-node label file (original ids)")
    sub.add_argument("--bernoulli", type=float, help="draw labels with this privacy rate")
    sub.add_argument("--label-seed", type=int, help="seed for --bernoulli (default 0)")
    sub.add_argument("--lenient", action="store_true", help="tolerate incomplete label files")


def _cmd_ingest(args) -> int:
    g = load_edge_list(args.edges)
    print(f"nodes {g.node_count}")
    print(f"edges {g.edge_count}")
    print(f"avg_degree {g.avg_degree:.6g}")
    if args.out_edges:
        u, v = g.edge_pairs()
        with open(args.out_edges, "w") as f:
            f.write("".join(map("{} {}\n".format, u.tolist(), v.tolist())))
        print(f"wrote {args.out_edges}")
    if args.out_map:
        with open(args.out_map, "w") as f:
            for dense, orig in enumerate(g.orig_ids):
                f.write(f"{dense} {orig}\n")
        print(f"wrote {args.out_map}")
    return 0


def _cmd_labels(args) -> int:
    g = _load_labeled(args)
    view = largest_public_cluster(g)
    print(f"nodes {g.node_count}")
    print(f"private {g.private_count} ({g.private_fraction:.4f})")
    print(f"cluster_size {view.member_count}")
    print(f"cluster_degree_sum {view.public_degree_sum}")
    census = ", ".join(f"{s}x{c}" for s, c in view.cluster_census[:8])
    print(f"cluster_census {census}")
    if args.out:
        save_labels(g, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_walk(args) -> int:
    if args.seed_node is not None and args.seed_pick_seed is not None:
        raise ValueError("--seed-node excludes --seed-pick-seed")
    mode = PubdegMode(args.mode)
    if args.fraction is not None:
        _check_fraction("--fraction", args.fraction)
    g = _load_labeled(args)
    view = largest_public_cluster(g)
    r = args.length if args.length is not None else _walk_length(args.fraction, g.node_count)
    if args.seed_node is not None:
        seed_node = args.seed_node
    else:
        seed_node = pick_seed_node(view, args.seed_pick_seed or 0)
    ledger = QueryLedger(memoize=args.memoize)
    record = run_walk(
        g,
        mode.access_model,
        seed_node,
        r,
        mode,
        args.rng_seed,
        ledger,
        view=view,
    )
    print(f"samples {record.r}")
    print(f"seed_node {seed_node}")
    print(f"raw_queries {ledger.raw_queries}")
    print(f"unique_queried {len(ledger.unique_queried)}")
    print(f"query_ratio {ledger.raw_queries / r:.6g}")
    if args.out:
        record.dump(args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    if args.m is not None and args.m_fraction is not None:
        raise ValueError("-m excludes --m-fraction")
    fraction = _M_FRACTION if args.m_fraction is None else args.m_fraction
    _check_fraction("--m-fraction", fraction)
    record = load_sample_records(args.record)
    if record.r < 2:
        raise ValueError(f"a report needs at least 2 samples, got {record.r}")
    m = args.m if args.m is not None else default_gap_threshold(record.r, fraction)
    rep = build_report(record, m)
    fields = [
        ("samples", rep.sample_count),
        ("gap_threshold", rep.gap_threshold),
        ("collision_mean", rep.collision_mean),
        ("weight_mean_prior", rep.weight_mean_prior),
        ("weight_mean_proposed", rep.weight_mean_proposed),
        ("nc_size", rep.size_nc),
        ("proposed_size", rep.size_proposed),
        ("smooth_avg_degree", rep.avg_degree_smooth),
        ("proposed_avg_degree", rep.avg_degree_proposed),
        ("privacy_rate_from_size", rep.privacy_rate_size),
        ("privacy_rate_from_avg_degree", rep.privacy_rate_avg_degree),
    ]
    for name, value in fields:
        print(f"{name} {value!r}")
    if args.csv:
        _write_csv(args.csv, ("field", "value"), fields)
        print(f"wrote {args.csv}")
    return 0


def _cmd_theory(args) -> int:
    if args.label_file and (args.p_grid is not None or args.label_seed is not None):
        raise ValueError("--label-file excludes --p-grid and --label-seed")
    g = load_edge_list(args.edges)
    if args.label_file:
        g = load_labels(args.label_file, g, strict=not args.lenient)
        p_grid = None
    else:
        p_grid = _parse_floats("0.0:0.3:0.03" if args.p_grid is None else args.p_grid)
    count = _write_theory(args.out, g, p_grid, args.label_seed or 0)
    print(f"wrote {args.out} ({count} rows)")
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    rows = run_experiment(cfg)
    for row in rows:
        print(
            f"p={row.p:.4g} r={row.sample_size} {row.estimator}: "
            f"nrmse={row.nrmse:.6g} failed={row.failed_trials}/{row.trials}"
        )
    print(f"wrote {cfg.outdir}/nrmse.csv and {cfg.outdir}/theory.csv")
    return 0


def _cmd_census(args) -> int:
    cfg = load_config(args.config)
    rows = query_census(cfg)
    for row in rows:
        print(
            f"p={row['p']:.4g} r={row['sample_size']} {row['mode']}: "
            f"unique_fraction={row['mean_unique_fraction']:.6g} "
            f"raw={row['mean_raw_queries']:.6g}"
        )
    print(f"wrote {cfg.outdir}/census.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privwalk",
        description="Random-walk size and degree estimation on graphs with private nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="preprocess an edge list and report its shape")
    p.add_argument("edges")
    p.add_argument("--out-edges", help="write the preprocessed edge list")
    p.add_argument("--out-map", help="write the dense-to-original id map")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("labels", help="attach labels and report the public clustering")
    p.add_argument("edges")
    _add_label_opts(p)
    p.add_argument("--out", help="write the labeling as an 'id flag' file")
    p.set_defaults(func=_cmd_labels)

    p = sub.add_parser("walk", help="run one walk and dump its samples")
    p.add_argument("edges")
    _add_label_opts(p)
    p.add_argument("--mode", default="approx_hidden", choices=[m.value for m in PubdegMode])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--length", type=int, help="number of samples")
    group.add_argument("--fraction", type=float, help="samples as a fraction of n, in (0, 1]")
    p.add_argument("--seed-node", type=int, help="fixed public seed node (dense id)")
    p.add_argument("--seed-pick-seed", type=int, help="seed for uniform seed choice (default 0)")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--memoize", action="store_true", help="do not recount repeat queries")
    p.add_argument("--out", help="dump the walk record")
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("estimate", help="estimate size/degree/privacy from a sample file")
    p.add_argument("record")
    p.add_argument("-m", type=int, help="index-pair gap threshold")
    p.add_argument("--m-fraction", type=float, help="gap threshold as a fraction of r, in "
                   f"(0, 1], default {_M_FRACTION}; clamped to 1..r-1; excludes -m")
    p.add_argument("--csv", help="also write the report as CSV")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("theory", help="write closed-form expectations per privacy rate")
    p.add_argument("edges")
    p.add_argument("--label-file", help="use real labels instead of a p grid")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--p-grid", help="'start:stop:step' or comma list (default 0.0:0.3:0.03)")
    p.add_argument("--label-seed", type=int, help="seed for the p grid's labels (default 0)")
    p.add_argument("--out", default="theory.csv")
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("experiment", help="run the NRMSE sweep from a config file")
    p.add_argument("config")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("census", help="compare query footprints of the hidden modes")
    p.add_argument("config")
    p.set_defaults(func=_cmd_census)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("label_seed", "rng_seed", "seed_pick_seed"):
            if getattr(args, name, None) is not None:
                _check_at_least(f"--{name.replace('_', '-')}", getattr(args, name), 0)
        if getattr(args, "lenient", False) and not args.label_file:
            raise ValueError("--lenient requires --label-file")
        return args.func(args)
    except (GraphError, IngestError, NoCollisionError, StuckWalkError, ValueError, OSError,
            MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
