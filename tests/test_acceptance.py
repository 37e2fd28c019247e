"""Acceptance gate: twelve go/no-go checks on the assembled package.

Each check prints one ``ACCEPTANCE <nn> <label>: PASS/FAIL`` line (visible
with ``pytest -v -s`` or in failure output). Checks 10 and the full-scale
half of 11 need external dataset files; they are skipped unless
``PRIVWALK_DATA_DIR`` points at a directory holding the files named in the
README (and ``PRIVWALK_RUN_EXTENDED=1`` for the hours-long sweep).
"""

import math
import os

import numpy as np
import pytest

from graphgen import (
    path_edges,
    preferential_attachment_edges,
    random_connected_edges,
    regular_edges,
    star_edges,
)
from oracles import enumerate_public_count_moments, naive_pair_stats

from privwalk import (
    AccessModel,
    ExperimentConfig,
    NoCollisionError,
    PubdegMode,
    WalkRecord,
    assign_labels_bernoulli,
    build_graph,
    build_report,
    convergence_values,
    expected_error_inequalities,
    public_count_moments,
    expected_errors,
    expected_query_ratios,
    largest_public_cluster,
    load_edge_list,
    load_labels,
    load_sample_records,
    run_experiment,
    run_walk,
    stationary_distribution,
)

DATA_DIR = os.environ.get("PRIVWALK_DATA_DIR")
RUN_EXTENDED = os.environ.get("PRIVWALK_RUN_EXTENDED") == "1"

needs_data = pytest.mark.skipif(
    not DATA_DIR, reason="PRIVWALK_DATA_DIR not set; dataset files unavailable"
)
needs_extended = pytest.mark.skipif(
    not (DATA_DIR and RUN_EXTENDED),
    reason="set PRIVWALK_DATA_DIR and PRIVWALK_RUN_EXTENDED=1 for the full sweep",
)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {label}: {state}{suffix}")
    assert ok, f"acceptance check {num} ({label}) failed{suffix}"


def _data_file(name: str):
    path = os.path.join(DATA_DIR, name)
    if not os.path.exists(path):
        pytest.skip(f"{name} not found under PRIVWALK_DATA_DIR")
    return path


# -- shared 50-node walk setting (checks 2, 3, 4) ----------------------------

WALK_R = 1_000_000
WALK_SEEDS = (101, 102, 103, 104, 105)


@pytest.fixture(scope="module")
def labeled50():
    g = build_graph(random_connected_edges(50, 100, seed=31), [False] * 50)
    gl = assign_labels_bernoulli(g, 0.3, 1)
    return gl, largest_public_cluster(gl)


@pytest.fixture(scope="module")
def approx_runs(labeled50):
    gl, view = labeled50
    seed_node = int(view.members[0])
    return {
        s: run_walk(
            gl, AccessModel.HIDDEN, seed_node, WALK_R,
            PubdegMode.APPROX_HIDDEN, s, view=view,
        )
        for s in WALK_SEEDS
    }


def test_criterion_01_exact_identities():
    rng = np.random.default_rng(2024)
    modes = (PubdegMode.EXACT_IDEAL, PubdegMode.EXACT_HIDDEN, PubdegMode.APPROX_HIDDEN)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(20, 201))
        g = build_graph(
            random_connected_edges(n, int(rng.integers(n, 3 * n)), seed=100 + i),
            [False] * n,
        )
        mode = modes[i % 3]
        rec = run_walk(g, mode.access_model, 0, 3000, mode, rng_seed=200 + i)
        est = build_report(rec, max(1, math.ceil(0.025 * rec.r)))
        smooth, proposed = est.avg_degree_smooth, est.avg_degree_proposed
        worst = max(
            worst,
            abs(est.size_nc - est.size_proposed) / est.size_nc,
            abs(smooth - proposed) / smooth,
        )
    _verdict(1, "exact-identities", worst <= 1e-12, f"worst rel diff {worst:.2e}")


def test_criterion_02_stationary_distribution(labeled50, approx_runs):
    gl, view = labeled50
    pi = stationary_distribution(view)
    freq = np.bincount(approx_runs[101].nodes, minlength=gl.node_count) / WALK_R
    tv = 0.5 * float(np.abs(freq - pi).sum())
    _verdict(2, "stationary-distribution", tv <= 0.02, f"TV {tv:.4f}")


def test_criterion_03_public_degree_approximation(labeled50, approx_runs):
    gl, view = labeled50
    passed = 0
    worsts = []
    for s in WALK_SEEDS:
        rec = approx_runs[s]
        worst = 0.0
        for v, b in rec.counters.attempts.items():
            if b < 1000:
                continue
            dhat = gl.degree(v) * rec.counters.ratio(v)
            dstar = float(view.public_degree[v])
            worst = max(worst, abs(dhat - dstar) / max(dstar, 1.0))
        worsts.append(worst)
        passed += worst <= 0.15
    _verdict(
        3,
        "public-degree-approximation",
        passed >= 4,
        f"{passed}/5 seeds ok, worst errors {['%.3f' % w for w in worsts]}",
    )


def test_criterion_04_query_cost_formulas(labeled50, approx_runs):
    gl, view = labeled50
    q_exact, q_counter, _ = expected_query_ratios(view, gl)
    got_counter = approx_runs[101].ledger.raw_queries / WALK_R
    rec = run_walk(
        gl, AccessModel.HIDDEN, int(view.members[0]), WALK_R,
        PubdegMode.EXACT_HIDDEN, 101, view=view,
    )
    got_exact = rec.ledger.raw_queries / WALK_R
    err_exact = abs(got_exact - q_exact) / q_exact
    err_counter = abs(got_counter - q_counter) / q_counter
    _verdict(
        4,
        "query-cost-formulas",
        err_exact <= 0.05 and err_counter <= 0.05,
        f"exact {got_exact:.4f} vs {q_exact:.4f}, "
        f"counter {got_counter:.4f} vs {q_counter:.4f}",
    )


def test_criterion_05_moment_oracle():
    worst = 0.0
    for d in range(13):
        for p in np.arange(0.1, 0.95, 0.1):
            got = public_count_moments(d, float(p))
            ref = enumerate_public_count_moments(d, float(p))
            worst = max(
                worst,
                abs(got[0] - ref[0]) / max(1.0, abs(ref[0])),
                abs(got[1] - ref[1]) / max(1.0, abs(ref[1])),
            )
    _verdict(5, "moment-oracle", worst <= 1e-12, f"worst rel diff {worst:.2e}")


def test_criterion_06_analytic_inequalities():
    rng = np.random.default_rng(77)
    graphs = [
        build_graph(star_edges(12), [False] * 12),
        build_graph(path_edges(15), [False] * 15),
        build_graph(regular_edges(30, 4, seed=6), [False] * 30),
    ]
    for i in range(50):
        n = int(rng.integers(20, 101))
        graphs.append(
            build_graph(
                random_connected_edges(n, int(rng.integers(n, 4 * n)), seed=300 + i),
                [False] * n,
            )
        )
    ok = True
    for g in graphs:
        for p in np.linspace(0.0, 1.0, 11):
            coeff = expected_errors(g, float(p)).size_coefficient
            ok &= (1.0 - p) - 1e-12 <= coeff <= 1.0 + 1e-12
            size_ok, avg_ok = expected_error_inequalities(g, float(p))
            ok &= size_ok and avg_ok
    _verdict(6, "analytic-inequalities", ok, f"{len(graphs)} graphs x 11 p values")


def test_criterion_07_label_redraw_concentration():
    g = build_graph(preferential_attachment_edges(10_000, 10, seed=7), [False] * 10_000)
    d = g.degrees.astype(np.float64)
    p, trials = 0.3, 1000
    q = 1.0 - p
    closed = {
        "cluster size": q * g.node_count,
        "cluster degree sum": q * q * float(d.sum()),
        "sum d*^2": q * q * float(np.sum(d * (q * d + p))),
        "sum d*d": q * q * float(np.sum(d * d)),
        "sum d*/d": q * q * g.node_count,
    }
    acc = {k: [] for k in closed}
    for i in range(trials):
        gl = assign_labels_bernoulli(g, p, 5000 + i)
        view = largest_public_cluster(gl)
        ds = view.public_degree[view.members].astype(np.float64)
        dd = g.degrees[view.members].astype(np.float64)
        acc["cluster size"].append(view.member_count)
        acc["cluster degree sum"].append(view.public_degree_sum)
        acc["sum d*^2"].append(float(ds @ ds))
        acc["sum d*d"].append(float(ds @ dd))
        acc["sum d*/d"].append(float(np.sum(ds / dd)))
    zs = {}
    for k, target in closed.items():
        vals = np.array(acc[k])
        se = vals.std(ddof=1) / np.sqrt(trials)
        zs[k] = (vals.mean() - target) / se
    ok = all(abs(z) <= 3.0 for z in zs.values())
    _verdict(
        7,
        "label-redraw-concentration",
        ok,
        "z scores " + ", ".join(f"{k} {z:+.2f}" for k, z in zs.items()),
    )


def test_criterion_08_estimator_consistency():
    g = build_graph(random_connected_edges(100, 250, seed=41), [False] * 100)
    gl = assign_labels_bernoulli(g, 0.3, 2)
    view = largest_public_cluster(gl)
    cv = convergence_values(gl, view)
    targets = np.array(
        [cv.cluster_size, cv.size_proposed, cv.avg_degree_prior, cv.avg_degree_proposed]
    )
    members = view.members
    medians = []
    for r in (10_000, 100_000, 1_000_000):
        errs = []
        for t in range(50):
            keys = np.random.SeedSequence(9000 + t).spawn(2)
            pick = np.random.default_rng(keys[0])
            seed_node = int(members[pick.integers(members.size)])
            rec = run_walk(
                gl, AccessModel.IDEAL, seed_node, r,
                PubdegMode.EXACT_IDEAL, keys[1], view=view,
            )
            rep = build_report(rec, max(1, math.ceil(0.025 * r)))
            est = np.array(
                [rep.size_nc, rep.size_proposed,
                 rep.avg_degree_smooth, rep.avg_degree_proposed]
            )
            errs.append(np.abs(est / targets - 1.0))
        medians.append(np.median(np.array(errs), axis=0))
    medians = np.array(medians)
    monotone = bool(np.all(np.diff(medians, axis=0) <= 0))
    small = bool(np.all(medians[-1] <= 0.02))
    _verdict(
        8,
        "estimator-consistency",
        monotone and small,
        f"medians at 1e6 {np.array2string(medians[-1], precision=5)}",
    )


def test_criterion_09_estimator_equivalence_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    checked = 0
    for _ in range(100):
        r = int(rng.integers(50, 501))
        nodes = rng.integers(0, max(4, r // 8), size=r).astype(np.int64)
        degs = rng.integers(1, 10, size=r).astype(np.int64)
        pubs = np.maximum(degs - rng.integers(0, 3, size=r), 1).astype(np.float64)
        m = int(rng.integers(1, max(2, r // 3)))
        rec = WalkRecord(nodes, degs, pubs, PubdegMode.EXACT_HIDDEN)
        count, phi, psi, psi_hat = naive_pair_stats(nodes, degs, pubs, m)
        try:
            est = build_report(rec, m)
        except NoCollisionError:
            assert count == 0
            continue
        checked += 1
        worst = max(
            worst,
            abs(est.collision_mean - phi) / phi,
            abs(est.weight_mean_prior - psi) / psi,
            abs(est.weight_mean_proposed - psi_hat) / psi_hat,
        )
    _verdict(
        9,
        "estimator-equivalence-oracle",
        checked >= 90 and worst <= 1e-9,
        f"{checked} collision records, worst rel diff {worst:.2e}",
    )


@needs_data
def test_criterion_10_dataset_reproduction():
    details = []

    pokec = load_edge_list(_data_file("pokec-edges.txt"))
    ok = pokec.node_count == 1_632_803 and abs(pokec.avg_degree - 27.32) <= 0.005
    details.append(f"pokec n={pokec.node_count} davg={pokec.avg_degree:.2f}")

    youtube = load_edge_list(_data_file("youtube-edges.txt"))
    ok &= youtube.node_count == 1_134_890 and abs(youtube.avg_degree - 5.27) <= 0.005
    details.append(f"youtube n={youtube.node_count} davg={youtube.avg_degree:.2f}")

    labeled = load_labels(_data_file("pokec-labels.txt"), pokec, strict=False)
    ok &= labeled.private_count == 552_525
    view = largest_public_cluster(labeled)
    cv = convergence_values(labeled, view)
    ok &= abs(cv.cluster_size - 1_080_278.0) <= 0.05
    ok &= abs(cv.size_proposed - 1_646_880.8) <= 0.05
    ok &= abs(cv.avg_degree_prior - 19.49) <= 0.005
    ok &= abs(cv.avg_degree_proposed - 28.31) <= 0.005
    details.append(
        f"pokec private={labeled.private_count} cv=({cv.cluster_size:.1f}, "
        f"{cv.size_proposed:.1f}, {cv.avg_degree_prior:.2f}, "
        f"{cv.avg_degree_proposed:.2f})"
    )

    rec = load_sample_records(_data_file("kurant-facebook-samples.txt"))
    assert rec.r == 1_016_275, f"sample file has {rec.r} records"
    rep = build_report(rec, 25_407)
    p_size, p_avg = rep.privacy_rate_size, rep.privacy_rate_avg_degree
    ok &= abs(rep.size_nc - 480_298_540.0) <= 0.05
    ok &= abs(rep.size_proposed - 656_874_080.9) <= 0.05
    ok &= abs(rep.avg_degree_smooth - 102.07) <= 0.005
    ok &= abs(rep.avg_degree_proposed - 137.03) <= 0.005
    ok &= abs(p_size - 0.269) <= 0.001 and abs(p_avg - 0.255) <= 0.001
    details.append(
        f"facebook sizes=({rep.size_nc:.1f}, {rep.size_proposed:.1f}) "
        f"davg=({rep.avg_degree_smooth:.2f}, {rep.avg_degree_proposed:.2f}) "
        f"p=({p_size:.3f}, {p_avg:.3f})"
    )
    _verdict(10, "dataset-reproduction", ok, "; ".join(details))


def _triple_hub_graph(n: int = 10_000):
    """Three mutually linked hubs; every other node ties to all three.

    Revisits concentrate on the hubs, so collision statistics stay
    informative even at very small sample sizes, while membership of any
    leaf never hinges on a single hub staying public.
    """
    edges = [(0, 1), (0, 2), (1, 2)]
    for leaf in range(3, n):
        edges += [(0, leaf), (1, leaf), (2, leaf)]
    return build_graph(edges, [False] * n)


def test_criterion_11_nrmse_improvement_desk_scale(tmp_path):
    cfg = ExperimentConfig(
        dataset="in-memory",
        p_grid=(0.3,),
        model=AccessModel.IDEAL,
        pubdeg_mode=PubdegMode.EXACT_IDEAL,
        sample_sizes=(100,),
        sample_fractions=None,
        trials=300,
        base_seed=401,
        outdir=str(tmp_path),
    )
    rows = {row.estimator: row for row in run_experiment(cfg, graph=_triple_hub_graph())}
    size_ratio = rows["nc_size"].nrmse / rows["proposed_size"].nrmse
    avg_ratio = rows["smooth_avg_degree"].nrmse / rows["proposed_avg_degree"].nrmse
    _verdict(
        11,
        "nrmse-improvement",
        size_ratio >= 3.0 and avg_ratio >= 3.0,
        f"size ratio {size_ratio:.1f}, avg-degree ratio {avg_ratio:.1f}",
    )


@needs_extended
def test_criterion_11_nrmse_improvement_full_scale(tmp_path):
    g = load_edge_list(_data_file("pokec-edges.txt"))
    g = load_labels(_data_file("pokec-labels.txt"), g, strict=False)
    cfg = ExperimentConfig(
        dataset="in-memory",
        label_file="preloaded",
        model=AccessModel.IDEAL,
        pubdeg_mode=PubdegMode.EXACT_IDEAL,
        sample_fractions=(0.05,),
        trials=200,
        base_seed=601,
        outdir=str(tmp_path),
    )
    rows = {row.estimator: row for row in run_experiment(cfg, graph=g)}
    ratio = rows["nc_size"].nrmse / rows["proposed_size"].nrmse
    _verdict(
        11,
        "nrmse-improvement-full",
        ratio >= 5.0,
        f"size NRMSE {rows['nc_size'].nrmse:.3f} vs "
        f"{rows['proposed_size'].nrmse:.3f}, ratio {ratio:.1f}",
    )


def test_criterion_12_determinism(tmp_path):
    from privwalk import query_census

    g = build_graph(random_connected_edges(300, 900, seed=51), [False] * 300)
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        cfg = ExperimentConfig(
            dataset="in-memory",
            p_grid=(0.2, 0.4),
            sample_sizes=(400,),
            sample_fractions=None,
            trials=10,
            base_seed=71,
            outdir=str(out),
        )
        run_experiment(cfg, graph=g)
        query_census(cfg, graph=g)
        outputs.append(
            tuple((out / f).read_bytes() for f in ("nrmse.csv", "theory.csv", "census.csv"))
        )
    ok = outputs[0] == outputs[1]
    _verdict(12, "determinism", ok, "nrmse.csv, theory.csv, census.csv byte-identical")
