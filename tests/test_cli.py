"""The CLI's success paths: what each command prints and writes."""

import csv

import numpy as np
import pytest

from graphgen import random_connected_edges, write_edge_file

from privwalk import (
    PubdegMode,
    assign_labels_bernoulli,
    largest_public_cluster,
    load_edge_list,
    load_labels,
    run_walk,
    save_labels,
)
from privwalk.cli import main


@pytest.fixture
def edges(tmp_path):
    """A 40-node edge file whose original ids are not its dense ids."""
    path = tmp_path / "edges.txt"
    write_edge_file(path, [(1000 + 3 * a, 1000 + 3 * b)
                           for a, b in random_connected_edges(40, 80, seed=21)])
    return path


def _stdout_fields(capsys) -> dict[str, str]:
    return dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())


def _labels_report(g) -> dict[str, str]:
    view = largest_public_cluster(g)
    return {
        "nodes": str(g.node_count),
        "private": f"{g.private_count} ({g.private_fraction:.4f})",
        "cluster_size": str(view.member_count),
        "cluster_degree_sum": str(view.public_degree_sum),
        "cluster_census": ", ".join(f"{s}x{c}" for s, c in view.cluster_census[:8]),
    }


def test_ingest_out_map_lists_each_dense_id_with_its_original(tmp_path, edges):
    out_map = tmp_path / "map.txt"
    assert main(["ingest", str(edges), "--out-map", str(out_map)]) == 0
    g = load_edge_list(edges)
    pairs = [tuple(map(int, line.split())) for line in out_map.read_text().splitlines()]
    assert pairs == list(enumerate(g.orig_ids.tolist()))
    assert {orig for _, orig in pairs} != set(range(g.node_count))


def test_labels_prints_the_clustering_and_writes_the_drawn_labels(tmp_path, capsys, edges):
    out = tmp_path / "labels.txt"
    argv = ["labels", str(edges), "--bernoulli", "0.3", "--label-seed", "7", "--out", str(out)]
    assert main(argv) == 0
    g = load_edge_list(edges)
    drawn = assign_labels_bernoulli(g, 0.3, 7)
    assert drawn.private_count > 0
    assert _stdout_fields(capsys) == {**_labels_report(drawn), "wrote": str(out)}
    assert np.array_equal(load_labels(out, g).is_private, drawn.is_private)


def test_label_file_sets_the_labels_of_labels_and_walk(tmp_path, capsys, edges):
    g = load_edge_list(edges)
    gl = assign_labels_bernoulli(g, 0.4, 3)
    assert gl.private_count > 0
    label_file = tmp_path / "labels.txt"
    save_labels(gl, label_file)

    assert main(["labels", str(edges), "--label-file", str(label_file)]) == 0
    assert _stdout_fields(capsys) == _labels_report(gl)

    dump, want = tmp_path / "walk.txt", tmp_path / "want.txt"
    argv = ["walk", str(edges), "--label-file", str(label_file), "--length", "300",
            "--rng-seed", "5", "--mode", "exact_hidden", "--out", str(dump)]
    assert main(argv) == 0
    seed_node = int(_stdout_fields(capsys)["seed_node"])
    mode = PubdegMode.EXACT_HIDDEN
    run_walk(gl, mode.access_model, seed_node, 300, mode, 5).dump(want)
    assert dump.read_bytes() == want.read_bytes()


def test_estimate_csv_rows_equal_the_printed_fields(tmp_path, capsys):
    samples = tmp_path / "samples.txt"
    samples.write_text("5 3 2.0\n7 2 2.0\n5 3 2.0\n9 4 1.5\n7 2 2.0\n")
    report = tmp_path / "report.csv"
    assert main(["estimate", str(samples), "--csv", str(report)]) == 0
    printed = _stdout_fields(capsys)
    assert printed.pop("wrote") == str(report)
    with open(report, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["field", "value"]
    assert dict(rows[1:]) == printed
    assert len(rows) - 1 == len(printed) == 11
