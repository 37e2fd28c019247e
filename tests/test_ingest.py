import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphgen import write_edge_file

import privwalk
from privwalk import (
    IngestError,
    assign_labels_bernoulli,
    build_graph,
    load_edge_list,
    load_labels,
    load_sample_records,
    save_labels,
)


def _write(path, text):
    path.write_text(text)
    return path


def test_edge_list_comments_dedup_and_remap(tmp_path):
    f = _write(
        tmp_path / "edges.txt",
        "# a comment\n"
        "% another style\n"
        "\n"
        "10 20\n"
        "20 10\n"  # reverse duplicate
        "10 10\n"  # self loop
        "20 30\n"
        "30 40 extra tokens ignored\n",
    )
    g = load_edge_list(f)
    assert g.node_count == 4
    assert g.edge_count == 3
    assert list(g.orig_ids) == [10, 20, 30, 40]
    assert list(g.degrees) == [1, 2, 2, 1]


def test_edge_list_keeps_largest_component(tmp_path):
    f = _write(
        tmp_path / "edges.txt",
        "0 1\n1 2\n2 0\n"  # triangle
        "5 6\n",  # separate pair
    )
    g = load_edge_list(f)
    assert g.node_count == 3
    assert list(g.orig_ids) == [0, 1, 2]


def test_edge_list_component_tie_breaks_to_first_node(tmp_path):
    f = _write(tmp_path / "edges.txt", "7 8\n3 4\n")
    g = load_edge_list(f)
    assert g.node_count == 2
    # equal sizes: keep the component holding the smallest remapped id
    assert list(g.orig_ids) == [3, 4]


def test_preprocessing_is_idempotent(tmp_path):
    f = _write(tmp_path / "edges.txt", "4 9\n9 2\n2 4\n2 7\n11 12\n")
    g1 = load_edge_list(f)
    out = tmp_path / "clean.txt"
    write_edge_file(out, zip(*g1.edge_pairs()))
    g2 = load_edge_list(out)
    assert g2.node_count == g1.node_count
    assert np.array_equal(g2.indptr, g1.indptr)
    assert np.array_equal(g2.indices, g1.indices)


def test_reverse_duplicate_without_directed_flag_still_collapses(tmp_path):
    # undirected reading canonicalizes both orders to one edge
    f = _write(tmp_path / "e.txt", "0 1\n1 0\n1 2\n")
    assert load_edge_list(f).edge_count == 2


def test_bad_edge_line_reports_lineno(tmp_path):
    f = _write(tmp_path / "edges.txt", "0 1\nnot-a-number 2\n")
    with pytest.raises(IngestError, match="line 2"):
        load_edge_list(f)
    f2 = _write(tmp_path / "short.txt", "0 1\n7\n")
    with pytest.raises(IngestError, match="line 2"):
        load_edge_list(f2)


@pytest.mark.parametrize("big", ["18446744073709551617", "9223372036854775808",
                                 "-9223372036854775809"])
def test_ids_beyond_int64_are_rejected_with_the_line(tmp_path, capsys, big):
    from privwalk.cli import main

    edges = _write(tmp_path / "e.txt", f"# ids\n0 1\n{big} {big}\n1 2\n2 {big}\n")
    samples = _write(tmp_path / "s.txt", f"1 5 3 2.0\n2 {big} 4 1.0\n3 5 3 2.0\n")
    degree = big.lstrip("-")  # a negative degree is rejected as negative first
    degrees = _write(tmp_path / "d.txt", f"5 3 2.0\n5 {degree} 1.0\n")
    # the first bad line is named, though a later line is malformed
    early_edges = _write(tmp_path / "e2.txt", f"1 2\n{big} 3\n2 3\n4 x\n")
    early_degree = _write(tmp_path / "d2.txt", f"1 2 1\n5 {degree} 1\n3 4 5\n")
    for load, f, line, token in ((load_edge_list, edges, 5, big),
                                 (load_sample_records, samples, 2, big),
                                 (load_sample_records, degrees, 2, degree),
                                 (load_edge_list, early_edges, 2, big),
                                 (load_sample_records, early_degree, 2, degree)):
        with pytest.raises(IngestError, match=f"^{re.escape(str(f))}: line {line}: {token} is"):
            load(f)
    for argv, f, line in ((["ingest"], edges, 5), (["estimate"], samples, 2)):
        assert main([*argv, str(f)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {f}: line {line}: {big} is outside the int64 range\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_a_pipe_is_read_once():
    # a pipe can be read only once; its line 3 goes to the line parser
    env = {**os.environ, "PYTHONPATH": str(Path(privwalk.__file__).parents[1])}
    cli = subprocess.run([sys.executable, "-m", "privwalk.cli", "ingest", "/dev/stdin"],
                         input="1 2\n2 3\n1_000 3\n", capture_output=True, text=True,
                         env=env, timeout=60)
    assert (cli.returncode, cli.stderr) == (0, "")
    assert cli.stdout.startswith("nodes 4\nedges 3\n")


def test_int64_extremes_still_load(tmp_path):
    lo, hi = -(2**63), 2**63 - 1
    g = load_edge_list(_write(tmp_path / "e.txt", f"{lo} {hi}\n{hi} 0\n"))
    assert list(g.orig_ids) == [lo, 0, hi]
    rec = load_sample_records(_write(tmp_path / "s.txt", f"{lo} 2 1.0\n{hi} 3 1.0\n"))
    assert list(rec.nodes) == [lo, hi]


def test_empty_edge_list_is_an_error(tmp_path):
    f = _write(tmp_path / "edges.txt", "# nothing here\n")
    with pytest.raises(IngestError, match="no edges"):
        load_edge_list(f)


def test_label_round_trip(tmp_path):
    g = load_edge_list(_write(tmp_path / "e.txt", "10 20\n20 30\n30 40\n"))
    gl = g.with_labels(np.array([True, False, False, True]))
    out = tmp_path / "labels.txt"
    save_labels(gl, out)
    text = out.read_text()
    assert "10 1" in text and "20 0" in text
    g2 = load_labels(out, g)
    assert np.array_equal(g2.is_private, gl.is_private)


def test_labels_join_dense_ids_without_an_id_map(tmp_path):
    g = build_graph([(0, 1), (1, 2)], [False] * 3)  # built in code: no original ids
    assert g.orig_ids is None
    gl = load_labels(_write(tmp_path / "labels.txt", "0 1\n1 0\n2 private\n"), g)
    assert list(gl.is_private) == [True, False, True]


def test_relabeled_graphs_share_the_frozen_topology(tmp_path):
    g = load_edge_list(_write(tmp_path / "e.txt", "1 2\n2 3\n3 1\n3 4\n8 9\n"))
    labels = _write(tmp_path / "labels.txt", "1 0\n2 1\n3 0\n4 1\n")
    for gl in (assign_labels_bernoulli(g, 0.5, 3), load_labels(labels, g)):
        for name in ("indptr", "indices", "degrees"):
            assert getattr(gl, name) is getattr(g, name), name
            assert not getattr(gl, name).flags.writeable, name
        assert gl.orig_ids is g.orig_ids
        assert not gl.is_private.flags.writeable


def test_label_tokens_and_strictness(tmp_path):
    g = load_edge_list(_write(tmp_path / "e.txt", "0 1\n1 2\n"))
    f = _write(tmp_path / "labels.txt", "0 private\n1 public\n2 0\n")
    gl = load_labels(f, g)
    assert list(gl.is_private) == [True, False, False]

    missing = _write(tmp_path / "missing.txt", "0 1\n1 0\n")
    with pytest.raises(IngestError, match="no label"):
        load_labels(missing, g)
    gl2 = load_labels(missing, g, strict=False)
    assert list(gl2.is_private) == [True, False, False][:2] + [False]

    unknown = _write(tmp_path / "unknown.txt", "0 1\n1 0\n2 0\n99 1\n")
    with pytest.raises(IngestError, match="unknown"):
        load_labels(unknown, g)
    gl3 = load_labels(unknown, g, strict=False)
    assert list(gl3.is_private) == [True, False, False]

    bad = _write(tmp_path / "bad.txt", "0 maybe\n")
    with pytest.raises(IngestError, match="line 1"):
        load_labels(bad, g, strict=False)

    for text, message in (("0 1\n1 0 7\n", "line 2: expected 'id flag', got '1 0 7'"),
                          ("0 1\n1\n", "line 2: expected 'id flag', got '1'"),
                          ("0 1\nx1 0\n", "line 2: non-integer id 'x1'")):
        f = _write(tmp_path / "bad.txt", text)
        with pytest.raises(IngestError, match=f"^{re.escape(f'{f}: {message}')}$"):
            load_labels(f, g, strict=False)


def test_repeated_label_ids(tmp_path, caplog):
    g = load_edge_list(_write(tmp_path / "e.txt", "0 1\n1 2\n"))
    f = _write(tmp_path / "labels.txt", "0 0\n2 private\n1 1\n2 public\n")
    with pytest.raises(IngestError, match=f"^{re.escape(str(f))}: line 4: id 2 already listed at line 2$"):
        load_labels(f, g)
    with caplog.at_level(logging.WARNING, logger="privwalk.ingest"):
        gl = load_labels(f, g, strict=False)
    assert list(gl.is_private) == [False, True, False]  # the last flag wins
    assert f"{f}: skipped 0 labels for ids outside the graph; 1 repeated ids" in caplog.text


def test_invalid_utf8_names_the_line(tmp_path, capsys):
    from privwalk.cli import main

    # 3000 lines put the bad byte past the decoder's first chunk
    edges = tmp_path / "e.txt"
    edges.write_bytes("".join(f"{k} {k + 1}\n" for k in range(3000)).encode() + b"5 \xff6\n7 8\n")
    samples = tmp_path / "s.txt"
    samples.write_bytes(b"5 3 2.0\n" * 3000 + b"# caf\xe9\n5 3 2.0\n")
    labels = tmp_path / "l.txt"
    labels.write_bytes(b"0 0\n1 publ\xffc\n")
    g = load_edge_list(_write(tmp_path / "g.txt", "0 1\n"))
    for load, f, line in ((load_edge_list, edges, 3001), (load_sample_records, samples, 3001),
                          (lambda f: load_labels(f, g), labels, 2)):
        with pytest.raises(IngestError, match=f"^{re.escape(str(f))}: line {line}: not valid UTF-8$"):
            load(f)
    assert main(["ingest", str(edges)]) == 1
    assert capsys.readouterr().err == f"error: {edges}: line 3001: not valid UTF-8\n"


def test_sample_records_three_column(tmp_path):
    f = _write(tmp_path / "s.txt", "5 3 2.5\n7 2 2.0\n5 3 2.25\n")
    rec = load_sample_records(f)
    assert rec.r == 3
    assert list(rec.nodes) == [5, 7, 5]
    assert list(rec.degrees) == [3, 2, 3]
    assert list(rec.public_degrees) == [2.5, 2.0, 2.25]


def test_sample_records_four_column_dump_format(tmp_path):
    f = _write(tmp_path / "s.txt", "1 5 3 2.5\n2 7 2 2.0\n")
    rec = load_sample_records(f)
    assert list(rec.nodes) == [5, 7]
    assert list(rec.public_degrees) == [2.5, 2.0]


def test_sample_records_validation(tmp_path, capsys):
    from privwalk.cli import main

    with pytest.raises(IngestError, match="line 1"):
        load_sample_records(_write(tmp_path / "a.txt", "5 3 4.0\n"))  # ds > d
    with pytest.raises(IngestError, match="line 2"):
        load_sample_records(_write(tmp_path / "b.txt", "5 3 3.0\n5 3 -1.0\n"))
    with pytest.raises(IngestError, match="no samples"):
        load_sample_records(_write(tmp_path / "c.txt", "# empty\n"))
    with pytest.raises(IngestError, match="line 1"):
        load_sample_records(_write(tmp_path / "d.txt", "5 3\n"))
    with pytest.raises(IngestError, match="line 2: negative degree value"):
        load_sample_records(_write(tmp_path / "e.txt", "5 3 3.0\n5 -1 0.0\n"))
    with pytest.raises(IngestError, match="line 1: public degree inf exceeds degree 3"):
        load_sample_records(_write(tmp_path / "f.txt", "5 3 inf\n"))
    for token in ("nan", "NaN", "-nan"):
        with pytest.raises(IngestError, match="line 2: non-finite public degree nan"):
            load_sample_records(_write(tmp_path / "g.txt", f"5 3 3.0\n1 5 3 {token}\n"))
    for line in ("6 4 0", "6 0 0"):
        zero = _write(tmp_path / "h.txt", f"5 3 3.0\n{line}\n")
        with pytest.raises(IngestError, match=f"^{re.escape(str(zero))}: line 2: public degree 0.0 is"):
            load_sample_records(zero)
    assert main(["estimate", str(zero)]) == 1
    assert capsys.readouterr().err == f"error: {zero}: line 2: public degree 0.0 is not positive\n"
