"""The compiled reader of the edge and sample loaders against their line parser.

The line parser is the oracle: with the compiled steps switched off, the
reader decides no line and the line parser reads the whole file, and each
loader must give the same arrays (dtype and bytes) or raise the same
exception with the same message. A last test switches the line parser
off instead, so that a reader that always handed the file on would fail.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_edge_list

import privwalk.ingest as ingest
from privwalk import graph, load_edge_list, load_sample_records

BIG = 2**53
INT64_ENDS = [str(2**63 - 1), str(-(2**63)), str(2**63), str(-(2**63) - 1), str(2**64 + 1)]
# integer tokens Python's int() accepts, then ones it rejects
GOOD_INTS = ["+3", "-2", "007", "1_000", "1_0", "\u0661\u0662", "\uff11\uff12", *INT64_ENDS[:2]]
BAD_INTS = ["1.0", "1e3", "0x10", "abc", "--1", "+", "\x00", "\ufeff1", *INT64_ENDS[2:]]
ODD_FLOATS = ["nan", "-nan", "NaN", "inf", "-inf", "infinity", "1e-400", "1e400", "0", "0.0",
              "-0.0", "-1.0", "1_0.5", "\uff11.5", "0x1p3", "1.5d0", ".5", "5.", "+2", "2.5e0",
              "nan(1)", "1,5"]
SEPS = [" ", "  ", "\t", "\x0b", "\x0c", "\xa0", "\u3000", "\x1c", "\x85", "\u2028"]
BLANKS = ["", " ", "\t", "\xa0", "\u3000", "\x0c"]
COMMENTS = ["# c", "% c", "  # indented", "\t% tab", "\xa0#", "#", "%1 2"]
ENDINGS = ["\n", "\r\n", "\r"]


def _fields(draw, tokens, odd):
    """Tokens joined by separators: plain ones only, or some of every kind."""
    sep = st.sampled_from(SEPS) if odd else st.just(" ")
    out = draw(st.sampled_from(BLANKS)) if odd and draw(st.booleans()) else ""
    for k, tok in enumerate(tokens):
        out += (draw(sep) if k else "") + tok
    if odd and draw(st.booleans()):
        out += draw(st.sampled_from(["#x", " # c", "%", " 2.5", " x y", *BLANKS]))
    return out


def _int_token(plain):
    """Mostly ``plain``; odd files also get odd integers, now and then rejected ones."""
    return st.one_of(plain, plain, plain, plain, st.sampled_from(GOOD_INTS),
                     st.sampled_from(GOOD_INTS + BAD_INTS))


def _file(draw, data_line, odd):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        data = draw(st.integers(0, 3)) > 0
        lines.append(data_line(draw) if data else draw(st.sampled_from(COMMENTS + BLANKS)))
    ending = st.sampled_from(ENDINGS) if odd else st.just("\n")
    text = "".join(line + draw(ending) for line in lines)
    return text[:-1] if text and draw(st.booleans()) else text  # maybe no final newline


@st.composite
def edge_files(draw):
    odd = draw(st.booleans())
    node = st.integers(-3, 12).map(str)
    token = _int_token(node) if odd else node

    def data_line(draw):
        cols = [draw(token), draw(token)]
        if draw(st.integers(0, 4)) == 0:
            cols += draw(st.lists(st.sampled_from(["7", "2.5", "w", "#", "1e9"]), min_size=0,
                                  max_size=2 if odd else 3))
        if odd and draw(st.integers(0, 8)) == 0:
            cols = cols[:1]
        return _fields(draw, cols, odd)

    return _file(draw, data_line, odd)


def _float_text(draw):
    return draw(st.one_of(
        st.integers(1, 9).map(str),
        st.floats(0.01, 9.0).map(repr),
        st.floats(0.0, 9.0).map(lambda x: f"{x:.20g}"),
        st.sampled_from(ODD_FLOATS),
    ))


@st.composite
def sample_files(draw):
    odd = draw(st.booleans())
    width = draw(st.sampled_from([3, 4, "mixed"]))
    ints = st.integers(-2, 9).map(str)
    token = _int_token(ints) if odd else ints

    def data_line(draw):
        if odd and draw(st.integers(0, 5)) == 0:
            # near 2**53, where float64 no longer holds every degree
            d = BIG + draw(st.integers(-2, 5))
            ds = BIG + draw(st.integers(-3, 6))
            cols = [draw(token), str(d), draw(st.sampled_from([str(ds), f"{float(ds)!r}"]))]
        elif odd:
            cols = [draw(token), draw(token), _float_text(draw)]
        else:
            d = draw(st.integers(1, 9))
            ds = draw(st.one_of(st.integers(1, d).map(str),
                                st.floats(0.01, float(d)).map(repr)))
            cols = [draw(token), str(d), ds]
        four = width == 4 or (width == "mixed" and draw(st.booleans()))
        if four:
            index = st.sampled_from(["1", "abc", "1.5", str(2**64)]) if odd else st.just("1")
            cols = [draw(index), *cols]
        if odd and draw(st.integers(0, 10)) == 0:
            cols = cols + ["x"] if draw(st.booleans()) else cols[1:]
        return _fields(draw, cols, odd)

    return _file(draw, data_line, odd)


def _outcome(load, path):
    """The loader's arrays as (dtype, bytes) pairs, or its exception's type and message."""
    try:
        out = load(path)
    except Exception as e:  # any exception is part of the outcome
        return type(e), str(e)
    arrays = ((out.indptr, out.indices, out.orig_ids) if load is load_edge_list
              else (out.nodes, out.degrees, out.public_degrees))
    return [(a.dtype, a.tobytes()) for a in arrays]


def _check_against_line_parser(load, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.txt"
        path.write_bytes(text.encode("utf-8"))
        got = _outcome(load, path)
        with mock.patch.object(graph, "_kernels", lambda: None):
            want = _outcome(load, path)
    assert got == want


@settings(max_examples=400, deadline=None, database=None)
@given(edge_files())
@example("1 2#x\n2 3\n")
@example("1 2 # c\n2 3\n")
@example("1 2\r\n2 3\r\n# c\r\n")
@example("3 3\n4 4\n")
@example("")
@example("# only\n% comments\n\n")
@example("1\x0b2\n2\x0c3\n3\xa04\n4\u30005\n")
@example("+1 -2\n1_000 2\n")
@example("\u0661\u0662 3\n3 \uff14\n")
@example("1.0 2\n")
@example("1e3 2\n")
@example(f"{2**63 - 1} {-(2**63)}\n{2**63} 1\n")
@example(f"{-(2**63) - 1} 0\n")
@example("1 2\n2 3\n3 1\n1_000 2\n2 4\n4 5\n")
@example("1 2\n2 3\nx 4\n")
@example("1 2\n# c\r3 4\n")
def test_edge_list_matches_line_parser(text):
    _check_against_line_parser(load_edge_list, text)


@settings(max_examples=400, deadline=None, database=None)
@given(sample_files())
@example("1 5 3 2.5 # c\n")
@example("5 3 2.5\n1 5 3 2.5\n")
@example("1 5 3 2.5\n5 3 2.5\n")
@example("a 5 3 2.5\nb 6 3 1.0\n")
@example("5 3 nan\n")
@example("5 3 inf\n")
@example("5 3 1e-400\n")
@example("5 3 0\n")
@example(f"5 {2**53 + 3} {2**53 + 4}\n")
@example(f"5 {2**53 + 4} {2**53 + 4}\n")
@example(f"5 {2**63} 1.0\n")
@example("1_000 3 2.0\n")
@example("5 3 2.5\r\n\r\n7 2 2.0\r\n")
@example("")
@example("# none\n")
@example("5 3 2.5\n7 2 2.0\n1_000 3 2.0\n5 3 1.5\n")
@example("5 3 2.5\n7 x 2.0\n")
@example("5 3 2.5\n# c\r7 2 2.0\n")
def test_sample_records_match_line_parser(text):
    _check_against_line_parser(load_sample_records, text)


def _line_parser_off(path):
    raise AssertionError(f"the line parser ran on {path}")


def test_clean_files_skip_the_line_parser(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_line_edges", _line_parser_off)
    monkeypatch.setattr(ingest, "_line_samples", _line_parser_off)

    pairs = [(1000, 1063), (1063, 1127), (1127, 1000), (1063, 1000), (1000, 1063),
             (1127, 1127), (1200, 1000), (2000, 2007), (2007, 2014), (2014, 2000)]
    lines = [f"{u} {v}" for u, v in pairs]
    lines[3] += " 0.5 1700000000"  # extra columns
    text = ("# synthetic edge list\r\n# src dst\r\n" + "\r\n".join(lines[:5])
            + "\r\n% block 1 of 2\r\n\r\n" + "\r\n".join(lines[5:]) + "\r\n% block 2 of 2\r\n\r\n")
    edges = tmp_path / "edges.txt"
    edges.write_bytes(text.encode())
    g = load_edge_list(edges)
    indptr, indices, orig_ids = reference_edge_list(pairs)
    assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)
    assert list(g.orig_ids) == list(orig_ids) == [1000, 1063, 1127, 1200]

    three = tmp_path / "three.txt"
    three.write_text("\n# id degree public_degree\n \n5 3 2.5\n\n7 2 2.0\n5 3 2.25\n")
    four = tmp_path / "four.txt"
    four.write_text("# index id degree public_degree\n1 5 3 2\n2 7 2 2\n3 5 3 1\n")
    for f, pubdegs in ((three, [2.5, 2.0, 2.25]), (four, [2.0, 2.0, 1.0])):
        rec = load_sample_records(f)
        assert list(rec.nodes) == [5, 7, 5] and list(rec.degrees) == [3, 2, 3]
        assert list(rec.public_degrees) == pubdegs
        assert rec.public_degrees.dtype == np.float64 and rec.nodes.flags.c_contiguous
