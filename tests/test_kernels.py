"""The compiled steps of ``_kernels.c``: bounds under AddressSanitizer and
UBSan, and the packaging of their source."""

import os
import shutil
import subprocess
import sys
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from privwalk import graph

ROOT = Path(__file__).resolve().parents[1]

# Runs in a child whose allocator is ASan's. Both steps run the library
# named by argv[1] and are checked against their Python twins.
SANITIZED_RUN = r"""
import sys
from unittest import mock

import numpy as np

from graphgen import RUNNERS, random_connected_edges
from privwalk import LabeledGraph, assign_labels_bernoulli, build_graph, graph, walk
from privwalk.graph import GraphError, largest_public_cluster

lib = graph._load(sys.argv[1])


def both(f):
    with mock.patch.object(graph, "_kernels", lambda: lib):
        got = f()
    with RUNNERS["python"]():
        want = f()
    return got, want


def cluster(g):
    try:
        view = largest_public_cluster(g)
    except GraphError:
        return None
    return view.member_flag.tolist(), view.public_degree.tolist(), view.cluster_census


walks = 0
for seed in range(3):
    edges = random_connected_edges(300, 1200, seed=seed)
    g, _ = both(lambda: build_graph(edges, [False] * 300))
    # rate 0 makes the last row public, so the pass reads it to its end
    for p in (0.0, 0.02, 0.3, 0.7, 0.98):
        gl = assign_labels_bernoulli(g, p, seed)
        got, want = both(lambda: cluster(gl))
        assert got == want, (seed, p)
        if got is None or sum(got[0]) < 2:
            continue
        # a seed at the last member; 20,000 samples span two uniform blocks
        start = max(i for i, member in enumerate(got[0]) if member)
        got, want = both(lambda: walk._select(gl, start, 20_000, seed))
        assert np.array_equal(got, want), (seed, p)
        walks += 1
assert walks >= 10, walks

# a walk that ends on the last row, which is empty
g = LabeledGraph([0, 1, 3, 3], [1, 0, 2], np.zeros(3, dtype=bool))
for runner in (lambda: mock.patch.object(graph, "_kernels", lambda: lib), RUNNERS["python"]):
    with runner():
        try:
            walk._select(g, 0, 100, 0)
        except IndexError:
            pass
        else:
            raise AssertionError("a pick from the empty last row did not raise")
print("clean")
"""


def _sanitizer_runtime():
    """The C compiler and its ASan runtime, or skip."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    found = subprocess.run([cc, "-print-file-name=libasan.so"], capture_output=True,
                           text=True).stdout.strip()
    if not (os.path.isabs(found) and os.path.exists(found)):
        pytest.skip("the C compiler has no libasan")
    return cc, found


def test_the_compiled_steps_stay_in_bounds_under_asan_and_ubsan(tmp_path):
    cc, libasan = _sanitizer_runtime()
    lib = tmp_path / "_kernels.so"
    subprocess.run([cc, "-O1", "-g", "-fsanitize=address,undefined", "-fno-omit-frame-pointer",
                    "-shared", "-fPIC", "-o", str(lib),
                    str(Path(graph.__file__).with_name("_kernels.c"))],
                   check=True, capture_output=True)
    env = {
        **os.environ,
        "LD_PRELOAD": libasan,
        "ASAN_OPTIONS": "detect_leaks=0",
        "UBSAN_OPTIONS": "halt_on_error=1:print_stacktrace=1",
        "PYTHONPATH": os.pathsep.join([str(Path(graph.__file__).parents[1]),
                                       str(Path(__file__).parent)]),
    }
    child = subprocess.run([sys.executable, "-c", SANITIZED_RUN, str(lib)], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0 and child.stdout == "clean\n", child.stderr[-4000:]


def test_package_data_names_every_c_source():
    # without its source an installed copy silently runs the slow twins
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        patterns = tomllib.load(f)["tool"]["setuptools"]["package-data"]["privwalk"]
    package = ROOT / "src" / "privwalk"
    sources = [p.relative_to(package).as_posix() for p in package.rglob("*.c")]
    assert sources
    assert [s for s in sources if not any(fnmatchcase(s, pat) for pat in patterns)] == []
