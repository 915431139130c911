"""Golden-report regression: rerun pinned studies through the command line
and compare their CSVs with the committed ones.

Each directory under ``golden/`` holds a ``study.ini`` and the
``report.csv``/``rates.csv`` it produced under ``OPENBLAS_NUM_THREADS=1``.
On the machine that wrote them the files are byte-identical; here the
headers, the row labels and the NaN patterns must match exactly and every
value must agree to 1e-12 of its column's largest magnitude, which leaves
room for the last-digit differences of other SIMD kernels.
"""

import ast
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fvlab

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "study.ini").exists())
RTOL = 1e-12


def _read(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    labels = [row[0] for row in rows]
    values = np.array([[float(x) for x in row[1:]] for row in rows])
    return header, labels, values


def assert_close_csv(got_path, want_path):
    got_header, got_labels, got = _read(got_path)
    want_header, want_labels, want = _read(want_path)
    assert got_header == want_header
    assert got_labels == want_labels
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    scale = np.abs(np.where(finite, want, 0.0)).max(axis=0)
    err = np.abs(np.where(finite, got - want, 0.0))
    bad = err > RTOL * scale[None, :]
    assert not bad.any(), [
        (want_labels[i], want_header[j + 1], got[i, j], want[i, j])
        for i, j in zip(*np.nonzero(bad))]


@pytest.mark.parametrize("case", CASES)
def test_study_matches_golden(case, tmp_path):
    src = str(Path(fvlab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "fvlab.cli", "run-study",
                    "--config", str(GOLDEN / case / "study.ini"),
                    "--out", str(tmp_path)],
                   env=env, check=True, capture_output=True)
    for name in ("report.csv", "rates.csv"):
        assert_close_csv(tmp_path / name, GOLDEN / case / name)


# the BLAS entry points among numpy's functions and attributes; a BLAS
# routine splits its sums across the OpenBLAS threads, so a reported
# value formed by one would change its last digits with the thread count
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot", "linalg"}
# the mass ledger of the scheme's march; they go with the benchmark
# change that moves its mass_defect column (ROADMAP)
KNOWN_BLAS_CALLS = {("schemes.py", "_fill", "np.dot(vols, q[0])"),
                    ("schemes.py", "_fill", "np.dot(vols, q[i + 1])")}


def _blas_calls(path):
    """(file, function, source) of each BLAS entry point in a module:
    the names above as attributes (``np.dot``, ``x.dot(``, ``np.linalg``),
    the ``@`` operator and ``einsum`` with ``optimize=``."""
    source = path.read_text()
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            name = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            hit = (isinstance(child, ast.Attribute)
                   and child.attr in BLAS_NAMES
                   or isinstance(child, (ast.BinOp, ast.AugAssign))
                   and isinstance(child.op, ast.MatMult)
                   or isinstance(child, ast.Call)
                   and getattr(child.func, "attr",
                               getattr(child.func, "id", None)) == "einsum"
                   and any(k.arg == "optimize" for k in child.keywords))
            if hit:
                segment = ast.get_source_segment(source, child)
                if isinstance(child, ast.Attribute):
                    # the whole call when the attribute is called
                    segment = next((ast.get_source_segment(source, call)
                                    for call in ast.walk(node)
                                    if isinstance(call, ast.Call)
                                    and call.func is child), segment)
                found.append((path.name, name, segment))
            visit(child, name)

    visit(ast.parse(source), None)
    return found


def test_src_calls_no_blas():
    # every sum that fvlab reports is numpy's own loop; only the mass
    # ledger's two dots remain, listed above
    src = Path(fvlab.__file__).resolve().parent
    calls = [call for path in sorted(src.glob("*.py"))
             for call in _blas_calls(path)]
    assert sorted(calls) == sorted(KNOWN_BLAS_CALLS)


def test_the_blas_check_sees_every_entry_point(tmp_path):
    # the check itself: each form it looks for, and nothing else
    path = tmp_path / "probe.py"
    path.write_text(
        "import numpy as np\n"
        "def f(a, b):\n"
        "    np.dot(a, b); a.dot(b); a @ b; np.matmul(a, b)\n"
        "    np.inner(a, b); np.vdot(a, b); np.tensordot(a, b)\n"
        "    np.linalg.norm(a); np.einsum('i,i', a, b, optimize=True)\n"
        "    np.einsum('i,i', a, b); np.sum(a * b); a.sum()\n")
    assert [segment for _, _, segment in _blas_calls(path)] == [
        "np.dot(a, b)", "a.dot(b)", "a @ b", "np.matmul(a, b)",
        "np.inner(a, b)", "np.vdot(a, b)", "np.tensordot(a, b)",
        "np.linalg", "np.einsum('i,i', a, b, optimize=True)"]
