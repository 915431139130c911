"""Golden-report regression: rerun pinned studies through the command line
and compare their CSVs with the committed ones.

Each directory under ``golden/`` holds a ``study.ini`` and the
``report.csv``/``rates.csv`` it produced under ``OPENBLAS_NUM_THREADS=1``.
On the machine that wrote them the files are byte-identical; here the
headers, the row labels and the NaN patterns must match exactly and every
value must agree to 1e-12 of its column's largest magnitude, which leaves
room for the last-digit differences of other SIMD kernels.
"""

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
