"""Smoke tests of the benchmark harness (tiny inputs, about a minute).

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    for name in (m["name"] for m in SPEC["end_to_end"]):
        if not trace:
            assert result["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_uninstall_restores_every_binding():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    try:
        import fvlab.quadrature
        import fvlab.study
        from tracing import Tracer
        before = (fvlab.study.interpolate_test,
                  fvlab.quadrature.CellQuadrature.__dict__["cell_means"])
        tracer = Tracer("t")
        tracer.install()
        assert fvlab.study.interpolate_test is not before[0]
        tracer.uninstall()
        assert (fvlab.study.interpolate_test,
                fvlab.quadrature.CellQuadrature.__dict__["cell_means"]) \
            == before
    finally:
        del sys.path[:2]


def test_self_time_subtracts_the_union_of_child_spans():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from tracing import _union_length
    finally:
        del sys.path[0]
    # two overlapping children and one that sticks out of the parent
    assert _union_length([(2, 5), (4, 7), (9, 20)], 0, 10) == 6
    assert _union_length([], 0, 10) == 0
