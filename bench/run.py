"""fvlab benchmark: refinement studies and a mesh round trip, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the directory holding ``src/fvlab``).  NAME is
one of ``mac_refine``, ``col1d_scheme``, ``mesh_io`` (the workloads of
``BENCHMARK.json``), ``rt_perturbed`` (kept for runs by hand, outside
``BENCHMARK.json`` to leave its three workloads longer runs) or ``all``.
Every operation runs in a fresh worker process with OpenBLAS pinned to one
thread, so its peak RSS is its own.

``--trace 0`` runs operations back to back until the next one would end
after S seconds (at least one), then starts several set-up-only workers,
and reports medians over the run of the end-to-end metrics:

* ``run_s``: wall time of the workload's call(s), after set-up;
* ``cpu_s``: user+system CPU of the worker over the same interval;
* ``peak_rss_mb``: the worker's ``ru_maxrss`` at the end, in MiB;
* ``setup_s``: worker start to the first workload call (interpreter start,
  importing numpy and fvlab, writing the configuration), over the
  operations and the set-up-only workers.

The three times are in reference seconds.  Every worker times a fixed
computation that does not use fvlab (``worker.reference_s``) after set-up
and after its operation, and each time is divided by that reference time
and multiplied by ``REF_S``.  On a shared host other tenants slow every
process down by up to 2x, for seconds to tens of minutes at a time; the
reference computation slows down with it, so the ratio follows fvlab's
cost rather than the host's load.  A change to fvlab moves these times in
proportion; the unscaled medians and the reference time are printed and
kept in the run record beside them.

``--trace 1`` runs one untraced and two traced operations and reports the
per-layer split (see ``tracing.py``), the tracing overhead (traced minus
untraced ``run_s``) and fails the run when a count differs between the two
traced operations.  ``--smoke`` shrinks every workload to a few seconds and
skips the checks that only hold at full size.

An operation whose output is wrong counts as failed and gives no timing.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run records (with
the machine description) and spans go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import EXACT_COUNTS, PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS, study_threads  # noqa: E402

END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
                    "setup_s": "s"}
TRACED_UNITS = dict(PER_LAYER_UNITS, **{"trace.overhead_s": "s"})
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1"}
SETUP_ONLY_WORKERS = 5
# about the reference computation's wall time on an undisturbed 2-vCPU
# Intel Xeon; it only sets the scale of the reported times
REF_S = 0.1
RUN_LIMIT_S = 170.0          # every run ends well within 180 s


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "fvlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def environment(root: Path, seed: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": _git_commit(root),
        "src_sha256": _src_digest(root),
        "seed": seed,
        "worker_env": dict(WORKER_ENV),
        "rt_perturbed_threads": study_threads(),
    }


class Runner:
    """Starts the worker processes of one benchmark run."""

    def __init__(self, root: Path, workload: str, seed: int, smoke: bool,
                 started: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.started = started
        self.rundir = root / ".bench_work" / "runs" / \
            f"{workload}-seed{seed}-{os.getpid()}"
        self.count = 0
        self.env = {k: v for k, v in os.environ.items()
                    if k != "FVLAB_THREADS"}
        self.env.update(WORKER_ENV)

    def worker(self, trace=False, setup_only=False) -> dict:
        """Run one worker to completion and return its record."""
        self.count += 1
        workdir = self.rundir / f"op{self.count}"
        workdir.mkdir(parents=True, exist_ok=True)
        result = workdir / "result.json"
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if remaining <= 1.0:
            raise BenchError("out of time before the next operation")
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--root", str(self.root), "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", str(workdir),
               "--result", str(result)]
        cmd += ["--trace"] if trace else []
        cmd += ["--setup-only"] if setup_only else []
        cmd += ["--smoke"] if self.smoke else []
        cmd += ["--spawned-at", str(time.perf_counter_ns())]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            # subprocess.run has killed the worker and waited for it
            return {"ok": False, "error": "timed out", "wall_s": remaining}
        wall = time.perf_counter() - t0
        (workdir / "stderr.txt").write_text(proc.stderr)
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"worker exited with {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        record = json.loads(result.read_text())
        record["wall_s"] = wall
        record["spans"] = str(workdir / "spans.jsonl") if trace else None
        for name in ("out", "mesh.txt"):
            target = workdir / name
            if target.is_dir():
                shutil.rmtree(target)
            elif target.exists():
                target.unlink()
        return record


def _median(values):
    return statistics.median(values) if values else None


def _scaled(record, key):
    """``record[key]`` in reference seconds: divided by the reference
    computation's wall time measured in the same worker (after the
    operation too, if there was one) and multiplied by ``REF_S``."""
    refs = [record[k] for k in ("ref_before_s", "ref_after_s")
            if k in record]
    if key == "setup_s":
        refs = refs[:1]
    return record[key] * REF_S / statistics.fmean(refs)


def run_untraced(runner: Runner, seconds: float):
    """Operations until the next would end after `seconds`, then the
    set-up-only workers; returns (metrics, operations, set-ups)."""
    ops = []
    t0 = time.perf_counter()
    while not ops or (time.perf_counter() - t0
                      + _median([o["wall_s"] for o in ops]) <= seconds):
        ops.append(runner.worker())
    setups = [runner.worker(setup_only=True)
              for _ in range(SETUP_ONLY_WORKERS)]
    good = [o for o in ops if o["ok"]]
    if not good:
        raise BenchError("every operation failed: "
                         + "; ".join(str(o["error"]) for o in ops))
    timed = [o for o in ops + setups if "setup_s" in o]
    metrics = {
        "run_s": _median([_scaled(o, "run_s") for o in good]),
        "cpu_s": _median([_scaled(o, "cpu_s") for o in good]),
        "peak_rss_mb": _median([o["peak_rss_mb"] for o in good]),
        "setup_s": _median([_scaled(o, "setup_s") for o in timed]),
    }
    unscaled = {
        "run_s": _median([o["run_s"] for o in good]),
        "setup_s": _median([o["setup_s"] for o in timed]),
        "ref_s": _median([o["ref_before_s"] for o in timed]),
    }
    return metrics, ops, setups, unscaled


def run_traced(runner: Runner):
    """One untraced and two traced operations; returns (metrics,
    operations, set-ups)."""
    base = runner.worker()
    traced = [runner.worker(trace=True), runner.worker(trace=True)]
    ops = [base] + traced
    good = [o for o in traced if o["ok"]]
    if not good or not base["ok"]:
        raise BenchError("a traced run needs its untraced and traced "
                         "operations to succeed: "
                         + "; ".join(str(o["error"]) for o in ops))
    layers = [o["per_layer"] for o in good]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [m[name] for m in layers]
        metrics[name] = values[0] if unit == "count" else _median(values)
    metrics["trace.overhead_s"] = \
        _median([_scaled(o, "run_s") for o in good]) - _scaled(base, "run_s")
    if len(good) == 2:
        for name in EXACT_COUNTS:
            if layers[0][name] != layers[1][name]:
                for o in good:
                    o["ok"] = False
                    o["error"] = (f"count {name} differs between traced "
                                  f"runs: {layers[0][name]} vs "
                                  f"{layers[1][name]}")
    return metrics, ops, [], {}


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, smoke: bool, started: float) -> dict:
    runner = Runner(root, workload, seed, smoke, started)
    runner.worker(setup_only=True)      # untimed: fill file and .pyc caches
    if trace:
        metrics, ops, setups, unscaled = run_traced(runner)
        units = TRACED_UNITS
    else:
        metrics, ops, setups, unscaled = run_untraced(runner, seconds)
        units = END_TO_END_UNITS
    failed = sum(1 for o in ops if not o["ok"])
    blas = sorted({o["blas_threads"] for o in ops + setups
                   if o.get("blas_threads") is not None})
    return {"workload": workload, "correct": failed == 0,
            "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units},
            "unscaled": unscaled, "worker_blas_threads": blas,
            "operations": ops, "setups": setups}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs: check that every metric is emitted")
    args = p.parse_args(argv)
    # on SIGTERM unwind, so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "fvlab" / "__init__.py").is_file():
        print("bench: run from the repository root (no src/fvlab here)",
              file=sys.stderr)
        return 2
    env = environment(root, args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            res = run_workload(root, name, args.seed, args.seconds,
                               bool(args.trace), args.smoke, started)
            results.append(res)
            for metric, m in res["metrics"].items():
                print(f"{name:13s} {metric:26s} {m['value']:.6g} {m['unit']}")
            for metric, value in res["unscaled"].items():
                print(f"{name:13s} {metric + ' (unscaled)':26s} {value:.6g} s")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(env, sort_keys=True))
    records = root / ".bench_work" / "results"
    records.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + \
        ("-smoke" if args.smoke else "")
    (records / f"{tag}.json").write_text(json.dumps(
        {"env": env, "args": vars(args), "results": results}, indent=1))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
