"""One benchmark operation in a fresh process.

Usage (from ``run.py``; not meant to be run by hand):

    python3 bench/worker.py --root ROOT --workload NAME --seed N
        --workdir DIR --result FILE --spawned-at NS [--trace] [--setup-only]

The worker imports numpy and fvlab from ``ROOT/src``, writes the workload's
configuration (set-up), then makes the workload's call (the operation),
checks the output and writes one JSON record to FILE.  It times a fixed
reference computation after set-up and after the operation (see
``reference_s``).  ``--spawned-at``
is the parent's ``time.perf_counter_ns()`` just before it started this
process; both clocks are the system-wide monotonic clock, so set-up time
runs from process start to the first workload call.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def reference_s() -> float:
    """Wall time of a fixed computation that does not use fvlab: numpy
    array arithmetic and an interpreted loop, the two kinds of work the
    workloads do.  Timed around every operation, it measures how fast the
    host runs this process at that moment."""
    import numpy as np
    a = np.linspace(0.0, 1.0, 200_000)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(20):
        acc += float((np.sin(a) * a + np.cumsum(a)).sum())
    for i in range(300_000):
        acc += i * 0.5
    return time.perf_counter() - t0


def _blas_threads():
    """Thread count OpenBLAS reports from inside this process, or None."""
    import ctypes
    import glob
    import os

    import numpy
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned-at", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    src = Path(args.root) / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (set-up cost the user pays)
    import fvlab
    import fvlab.cli
    if Path(fvlab.__file__).resolve().parent != (src / "fvlab").resolve():
        print(f"fvlab imported from {fvlab.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    from workloads import CheckFailed, Workload

    workload = Workload(args.workload, args.seed, Path(args.workdir),
                        args.smoke)
    workload.prepare()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(op_id=Path(args.workdir).name)
        tracer.install()
    first_call = time.perf_counter_ns()
    record = {"setup_s": (first_call - args.spawned_at) * 1e-9,
              "blas_threads": _blas_threads(), "ok": True, "error": None}
    reference_s()                       # untimed: first-call costs
    record["ref_before_s"] = reference_s()
    if not args.setup_only:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                # the root span of this operation
                tracer.span("bench.operation", "bench", workload.run,
                            (tracer,), {})
            else:
                workload.run()
            error = None
        except Exception as exc:  # a failed operation, not a crash
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        run_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["ref_after_s"] = reference_s()
        if tracer is not None:
            tracer.uninstall()
        if error is None:
            try:
                workload.check()
            except CheckFailed as exc:
                error = f"CheckFailed: {exc}"
        record.update(run_s=run_s, cpu_s=cpu_s, peak_rss_mb=peak,
                      ok=error is None, error=error)
        if tracer is not None:
            tracer.write_spans(Path(args.workdir) / "spans.jsonl")
            record["per_layer"] = tracer.per_layer_metrics()
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
