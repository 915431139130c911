"""Summarise benchmark runs and append them to the trajectory.

    python3 bench/record.py --seeds 1 2 3 4 5 6 7 8 9 10 [--label NAME]
        [--append]

Reads ``.bench_work/results/<workload>-seed<n>-trace0.json`` for every
workload of ``BENCHMARK.json`` and every seed given, and the latest traced
record (``-trace1.json``) of each workload.  Prints, per workload and
end-to-end metric, the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median, marked ``!`` when it is not below a
third of the metric's bound, and keeps the medians of the unscaled times
(see ``run.py``) beside them.  With ``--append`` the summary becomes a new
entry of ``bench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def summarise(root: Path, seeds, label: str) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    results = root / ".bench_work" / "results"
    entry = {"label": label, "run_seconds": spec["run_seconds"],
             "seeds": list(seeds), "workloads": {}}
    for wl in spec["workloads"]:
        name = wl["name"]
        records = [json.loads((results / f"{name}-seed{s}-trace0.json")
                              .read_text()) for s in seeds]
        entry.setdefault("env", {k: v for k, v in records[0]["env"].items()
                                 if k != "seed"})
        runs = [r["results"][0] for r in records]
        e2e = {}
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            e2e[metric["name"]] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": metric["bound"],
                "values": values}
        unscaled = {k: statistics.median(run["unscaled"][k] for run in runs)
                    for k in runs[0]["unscaled"]}
        summary = {"why": wl["why"], "end_to_end": e2e,
                   "unscaled_medians": unscaled,
                   "attempted": sum(run["attempted"] for run in runs),
                   "failed": sum(run["failed"] for run in runs)}
        traced = sorted(results.glob(f"{name}-seed*-trace1.json"),
                        key=lambda p: p.stat().st_mtime)
        if traced:
            record = json.loads(traced[-1].read_text())
            summary["traced_seed"] = record["args"]["seed"]
            summary["per_layer"] = {
                k: v["value"]
                for k, v in record["results"][0]["metrics"].items()}
        entry["workloads"][name] = summary
    return entry


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--label", default="unlabelled")
    p.add_argument("--append", action="store_true")
    args = p.parse_args(argv)
    root = Path.cwd()
    entry = summarise(root, args.seeds, args.label)
    for name, wl in entry["workloads"].items():
        for metric, m in wl["end_to_end"].items():
            flag = "" if m["spread"] < m["bound"] / 3 else " !"
            print(f"{name:13s} {metric:12s} median {m['median']:.4g} "
                  f"{m['unit']}  q1 {m['q1']:.4g}  q3 {m['q3']:.4g}  "
                  f"spread {m['spread']:.3f} (bound {m['bound']}){flag}")
        print(f"{name:13s} attempted {wl['attempted']} failed {wl['failed']}")
    if args.append:
        path = BENCH_DIR / "trajectory.json"
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append(entry)
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
        print(f"appended entry {len(trajectory)} to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
