"""Steadiness check: run each workload untraced over seeds 1..runs and
report each end-to-end metric's median, quartiles and spread.

The spread is the distance between the first and third quartile as a
share of the median (``statistics.quantiles(values, n=4)``).  The
bounds in ``BENCHMARK.json`` are set by hand from these spreads; the
summary prints each metric's bound beside its spread.

    python3 perfbench/steady.py --runs 10 --seconds 25 \\
        [--workload reverse ...] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in a fresh interpreter; its JSON
    result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed:\n%s" % (workload, seed,
                                                      proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--out", help="also write the summary here as JSON")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            started = time.perf_counter()
            result = run_once(workload, seed, args.seconds)
            runs.append(result)
            print("%s seed %d: %.0fs correct=%s failed=%d %s" % (
                workload, seed, time.perf_counter() - started,
                result["correct"], result["failed"],
                " ".join("%s=%.4g" % (k, v["value"])
                         for k, v in result["metrics"].items())),
                flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            row = spread(values)
            row["values"] = values
            row["bound"] = bounds[name]
            rows[name] = row
            print("  %-24s median %10.4g  q1 %10.4g  q3 %10.4g  spread "
                  "%.3f  bound %.2f" % (name, row["median"], row["q1"],
                                        row["q3"], row["spread"],
                                        row["bound"]), flush=True)
        summary[workload] = {"runs": len(runs),
                             "failed": sum(r["failed"] for r in runs),
                             "metrics": rows}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
