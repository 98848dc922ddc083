"""The debugger's benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload interactive --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
(on ``reverse`` and ``artifacts``, with the host's speed sampled between
operations: :mod:`perfbench.hostspeed`).
``--trace 1`` is the separate traced run: it measures half the time
untraced and half with layer spans (:mod:`perfbench.spans`), and prints
the per-layer metrics.  Human-readable figures go to standard output
first; the last line is the JSON result.  The program under test is
imported from ``src/`` of the checkout, so the benchmark measures the
code it ships with and refuses to run without it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (name, unit) of the end-to-end metrics, measured with tracing off.
#: The times are processor time, on a shared virtual machine steadier
#: than wall clock; on a workload whose work is interpreter-bound on the
#: main thread (``HOST_BOUND``) they are divided by the host's slowness
#: measured beside them (:mod:`perfbench.hostspeed`).  The raw and
#: wall-clock latencies and throughputs are printed beside them.
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_cpu_ms", "ms")]

WORKLOADS = ("interactive", "reverse", "artifacts")


def _import_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit("perfbench: no program to measure: %s/repro is "
                         "missing" % src)
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)


def make_workload(name: str, seed: int):
    if name == "interactive":
        from perfbench.interactive import Interactive
        return Interactive(seed)
    if name == "reverse":
        from perfbench.reverse import Reverse
        return Reverse(seed)
    from perfbench.artifacts import Artifacts
    return Artifacts(seed, ROOT)


def end_to_end(workload, ledger) -> dict:
    from perfbench.measure import TAIL_Q, cell_p50_ms, kind_tail_ms, median
    setup_cpu, op_cpu = median(ledger.setup), workload.op_cpu_ms(ledger)
    values = {
        "setup_s": setup_cpu / _slowness(ledger, "setup_host_slowness",
                                         ledger.setup_speed),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_cpu_ms": op_cpu / _slowness(ledger, "host_slowness",
                                        ledger.speed),
    }
    ledger.figure("setup_cpu_s", setup_cpu, "s",
                  "processor time, median of %d set-ups" % len(ledger.setup))
    ledger.figure("op_cpu_ms.raw", op_cpu, "ms", "processor time")
    ledger.figure("ops_per_cpu_s", workload.ops_per_cpu_s(ledger), "1/s",
                  "processor time")
    workload.figures(ledger)
    ops = workload.latency_ops(ledger)
    tail_ms, covered = kind_tail_ms(ops)
    ledger.figure("setup_wall_s", median(ledger.setup_wall), "s",
                  "wall clock, median of %d set-ups" % len(ledger.setup))
    ledger.figure("op_p50_ms", cell_p50_ms(ops, workload.cell_key), "ms",
                  "wall clock, geomean over kinds of medians")
    if tail_ms is not None:
        ledger.figure("op_tail_ms", tail_ms, "ms",
                      "wall clock, geomean over kinds of p%d, %d operations"
                      % (round(TAIL_Q * 100), covered))
    ledger.figure("ops_per_s", workload.ops_per_s(ledger), "1/s",
                  "wall clock")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def _slowness(ledger, name: str, speed) -> float:
    """The host's slowness beside a phase, printed; 1.0 if untracked."""
    if speed is None:
        return 1.0
    value = speed.slowness()
    ledger.figure(name, value, "ratio",
                  "mean of %d reference samples over the nominal one"
                  % len(speed.samples))
    return value


def traced(workload, ledger, seconds: float, tracer) -> dict:
    """Half the time untraced, half traced; per-layer metrics of the
    traced half, and the overhead as traced over untraced latency."""
    from perfbench.layers import PER_LAYER, layer_metrics, verb_self_ms
    from perfbench.measure import Ledger, cell_p50_ms
    plain = Ledger()
    workload.run(plain, seconds / 2)
    marked = Ledger()
    since = time.perf_counter()
    tracer.install()
    before = tracer.counts()
    try:
        workload.run(marked, seconds / 2)
    finally:
        tracer.uninstall()
    after = tracer.counts()
    counts = {k: v - before.get(k, 0.0) for k, v in after.items()}
    untraced_ms = cell_p50_ms(workload.latency_ops(plain), workload.cell_key)
    traced_ms = cell_p50_ms(workload.latency_ops(marked), workload.cell_key)
    overhead = traced_ms / untraced_ms
    ledger.figure("op_p50_ms.untraced", untraced_ms, "ms", "first half")
    ledger.figure("op_p50_ms.traced", traced_ms, "ms", "second half")
    ops = workload.latency_ops(marked)
    timeline = tracer.timeline()
    attempted = max(1, marked.attempted)
    values = layer_metrics(tracer, timeline, ops, attempted, counts, since,
                           overhead)
    for name, total in sorted(verb_self_ms(timeline, since).items(),
                              key=lambda item: -item[1]):
        ledger.figure("ldb.self_ms." + name, total / attempted, "ms",
                      "per operation")
    for part in (plain, marked):
        ledger.attempted += part.attempted
        ledger.failed += part.failed
        ledger.failures.extend(part.failures)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_program()
    from perfbench.hostspeed import HostSpeed
    from perfbench.measure import Ledger
    from perfbench.spans import Tracer

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.watch_threads()
        tracer.install()  # set-up is traced too: the cc layer lives there
    ledger = Ledger()
    workload = make_workload(args.workload, args.seed)
    if workload.HOST_BOUND and tracer is None:
        ledger.setup_speed = HostSpeed()
    try:
        ledger.phase = "setup"
        workload.setup(ledger)
        if tracer is not None:
            tracer.uninstall()
        gc.collect()
        if tracer is None:
            if workload.HOST_BOUND:
                ledger.speed = HostSpeed()
            workload.run(ledger, args.seconds)
            metrics = end_to_end(workload, ledger)
        else:
            metrics = traced(workload, ledger, args.seconds, tracer)
    finally:
        workload.close()
        if tracer is not None:
            tracer.close()
    for name, (value, unit, note) in ledger.figures.items():
        print("%-40s %12.4f %-6s %s" % (name, value, unit, note))
    for name, entry in metrics.items():
        print("%-40s %12.4f %s" % (name, entry["value"], entry["unit"]))
    for failure in ledger.failures:
        print("FAILED: %s" % failure)
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
