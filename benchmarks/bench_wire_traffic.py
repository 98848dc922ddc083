"""W1 — wire traffic: block transfers vs. per-word FETCH.

Hanson's follow-up (MSR-TR-99-4) singles out a compact block-oriented
protocol as the key to making the nub fast.  This bench drives the same
breakpoint -> backtrace -> expression-eval -> print -> registers
workload on all four ISAs two ways:

* ``uncached`` — the paper's Sec. 4.1 baseline, one FETCH per access;
* ``cached`` — the write-through CachingMemory over BLOCKFETCH.

The target runs behind a real wire (a nub on its own thread, over a
socketpair), so the byte counts are the bytes framed.  It asserts the
cached run produces byte-identical output with >= 5x fewer nub
round-trips, and emits ``BENCH_wire_traffic.json`` at the
repository root to seed the perf trajectory.  ``BENCH_QUICK=1`` runs a
single timing repetition (the CI smoke mode).
"""

from __future__ import annotations

import io
import json
import os
import time
from pathlib import Path

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.ldb.debugger import load_over_wire

from .conftest import report
from .workloads import FIB_C

ARCHS = ("rmips", "rsparc", "rm68k", "rvax")
EXPRESSIONS = ("j", "n", "a[0]+a[9]")
STOP_INDEX = 9  # inside fib's print loop: j, n, and all of a[] are live
REDUCTION_FLOOR = 5.0

_OUT = Path(__file__).resolve().parent.parent / "BENCH_wire_traffic.json"


def run_workload(arch: str, cache: bool):
    """One full debug conversation; returns (results, stats dict)."""
    exe = compile_and_link({"fib.c": FIB_C}, arch, debug=True)
    ldb = Ldb(stdout=io.StringIO())
    target = load_over_wire(ldb, exe, cache=cache)
    ldb.break_at_stop("fib", STOP_INDEX)
    started = time.perf_counter()
    ldb.run_to_stop()
    results = [ldb.backtrace_text()]
    frame = target.top_frame()
    for expression in EXPRESSIONS:
        results.append(repr(ldb.evaluate(expression, frame=frame)))
    results.append(ldb.print_variable("a", frame=frame))
    results.append(ldb.registers_text())
    elapsed = time.perf_counter() - started
    # every number below reads from the unified Metrics registry: the
    # memory DAG's wire.*/cache.* counters are mirrored into it and the
    # session adds its own session.* family (requests, bytes, retries)
    metrics = ldb.obs.metrics
    stats = {
        "round_trips": metrics.total("wire."),
        "seconds": elapsed,
        "counters": metrics.snapshot(),
    }
    try:
        target.kill()
    except Exception:
        pass
    return results, stats


def _timed(arch: str, cache: bool, reps: int = 3):
    """Best-of-``reps`` wall clock; counters from the last rep."""
    best = None
    for _ in range(reps):
        results, stats = run_workload(arch, cache)
        if best is None or stats["seconds"] < best[1]["seconds"]:
            best = (results, stats)
    return best


def measure(reps: int) -> dict:
    out = {
        "benchmark": "wire_traffic",
        "workload": ("breakpoint -> backtrace -> eval %s -> print a "
                     "-> registers" % (EXPRESSIONS,)),
        "reduction_floor": REDUCTION_FLOOR,
        "reps": reps,
        "archs": {},
    }
    for arch in ARCHS:
        base_results, base = _timed(arch, cache=False, reps=reps)
        cached_results, cached = _timed(arch, cache=True, reps=reps)
        reduction = base["round_trips"] / max(1, cached["round_trips"])
        out["archs"][arch] = {
            "uncached": {"round_trips": base["round_trips"],
                         "seconds": base["seconds"]},
            "cached": {"round_trips": cached["round_trips"],
                       "seconds": cached["seconds"],
                       "blockfetches":
                           cached["counters"].get("wire.blockfetch", 0),
                       "cache_hits": cached["counters"].get("cache.hit", 0),
                       "bytes_out":
                           cached["counters"].get("session.bytes_out", 0),
                       "bytes_in":
                           cached["counters"].get("session.bytes_in", 0)},
            "reduction": round(reduction, 2),
            "identical": cached_results == base_results,
        }
    return out


def emit(data: dict) -> None:
    _OUT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_wire_traffic_reduction():
    reps = 1 if os.environ.get("BENCH_QUICK") else 3
    data = measure(reps)
    emit(data)
    report("", "W1. Wire traffic: block transfers vs. per-word FETCH",
           "  workload: %s" % data["workload"])
    for arch, row in data["archs"].items():
        report("  %-7s %4d -> %3d round-trips (%.1fx), identical=%s"
               % (arch, row["uncached"]["round_trips"],
                  row["cached"]["round_trips"], row["reduction"],
                  row["identical"]))
        assert row["identical"], "%s: cached output differs" % arch
        assert row["reduction"] >= REDUCTION_FLOOR, (
            "%s: only %.1fx round-trip reduction" % (arch, row["reduction"]))


if __name__ == "__main__":
    data = measure(reps=1 if os.environ.get("BENCH_QUICK") else 3)
    emit(data)
    for arch, row in data["archs"].items():
        print("%-7s %4d -> %3d round-trips (%.1fx) identical=%s"
              % (arch, row["uncached"]["round_trips"],
                 row["cached"]["round_trips"], row["reduction"],
                 row["identical"]))
    print("wrote %s" % _OUT)
