"""T7 — durable artifacts: what crash consistency costs and what
salvage recovers.

Three questions, answered with real artifacts (a recorded session and
the core it dumps at the crash):

* **atomic-write overhead** — :func:`atomic_write_bytes` (temp +
  fsync + rename) vs a plain ``open``/``write``, per payload size.
  The atomic path buys its guarantee with one fsync and one rename;
  the bench pins the absolute cost so "durability is too slow to
  leave on" claims need a number.
* **salvage success rate** — every artifact kind truncated at evenly
  spaced cut points; each prefix must open, salvage (typed warning),
  or refuse (typed error), and the recovered fraction is reported.
* **fault matrix** — seeded :class:`FaultyFS` schedules (ENOSPC, torn
  writes, power cuts, EIO) driven through the atomic writer; after
  *every* outcome the destination holds exactly the old payload or
  exactly the new one, never a mixture.

Emits ``BENCH_durability.json`` at the repository root.
``BENCH_QUICK=1`` shrinks the matrix (the CI smoke mode).
"""

from __future__ import annotations

import io
import json
import os
import time
import warnings
from pathlib import Path

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.machines import SIGSEGV, SIGTRAP
from repro.machines.atomicio import (
    FaultyFS,
    FsFaultSchedule,
    PowerCut,
    SalvagedArtifact,
    atomic_write_bytes,
    cleanup_stale_temps,
    use_fs,
)
from repro.machines.core import CoreError, CoreFile
from repro.trace.format import Recording, TraceError

from .conftest import report

_OUT = Path(__file__).resolve().parent.parent / "BENCH_durability.json"

BOOM_C = """int g;
void tick(int i) { g = g + i; }
void poke(int *p) { *p = 42; }
int main(void) {
    int i;
    for (i = 0; i < 24; i++)
        tick(i);
    poke((int *)0x7fffffff);
    return 0;
}
"""

WRITE_SIZES = (1 << 12, 1 << 16, 1 << 20)


def _artifacts(scratch: Path):
    """Record one crashing session; return its recording and core
    bytes — the two artifact kinds every durability number is about."""
    exe = compile_and_link({"boom.c": BOOM_C}, "rmips", debug=True)
    rec_path = str(scratch / "boom.ldbrec")
    core_path = str(scratch / "boom.core")
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(exe)
    ldb.start_recording(path=rec_path, interval=120)
    ldb.break_at_function("tick")
    while True:
        ldb.run_to_stop()
        if target.state != "stopped" or target.signo != SIGTRAP:
            break
    assert target.signo == SIGSEGV
    ldb.record_save()
    target.dump_core(core_path)
    target.kill()
    with open(rec_path, "rb") as handle:
        rec_raw = handle.read()
    with open(core_path, "rb") as handle:
        core_raw = handle.read()
    return rec_raw, core_raw


# -- atomic-write overhead -------------------------------------------------

def _time_writes(path: str, payload: bytes, reps: int, atomic: bool):
    best = None
    for _ in range(reps):
        started = time.perf_counter()
        if atomic:
            atomic_write_bytes(path, payload)
        else:
            with open(path, "wb") as handle:
                handle.write(payload)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def measure_overhead(scratch: Path, reps: int) -> dict:
    rows = {}
    for size in WRITE_SIZES:
        payload = os.urandom(size)
        path = str(scratch / ("payload_%d.bin" % size))
        plain = _time_writes(path, payload, reps, atomic=False)
        atomic = _time_writes(path, payload, reps, atomic=True)
        rows[str(size)] = {
            "plain_ms": round(plain * 1e3, 4),
            "atomic_ms": round(atomic * 1e3, 4),
            "overhead": round(atomic / max(plain, 1e-9), 2),
        }
        # the guarantee must stay affordable in absolute terms
        assert atomic < 0.25, "atomic write took %.3fs" % atomic
    return rows


# -- salvage success rate --------------------------------------------------

def _classify_prefix(raw, opener, error):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SalvagedArtifact)
        try:
            opener(raw, salvage=True)
        except error:
            return "error"
    return "salvage" if caught else "open"


def measure_salvage(rec_raw: bytes, core_raw: bytes, points: int) -> dict:
    out = {}
    for name, raw, opener, error in (
            ("recording", rec_raw, Recording.from_bytes, TraceError),
            ("core", core_raw, CoreFile.from_bytes, CoreError)):
        step = max(1, len(raw) // points)
        cuts = list(range(0, len(raw), step)) + [len(raw)]
        outcomes = {"open": 0, "salvage": 0, "error": 0}
        for cut in cuts:
            outcomes[_classify_prefix(raw[:cut], opener, error)] += 1
        recovered = outcomes["open"] + outcomes["salvage"]
        out[name] = {
            "bytes": len(raw),
            "cut_points": len(cuts),
            "outcomes": outcomes,
            "recovered_fraction": round(recovered / len(cuts), 3),
        }
        # the whole file opens clean; some strict prefix salvages
        assert outcomes["open"] >= 1
        assert outcomes["salvage"] >= 1
    return out


# -- the seeded fault matrix ----------------------------------------------

def measure_fault_matrix(scratch: Path, rec_raw: bytes, seeds: int) -> dict:
    path = str(scratch / "matrix.ldbrec")
    old = rec_raw[: len(rec_raw) // 2]
    outcomes = {"landed": 0, "kept_old": 0}
    by_error = {}
    torn = 0
    for seed in range(seeds):
        atomic_write_bytes(path, old)
        fs = FaultyFS(FsFaultSchedule(seed=seed, enospc=0.08, torn=0.08,
                                      powercut=0.08, eio=0.08))
        try:
            with use_fs(fs):
                atomic_write_bytes(path, rec_raw)
            landed = True
        except PowerCut:
            landed = False
            by_error["powercut"] = by_error.get("powercut", 0) + 1
        except OSError as err:
            landed = False
            key = "errno_%s" % err.errno
            by_error[key] = by_error.get(key, 0) + 1
        with open(path, "rb") as handle:
            found = handle.read()
        if found == rec_raw:
            outcomes["landed"] += 1
        elif found == old:
            outcomes["kept_old"] += 1
        else:
            torn += 1
        assert landed == (found == rec_raw)
        cleanup_stale_temps(path)
    assert torn == 0, "%d torn destinations" % torn
    assert outcomes["kept_old"] > 0  # the schedule really injected
    return {"seeds": seeds, "outcomes": outcomes, "failures": by_error,
            "torn": torn}


def emit(data: dict) -> None:
    _OUT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_durability_costs_and_salvage(tmp_path):
    quick = bool(os.environ.get("BENCH_QUICK"))
    reps = 3 if quick else 10
    points = 40 if quick else 200
    seeds = 40 if quick else 200
    rec_raw, core_raw = _artifacts(tmp_path)
    data = {
        "benchmark": "durability",
        "workload": "a recorded loop-then-SIGSEGV session: its .ldbrec "
                    "and the core dumped at the crash",
        "reps": reps,
        "overhead": measure_overhead(tmp_path, reps),
        "salvage": measure_salvage(rec_raw, core_raw, points),
        "fault_matrix": measure_fault_matrix(tmp_path, rec_raw, seeds),
    }
    emit(data)
    report("", "T7. Durable artifacts: cost of atomicity, yield of salvage")
    for size, row in sorted(data["overhead"].items(), key=lambda kv:
                            int(kv[0])):
        report("  atomic write %7s B: %.2fms vs %.2fms plain (%.1fx)"
               % (size, row["atomic_ms"], row["plain_ms"],
                  row["overhead"]))
    for name, row in sorted(data["salvage"].items()):
        report("  salvage %-9s %d cut points: %d open / %d salvaged / "
               "%d refused (%.0f%% recovered)"
               % (name, row["cut_points"], row["outcomes"]["open"],
                  row["outcomes"]["salvage"], row["outcomes"]["error"],
                  100 * row["recovered_fraction"]))
    matrix = data["fault_matrix"]
    report("  fault matrix over %d seeds: %d landed, %d kept old, "
           "%d torn" % (matrix["seeds"], matrix["outcomes"]["landed"],
                        matrix["outcomes"]["kept_old"], matrix["torn"]))


if __name__ == "__main__":
    import tempfile

    quick = bool(os.environ.get("BENCH_QUICK"))
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        rec_raw, core_raw = _artifacts(scratch)
        data = {
            "benchmark": "durability",
            "workload": "a recorded loop-then-SIGSEGV session: its "
                        ".ldbrec and the core dumped at the crash",
            "reps": 3 if quick else 10,
            "overhead": measure_overhead(scratch, 3 if quick else 10),
            "salvage": measure_salvage(rec_raw, core_raw,
                                       40 if quick else 200),
            "fault_matrix": measure_fault_matrix(scratch, rec_raw,
                                                 40 if quick else 200),
        }
    emit(data)
    for size, row in sorted(data["overhead"].items(),
                            key=lambda kv: int(kv[0])):
        print("atomic write %7s B: %.2fms vs %.2fms plain (%.1fx)"
              % (size, row["atomic_ms"], row["plain_ms"],
                 row["overhead"]))
    for name, row in sorted(data["salvage"].items()):
        print("salvage %-9s: %.0f%% of %d cut points recovered"
              % (name, 100 * row["recovered_fraction"],
                 row["cut_points"]))
    matrix = data["fault_matrix"]
    print("fault matrix: %d/%d landed, %d kept old, %d torn"
          % (matrix["outcomes"]["landed"], matrix["seeds"],
             matrix["outcomes"]["kept_old"], matrix["torn"]))
    print("wrote %s" % _OUT)
