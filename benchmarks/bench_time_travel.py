"""T1 — time travel: checkpoint cost and reverse-continue latency.

Checkpoint/replay buys reverse execution with two currencies: forward
recording overhead (a CHECKPOINT message — one COW snapshot — every
``interval`` retired instructions) and reverse-command latency (restore
the nearest checkpoint, replay the window).  This bench quantifies both
against the checkpoint interval on a loop-then-crash workload:

* ``plain``  — the same forward run with recording off, the baseline;
* per interval — recording overhead (wall clock, checkpoint count,
  wire round-trips) and the latency of a ``reverse-continue`` from the
  crash back onto the last breakpoint hit, then of a ``reverse-step``
  from that hit to the stopping point before it.  Each reverse command
  reports every nub request it made (``session.requests``), breakpoint
  bookkeeping included;
* ``from_log`` — breakpoints on ``main`` and ``poke``, and a
  reverse-continue from the ``poke`` hit back to the ``main`` hit,
  across every window of the loop.  The forward run executed those
  windows with the same breakpoints, so the controller's stop log
  answers them with no replay;
* ``planted_after`` — the forward run has only the ``poke``
  breakpoint; then ``tick`` replaces it and a reverse-continue goes
  back onto ``tick``'s last hit.  No logged run had that breakpoint,
  so the log cannot help: this is what a replayed search still costs;
* ``long_history`` — the same program with a loop about a million
  instructions long, at interval 10,000, under the step and the block
  engine: the forward record, the reverse-continue from the crash onto
  the ``poke`` hit, and one onto ``tick`` planted afterwards, which
  replays a window.  The short rows are too short to show what the
  simulator costs a user.

Both rows report the windows replayed and the windows answered from
the log, with the requests and the wall clock of the measured command.
It asserts every reverse-continue lands byte-position-exact on the
final forward hit at every interval, that every reverse-step lands on
the same earlier stop, that both new rows land where a plain forward
run under the same breakpoints stops, and emits
``BENCH_time_travel.json`` at the repository root.  ``BENCH_QUICK=1``
runs a single timing repetition (the CI smoke mode).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from pathlib import Path

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.machines import ENGINE_ENV, SIGSEGV, SIGTRAP

from .conftest import report

INTERVALS = (50, 200, 800)
LOOPS = 40
#: the long-history row: about a million instructions on rmips
LONG_LOOPS = 30_000
LONG_INTERVAL = 10_000

_BOOM = """int g;
void tick(int i) { g = g + i; }
void poke(int *p) { *p = 42; }
int main(void) {
    int i;
    for (i = 0; i < %d; i++)
        tick(i);
    poke((int *)0x7fffffff);
    return 0;
}
"""

_OUT = Path(__file__).resolve().parent.parent / "BENCH_time_travel.json"
_EXES: dict = {}


def _exe(loops=LOOPS):
    if loops not in _EXES:
        _EXES[loops] = compile_and_link({"boom.c": _BOOM % loops}, "rmips",
                                        debug=True)
    return _EXES[loops]


def _run_to_crash(ldb, target):
    """Breakpoint on poke, run through the long loop to the single hit
    and on into the crash; returns the icount of that hit.  The loop
    itself runs free, so the checkpoint interval — not the breakpoint —
    decides how dense the recording is."""
    ldb.break_at_function("poke")
    last_hit = None
    while True:
        ldb.run_to_stop()
        if target.state != "stopped" or target.signo != SIGTRAP:
            break
        last_hit = target.current_icount()
    assert target.signo == SIGSEGV
    return last_hit


def run_plain():
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(_exe())
    started = time.perf_counter()
    last_hit = _run_to_crash(ldb, target)
    seconds = time.perf_counter() - started
    stats = {"seconds": seconds,
             "round_trips": ldb.obs.metrics.total("wire."),
             "last_hit": last_hit, "crash_icount": target.current_icount()}
    target.kill()
    return stats


def run_recorded(interval: int):
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(_exe())
    # all counters come from the unified registry: wire.* mirrors the
    # memory DAG, replay.* comes from the controller itself
    metrics = ldb.obs.metrics
    replay = ldb.enable_time_travel(interval=interval, capacity=64)
    started = time.perf_counter()
    last_hit = _run_to_crash(ldb, target)
    record_seconds = time.perf_counter() - started
    record_trips = metrics.total("wire.")
    crash_icount = target.current_icount()

    def timed(command):
        """Run one reverse command: its landing, wall clock, and
        every nub request it made."""
        requests = metrics.get("session.requests")
        started = time.perf_counter()
        landing = command()
        return (landing, time.perf_counter() - started,
                metrics.get("session.requests") - requests)

    hit, reverse_seconds, reverse_requests = timed(ldb.reverse_continue)
    stats = {
        "interval": interval,
        "record_seconds": record_seconds,
        "record_round_trips": record_trips,
        "checkpoints": len(replay.ring),
        "reverse_seconds": reverse_seconds,
        "reverse_requests": reverse_requests,
        "reverse_windows": metrics.get("replay.windows"),
        "reverse_restores": metrics.get("replay.restores"),
        "replayed_instructions": metrics.get("replay.instructions_replayed"),
        "last_hit": last_hit,
        "crash_icount": crash_icount,
        "landed_icount": hit.icount,
        "landed_on_breakpoint": bool(target.at_breakpoint()),
    }
    step, stats["reverse_step_seconds"], stats["reverse_step_requests"] = \
        timed(ldb.reverse_step)
    stats["reverse_step_icount"] = step.icount
    target.kill()
    return stats


def _first_and_last_hits(function):
    """Icounts of the first and last hits of ``function`` in a plain
    forward run (no time travel): the landings the new rows expect."""
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(_exe())
    ldb.break_at_function(function)
    hits = []
    while ldb.run_to_stop() == "stopped" and target.signo == SIGTRAP:
        hits.append(target.current_icount())
    target.kill()
    return hits[0], hits[-1]


#: what a measured reverse-continue reports, by the counter it reads
_COSTS = {"requests": "session.requests",
          "windows_replayed": "replay.windows",
          "windows_from_log": "replay.windows_from_log",
          "replayed_instructions": "replay.instructions_replayed"}


def _measured_reverse_continue(ldb, target):
    """One reverse-continue: its landing, and what it cost."""
    metrics = ldb.obs.metrics
    before = {key: metrics.get(name) for key, name in _COSTS.items()}
    started = time.perf_counter()
    hit = ldb.reverse_continue()
    row = {key: metrics.get(name) - before[key]
           for key, name in _COSTS.items()}
    row.update(seconds=time.perf_counter() - started,
               landed_icount=hit.icount,
               landed_on_breakpoint=bool(target.at_breakpoint()))
    return row


def run_from_log(interval: int):
    """Reverse-continue from the ``poke`` hit to the ``main`` hit: every
    window between them ran forward under the same breakpoints."""
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(_exe())
    ldb.enable_time_travel(interval=interval, capacity=64)
    ldb.break_at_function("main")
    ldb.break_at_function("poke")
    while ldb.run_to_stop() == "stopped" and target.signo == SIGTRAP:
        pass
    ldb.reverse_continue()  # the crash back onto the poke hit
    row = _measured_reverse_continue(ldb, target)
    row["interval"] = interval
    row["expected_icount"] = _first_and_last_hits("main")[0]
    target.kill()
    return row


def run_planted_after(interval: int):
    """Reverse-continue onto a breakpoint planted after the forward
    run: no logged run had it, so every window is replayed."""
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(_exe())
    ldb.enable_time_travel(interval=interval, capacity=64)
    _run_to_crash(ldb, target)
    ldb.clear_breakpoints()
    ldb.break_at_function("tick")
    row = _measured_reverse_continue(ldb, target)
    row["interval"] = interval
    row["expected_icount"] = _first_and_last_hits("tick")[1]
    target.kill()
    return row


@contextlib.contextmanager
def _engine(name: str):
    """Targets loaded inside run on execution engine ``name``."""
    saved = os.environ.get(ENGINE_ENV)
    os.environ[ENGINE_ENV] = name
    try:
        yield
    finally:
        if saved is None:
            del os.environ[ENGINE_ENV]
        else:
            os.environ[ENGINE_ENV] = saved


def run_long(engine: str):
    """The long history under one engine: record forward to the crash,
    reverse-continue onto the last ``poke`` hit (the stop log answers
    it), then onto ``tick``'s last hit, planted afterwards (a replayed
    window)."""
    ldb = Ldb(stdout=io.StringIO())
    with _engine(engine):
        target = ldb.load_program(_exe(LONG_LOOPS))
    ldb.enable_time_travel(interval=LONG_INTERVAL, capacity=256)
    started = time.perf_counter()
    last_hit = _run_to_crash(ldb, target)
    row = {"engine": engine,
           "record_seconds": time.perf_counter() - started,
           "crash_icount": target.current_icount(),
           "last_hit": last_hit}
    started = time.perf_counter()
    row["landed_icount"] = ldb.reverse_continue().icount
    row["reverse_seconds"] = time.perf_counter() - started
    ldb.clear_breakpoints()
    ldb.break_at_function("tick")
    started = time.perf_counter()
    row["replayed_landed_icount"] = ldb.reverse_continue().icount
    row["replayed_reverse_seconds"] = time.perf_counter() - started
    target.kill()
    return row


def _timed(fn, *args, reps=3):
    """Best wall clock over ``reps`` runs (fresh session each time)."""
    best = None
    for _ in range(reps):
        row = fn(*args)
        key = row.get("record_seconds", row.get("seconds"))
        if best is None or key < best[0]:
            best = (key, row)
    return best[1]


def measure(reps: int) -> dict:
    plain = _timed(run_plain, reps=reps)
    out = {
        "benchmark": "time_travel",
        "workload": ("a %d-iteration loop -> breakpoint hit -> SIGSEGV "
                     "-> reverse-continue" % LOOPS),
        "reps": reps,
        "trace_instructions": plain["crash_icount"],
        "plain": plain,
        "intervals": {},
        "from_log": {},
        "planted_after": {},
    }
    for interval in INTERVALS:
        row = _timed(run_recorded, interval, reps=reps)
        row["record_overhead"] = (round(row["record_seconds"]
                                        / max(plain["seconds"], 1e-9), 2))
        out["intervals"][str(interval)] = row
        for name, fn in (("from_log", run_from_log),
                         ("planted_after", run_planted_after)):
            out[name][str(interval)] = _timed(fn, interval, reps=reps)
    engines = {engine: _timed(run_long, engine, reps=reps)
               for engine in ("step", "block")}
    out["long_history"] = {
        "interval": LONG_INTERVAL,
        "trace_instructions": engines["block"]["crash_icount"],
        "engines": engines,
        "record_speedup": round(engines["step"]["record_seconds"]
                                / engines["block"]["record_seconds"], 2),
    }
    return out


def emit(data: dict) -> None:
    _OUT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_time_travel_latency():
    reps = 1 if os.environ.get("BENCH_QUICK") else 3
    data = measure(reps)
    emit(data)
    report("", "T1. Time travel: checkpoint cost vs. reverse latency",
           "  workload: %s (%d instructions)"
           % (data["workload"], data["trace_instructions"]))
    plain = data["plain"]
    for interval, row in sorted(data["intervals"].items(), key=lambda kv: int(kv[0])):
        report("  interval %-4s %2d ckpts, record %.3fs (%.1fx plain), "
               "reverse-continue %.3fs / %d requests, "
               "reverse-step %.3fs / %d requests"
               % (interval, row["checkpoints"], row["record_seconds"],
                  row["record_overhead"], row["reverse_seconds"],
                  row["reverse_requests"], row["reverse_step_seconds"],
                  row["reverse_step_requests"]))
        # correctness before speed: every landing is the real final hit
        assert row["landed_on_breakpoint"], interval
        assert row["landed_icount"] == plain["last_hit"] == row["last_hit"]
        assert row["crash_icount"] == plain["crash_icount"]
        assert row["reverse_step_icount"] < row["landed_icount"]
    # the reverse step lands on the same stop whatever the interval
    assert len({row["reverse_step_icount"]
                for row in data["intervals"].values()}) == 1
    # denser checkpoints can't mean fewer of them
    counts = [data["intervals"][str(i)]["checkpoints"] for i in INTERVALS]
    assert counts == sorted(counts, reverse=True)
    for name in ("from_log", "planted_after"):
        for interval, row in sorted(data[name].items(),
                                    key=lambda kv: int(kv[0])):
            report("  %-13s interval %-4s reverse-continue %.4fs / %d "
                   "requests, %d windows replayed, %d from the log"
                   % (name, interval, row["seconds"], row["requests"],
                      row["windows_replayed"], row["windows_from_log"]))
            assert row["landed_on_breakpoint"], (name, interval)
            assert row["landed_icount"] == row["expected_icount"], \
                (name, interval)
    # the log answers every window of a search it covers, and none of
    # a search onto a breakpoint it never saw
    for row in data["from_log"].values():
        assert row["windows_replayed"] == 0 and row["windows_from_log"] > 1
    for row in data["planted_after"].values():
        assert row["windows_replayed"] > 0
    long = data["long_history"]
    for engine, row in sorted(long["engines"].items()):
        report("  long history (%d instructions, interval %d) %-5s record "
               "%.3fs, reverse-continue %.4fs, onto a planted "
               "breakpoint %.4fs"
               % (long["trace_instructions"], long["interval"], engine,
                  row["record_seconds"], row["reverse_seconds"],
                  row["replayed_reverse_seconds"]))
    _check_long(long)


def _check_long(long: dict) -> None:
    """Both engines record the same history and land every reverse
    command on the same icount, the first on the final forward hit."""
    step, block = long["engines"]["step"], long["engines"]["block"]
    for key in ("crash_icount", "last_hit", "landed_icount",
                "replayed_landed_icount"):
        assert step[key] == block[key], key
    assert block["landed_icount"] == block["last_hit"]
    assert block["replayed_landed_icount"] < block["landed_icount"]
    assert long["trace_instructions"] > 500_000


if __name__ == "__main__":
    data = measure(reps=1 if os.environ.get("BENCH_QUICK") else 3)
    emit(data)
    plain = data["plain"]
    print("plain forward run: %.3fs, %d instructions"
          % (plain["seconds"], data["trace_instructions"]))
    for interval, row in sorted(data["intervals"].items(), key=lambda kv: int(kv[0])):
        print("interval %-4s %2d ckpts record %.3fs (%.1fx) "
              "reverse %.3fs (%d requests) landed=%s "
              "reverse-step %.3fs (%d requests) landed=%s"
              % (interval, row["checkpoints"], row["record_seconds"],
                 row["record_overhead"], row["reverse_seconds"],
                 row["reverse_requests"], row["landed_icount"],
                 row["reverse_step_seconds"], row["reverse_step_requests"],
                 row["reverse_step_icount"]))
    for name in ("from_log", "planted_after"):
        for interval, row in sorted(data[name].items(),
                                    key=lambda kv: int(kv[0])):
            print("%-13s interval %-4s reverse %.4fs (%d requests) "
                  "replayed %d windows, %d from the log, landed=%s"
                  % (name, interval, row["seconds"], row["requests"],
                     row["windows_replayed"], row["windows_from_log"],
                     row["landed_icount"]))
    long = data["long_history"]
    _check_long(long)
    for engine, row in sorted(long["engines"].items()):
        print("long history %d instructions %-5s record %.3fs reverse "
              "%.4fs planted %.4fs landed=%s/%s"
              % (long["trace_instructions"], engine, row["record_seconds"],
                 row["reverse_seconds"], row["replayed_reverse_seconds"],
                 row["landed_icount"], row["replayed_landed_icount"]))
    print("wrote %s" % _OUT)
