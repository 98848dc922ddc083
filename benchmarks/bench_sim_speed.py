"""S1 — simulator speed: block-dispatch vs. single-step interpretation.

The interpreter bounds every workload in the system — time-travel
replay re-executes windows, the fault matrix reruns programs, the
session server hosts many simulations at once.  This bench measures
retired instructions per second on a hot arithmetic loop for both
execution engines on every target architecture, asserts the block
engine's architectural state is byte-identical to the step engine's
(the rmips delay-slot state ``_pending_load``/``_wrote_reg``
included), and requires the advertised speedup (>= 5x on the hot
loop, the tentpole acceptance bar) on each ISA.

A second row per ISA runs the same loop the way time travel does: a
``Process.snapshot()`` every ``SNAPSHOT_EVERY`` retired instructions,
all of them kept live, so every store pays the copy-on-write check.

A third row per ISA prices block compilation on a program of many
small functions: the blocks one run compiles, the block templates they
need (one per sequence of instruction fragments), and the processor
time of one block compile with the template memo cold (every template
compiled afresh) and warm, each the best of several passes, with the
memo's size.

Timings interleave the two engines over ``reps`` repetitions and take
each engine's best time (like timeit: noise only ever adds wall
clock, so the minimum is the cleanest estimate).  Emits
``BENCH_sim_speed.json`` at the repository root.  ``BENCH_QUICK=1``
runs a single repetition and relaxes the speedup bar to >= 2x (the CI
smoke mode shares hardware unpredictably).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.cc.driver import compile_and_link
from repro.machines import (
    ExitEvent,
    FaultEvent,
    IcountStopEvent,
    Process,
    SIGTRAP,
)
from repro.machines.engine import _template

from .conftest import report

ARCHES = ("rmips", "rmipsel", "rsparc", "rm68k", "rvax")
LOOPS = 300_000
MIN_SPEEDUP = 2.0 if os.environ.get("BENCH_QUICK") else 5.0
#: the ``reverse`` workload's checkpoint spacing (perfbench/reverse.py)
SNAPSHOT_EVERY = 10_000

HOT_C = """int main(void) {
    int i, s = 0;
    for (i = 0; i < %d; i++)
        s += i;
    return s & 0xff;
}
""" % LOOPS

#: many short blocks of every kind: calls, loops, branches, loads and
#: stores of three widths, division
BLOCKS_C = r"""
int buf[32];
struct P { int x; int y; } pts[8];
int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int gcd(int a, int b) { while (b) { int t = a % b; a = b; b = t; } return a; }
int classify(int v) {
    if (v < 0) return -1;
    if (v == 0) return 0;
    if (v < 10) return 1;
    if (v < 100) return 2;
    return 3;
}
void fill(int n) {
    int i;
    for (i = 0; i < n; i++) {
        buf[i & 31] = i * 7 ^ (i >> 2);
        pts[i & 7].x += i;
        pts[i & 7].y -= i;
    }
}
int sum(int *p, int n) { int s = 0; while (n-- > 0) s += *p++; return s; }
int main(void) {
    int i, s = 0;
    char c = 'a';
    short h = 300;
    fill(100);
    for (i = 0; i < 20; i++) s += classify(i * 13 - 40) + gcd(i + 12, 18);
    s += fib(10) + sum(buf, 32) + pts[3].x - pts[5].y + c + h;
    printf("%d %d\n", s, buf[7]);
    return s & 0xff;
}
"""

_OUT = Path(__file__).resolve().parent.parent / "BENCH_sim_speed.json"
_EXES: dict = {}


def _exe(arch: str):
    if arch not in _EXES:
        _EXES[arch] = compile_and_link({"hot.c": HOT_C}, arch, debug=True)
    return _EXES[arch]


def _run(arch: str, engine: str, snapshot_every=None):
    """One full run under one engine; returns (seconds, icount, state,
    cost): ``cost`` is (snapshots taken, pages they copied).

    ``state`` is every architecturally visible bit — the equivalence
    check rides along with every timing rep for free."""
    exe = _exe(arch)
    process = Process(exe, engine=engine)
    event = process.run_until_event()
    assert isinstance(event, FaultEvent) and event.signo == SIGTRAP
    process.cpu.pc = event.pc + exe.arch.noop_advance
    snaps = []
    started = time.perf_counter()
    if snapshot_every is None:
        event = process.run_until_event()
    else:
        event = None
        while event is None or isinstance(event, IcountStopEvent):
            snaps.append(process.snapshot())
            event = process.run_until_event(
                stop_at_icount=process.cpu.icount + snapshot_every)
    seconds = time.perf_counter() - started
    assert isinstance(event, ExitEvent), event
    cpu = process.cpu
    state = (event.status, cpu.pc, cpu.icount, tuple(cpu.regs),
             tuple(cpu.fregs), cpu._pending_load, cpu._wrote_reg,
             bytes(process.mem.bytes))
    cost = (len(snaps), sum(snap.mem.cost_pages() for snap in snaps))
    return seconds, cpu.icount, state, cost


def measure_arch(arch: str, reps: int, snapshot_every=None) -> dict:
    step_times, block_times = [], []
    icount = None
    for _ in range(reps):
        step_s, icount, step_state, cost = _run(arch, "step",
                                                snapshot_every)
        block_s, block_icount, block_state, block_cost = _run(
            arch, "block", snapshot_every)
        assert block_icount == icount and block_cost == cost
        assert block_state == step_state, \
            "%s: block engine state diverged from step engine" % arch
        step_times.append(step_s)
        block_times.append(block_s)
    # best-of, like timeit: noise only ever adds time, so the minimum
    # is the cleanest estimate of each engine's true cost
    step_s = min(step_times)
    block_s = min(block_times)
    row = {
        "icount": icount,
        "step_seconds": step_s,
        "block_seconds": block_s,
        "step_ips": round(icount / step_s),
        "block_ips": round(icount / block_s),
        "speedup": round(step_s / block_s, 2),
        "state_identical": True,
    }
    if snapshot_every is not None:
        row["snapshots"], row["pages_copied"] = cost
    return row


def _compile_pass(exe, starts) -> float:
    """Processor microseconds per block for compiling every block that
    starts at ``starts`` on a fresh engine."""
    engine = Process(exe, engine="block").cpu.engine
    started = time.process_time_ns()
    for pc in starts:
        engine._compile(pc)
    return (time.process_time_ns() - started) / len(starts) / 1e3


def measure_compile(arch: str, reps: int) -> dict:
    """Best of ``reps`` cold passes and of ``5 * reps`` warm ones: a
    pass takes a few milliseconds, less than the host's slow spells."""
    exe = compile_and_link({"blocks.c": BLOCKS_C}, arch, debug=True)
    process = Process(exe, engine="block")
    event = process.run_until_event()
    process.cpu.pc = event.pc + exe.arch.noop_advance
    assert isinstance(process.run_until_event(), ExitEvent)
    engine = process.cpu.engine
    starts = sorted(engine._blocks)
    cold = []
    for _ in range(reps):
        _template.cache_clear()
        cold.append(_compile_pass(exe, starts))
    templates = _template.cache_info().misses
    warm = min(_compile_pass(exe, starts) for _ in range(5 * reps))
    cold = min(cold)
    return {"blocks_compiled": engine.stats.compiled,
            "templates_compiled": templates,
            "cold_us_per_block": round(cold, 1),
            "warm_us_per_block": round(warm, 1)}


def measure(reps: int) -> dict:
    out = {
        "benchmark": "sim_speed",
        "workload": "hot C loop: for (i = 0; i < %d; i++) s += i" % LOOPS,
        "reps": reps,
        "min_speedup": MIN_SPEEDUP,
        "snapshot_every": SNAPSHOT_EVERY,
        "arches": {},
        "with_snapshots": {},
        "block_compile": {},
    }
    for arch in ARCHES:
        out["arches"][arch] = measure_arch(arch, reps)
        out["with_snapshots"][arch] = measure_arch(arch, reps,
                                                   SNAPSHOT_EVERY)
    for arch in ARCHES:
        out["block_compile"][arch] = measure_compile(arch, max(reps, 3))
    memo = _template.cache_info()
    out["template_memo"] = {"size": memo.currsize, "bound": memo.maxsize}
    return out


def _lines(data: dict):
    for key, title in (("arches", "hot loop"),
                       ("with_snapshots", "hot loop, a snapshot every "
                        "%d instructions" % data["snapshot_every"])):
        yield "  %s:" % title
        for arch in ARCHES:
            row = data[key][arch]
            yield ("    %-7s %9d insns  step %8d i/s  block %8d i/s  %5.2fx"
                   % (arch, row["icount"], row["step_ips"],
                      row["block_ips"], row["speedup"]))
    yield "  block compile (%s):" % "a program of many small functions"
    for arch in ARCHES:
        row = data["block_compile"][arch]
        yield ("    %-7s %3d blocks %3d templates  %6.1f us cold  "
               "%5.1f us warm per block"
               % (arch, row["blocks_compiled"], row["templates_compiled"],
                  row["cold_us_per_block"], row["warm_us_per_block"]))
    yield "  template memo: %(size)d of %(bound)d" % data["template_memo"]


def emit(data: dict) -> None:
    _OUT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_sim_speed():
    reps = 1 if os.environ.get("BENCH_QUICK") else 5
    data = measure(reps)
    emit(data)
    report("", "S1. Simulator speed: block dispatch vs. single step",
           "  workload: %s" % data["workload"], *_lines(data))
    assert data["template_memo"]["size"] <= data["template_memo"]["bound"]
    for arch in ARCHES:
        row = data["arches"][arch]
        assert row["state_identical"]
        assert data["with_snapshots"][arch]["state_identical"]
        assert row["speedup"] >= MIN_SPEEDUP, \
            "%s: block engine only %.2fx over step (need >= %.1fx)" \
            % (arch, row["speedup"], MIN_SPEEDUP)


if __name__ == "__main__":
    data = measure(reps=1 if os.environ.get("BENCH_QUICK") else 5)
    emit(data)
    for line in _lines(data):
        print(line)
    print("wrote %s" % _OUT)
