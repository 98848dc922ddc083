"""Ablation benches for DESIGN.md §4's called-out design choices.

* anchor-symbol memoization: every location computation may fetch from
  the target address space; the paper says the fetches "are performed
  only on demand and at most once per symbol-table entry" (Sec. 7).
  We measure wire traffic with and without the memoization.
* deferred vs eager symbol tables are covered by bench_deferral.
* the no-op breakpoint scheme's cost is covered by bench_noop_overhead.
"""

import io

import pytest

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb

from .conftest import report
from .workloads import FIB_C


@pytest.fixture(scope="module")
def stopped():
    # cache=False: the paper's uncached setup, so every fetch counted
    # here reaches the wire as its own FETCH message
    exe = compile_and_link({"fib.c": FIB_C}, "rmips", debug=True)
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(exe, cache=False)
    ldb.break_at_stop("fib", 9)
    ldb.run_to_stop()
    return ldb, target


def test_anchor_memoization_ablation(benchmark, stopped):
    ldb, target = stopped
    frame = target.top_frame()
    entry = frame.resolve("a")          # static: located via LazyData

    # ablated: force the location fresh every time (no memoization)
    def locate_fresh():
        saved = entry["where"]
        try:
            return target._exec_where(saved, frame)
        finally:
            pass  # never written back

    before = target.stats.of("wire", "fetch")
    for _ in range(25):
        locate_fresh()
    fresh_fetches = target.stats.of("wire", "fetch") - before

    # production: location_of memoizes into the entry
    before = target.stats.of("wire", "fetch")
    for _ in range(25):
        target.location_of(entry, frame)
    memoized_fetches = target.stats.of("wire", "fetch") - before

    benchmark(target.location_of, entry, frame)

    report("", "A1. Anchor-fetch memoization (DESIGN.md ablation; paper "
               "Sec. 7: at most once per entry)",
           "  25 locations, no memoization : %d wire fetches" % fresh_fetches,
           "  25 locations, memoized       : %d wire fetches" % memoized_fetches)

    assert fresh_fetches >= 25           # one anchor fetch per computation
    assert memoized_fetches <= 1         # at most once per entry


def test_register_memory_ablation(benchmark, stopped):
    """Without the register memory, a byte fetch from a register would
    need the target's byte order; the DAG makes both orders agree."""
    from repro.cc.driver import compile_and_link as cal
    from repro.postscript import Location

    results = {}
    for arch in ("rmips", "rmipsel"):
        exe = cal({"fib.c": FIB_C}, arch, debug=True)
        ldb = Ldb(stdout=io.StringIO())
        target = ldb.load_program(exe)
        ldb.break_at_stop("fib", 7)
        ldb.run_to_stop()
        frame = target.top_frame()
        entry = frame.resolve("i")
        location = target.location_of(entry, frame)
        results[arch] = (frame.memory.fetch(location, "i8"),
                         frame.memory.fetch(location, "i32"))
        target.kill()

    benchmark(lambda: None)
    report("  register-memory byte fetches agree across byte orders: "
           "%r == %r" % (results["rmips"], results["rmipsel"]))
    assert results["rmips"] == results["rmipsel"]
    # and the raw context bytes REALLY differ between the two targets,
    # which is exactly what the register memory hides
