"""The ``reverse`` workload: time travel over a ~1e6-instruction history.

In-process :class:`~repro.ldb.Ldb` sessions on rmips and rvax (the ISA
BlockEngine runs slowest) debug :func:`~perfbench.programs.reverse_unit`
with time travel on.  One cycle runs forward through every breakpoint
hit to the crash — recording checkpoints all the way — and then walks
back through every hit, alternating ``reverse_continue`` (back to the
previous hit of the mark function) and ``reverse_step`` (back to the
stopping point before the call).  Every landing must equal the icount
the forward run recorded there; the backtrace and the loop counter are
checked at each ``reverse_continue`` landing.
"""

from __future__ import annotations

import gc
import io
from typing import Dict

from .measure import (Ledger, OpFailed, cell_cpu_ms, geomean, median,
                      whole_rounds)
from .programs import reverse_unit

ARCHES = ("rmips", "rvax")
#: checkpoint spacing and ring size: the ring must hold the whole
#: history (about 100 interval checkpoints plus two per hit)
INTERVAL = 10_000
CAPACITY = 256
#: whole set-ups per run; set-up time is their median
SETUP_REPS = 7


class Reverse:
    """Forward record then reverse walk per ISA; see the module."""

    #: one thread of interpreter-bound work, which the host speed tracks
    HOST_BOUND = True

    def __init__(self, seed: int):
        self.unit = reverse_unit(seed)
        self.exes: Dict[str, object] = {}

    def _start(self, arch: str):
        from repro.ldb import Ldb
        ldb = Ldb(stdout=io.StringIO())
        target = ldb.load_program(self.exes[arch])
        ldb.enable_time_travel(target, interval=INTERVAL, capacity=CAPACITY)
        ldb.break_at_function(self.unit["mark"], target)
        ldb.break_at_line("rev.c", self.unit["call_line"], target)
        return ldb, target

    def setup(self, ledger: Ledger) -> None:
        """Compile, load and reach the first stop with a backtrace and
        a print, on every ISA; the whole set-up is repeated
        ``SETUP_REPS`` times and timed as one sample each time."""
        for _ in range(SETUP_REPS):
            with ledger.timed_setup():
                self._set_up_once(ledger)

    def _set_up_once(self, ledger: Ledger) -> None:
        from repro.cc import driver
        from repro.ldb.api import DebugAPI
        for arch in ARCHES:
            self.exes[arch] = driver.compile_and_link(
                {"rev.c": self.unit["source"]}, arch, debug=True)
            ldb, target = self._start(arch)
            try:
                ldb.run_to_stop(target)
                api = DebugAPI(ldb)
                frames = api.execute("backtrace")["frames"]
                printed = api.execute("print", {"expr": "k"})
            finally:
                target.kill()
            ledger.attempted += 1
            if [f["proc"] for f in frames] != ["main"] \
                    or printed.get("text") != "0":
                ledger.fail(None, "setup %s: first stop %r %r"
                            % (arch, frames, printed))

    def run(self, ledger: Ledger, seconds: float) -> None:
        for _ in whole_rounds(seconds):
            for arch in ARCHES:
                gc.collect()
                self._cycle(ledger, arch)

    def _cycle(self, ledger: Ledger, arch: str) -> None:
        from repro.ldb.api import DebugAPI
        from repro.machines import SIGSEGV, SIGTRAP
        ldb, target = self._start(arch)
        api = DebugAPI(ldb)
        mark = self.unit["mark"]
        try:
            stops = []
            with ledger.op("forward_record", arch) as op:
                while True:
                    ldb.run_to_stop(target)
                    if target.state != "stopped" or target.signo != SIGTRAP:
                        break
                    stops.append((target.current_icount(),
                                  ldb.where_am_i(target)[0]))
            want = [p for _ in range(self.unit["hits"])
                    for p in ("main", mark)]
            ledger.expect(op, target.signo == SIGSEGV,
                          "ended with signal %d, not SIGSEGV" % target.signo)
            ledger.expect(op, [proc for _i, proc in stops] == want,
                          "forward stops %r" % stops[:4])
            for index in range(self.unit["hits"] - 1, -1, -1):
                mark_icount = stops[2 * index + 1][0]
                line_icount = stops[2 * index][0]
                with ledger.op("reverse_continue", arch) as op:
                    hit = ldb.reverse_continue(target)
                ledger.expect(op, hit.icount == mark_icount,
                              "landed at %d, forward hit was %d"
                              % (hit.icount, mark_icount))
                frames = api.execute("backtrace")["frames"]
                ledger.expect(op, [f["proc"] for f in frames]
                              == [mark, "main"], "backtrace %r" % frames)
                printed = api.execute("print", {"expr": "k"})
                ledger.expect(op, printed.get("text") == str(index),
                              "k is %r at hit %d" % (printed, index))
                with ledger.op("reverse_step", arch) as op:
                    hit = ldb.reverse_step(target)
                ledger.expect(op, hit.icount == line_icount,
                              "stepped back to %d, forward stop was %d"
                              % (hit.icount, line_icount))
        except OpFailed:
            pass  # counted in the ledger; the next cycle starts afresh
        finally:
            target.kill()

    def close(self) -> None:
        """Every cycle kills its own target; nothing outlives a run."""

    # -- results ---------------------------------------------------------

    def latency_ops(self, ledger: Ledger):
        return ledger.good()

    def cell_key(self, op):
        return (op.kind, op.cell)

    def _rate(self, ledger: Ledger, cost) -> float:
        """Reverse commands per second of ``cost``, geometric mean over
        the ISAs."""
        rates = []
        for arch in ARCHES:
            ops = [op for op in ledger.good() if op.cell == arch
                   and op.kind in ("reverse_continue", "reverse_step")]
            rates.append(len(ops) / sum(cost(op) for op in ops))
        return geomean(rates)

    def ops_per_s(self, ledger: Ledger) -> float:
        return self._rate(ledger, lambda op: op.seconds)

    def op_cpu_ms(self, ledger: Ledger) -> float:
        return cell_cpu_ms(ledger.good(), self.cell_key)

    def ops_per_cpu_s(self, ledger: Ledger) -> float:
        return self._rate(ledger, lambda op: op.cpu)

    def figures(self, ledger: Ledger) -> None:
        ops = ledger.good()
        for name, kind, scale in (
                ("forward_record_s", "forward_record", 1.0),
                ("reverse_continue_p50_ms", "reverse_continue", 1e3),
                ("reverse_step_p50_ms", "reverse_step", 1e3)):
            per_arch = {}
            for arch in ARCHES:
                values = [op.seconds for op in ops
                          if op.kind == kind and op.cell == arch]
                if values:
                    per_arch[arch] = median(values) * scale
            if per_arch:
                note = ", ".join("%s %.4g" % item
                                 for item in sorted(per_arch.items()))
                ledger.figure(name, geomean(per_arch.values()),
                              "s" if scale == 1.0 else "ms",
                              "geomean over ISAs of medians (%s)" % note)
