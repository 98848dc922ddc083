"""The ``artifacts`` workload: write crash artifacts, read them back.

A seeded batch of crash families (the ``tools/make_crash_corpus.py``
shape: three bugs on all five ISAs, two variants each) is regenerated
by the benchmark itself.  Every crash run records; then ``record
save`` and ``dumpcore`` write the two artifacts (the write path
through ``trace``, ``chunkio`` and ``atomicio``).  Each artifact is
reopened (``open_core``, ``open_recording``) and its backtrace must
equal the live one at the crash.  The reopened recording is then
replayed: back to its first spill and forward again by re-execution,
with every recorded stop's digest checked on the way, to land on the
live crash with the live backtrace.  Last, a default-constructed
``TriageEngine()`` triages the batch, and completeness and purity of
its grouping must both be 1.0.  No nub runs on the read path, and no
long engine runs anywhere.
"""

from __future__ import annotations

import gc
import io
import os
import shutil
import tempfile
from typing import Dict, List

from .measure import Ledger, OpFailed, cell_cpu_ms, median, whole_rounds
from .programs import ALL_ARCHES, crash_batch

DUPES = 2
#: checkpoint spacing while recording (the crash corpus tool's value)
INTERVAL = 97
#: triage passes over each written batch
TRIAGE_REPS = 3
#: whole set-ups per run; set-up time is their median
SETUP_REPS = 5


class Artifacts:
    """Crash artifacts written, reopened and triaged; see the module."""

    #: interpreter-bound work on the main thread (triage's pool threads
    #: aside), which the host speed tracks
    HOST_BOUND = True

    def __init__(self, seed: int, scratch_root: str):
        self.crashes = crash_batch(seed, ALL_ARCHES, DUPES)
        self.scratch = tempfile.mkdtemp(prefix=".perfbench-",
                                        dir=scratch_root)
        self.exes: Dict[int, object] = {}
        #: triage artifacts per wall second and per processor second
        self.triage_rates: List[float] = []
        self.triage_cpu_rates: List[float] = []
        self.rounds = 0

    def setup(self, ledger: Ledger) -> None:
        """Compile every crash program, then one warm-up crash run with
        a backtrace per ISA — the cold path.  The whole set-up runs
        ``SETUP_REPS`` times, each timed as one sample."""
        for _ in range(SETUP_REPS):
            with ledger.timed_setup():
                for arch in ALL_ARCHES:
                    self._set_up_arch(ledger, arch)

    def _set_up_arch(self, ledger: Ledger, arch: str) -> None:
        from repro.cc import driver
        from repro.ldb import Ldb
        from repro.ldb.api import DebugAPI
        for index, crash in enumerate(self.crashes):
            if crash["arch"] == arch:
                self.exes[index] = driver.compile_and_link(
                    {"crash.c": crash["source"]}, arch, debug=True)
        first = next(i for i, c in enumerate(self.crashes)
                     if c["arch"] == arch)
        ldb = Ldb(stdout=io.StringIO())
        target = ldb.load_program(self.exes[first])
        try:
            ldb.run_to_stop(target)
            fault = DebugAPI(ldb).execute("fault")
            DebugAPI(ldb).execute("backtrace")
        finally:
            target.kill()
        ledger.attempted += 1
        if fault["signo"] != _signal(self.crashes[first]):
            ledger.fail(None, "setup %s: fault %r" % (arch, fault))

    def run(self, ledger: Ledger, seconds: float) -> None:
        for _ in whole_rounds(seconds):
            gc.collect()
            self._round(ledger)

    def _round(self, ledger: Ledger) -> None:
        self.rounds += 1
        batch = os.path.join(self.scratch, "round%d" % self.rounds)
        os.makedirs(batch)
        families: Dict[str, List[str]] = {}
        try:
            for index, crash in enumerate(self.crashes):
                written = self._crash(ledger, index, crash, batch)
                families.setdefault(crash["label"], []).extend(written)
            self._triage(ledger, batch, families)
        finally:
            shutil.rmtree(batch, ignore_errors=True)

    def _crash(self, ledger: Ledger, index: int, crash: dict,
               batch: str) -> List[str]:
        from repro.ldb import Ldb
        from repro.ldb.api import DebugAPI
        arch = crash["arch"]
        stem = os.path.join(batch, "%s-%s-%d" % (arch, crash["family"],
                                                 crash["variant"]))
        core_path, rec_path = stem + ".core", stem + ".ldbrec"
        ldb = Ldb(stdout=io.StringIO())
        target = ldb.load_program(self.exes[index])
        try:
            ldb.start_recording(target, interval=INTERVAL)
            with ledger.op("record_run", arch) as op:
                ldb.run_to_stop(target)
            ledger.expect(op, target.signo == _signal(crash),
                          "crashed with signal %d" % target.signo)
            crash_icount = target.current_icount()
            api = DebugAPI(ldb)
            live = _frames(api)
            # a wild store reports the faulting address as the top pc;
            # every other frame must follow the family's call chain
            fault_pc = api.execute("fault")["fault_pc"]
            named = [proc for proc, pc in live if pc != fault_pc]
            chain = iter(crash["chain"])
            ledger.expect(op, named and all(p in chain for p in named),
                          "live backtrace %r is off the chain %r"
                          % (live, crash["chain"]))
            with ledger.op("record_save", arch):
                ldb.record_save(rec_path, target)
            with ledger.op("dumpcore", arch):
                target.dump_core(core_path)
        except OpFailed:
            return []
        finally:
            target.kill()
        try:
            with ledger.op("open_core", arch) as op:
                reader = Ldb(stdout=io.StringIO())
                reader.open_core(core_path)
                frames = _frames(DebugAPI(reader))
            ledger.expect(op, frames == live,
                          "core backtrace %r != live %r" % (frames, live))
            with ledger.op("open_recording", arch) as op:
                reader = Ldb(stdout=io.StringIO())
                reopened = reader.open_recording(rec_path)
                frames = _frames(DebugAPI(reader))
            ledger.expect(op, frames == live,
                          "recording backtrace %r != live %r"
                          % (frames, live))
            self._replay(ledger, arch, reader, reopened, crash_icount, live)
        except OpFailed:
            return []
        return [core_path, rec_path]

    def _replay(self, ledger: Ledger, arch: str, reader, reopened,
                crash_icount: int, live: List[tuple]) -> None:
        """Travel the reopened recording back to its first spill and
        re-execute forward to the crash.  The replay transport checks
        the machine digest at every recorded stop on the way (a mismatch
        raises, which fails the operation); the landing must be the live
        crash, and every recorded stop past the start must be checked."""
        from repro.ldb.api import DebugAPI
        metrics = reader.obs.metrics
        with ledger.op("replay", arch) as op:
            start = reopened.recording.spills[0].icount
            checks = metrics.get("trace.replay.checks", 0)
            reader.goto_icount(start, reopened)
            reader.run_to_stop(reopened)
            frames = _frames(DebugAPI(reader))
        landed = reopened.current_icount()
        ledger.expect(op, landed == crash_icount,
                      "replay landed at %d, live crash at %d"
                      % (landed, crash_icount))
        ledger.expect(op, frames == live,
                      "replayed backtrace %r != live %r" % (frames, live))
        want = sum(1 for stop in reopened.recording.stops
                   if start < stop.icount <= crash_icount)
        checked = metrics.get("trace.replay.checks", 0) - checks
        ledger.expect(op, want > 0 and checked == want,
                      "replay verified %d of %d recorded stops"
                      % (checked, want))

    def _triage(self, ledger: Ledger, batch: str,
                families: Dict[str, List[str]]) -> None:
        from repro.triage import TriageEngine
        artifacts = sum(len(v) for v in families.values())
        for _ in range(TRIAGE_REPS):
            gc.collect()
            try:
                with ledger.op("triage", "batch") as op:
                    report = TriageEngine().triage_dir(batch)
                ledger.expect(op, not report.errors and
                              report.triaged == artifacts,
                              "triaged %d of %d, errors %r"
                              % (report.triaged, artifacts,
                                 report.errors[:2]))
                completeness, purity = dedup_quality(report, families)
                ledger.expect(op, completeness == 1.0 and purity == 1.0,
                              "completeness %.2f purity %.2f"
                              % (completeness, purity))
            except OpFailed:
                continue
            self.triage_rates.append(artifacts / op.seconds)
            self.triage_cpu_rates.append(artifacts / op.cpu)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- results ---------------------------------------------------------

    def latency_ops(self, ledger: Ledger):
        return ledger.good()

    def cell_key(self, op):
        return op.kind  # every round holds the same mix: pool the ISAs

    def ops_per_s(self, ledger: Ledger) -> float:
        return median(self.triage_rates)

    def op_cpu_ms(self, ledger: Ledger) -> float:
        return cell_cpu_ms(ledger.good(), self.cell_key)

    def ops_per_cpu_s(self, ledger: Ledger) -> float:
        return median(self.triage_cpu_rates)

    def figures(self, ledger: Ledger) -> None:
        ops = ledger.good()
        for name, kinds in (("record_save_p50_ms", ("record_save",)),
                            ("dumpcore_p50_ms", ("dumpcore",)),
                            ("open_p50_ms", ("open_core",
                                             "open_recording")),
                            ("replay_p50_ms", ("replay",))):
            values = [op.seconds for op in ops if op.kind in kinds]
            if values:
                ledger.figure(name, median(values) * 1e3, "ms",
                              "n=%d" % len(values))
        if self.triage_rates:
            ledger.figure("triage_per_s", median(self.triage_rates), "1/s",
                          "default TriageEngine(), %d artifacts a batch"
                          % (2 * len(self.crashes)))


def _signal(crash: dict) -> int:
    from repro.machines import isa
    return getattr(isa, crash["signal"])


def _frames(api) -> List[tuple]:
    return [(f["proc"], f["pc"]) for f in
            api.execute("backtrace")["frames"]]


def dedup_quality(report, families: Dict[str, List[str]]):
    """Completeness (no family split over groups) and purity (no group
    mixing families) of a triage report against the known families."""
    group_of = {}
    for group in report.groups:
        for member in group.members:
            group_of[os.path.abspath(member.path)] = group.stack_hash
    split = merged = 0
    family_of_hash: Dict[str, str] = {}
    for family, members in families.items():
        hashes = {group_of.get(os.path.abspath(m)) for m in members}
        if len(hashes) != 1 or None in hashes:
            split += 1
        for stack_hash in hashes - {None}:
            if family_of_hash.setdefault(stack_hash, family) != family:
                merged += 1
    count = len(families)
    return (count - split) / count, (count - merged) / count
