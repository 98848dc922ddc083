"""Crash-kill smoke: the durability story end to end, one process.

The drill an operator actually cares about:

1. record a session to disk, save once (the healthy baseline);
2. kill the power mid-rewrite (a seeded :class:`FaultyFS` power cut)
   — the destination must still hold the baseline byte-for-byte;
3. reboot the disk, retry the save — it lands atomically;
4. tear the landed file's tail (the pre-atomic legacy case) — it must
   reopen *salvaged* with a typed warning and a usable timeline;
5. feed the whole aftermath (healthy file, torn file, the core the
   crash dumped) to triage — typed rows, duplicates folded, batch
   never aborts.

Exit status 0 when every step holds, 1 with a message otherwise.
CI runs this as the crash-kill job; it is also a decent REPL-free
demo of the salvage machinery.

Usage::

    PYTHONPATH=src python tools/crash_kill_smoke.py [workdir]
"""

import io
import os
import shutil
import sys
import tempfile
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cc.driver import compile_and_link  # noqa: E402
from repro.ldb import Ldb  # noqa: E402
from repro.machines import SIGSEGV, SIGTRAP  # noqa: E402
from repro.machines.atomicio import (  # noqa: E402
    FaultyFS,
    FsFaultSchedule,
    PowerCut,
    SalvagedArtifact,
    use_fs,
)
from repro.trace import Recording  # noqa: E402

BOOM_C = """int g;
void tick(int i) { g = g + i; }
void poke(int *p) { *p = 42; }
int main(void) {
    int i;
    for (i = 0; i < 16; i++)
        tick(i);
    poke((int *)0x7fffffff);
    return 0;
}
"""

_failures = []


def check(ok, what):
    tag = "ok  " if ok else "FAIL"
    print("  %s %s" % (tag, what))
    if not ok:
        _failures.append(what)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    workdir = argv[0] if argv else tempfile.mkdtemp(prefix="crashkill-")
    own_dir = not argv
    os.makedirs(workdir, exist_ok=True)
    rec_path = os.path.join(workdir, "session.ldbrec")
    core_path = os.path.join(workdir, "session.core")

    print("crash-kill smoke in %s" % workdir)

    # 1. record a crashing session, save the healthy baseline
    exe = compile_and_link({"boom.c": BOOM_C}, "rmips", debug=True)
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(exe)
    ldb.start_recording(path=rec_path, interval=90)
    ldb.break_at_function("tick")
    while True:
        ldb.run_to_stop()
        if target.state != "stopped" or target.signo != SIGTRAP:
            break
    check(target.signo == SIGSEGV, "session crashed with SIGSEGV")
    ldb.record_save()
    target.dump_core(core_path)
    baseline = open(rec_path, "rb").read()
    check(len(baseline) > 0, "baseline recording saved (%d bytes)"
          % len(baseline))

    # 2. power cut mid-rewrite: the baseline survives untouched
    fs = FaultyFS(FsFaultSchedule(seed=11, script=["ok", "powercut"]))
    try:
        with use_fs(fs):
            target.trace_writer.save(rec_path)
        check(False, "power cut was injected")
    except PowerCut:
        check(True, "power cut killed the writer mid-save")
    found = open(rec_path, "rb").read()
    check(found == baseline, "destination still the baseline after the cut")

    # 3. reboot the disk; the retry lands whole
    fs.revive()
    with use_fs(fs):
        target.trace_writer.save(rec_path)
    relanded = open(rec_path, "rb").read()
    check(Recording.from_bytes(relanded).spills is not None,
          "retry after revive landed a clean file")
    stale = [n for n in os.listdir(workdir) if ".ldbtmp." in n]
    check(stale == [], "no stale temp files left behind")
    target.kill()

    # 4. tear the tail: salvage-on-open recovers a typed, usable prefix
    torn_path = os.path.join(workdir, "torn.ldbrec")
    with open(torn_path, "wb") as handle:
        handle.write(relanded[: int(len(relanded) * 0.7)])
    ldb2 = Ldb(stdout=io.StringIO())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SalvagedArtifact)
        replay = ldb2.open_recording(torn_path)
    check(any(issubclass(w.category, SalvagedArtifact) for w in caught),
          "torn file opened with a SalvagedArtifact warning")
    check(replay.current_icount() > 0, "salvaged timeline is usable "
          "(icount %d)" % replay.current_icount())
    ldb2.backtrace_text()
    check(True, "salvaged backtrace walks")

    # 5. triage ingests the aftermath without aborting
    from repro.triage import TriageEngine
    report = TriageEngine(workers=1).triage_dir(workdir)
    check(report.scanned == 3, "triage scanned all 3 artifacts")
    check(report.triaged == 3, "all 3 triaged (none refused)")
    rows = {os.path.basename(m.path): m.salvaged
            for g in report.groups for m in g.members}
    check(rows.get("torn.ldbrec") is True, "torn row marked salvaged")
    check(rows.get("session.ldbrec") is False, "healthy row not salvaged")
    # the healthy recording and the core capture the same crash; the
    # torn copy lost its tail, so its (pre-crash) stack may hash apart
    same = report.group_of(rec_path) is report.group_of(core_path)
    check(same, "healthy recording and core folded to one crash group")

    if own_dir:
        shutil.rmtree(workdir, ignore_errors=True)
    if _failures:
        print("crash-kill smoke: %d FAILURE(S)" % len(_failures))
        return 1
    print("crash-kill smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
