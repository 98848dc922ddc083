"""The committed golden recording keeps reopening.

A recording written by one tree must stay readable by every later one
until the format version is deliberately bumped.  The golden file is
regenerated only by tools/make_golden_recording.py; this test never
compares bytes (zlib output is not stable across versions) — it loads
the file and debugs it.
"""

import io
import pathlib

from repro.ldb import Ldb
from repro.machines import SIGSEGV
from repro.trace import Recording

GOLDEN = (pathlib.Path(__file__).resolve().parent.parent / "data"
          / "golden_boom_rmips.ldbrec")


def test_golden_recording_loads():
    recording = Recording.load(str(GOLDEN))
    assert recording.meta.arch_name == "rmips"
    assert recording.meta.loader_ps  # self-contained: embedded symtab
    assert len(recording.spills) >= 2
    assert recording.final_icount > recording.meta.base_icount


def test_golden_recording_replays_to_the_fault():
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.open_recording(str(GOLDEN))
    assert target.replaying
    assert target.signo == SIGSEGV
    # the recorded past is walkable: back to the breakpoint hit...
    hit = ldb.reverse_continue()
    assert target.at_breakpoint()
    assert ldb.evaluate("g") == 15
    proc, _file, _line = ldb.where_am_i()
    assert proc == "poke"
    # ...and forward again across the digest-checked stops
    assert ldb.run_to_stop() == "stopped"
    assert target.signo == SIGSEGV
    assert target.current_icount() > hit.icount
    snap = ldb.obs.metrics.snapshot()
    assert snap.get("trace.replay.checks", 0) > 0
    assert snap.get("trace.replay.divergences", 0) == 0


def test_golden_recording_replays_its_whole_history():
    """Re-execute from the first spill to the fault: every auto spill on
    the way is digest-checked, and their digests carry the rmips
    delay-slot state (``_wrote_reg`` 11, 10, 15, 16), so either engine
    must reproduce it exactly."""
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.open_recording(str(GOLDEN))
    recording = target.recording
    stops = [stop.icount for stop in recording.stops]
    assert ldb.goto_icount(recording.meta.base_icount) == "stopped"
    assert ldb.run_to_stop() == "stopped" and target.at_breakpoint()
    assert target.current_icount() == stops[-2]
    assert ldb.run_to_stop() == "stopped" and target.signo == SIGSEGV
    assert target.current_icount() == stops[-1]
    snap = ldb.obs.metrics.snapshot()
    assert snap.get("trace.replay.checks", 0) >= len(stops) - 1
    assert snap.get("trace.replay.divergences", 0) == 0
