"""The benchmark's own tests, at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from contextlib import redirect_stdout

import pytest

from perfbench import (artifacts, hostspeed, interactive, layers, measure,
                       programs, reverse, run)
from perfbench.spans import UNATTRIBUTED, Timeline

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a second or two of work."""
    monkeypatch.setattr(measure, "TAIL_MIN", 1)
    monkeypatch.setattr(interactive, "SETUP_REPS", 1)
    monkeypatch.setattr(interactive, "ALL_ARCHES", ["rmips", "rvax"])
    monkeypatch.setattr(programs, "REVERSE_HITS", 2)
    monkeypatch.setattr(programs, "REVERSE_SPIN", 40)
    monkeypatch.setattr(reverse, "ARCHES", ("rmips",))
    monkeypatch.setattr(reverse, "SETUP_REPS", 1)
    monkeypatch.setattr(reverse, "INTERVAL", 200)
    monkeypatch.setattr(artifacts, "ALL_ARCHES", ["rmips", "rvax"])
    monkeypatch.setattr(artifacts, "DUPES", 1)
    monkeypatch.setattr(artifacts, "SETUP_REPS", 1)
    monkeypatch.setattr(artifacts, "TRIAGE_REPS", 1)


def _run(*argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_spec_names_match_the_code():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(tiny, workload):
    result = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_metric_with_its_unit(tiny):
    result = _run("--workload", "reverse", "--seed", "3", "--seconds", "1",
                  "--trace", "1")
    assert result["correct"]
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    shares = result["metrics"]
    # time travel over a long history: the engine and the controller
    # are where a reverse command spends its time
    assert shares["engine.share"]["value"] > 0
    assert shares["timetravel.windows"]["value"] > 0


def test_interactive_counts_are_per_command_of_both_phases(tiny,
                                                          monkeypatch):
    # the traced phase runs the open loop, then the closed loop; its
    # counts must be divided by the commands of both, or a run that
    # spends its time in the (faster) closed loop reads as more round
    # trips per command
    per_command = {}
    for share in (0.9, 0.1):
        monkeypatch.setattr(interactive, "OPEN_SHARE", share)
        result = _run("--workload", "interactive", "--seed", "3",
                      "--seconds", "3", "--trace", "1")
        assert result["correct"]
        per_command[share] = result["metrics"]["session.round_trips"]["value"]
    low, high = sorted(per_command.values())
    assert low > 1  # every command crosses the wire at least once
    assert high < 1.5 * low, per_command


def test_a_wrong_expectation_counts_as_a_failure(tiny, monkeypatch):
    monkeypatch.setattr(interactive, "interactive_value",
                        lambda unit, hit: -1)
    result = _run("--workload", "interactive", "--seed", "3", "--seconds",
                  "1", "--trace", "0")
    assert not result["correct"]
    assert result["failed"] >= 2  # at least one print per session
    assert result["failed"] < result["attempted"]


def test_split_adds_up_to_wall_time():
    main, nub, pool_a, pool_b = 1, 2, 3, 4
    spans = [
        (main, 0.0, 10.0, "ldb", "Ldb.run_to_stop"),
        (main, 1.0, 6.0, "session", "NubSession.request"),
        (main, 2.0, 5.0, "session.wait", "Channel.recv"),
        (nub, 2.5, 4.0, "nub", "Nub._dispatch"),
        (nub, 3.0, 3.5, "engine", "Process.run_until_event"),
        (main, 7.0, 9.0, "triage", "TriageEngine.triage_paths"),
        (pool_a, 7.0, 8.0, "triage", "triage_artifact"),
        (pool_b, 7.5, 8.5, "core", "CoreFile.load"),
    ]
    births = [(nub, main, 0.0), (pool_a, main, 6.5), (pool_b, main, 6.5)]
    parts = Timeline(spans, births).attribute(main, -1.0, 11.0)
    assert sum(parts.values()) == pytest.approx(12.0)
    assert parts[UNATTRIBUTED] == pytest.approx(2.0)
    assert parts["engine"] == pytest.approx(0.5)
    assert parts["nub"] == pytest.approx(1.0)
    assert parts["session.wait"] == pytest.approx(1.5)  # 3 s minus the nub
    # two pool threads busy at once share the wall time they overlap
    assert parts["triage"] == pytest.approx(0.5 + 0.25 + 0.5)
    assert parts["core"] == pytest.approx(0.25 + 0.5)


def test_traced_split_adds_up_per_operation(tiny):
    from perfbench.measure import Ledger
    from perfbench.spans import Tracer
    tracer = Tracer()
    tracer.watch_threads()
    workload = reverse.Reverse(5)
    try:
        workload.setup(Ledger())
        ledger = Ledger()
        tracer.install()
        try:
            workload.run(ledger, 1)
        finally:
            tracer.uninstall()
    finally:
        workload.close()
        tracer.close()
    ops = ledger.good()
    assert ops and ledger.failed == 0
    splits = layers.attribute_ops(tracer, tracer.timeline(), ops,
                                  threading.main_thread().ident)
    for op, parts in zip(ops, splits):
        assert sum(parts.values()) == pytest.approx(op.seconds, rel=1e-9)
        assert parts.get(UNATTRIBUTED, 0.0) < 0.5 * op.seconds


def test_host_speed_keeps_its_share_of_the_processor():
    speed = hostspeed.HostSpeed()
    end = time.process_time() + 0.3
    while time.process_time() < end:  # stands in for the workload
        sum(range(1000))
    speed.top_up()
    workload = time.process_time() - speed._start - speed._spent
    assert speed.samples
    assert hostspeed.SHARE * workload <= speed._spent
    assert speed._spent <= hostspeed.SHARE * workload + max(speed.samples)
    assert speed.slowness() > 0


def test_whole_rounds_come_nearest_to_the_time(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(measure.time, "perf_counter", lambda: clock[0])
    for seconds, round_s, want in ((10, 3, 3), (11, 3, 4), (1, 3, 1)):
        clock[0], rounds = 0.0, 0
        for _ in measure.whole_rounds(seconds):
            clock[0] += round_s
            rounds += 1
        assert rounds == want, (seconds, round_s)
