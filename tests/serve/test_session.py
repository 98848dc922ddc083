"""SessionWorker: the supervised per-session thread, tested without
the gateway — backpressure, deadlines, force-expiry, degradation."""

import io
import time

import pytest

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.ldb.api import ApiError
from repro.ldb.debugger import load_over_wire
from repro.serve import GatewayError, SessionWorker

from tests.serve.helpers import COUNTER


def counter_factory(fault_schedule=None, core_path=None, arch="rmips"):
    exe = compile_and_link({"main.c": COUNTER}, arch, debug=True)

    def factory():
        ldb = Ldb(stdout=io.StringIO())
        if fault_schedule is None:
            target = ldb.load_program(exe, core_path=core_path)
        else:
            target = load_over_wire(ldb, exe, core_path=core_path,
                                    fault_schedule=fault_schedule)
        return ldb, target
    return factory


def worker(factory=None, **kw):
    w = SessionWorker("s0000", factory or counter_factory(), **kw)
    w.start()
    w.started.result(timeout=30.0)
    return w


def test_lifecycle_and_commands():
    w = worker()
    assert w.state == "live"
    assert w.submit("ping").result(5.0) == {"pong": True}
    out = w.submit("break", {"at": "tick"}).result(5.0)
    assert out["addresses"]
    event = w.submit("continue").result(5.0)
    assert event["event"] == "breakpoint"
    w.close("test over")
    assert w.state == "closed"


def test_spawn_failure_is_typed():
    def broken():
        raise RuntimeError("no such program")
    w = SessionWorker("s0000", broken)
    w.start()
    with pytest.raises(GatewayError) as err:
        w.started.result(timeout=10.0)
    assert err.value.code == "ERR_SPAWN_FAILED"
    assert w.state == "dead"
    # commands after a failed spawn answer typed, not hang
    with pytest.raises(GatewayError) as err:
        w.submit("continue")
    assert err.value.code == "ERR_TARGET_DIED"
    w.close()


def test_queue_backpressure_rejects_typed():
    w = worker(queue_limit=2)
    # wedge the worker: a continue against a target with a breakpoint
    # planted runs quickly, so block the thread with queued commands
    # faster than it can serve them by stuffing the queue directly
    futures = [w.submit("ping", deadline=30.0) for _ in range(2)]
    rejected = 0
    for _ in range(20):
        try:
            futures.append(w.submit("ping", deadline=30.0))
        except GatewayError as err:
            assert err.code == "ERR_BUSY"
            assert err.retryable
            rejected += 1
            break
    # either the worker outran us (all served) or the reject was typed
    for future in futures:
        assert future.result(10.0) == {"pong": True}
    w.close()


def test_deadline_on_queued_command():
    w = worker()
    # a command whose deadline has already passed when it is dequeued
    # answers ERR_DEADLINE without executing
    future = w.submit("ping", deadline=0.0)
    with pytest.raises(GatewayError) as err:
        future.result(10.0)
    assert err.value.code == "ERR_DEADLINE"
    assert err.value.retryable
    w.close()


def test_blocking_command_misses_deadline():
    from repro.nub.faults import FaultSchedule
    # the nub spawns clean, then answers nothing (every later send
    # dropped): the command can only time out, and must surface as
    # ERR_DEADLINE, not a raw TimeoutError — even though the drops hit
    # the retryable request path, not just the event wait
    schedule = FaultSchedule(seed=3, drop=1.0, after=2)
    w = worker(counter_factory(fault_schedule=schedule))
    started = time.monotonic()
    future = w.submit("break", {"at": "tick"}, deadline=0.5)
    with pytest.raises(GatewayError) as err:
        future.result(30.0)
    assert err.value.code == "ERR_DEADLINE"
    # the deadline bounded the whole retry budget, not one attempt
    assert time.monotonic() - started < 10.0
    w.close()


def test_force_expire_unwedges_blocked_command():
    from repro.nub.faults import FaultSchedule
    schedule = FaultSchedule(seed=3, drop=1.0, after=2)
    w = worker(counter_factory(fault_schedule=schedule))
    future = w.submit("break", {"at": "tick"}, deadline=30.0)  # blocks
    deadline = time.monotonic() + 5.0
    while w.busy_job is None and time.monotonic() < deadline:
        time.sleep(0.01)
    w.force_expire("watchdog test")
    with pytest.raises(GatewayError) as err:
        future.result(10.0)
    assert err.value.code == "ERR_SESSION_EXPIRED"
    assert w.state == "expired"
    # later commands answer expired immediately...
    with pytest.raises(GatewayError) as err:
        w.submit("continue")
    assert err.value.code == "ERR_SESSION_EXPIRED"
    # ...but ping/status stay answerable on a dying session
    assert w.submit("ping").result(5.0) == {"pong": True}
    w.close()


RUNAWAY = """int spins;
int main(void)
{
    for (;;)
        spins = spins + 1;
    return 0;
}
"""


def test_runaway_target_under_deadline_and_watchdog():
    exe = compile_and_link({"main.c": RUNAWAY}, "rmips", debug=True)

    def factory():
        ldb = Ldb(stdout=io.StringIO())
        return ldb, ldb.load_program(exe)

    check_runaway(worker(factory))


@pytest.mark.parametrize("mode", ("record", "replay"))
def test_runaway_time_travel_under_deadline_and_watchdog(mode, tmp_path):
    """The same bounds when ``continue`` is the time-travel controller's
    chunked run: on a live target with recording on, and on a recording
    reopened where it ends, before the endless loop."""
    exe = compile_and_link({"main.c": RUNAWAY}, "rmips", debug=True)
    path = str(tmp_path / "runaway.ldbrec")
    if mode == "replay":
        ldb = Ldb(stdout=io.StringIO())
        ldb.load_program(exe)
        ldb.start_recording(path=path)
        ldb.record_save()

    def factory():
        ldb = Ldb(stdout=io.StringIO())
        if mode == "replay":
            return ldb, ldb.open_recording(path)
        target = ldb.load_program(exe)
        ldb.enable_time_travel(target)
        return ldb, target

    check_runaway(worker(factory))


def check_runaway(w):
    """A continue that never stops answers ERR_DEADLINE in time and
    leaves the target running; an idle session costs nothing; the next
    continue goes on; the watchdog unwinds a long one."""
    cpu = w.target.transport.nub.process.cpu
    started = time.monotonic()
    with pytest.raises(GatewayError) as err:
        w.submit("continue", deadline=0.3).result(10.0)
    assert err.value.code == "ERR_DEADLINE"
    assert time.monotonic() - started < 0.5
    assert w.submit("status").result(5.0)["target"]["state"] == "running"
    # an idle session simulates nothing between commands
    icount = cpu.icount
    used = time.process_time()
    time.sleep(1.0)
    assert time.process_time() - used < 0.1
    assert cpu.icount == icount
    # the next continue resumes where the last one was cut off
    with pytest.raises(GatewayError) as err:
        w.submit("continue", deadline=0.3).result(10.0)
    assert err.value.code == "ERR_DEADLINE"
    assert cpu.icount > icount
    # the watchdog's sever unwinds a long continue, typed
    future = w.submit("continue", deadline=30.0)
    deadline = time.monotonic() + 5.0
    while w.busy_job is None and time.monotonic() < deadline:
        time.sleep(0.01)
    w.force_expire("watchdog test")
    with pytest.raises(GatewayError) as err:
        future.result(10.0)
    assert err.value.code == "ERR_SESSION_EXPIRED"
    w.close()


def test_nub_death_degrades_to_core(tmp_path):
    from repro.nub.faults import FaultSchedule
    core_path = str(tmp_path / "s.core")
    # kill the nub a few dozen frames in: mid-debugging death
    schedule = FaultSchedule(seed=5, kill_after=30)
    w = worker(counter_factory(fault_schedule=schedule,
                               core_path=core_path))
    w.submit("break", {"at": "tick"}).result(10.0)
    saw_death = False
    for _ in range(60):
        try:
            event = w.submit("continue", deadline=5.0).result(10.0)
        except (ApiError, GatewayError) as err:
            assert err.code in ("ERR_TARGET_DIED", "ERR_DEADLINE")
            saw_death = True
            break
        if event.get("event") in ("died", "disconnect"):
            saw_death = True
            break
        if event.get("event") == "exit":
            break
    assert saw_death, "the injected kill never surfaced"
    deadline = time.monotonic() + 5.0
    while w.state not in ("core", "dead") and time.monotonic() < deadline:
        time.sleep(0.01)
    assert w.state == "core", w.state_reason
    # the session now serves its own core, read-only
    frames = w.submit("backtrace").result(10.0)["frames"]
    assert frames
    with pytest.raises(ApiError) as err:
        w.submit("continue").result(10.0)
    assert err.value.code == "ERR_POST_MORTEM"
    w.close()


def test_close_drains_queue_typed():
    w = worker()
    futures = [w.submit("ping", deadline=30.0) for _ in range(4)]
    w.close("shutting down")
    for future in futures:
        try:
            result = future.result(5.0)
            assert result == {"pong": True}
        except GatewayError as err:
            assert err.code == "ERR_SHUTTING_DOWN"
