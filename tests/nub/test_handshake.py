"""The HELLO handshake against a mangled reply.

The nub answers HELLO before any trailer is on, so its reply is the one
frame no CRC protects.  Each seed below flips a different bit of that
reply (the nub's second frame, after the stop announcement).  A
debugger that believed the damage would leave the two ends framing
differently, or would think the nub could not time-travel or dump
cores.  Instead the session treats the reply as a mangled handshake:
it drops the connection and re-dials when it has a connector, and
otherwise fails typed.
"""

import io

import pytest

from repro.cc.driver import compile_and_link, loader_table_ps
from repro.ldb import Ldb
from repro.ldb.debugger import load_over_wire
from repro.ldb.target import TargetError
from repro.machines import Process, SIGSEGV, SIGTRAP
from repro.nub import FaultSchedule, Listener, Nub, NubRunner, RetryPolicy
from repro.nub.session import TransportError
from repro.postscript import PSError

BOOM = """int g;
void poke(int *p) { *p = 42; }
int main(void) {
    int i;
    for (i = 0; i < 6; i++)
        g = g + i;
    poke((int *)0x7fffffff);
    return 0;
}
"""

SEEDS = range(10)


@pytest.fixture(scope="module")
def boom_exe():
    return compile_and_link({"boom.c": BOOM}, "rmips", debug=True)


def mangled_hello(seed):
    """Frame 0 is the stop announcement, frame 1 the HELLO reply."""
    return FaultSchedule(seed=seed, script=["ok", "corrupt"])


def debug_through(ldb, target, core_path):
    """break -> run -> bt -> enable time travel -> on to the fault ->
    reverse-step -> dumpcore."""
    ldb.break_at_function("poke")
    assert ldb.run_to_stop() == "stopped" and target.at_breakpoint()
    assert "poke" in ldb.backtrace_text()
    ldb.enable_time_travel()
    assert ldb.run_to_stop() == "stopped" and target.signo == SIGSEGV
    ldb.reverse_step()
    assert target.signo == SIGTRAP
    assert target.dump_core(core_path).arch_name == "rmips"


def assert_framing_agrees(target, nub):
    """Both ends run CRC + SEQ, and every frame the debugger sent was
    answered: the controls were acknowledged, as ACK promises."""
    ends = (target.channel, nub.channel)
    assert [(end.crc, end.seq_mode) for end in ends] == [(True, True)] * 2
    assert nub.ack_active
    metrics = target.obs.metrics
    assert metrics.get("session.sends") == metrics.get("session.replies")


def transport_failure(err):
    """Did the session give up on the connection, as opposed to the
    debugger refusing a verb?  The memory layer carries the transport
    error on its PSError (the command API answers it ERR_TARGET_DIED);
    the target layer raises its TargetError from it."""
    while err is not None:
        if isinstance(err, TransportError):
            return True
        err = getattr(err, "transport_error", None) or err.__context__
    return False


@pytest.mark.parametrize("seed", SEEDS)
def test_mangled_hello_reply_without_a_connector(boom_exe, tmp_path, seed):
    ldb = Ldb(stdout=io.StringIO())
    target = load_over_wire(ldb, boom_exe,
                            fault_schedule=mangled_hello(seed))
    target.session.policy = RetryPolicy(max_attempts=3, base_delay=0.001)
    try:
        debug_through(ldb, target, str(tmp_path / "boom.core"))
    except (TargetError, TransportError, PSError) as err:
        # no re-dial path: the only safe answer is a typed failure
        assert transport_failure(err), err
        target.runner.join(10.0)
        assert not target.runner.thread.is_alive()
        return
    assert_framing_agrees(target, target.nub)
    target.kill()


@pytest.mark.parametrize("seed", SEEDS)
def test_mangled_hello_reply_redials_through_the_connector(boom_exe,
                                                           tmp_path, seed):
    listener = Listener()
    nub = Nub(Process(boom_exe), listener=listener, accept_timeout=10.0,
              fault_schedule=mangled_hello(seed))
    runner = NubRunner(nub).start()
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.attach("127.0.0.1", listener.port, loader_table_ps(boom_exe))
    target.session.policy = RetryPolicy(max_attempts=4, base_delay=0.001)
    debug_through(ldb, target, str(tmp_path / "boom.core"))
    assert target.session.reconnects == 1
    assert_framing_agrees(target, nub)
    target.kill()
    runner.join(10.0)
    listener.close()
