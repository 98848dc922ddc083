"""The first frames of a connection, damaged.

Every frame is CRC-checked from a connection's first byte, so a flipped
bit in the stop announcement (the nub's frame 0) or in the HELLO reply
(frame 1) is never believed: a debugger that believed the announcement
would stop at a wrong signal, code or context address.  Each seed below
flips a different bit of the frame.  The session counts the frame as
lost and drops the connection.  Over a socketpair, which cannot be
re-dialled, the target is reported ``disconnected`` at once; attached
through a listener, the debugger re-dials once and ends stopped at the
true stop, as debuggable as an undamaged session.

The same holds for the announcement of a later stop when the
acknowledgement of the control before it was lost: the damaged frame
that arrives in its place is the announcement, not a reply to retry.
"""

import io
import time

import pytest

from repro.cc.driver import compile_and_link, loader_table_ps
from repro.ldb import Ldb
from repro.ldb.debugger import load_over_wire
from repro.machines import Process, SIGSEGV, SIGTRAP
from repro.nub import (FaultSchedule, Listener, Nub, NubRunner, NubSession,
                       RetryPolicy, connect, protocol)
from repro.nub.session import TransportError

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

#: the nub's frame 0 is the stop announcement, frame 1 the HELLO reply
ANNOUNCEMENT, HELLO_REPLY = 0, 1


@pytest.fixture(scope="module")
def boom_exe():
    return compile_and_link({"boom.c": BOOM}, "rmips", debug=True)


def damaged(frame, seed):
    """One flipped bit in the nub's ``frame``-th frame."""
    return FaultSchedule(seed=seed, script=["ok"] * frame + ["corrupt"])


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


def assert_disconnected(frame, seed, boom_exe):
    ldb = Ldb(stdout=io.StringIO())
    started = time.monotonic()
    target = load_over_wire(ldb, boom_exe,
                            fault_schedule=damaged(frame, seed))
    assert time.monotonic() - started < target.session.reply_timeout
    # no stop was taken from the damaged conversation
    assert target.state == "disconnected"
    assert (target.signo, target.sigcode, target.context_addr) == (0, 0, 0)
    assert target.channel is None
    # nobody can debug the target any more, so the nub lets it go
    target.runner.join(10.0)
    assert not target.runner.thread.is_alive()
    assert target.nub.killed


def assert_redials_to_the_true_stop(frame, seed, boom_exe, tmp_path):
    listener = Listener()
    nub = Nub(Process(boom_exe), listener=listener, accept_timeout=10.0,
              fault_schedule=damaged(frame, seed))
    runner = NubRunner(nub).start()
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.attach("127.0.0.1", listener.port, loader_table_ps(boom_exe))
    assert target.state == "stopped"
    assert target.session.reconnects == 1
    assert (target.signo, target.sigcode, target.context_addr) == \
        (SIGTRAP, 0, Nub.CONTEXT_ADDR)
    assert target.stop_pc() == boom_exe.symbols["__nub_pause"]
    target.session.policy = RetryPolicy(max_attempts=4, base_delay=0.001)
    debug_through(ldb, target, str(tmp_path / "boom.core"))
    # every request was answered, the controls included
    metrics = target.obs.metrics
    assert metrics.get("session.sends") == metrics.get("session.replies")
    target.kill()
    runner.join(10.0)
    listener.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_damaged_announcement_without_a_connector(boom_exe, seed):
    assert_disconnected(ANNOUNCEMENT, seed, boom_exe)


@pytest.mark.parametrize("seed", SEEDS)
def test_damaged_announcement_redials_through_the_connector(boom_exe,
                                                            tmp_path, seed):
    assert_redials_to_the_true_stop(ANNOUNCEMENT, seed, boom_exe, tmp_path)


@pytest.mark.parametrize("seed", SEEDS)
def test_mangled_hello_reply_without_a_connector(boom_exe, seed):
    assert_disconnected(HELLO_REPLY, seed, boom_exe)


@pytest.mark.parametrize("seed", SEEDS)
def test_mangled_hello_reply_redials_through_the_connector(boom_exe,
                                                           tmp_path, seed):
    assert_redials_to_the_true_stop(HELLO_REPLY, seed, boom_exe, tmp_path)


def test_a_nub_of_another_version_is_a_typed_failure(boom_exe):
    """A nub that answers HELLO with another version cannot be talked
    to: the session drops the connection and fails typed, once, with
    no retry loop and no re-dial."""
    listener = Listener()
    nub = Nub(Process(boom_exe), listener=listener, accept_timeout=2.0)
    nub._do_hello = lambda msg: nub._reply(protocol.hello(2))
    runner = NubRunner(nub).start()
    dials = []

    def connector():
        dials.append(listener.port)
        return connect("127.0.0.1", listener.port)

    ldb = Ldb(stdout=io.StringIO())
    with pytest.raises(TransportError, match="protocol version 2, not 3"):
        ldb.adopt_channel(connector(), loader_table_ps(boom_exe),
                          connector=connector)
    assert len(dials) == 1
    listener.close()
    runner.join(10.0)


#: the nub's frames before the CONTINUE's acknowledgement: the
#: announcement and the HELLO reply (and on a listener the BREAKLIST an
#: attach reads), then run_to_stop's stop-pc fetch and resume-pc store
FRAMES_BEFORE_CONTINUE_ACK = {"socketpair": 4, "listener": 5}


def lost_ack_then_damaged_stop(host):
    """The CONTINUE's acknowledgement dropped, the SIGSEGV announcement
    after it damaged."""
    return FaultSchedule(script=["ok"] * FRAMES_BEFORE_CONTINUE_ACK[host]
                         + ["drop", "corrupt"])


def test_lost_control_ack_then_damaged_stop_without_a_connector(boom_exe):
    ldb = Ldb(stdout=io.StringIO())
    target = load_over_wire(
        ldb, boom_exe, fault_schedule=lost_ack_then_damaged_stop("socketpair"))
    started = time.monotonic()
    assert ldb.run_to_stop(timeout=5.0) == "disconnected"
    assert time.monotonic() - started < 1.0
    assert target.channel is None
    # the nub did stop at the fault; with nobody left to debug it, it
    # lets the target go
    assert target.nub.last_stop.signo == SIGSEGV
    target.runner.join(10.0)
    assert target.nub.killed


def test_lost_control_ack_then_damaged_stop_redials_to_the_true_stop(
        boom_exe):
    clean = Ldb(stdout=io.StringIO())
    clean.load_program(boom_exe)
    assert clean.run_to_stop() == "stopped"
    expected = clean.backtrace_text()
    clean.close()
    listener = Listener()
    nub = Nub(Process(boom_exe), listener=listener, accept_timeout=10.0,
              fault_schedule=lost_ack_then_damaged_stop("listener"))
    runner = NubRunner(nub).start()
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.attach("127.0.0.1", listener.port, loader_table_ps(boom_exe))
    started = time.monotonic()
    assert ldb.run_to_stop(timeout=5.0) == "stopped"
    assert time.monotonic() - started < 1.0
    assert target.session.reconnects == 1
    assert target.signo == SIGSEGV
    assert ldb.backtrace_text() == expected
    target.kill()
    runner.join(10.0)
    listener.close()


class _ScriptedChannel:
    """A channel whose receives follow a script: an exception is
    raised, a message is answered under the last request's sequence id."""

    def __init__(self, script):
        self.script = list(script)
        self.sent = []
        self.closed = False

    def send(self, msg):
        self.sent.append(msg)

    def recv(self, timeout=None):
        item = self.script.pop(0)
        if isinstance(item, BaseException):
            raise item
        item.seq = self.sent[-1].seq
        return item

    def close(self):
        self.closed = True


@pytest.mark.parametrize("control", [True, False])
def test_a_damaged_frame_flushed_after_a_timeout(control):
    """A control whose acknowledgement timed out: the damaged frame
    the flush then reads is its stop announcement, so the control is
    not sent again and the connection is dropped.  After any other
    request it is a stale reply, dropped alone, and the request
    retries."""
    damaged = protocol.CrcError("CRC mismatch on SIGNAL frame")
    data = protocol.Message(protocol.MSG_DATA, bytes(4))
    channel = _ScriptedChannel([TimeoutError(), damaged, data])
    session = NubSession(channel=channel, reply_timeout=0.01,
                         policy=RetryPolicy(max_attempts=2, base_delay=0.0))
    session.hello_done = True
    if control:
        session.control(protocol.cont())
        assert session.channel is None and channel.closed
        assert len(channel.sent) == 1
    else:
        reply = session.request(protocol.fetch("d", 0x2000, 4),
                                expect=(protocol.MSG_DATA,))
        assert reply is data
        assert session.channel is channel and not channel.closed
        assert len(channel.sent) == 2
