"""Fault-tolerance tests: injected channel faults, session retries,
debugger crash-reconnect, and serve-loop fuzzing.

The fault matrix drives the paper's user workflow (breakpoints,
inspection, assignment, resumption) through a channel that drops,
corrupts, truncates, duplicates or delays frames on a deterministic
seeded schedule — every operation must still succeed, absorbed by the
session's retry/backoff and reconnect machinery.
"""

import io
import random
import socket

import pytest

from repro.cc.driver import compile_and_link, loader_table_ps
from repro.ldb import Ldb
from repro.machines import Process
from repro.nub import (
    Channel,
    ChannelClosed,
    FaultInjectingChannel,
    FaultSchedule,
    Listener,
    Nub,
    NubRunner,
    RetryPolicy,
    connect,
    pair,
    protocol,
)
from repro.nub.faults import FAULT_KINDS

from ..ldb.helpers import FIB, run_to_exit


@pytest.fixture(scope="module")
def fib_exe():
    return compile_and_link({"fib.c": FIB}, "rmips", debug=True)


def _listening_nub(exe):
    listener = Listener()
    nub = Nub(Process(exe), listener=listener, accept_timeout=30.0)
    runner = NubRunner(nub).start()
    return nub, runner, listener


def _attach(exe, listener, schedule=None):
    """An Ldb attached through an (optionally fault-injecting) connector,
    with a fast retry policy so tests converge quickly."""
    table_ps = loader_table_ps(exe)
    port = listener.port

    def connector():
        channel = connect("127.0.0.1", port)
        if schedule is not None:
            return FaultInjectingChannel(channel, schedule)
        return channel

    ldb = Ldb(stdout=io.StringIO())
    target = ldb.adopt_channel(connector(), table_ps, connector=connector)
    target.session.reply_timeout = 0.5
    target.session.policy = RetryPolicy(max_attempts=10, base_delay=0.01,
                                        max_delay=0.05, seed=1)
    return ldb, target


class TestFaultSchedule:
    def test_same_seed_same_actions(self):
        a = FaultSchedule(seed=7, drop=0.3, corrupt=0.3)
        b = FaultSchedule(seed=7, drop=0.3, corrupt=0.3)
        assert [a.next_action() for _ in range(50)] \
            == [b.next_action() for _ in range(50)]

    def test_limit_caps_injected_faults(self):
        schedule = FaultSchedule(seed=1, drop=1.0, limit=3)
        actions = [schedule.next_action() for _ in range(10)]
        assert actions.count("drop") == 3
        assert actions[3:] == ["ok"] * 7

    def test_script_mode(self):
        schedule = FaultSchedule(script=["ok", "drop", "corrupt"])
        assert [schedule.next_action() for _ in range(5)] \
            == ["ok", "drop", "corrupt", "ok", "ok"]

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule(drop=1.5)


class TestInjection:
    def test_drop_discards_frame(self):
        a, b = pair()
        faulty = FaultInjectingChannel(a, FaultSchedule(script=["drop"]))
        faulty.send(protocol.ok())
        with pytest.raises(TimeoutError):
            b.recv(0.05)
        a.close(), b.close()

    def test_corrupt_detected_by_crc(self):
        a, b = pair()
        faulty = FaultInjectingChannel(a, FaultSchedule(script=["corrupt"]))
        faulty.send(protocol.fetch("d", 0x100, 4))
        with pytest.raises(protocol.CrcError):
            b.recv(0.5)
        a.close(), b.close()

    def test_duplicate_sends_twice(self):
        a, b = pair()
        faulty = FaultInjectingChannel(a, FaultSchedule(script=["duplicate"]))
        faulty.send(protocol.ok())
        assert b.recv(0.5).mtype == protocol.MSG_OK
        assert b.recv(0.5).mtype == protocol.MSG_OK
        a.close(), b.close()

    def test_truncate_kills_the_connection(self):
        a, b = pair()
        faulty = FaultInjectingChannel(a, FaultSchedule(script=["truncate"]))
        faulty.send(protocol.fetch("d", 0, 4))
        with pytest.raises(ChannelClosed):
            b.recv(0.5)
        b.close()


class TestChannelHardening:
    def test_recv_restores_socket_timeout(self):
        a, b = pair()
        with pytest.raises(TimeoutError):
            b.recv(0.05)
        assert b.sock.gettimeout() is None
        a.close(), b.close()

    def test_hostile_length_drops_connection(self):
        a, b = pair()
        a.sock.sendall(b"\x12" + (protocol.MAX_PAYLOAD + 1).to_bytes(4, "little")
                       + bytes(4))
        with pytest.raises(protocol.FrameError):
            b.recv(0.5)
        # the connection was dropped, not left mis-framed
        with pytest.raises(ChannelClosed):
            b.recv(0.5)
        a.close()

    def test_accept_timeout_is_TimeoutError(self):
        listener = Listener()
        with pytest.raises(TimeoutError):
            listener.accept(0.05)
        listener.close()

    def test_drain_discards_stale_input(self):
        a, b = pair()
        a.send(protocol.ok())
        a.send(protocol.cont())
        import time
        time.sleep(0.05)
        assert b.drain() > 0
        with pytest.raises(TimeoutError):
            b.recv(0.05)
        a.close(), b.close()


class TestFaultMatrix:
    """The full workflow — plant, continue, fetch, store, backtrace,
    exit — under every fault kind."""

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_workflow_survives(self, fib_exe, kind):
        schedule = FaultSchedule(seed=11 + FAULT_KINDS.index(kind),
                                 limit=12, **{kind: 0.2})
        nub, runner, listener = _listening_nub(fib_exe)
        try:
            ldb, target = _attach(fib_exe, listener, schedule)
            assert target.state == "stopped"
            ldb.break_at_stop("fib", 9)                    # PLANT
            assert ldb.run_to_stop() == "stopped"          # CONTINUE
            assert ldb.evaluate("a[4]") == 5               # FETCH
            ldb.evaluate("n = 6")                          # STORE
            assert "fib" in ldb.backtrace_text()
            target.breakpoints.remove_all()                # UNPLANT
            assert run_to_exit(ldb, target) == "exited"
        finally:
            runner.join()
            listener.close()

    def test_mixed_fault_soup(self, fib_exe):
        """All fault kinds at once; the session's counters prove faults
        actually fired."""
        schedule = FaultSchedule(seed=3, drop=0.08, corrupt=0.08,
                                 duplicate=0.08, delay=0.08, truncate=0.04,
                                 limit=10)
        nub, runner, listener = _listening_nub(fib_exe)
        try:
            ldb, target = _attach(fib_exe, listener, schedule)
            ldb.break_at_stop("fib", 9)
            assert ldb.run_to_stop() == "stopped"
            assert ldb.evaluate("a[4]") == 5
            target.breakpoints.remove_all()
            assert run_to_exit(ldb, target) == "exited"
            assert schedule.injected > 0
        finally:
            runner.join()
            listener.close()


class TestCrashReconnect:
    """Paper Sec. 7.1: the nub preserves the target across a debugger
    crash; the same Target re-attaches and resynchronizes."""

    def test_reconnect_recovers_breakpoints(self, fib_exe):
        nub, runner, listener = _listening_nub(fib_exe)
        try:
            ldb, target = _attach(fib_exe, listener)
            a9 = ldb.break_at_stop("fib", 9)
            a6 = ldb.break_at_stop("fib", 6)
            planted = set(target.breakpoints.planted)
            assert planted == {a9, a6}
            # the debugger "crashes": its socket dies and its in-memory
            # breakpoint table is lost
            target.channel.sock.close()
            target.breakpoints.planted.clear()
            target.reconnect()
            assert target.state == "stopped"
            assert target.session.reconnects >= 1
            # the silent resync leaves exactly one warning-level trace
            # event, even with tracing off (warnings always record)
            warnings = target.obs.tracer.find("target.reconnect",
                                              level="warning")
            assert len(warnings) == 1
            assert warnings[0]["breakpoints"] == len(planted)
            # the BREAKS replay recovered the exact planted set
            assert set(target.breakpoints.planted) == planted
            assert all(bp.note == "adopted"
                       for bp in target.breakpoints.planted.values())
            # and the session is fully usable: run to a breakpoint
            assert ldb.run_to_stop() == "stopped"
            assert target.stop_pc() in planted
            assert ldb.evaluate("n") == 10
            target.breakpoints.remove_all()
            assert run_to_exit(ldb, target) == "exited"
        finally:
            runner.join()
            listener.close()

    def test_wait_for_stop_reports_reconnecting(self, fib_exe):
        nub, runner, listener = _listening_nub(fib_exe)
        try:
            ldb, target = _attach(fib_exe, listener)
            target.channel.sock.close()
            assert target.wait_for_stop(timeout=0.5) == "reconnecting"
            target.reconnect()
            assert target.state == "stopped"
            assert run_to_exit(ldb, target) == "exited"
        finally:
            runner.join()
            listener.close()

    def test_requests_reconnect_transparently(self, fib_exe):
        """A dead socket under a fetch is absorbed: the session
        reconnects mid-request and the fetch succeeds."""
        nub, runner, listener = _listening_nub(fib_exe)
        try:
            ldb, target = _attach(fib_exe, listener)
            ldb.break_at_stop("fib", 9)
            assert ldb.run_to_stop() == "stopped"
            target.channel.sock.close()
            assert ldb.evaluate("a[4]") == 5        # survives the cut
            assert target.session.reconnects >= 1
            # one resync, one warning mark — not silent, not noisy
            assert len(target.obs.tracer.find("target.reconnect",
                                              level="warning")) == 1
            target.breakpoints.remove_all()
            assert run_to_exit(ldb, target) == "exited"
        finally:
            runner.join()
            listener.close()

    def test_reconnect_without_connector_fails_cleanly(self, fib_exe):
        ldb = Ldb(stdout=io.StringIO())
        target = ldb.load_program(fib_exe)
        from repro.ldb.target import TargetError
        with pytest.raises(TargetError):
            target.reconnect()
        target.kill()


class TestServeLoopFuzz:
    """Hostile bytes at the nub: no wire input may crash the serve loop
    (no bare struct.error), and the target survives for the next
    debugger."""

    GARBAGE_TYPES = [0, protocol.MSG_FETCH, protocol.MSG_STORE,
                     protocol.MSG_PLANT, protocol.MSG_UNPLANT,
                     protocol.MSG_BREAKS, protocol.MSG_HELLO,
                     protocol.MSG_DATA, protocol.MSG_ERROR, 99, 200]

    def _fuzz_connection(self, port, seed):
        rng = random.Random(seed)
        sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        sock.settimeout(0.2)
        try:
            for _ in range(rng.randrange(4, 12)):
                if rng.random() < 0.4:
                    # printable junk: type bytes are never controls and
                    # length fields blow past MAX_PAYLOAD -> FrameError
                    junk = bytes(rng.randrange(0x20, 0x7F)
                                 for _ in range(rng.randrange(6, 40)))
                    payload = junk
                else:
                    # a well-framed message with a random type and a
                    # random (usually invalid) payload
                    mtype = rng.choice(self.GARBAGE_TYPES)
                    body = bytes(rng.randrange(256)
                                 for _ in range(rng.randrange(0, 16)))
                    payload = protocol.encode(protocol.Message(mtype, body))
                try:
                    sock.sendall(payload)
                except OSError:
                    return  # the nub dropped an unframeable stream: fine
                try:
                    while sock.recv(4096):
                        pass
                except socket.timeout:
                    pass
                except OSError:
                    return
        finally:
            sock.close()

    def test_garbage_never_kills_the_nub(self, fib_exe):
        nub, runner, listener = _listening_nub(fib_exe)
        try:
            for seed in range(6):
                self._fuzz_connection(listener.port, seed)
                assert runner.error is None, runner.error
            # after all that abuse a clean debugger still gets service
            channel = connect("127.0.0.1", listener.port)
            msg = channel.recv(5.0)
            assert msg.mtype == protocol.MSG_SIGNAL
            _signo, _code, ctx = protocol.parse_signal(msg)
            channel.send(protocol.fetch("d", ctx, 4))
            assert channel.recv(5.0).mtype == protocol.MSG_DATA
            channel.send(protocol.kill())
            channel.close()
            runner.join()
            assert runner.error is None, runner.error
        finally:
            listener.close()
