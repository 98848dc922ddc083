"""How the debugger reaches a nub: fault-tolerant sessions over a
channel, and the wire-less host for a nub on the debugger's thread.

The paper's robustness story (Sec. 7.1) is that the *nub* survives a
debugger crash: it preserves the target, keeps planted breakpoints, and
waits for a new connection.  This module supplies the debugger half of
that story: a :class:`NubSession` wraps the channel in a retrying
request/reply layer, so transient faults — dropped, corrupted,
truncated, duplicated or delayed frames, and outright connection
crashes — are absorbed instead of surfacing as exceptions.

* requests are retried under an exponential-backoff-with-jitter
  :class:`RetryPolicy`;
* a broken connection is re-established through the nub's listener
  (``connector``), the nub re-announces the interrupted stop, and an
  ``on_reconnect`` hook lets the owner resynchronize state (ldb's
  :class:`Target` replays ``BREAKS`` to recover the breakpoint table);
* the HELLO handshake turns on hardened framing: CRC32 trailers,
  sequence-numbered frames (stale replies from duplicated or timed-out
  exchanges are discarded by id), and acknowledged control messages so
  CONTINUE/KILL/DETACH are retryable too.  The nub's reply travels
  before any trailer protects it, so a reply that does not grant
  exactly what was asked is a mangled handshake: the connection is
  dropped like an unframeable stream and re-dialled;
* every exchange is observable: the session feeds the unified
  :mod:`repro.obs` registry (``session.*`` counters, a round-trip
  latency histogram) and, when tracing is enabled, records each frame
  *decoded* — opcode, fields, sequence id, byte size — so a session
  transcript is human-readable and diffable.

A target with no wire needs none of that: :class:`LocalTransport`
hands each request straight to the nub's handlers and runs the target
in bounded slices on the caller's thread, so a runaway target still
answers a deadline.  It hosts every such target — a program simulated
in the debugger's own process, a core, a recording — and counts and
traces requests under the same ``session.*`` and ``wire.*`` names.
"""

from __future__ import annotations

import abc
import random
import time
from collections import deque
from typing import Callable, Iterable, Optional, Tuple

from ..machines import ExitEvent
from . import protocol
from .channel import Channel, ChannelClosed


class TransportError(Exception):
    """The transport could not complete a request (connection dead,
    retry budget exhausted, reply unframeable)."""


class SessionError(TransportError):
    """A request could not be completed within the retry budget."""


class DeadlineExceeded(SessionError):
    """A request ran out of *deadline*, not retry budget: the caller's
    time bound expired while the exchange (attempts, backoff sleeps,
    reconnects) was still in flight.  Supervisors map this to their
    deadline answer rather than treating the nub as dead."""


class NubError(Exception):
    """The nub answered with a semantic ERROR (bad address, bad space,
    unsupported operation).  Carries the protocol error code."""

    def __init__(self, code: int, request: Optional[protocol.Message] = None):
        super().__init__("nub error %d answering %r" % (code, request))
        self.code = code
        self.request = request


class Transport(abc.ABC):
    """How a debugger talks to one nub.

    :class:`NubSession` talks over a channel, adding retry/backoff,
    crash-reconnect, and negotiated hardened framing;
    :class:`LocalTransport` hosts the nub on the debugger's thread with
    no wire, and its subclasses add what a core or a recording file
    needs (:mod:`repro.ldb.postmortem`, :mod:`repro.trace.replay`).
    All surface nub errors identically: :meth:`transact` either returns a
    reply of an expected type, raises :class:`NubError` for a semantic
    ERROR reply, or raises :class:`TransportError` when no usable reply
    arrives.
    """

    #: Observers of successful request/reply exchanges: callables
    #: ``tap(request, reply)`` fired after :meth:`transact` settles on a
    #: non-error reply.  The time-travel controller
    #: (repro.timetravel.replay) listens here to log debugger-injected
    #: inputs without patching call sites.
    #: Class default is an immutable empty tuple; implementations that
    #: support taps replace it with a per-instance list.
    taps: tuple = ()

    def notify_taps(self, msg: protocol.Message,
                    reply: protocol.Message) -> None:
        for tap in self.taps:
            tap(msg, reply)

    def settle(self, msg: protocol.Message, reply: protocol.Message,
               expect: Iterable[int]) -> protocol.Message:
        """What :meth:`transact` makes of the nub's ``reply`` to
        ``msg``: the reply if its type is expected (the taps see it),
        :class:`NubError` for an ERROR, :class:`TransportError` for
        anything else."""
        if reply.mtype == protocol.MSG_ERROR:
            raise NubError(protocol.parse_error(reply), msg)
        if reply.mtype not in tuple(expect):
            raise TransportError("unexpected reply %r to %r" % (reply, msg))
        self.notify_taps(msg, reply)
        return reply

    @abc.abstractmethod
    def transact(self, msg: protocol.Message, expect: Iterable[int],
                 timeout: Optional[float] = None) -> protocol.Message:
        """Send ``msg``; return the reply whose type is in ``expect``.

        Raises :class:`NubError` on an ERROR reply and
        :class:`TransportError` on anything else (timeout, dead
        connection, unexpected reply type)."""

    @abc.abstractmethod
    def control(self, msg: protocol.Message) -> None:
        """Send a control message (CONTINUE/DETACH/KILL)."""

    @abc.abstractmethod
    def recv_event(self, timeout: Optional[float] = None) -> protocol.Message:
        """Block for the next SIGNAL/EXITED notification."""

    @abc.abstractmethod
    def close(self) -> None:
        """Drop the connection."""


#: instructions a :class:`LocalTransport` runs between looks at its
#: deadline and at :meth:`~LocalTransport.close`
SLICE_INSTRUCTIONS = 100_000


class LocalTransport(Transport):
    """A :class:`Transport` that hosts a :class:`~repro.nub.nub.Nub` on
    the caller's thread, with no wire: the fork analog for a simulated
    target in the debugger's own process, and the host of every other
    wire-less target (cores, recordings).

    Requests go to :meth:`_answer`, the nub's own :meth:`Nub.answer`
    here; a malformed one is the nub's ``ERR_BAD_MESSAGE``.  A nub
    opened at a stop (``nub.last_stop`` set, as for a core or a
    recording) announces that stop first, with nothing run.  A control
    records the pending run (KILL and DETACH end the target), and
    :meth:`recv_event` executes it in slices (:meth:`_advance`) to the
    next stop, checking its ``timeout`` and :meth:`close` between
    slices.  A run the timeout cuts short stays pending, so the next
    :meth:`recv_event` goes on from where it left off.  Requests and
    events are counted and traced under the names :class:`NubSession`
    uses.
    """

    def __init__(self, nub):
        self.nub = nub
        self.obs = nub.obs
        self.taps = []
        #: the stop a nub opened at is announced before anything runs
        self.opened_at = nub.last_stop
        #: is a CONTINUE or RUNTO (or the start) waiting to be run?
        self.running = self.opened_at is None
        self.closed = False

    def transact(self, msg: protocol.Message, expect: Iterable[int],
                 timeout: Optional[float] = None) -> protocol.Message:
        self._send(msg)
        try:
            reply = self._answer(msg)
        except protocol.ProtocolError:
            reply = protocol.error(protocol.ERR_BAD_MESSAGE)
        _trace_frame(self.obs, "wire.recv", reply)
        return self.settle(msg, reply, expect)

    def _answer(self, msg: protocol.Message) -> protocol.Message:
        """The host's reply to one request."""
        return self.nub.answer(msg)

    def control(self, msg: protocol.Message) -> None:
        self._send(msg)
        if msg.mtype == protocol.MSG_RUNTO:
            self.nub.runto = protocol.parse_runto(msg)
        elif msg.mtype in (protocol.MSG_KILL, protocol.MSG_DETACH):
            self.closed = True
            return
        elif msg.mtype != protocol.MSG_CONTINUE:
            raise TransportError("%r is not a control" % (msg,))
        self.nub.resume()
        self.running = True

    def recv_event(self, timeout: Optional[float] = None) -> protocol.Message:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self.closed:
                raise ChannelClosed("the target was closed")
            event, self.opened_at = self.opened_at, None
            if event is None:
                if not self.running:
                    raise TransportError("no run is pending")
                event = self._advance()
            if event is not None:
                break
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError("no stop within %s seconds" % timeout)
        self.running = False
        if isinstance(event, ExitEvent):
            self.closed = True  # the process is gone
            msg = protocol.exited(event.status)
        else:
            msg = protocol.signal(event.signo, event.code,
                                  self.nub.context_addr)
        self.obs.metrics.inc("session.events")
        _trace_frame(self.obs, "wire.event", msg)
        return msg

    def _advance(self):
        """One slice of the pending run: the stop (or exit) it ended
        in, or None when the slice ran out first."""
        return self.nub.advance(SLICE_INSTRUCTIONS)

    def close(self) -> None:
        self.closed = True

    def _send(self, msg: protocol.Message) -> None:
        if self.closed:
            raise TransportError("%r to a closed target" % (msg,))
        self.obs.metrics.inc("session.requests")
        _trace_frame(self.obs, "wire.send", msg)


def _trace_frame(obs, name: str, msg: protocol.Message, **extra) -> None:
    """One decoded frame into the trace (only when tracing is on)."""
    if obs.tracer.enabled:
        from ..obs import wiretap  # deferred: obs decodes via this package
        obs.tracer.event(name, **dict(wiretap.describe(msg), **extra))


class _Transient(Exception):
    """Internal: the nub reported our frame mangled; retry immediately."""


class RetryPolicy:
    """Exponential backoff with *full* jitter, deterministically seeded.

    The sleep before retry ``n`` is drawn uniformly from
    ``[(1 - jitter) * cap, cap]`` where ``cap`` is the capped
    exponential ``min(max_delay, base_delay * multiplier**n)`` — with
    the default ``jitter=1.0`` that is full jitter, uniform over
    ``(0, cap]``.  A fleet of sessions reconnecting after a shared
    outage therefore spreads its retries across the whole window
    instead of thundering back at the same deterministic instants.
    The RNG is seeded, so a fault-matrix run replays exactly.
    """

    def __init__(self, max_attempts: int = 6, base_delay: float = 0.02,
                 max_delay: float = 0.5, multiplier: float = 2.0,
                 jitter: float = 1.0, seed: int = 0):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        self.jitter = jitter
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """The sleep before retry number ``attempt`` (0-based)."""
        cap = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        return cap * (1.0 - self.jitter * self._rng.random())


_EVENT_TYPES = (protocol.MSG_SIGNAL, protocol.MSG_EXITED)


class NubSession(Transport):
    """A retrying, reconnecting request/reply session with one nub."""

    def __init__(self, channel: Optional[Channel] = None,
                 connector: Optional[Callable[[], Channel]] = None,
                 policy: Optional[RetryPolicy] = None,
                 reply_timeout: float = 10.0,
                 on_reconnect: Optional[Callable[["NubSession"], None]] = None,
                 obs=None):
        if obs is None:
            # imported here: repro.obs decodes frames via repro.nub, so
            # a module-level import would be circular
            from ..obs import Observability
            obs = Observability()
        #: the unified tracing + metrics hub (repro.obs.Observability)
        self.obs = obs
        self.channel = channel
        self.connector = connector
        self.policy = policy if policy is not None else RetryPolicy()
        self.reply_timeout = reply_timeout
        self.on_reconnect = on_reconnect
        #: has this connection's HELLO turned on CRC, SEQ and ACK?
        #: (each reconnect shakes hands again)
        self.hello_done = False
        #: SIGNAL/EXITED frames that arrived while awaiting a reply
        self.pending_events: deque = deque()
        self.taps = []
        #: the last (signo, code, context) announced by the nub
        self.last_signal: Optional[Tuple[int, int, int]] = None
        #: counters, for tests and curiosity
        self.retries = 0
        self.reconnects = 0
        self._seq = 0
        self._in_callback = False
        #: absolute (monotonic) deadline applied to *every* request
        #: while set — how a supervisor bounds a whole command, fetches
        #: and retries included, without threading a parameter through
        #: each call site
        self.deadline_abs: Optional[float] = None

    # -- the request/reply engine -----------------------------------------

    def request(self, msg: protocol.Message,
                expect: Iterable[int] = (protocol.MSG_OK,),
                timeout: Optional[float] = None,
                deadline: Optional[float] = None) -> protocol.Message:
        """Send ``msg`` and return the nub's reply, retrying through
        transient faults and reconnecting through connection crashes.

        ``expect`` names the success reply types; an ERROR reply with a
        semantic code (bad address, unsupported, ...) is returned to the
        caller as-is, while ``ERR_BAD_MESSAGE`` — "your frame arrived
        mangled" — triggers a retry.

        ``deadline`` bounds the *whole* exchange in seconds — every
        attempt, backoff sleep, and reconnect included — so a caller
        under its own deadline (the session server's supervisor) gets a
        :class:`SessionError` in bounded time instead of waiting out
        the full retry budget.  ``timeout`` still bounds each attempt.
        """
        timeout = self.reply_timeout if timeout is None else timeout
        started_at = time.monotonic()
        overall = None if deadline is None else started_at + deadline
        if self.deadline_abs is not None:
            overall = (self.deadline_abs if overall is None
                       else min(overall, self.deadline_abs))
        expect = tuple(expect)
        msg.seq = self._next_seq()
        metrics = self.obs.metrics
        metrics.inc("session.requests")
        last_err: Optional[BaseException] = None
        for attempt in range(self.policy.max_attempts):
            if attempt:
                self.retries += 1
                metrics.inc("session.retries")
                pause = self.policy.delay(attempt - 1)
                if overall is not None:
                    pause = min(pause, max(0.0, overall - time.monotonic()))
                time.sleep(pause)
            if overall is not None:
                remaining = overall - time.monotonic()
                if remaining <= 0:
                    raise DeadlineExceeded(
                        "request %r missed its %.3fs deadline after "
                        "%d attempts: %s" % (msg, overall - started_at,
                                             attempt, last_err))
                timeout_now = min(timeout, remaining)
            else:
                timeout_now = timeout
            try:
                self._ensure_channel()
                self._ensure_handshake()
                _trace_frame(self.obs, "wire.send", msg, attempt=attempt)
                metrics.inc("session.sends")
                metrics.inc("session.bytes_out", self._frame_size(msg))
                started = time.perf_counter()
                self.channel.send(msg)
                reply = self._await_reply(msg, expect, timeout_now)
                metrics.observe("session.latency_us",
                                int((time.perf_counter() - started) * 1e6))
                metrics.inc("session.replies")
                metrics.inc("session.bytes_in", self._frame_size(reply))
                _trace_frame(self.obs, "wire.recv", reply)
                return reply
            except ChannelClosed as err:
                last_err = err
                self._drop_channel()
            except protocol.FrameError as err:
                last_err = err
                self._drop_channel()
            except TimeoutError as err:
                # the request (or its reply) was lost; shed any late
                # reply still in flight before resending
                last_err = err
                self._flush()
            except (protocol.ProtocolError, _Transient) as err:
                last_err = err
        raise SessionError("request %r failed after %d attempts: %s"
                           % (msg, self.policy.max_attempts, last_err))

    def transact(self, msg: protocol.Message,
                 expect: Iterable[int] = (protocol.MSG_OK,),
                 timeout: Optional[float] = None,
                 deadline: Optional[float] = None) -> protocol.Message:
        """The :class:`Transport` request: an expected reply, or
        :class:`NubError` for the nub's semantic ERROR answers —
        identical surfacing to :class:`LocalTransport`."""
        expect = tuple(expect)
        reply = self.request(msg, expect=expect, timeout=timeout,
                             deadline=deadline)
        return self.settle(msg, reply, expect)

    def control(self, msg: protocol.Message) -> None:
        """Send a control message (CONTINUE/DETACH/KILL/RUNTO): the
        handshake turned on FEATURE_ACK, so the nub acknowledges it and
        the request engine retries it like any other request."""
        self.request(msg, expect=(protocol.MSG_OK,))

    def recv_event(self, timeout: Optional[float] = None) -> protocol.Message:
        """The next SIGNAL/EXITED notification (stale replies from
        faulted exchanges are skipped)."""
        if self.pending_events:
            return self.pending_events.popleft()
        if self.channel is None:
            raise ChannelClosed("session is not connected")
        while True:
            try:
                msg = self.channel.recv(timeout)
            except protocol.CrcError:
                continue
            except protocol.FrameError as err:
                self._drop_channel()
                raise ChannelClosed("unrecoverable framing: %s" % err)
            if msg.mtype == protocol.MSG_SIGNAL:
                self.last_signal = protocol.parse_signal(msg)
                self._count_event(msg)
                return msg
            if msg.mtype == protocol.MSG_EXITED:
                self._count_event(msg)
                return msg

    def reconnect(self) -> None:
        """Drop the current connection (if any) and re-attach through
        the connector; the nub re-announces the interrupted stop."""
        self._drop_channel()
        self._reconnect()

    def close(self) -> None:
        self._drop_channel()

    # -- internals ---------------------------------------------------------

    def _frame_size(self, msg: protocol.Message) -> int:
        # after HELLO: a 9-byte sequenced header and a CRC32 trailer
        return 13 + len(msg.payload)

    def _count_event(self, msg: protocol.Message) -> None:
        self.obs.metrics.inc("session.events")
        _trace_frame(self.obs, "wire.event", msg)

    def _next_seq(self) -> int:
        self._seq += 1
        if self._seq >= protocol.NO_SEQ:
            self._seq = 1
        return self._seq

    def _await_reply(self, msg, expect, timeout) -> protocol.Message:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("no reply within %s seconds" % timeout)
            reply = self.channel.recv(remaining)
            if reply.mtype in _EVENT_TYPES:
                self._note_event(reply)
                continue
            if reply.seq != msg.seq:
                # a stale reply (duplicate or late after a timeout);
                # ERR_BAD_MESSAGE means a mangled frame reached the nub
                if (reply.mtype == protocol.MSG_ERROR
                        and protocol.parse_error(reply)
                        == protocol.ERR_BAD_MESSAGE):
                    raise _Transient("nub saw a mangled frame")
                continue
            if reply.mtype == protocol.MSG_ERROR:
                if protocol.parse_error(reply) == protocol.ERR_BAD_MESSAGE:
                    raise _Transient("nub saw a mangled frame")
                return reply
            if reply.mtype in expect:
                return reply
            # a reply of the wrong type under the right sequence id:
            # flush the stream and retry
            raise _Transient("expected %s, got %r" % (expect, reply))

    def _note_event(self, msg: protocol.Message) -> None:
        if msg.mtype == protocol.MSG_SIGNAL:
            self.last_signal = protocol.parse_signal(msg)
        self._count_event(msg)
        self.pending_events.append(msg)

    def _ensure_channel(self) -> None:
        if self.channel is None:
            if self.connector is None:
                raise ChannelClosed("session has no reconnect path")
            self._reconnect()

    def _drop_channel(self) -> None:
        if self.channel is not None:
            self.channel.close()
            self.channel = None
        self.hello_done = False

    def _reconnect(self) -> None:
        if self.connector is None:
            raise ChannelClosed("session has no reconnect path")
        self.last_signal = None
        last_err: Optional[BaseException] = None
        for attempt in range(self.policy.max_attempts):
            if attempt:
                time.sleep(self.policy.delay(attempt - 1))
            try:
                channel = self.connector()
            except OSError as err:
                last_err = err
                continue
            self.channel = channel
            self.hello_done = False
            got_signal = False
            try:
                try:
                    msg = channel.recv(self.reply_timeout)
                except TimeoutError:
                    msg = None  # target still running; nothing announced
                if msg is not None:
                    if msg.mtype == protocol.MSG_SIGNAL:
                        # the nub re-announces the preserved stop; the
                        # on_reconnect hook applies it, so don't queue it
                        self.last_signal = protocol.parse_signal(msg)
                        got_signal = True
                    elif msg.mtype == protocol.MSG_EXITED:
                        self.pending_events.append(msg)
                if got_signal:
                    self._ensure_handshake()
            except (ChannelClosed, protocol.ProtocolError) as err:
                last_err = err
                self._drop_channel()
                continue
            self.reconnects += 1
            self.obs.metrics.inc("session.reconnects")
            self.obs.tracer.event("session.reconnect", attempt=attempt,
                                  announced=got_signal)
            if got_signal:
                self._run_reconnect_callback()
            return
        raise SessionError("reconnect failed after %d attempts: %s"
                           % (self.policy.max_attempts, last_err))

    def _run_reconnect_callback(self) -> None:
        if self.on_reconnect is None or self._in_callback:
            return
        self._in_callback = True
        try:
            self.on_reconnect(self)
        finally:
            self._in_callback = False

    def _ensure_handshake(self) -> None:
        """Ask for CRC, SEQ and ACK; every later frame on this
        connection carries them.

        The nub's HELLO reply is the one frame no trailer protects.  A
        reply that is not HELLO, names another version, or grants other
        trailers than were asked was mangled on the way; a lost one
        leaves the nub's framing unknown.  Either way the two ends may
        disagree about framing, so raise
        :class:`~repro.nub.protocol.FrameError`: that drops the
        connection (and re-dials through the connector) like any
        unframeable stream.
        """
        if self.hello_done:
            return
        self.channel.send(protocol.hello())
        try:
            reply = self.channel.recv(self.reply_timeout)
            while reply.mtype in _EVENT_TYPES:
                self._note_event(reply)
                reply = self.channel.recv(self.reply_timeout)
            granted = (protocol.parse_hello(reply)
                       if reply.mtype == protocol.MSG_HELLO else None)
        except (TimeoutError, protocol.ProtocolError) as err:
            raise protocol.FrameError("no usable HELLO reply: %s" % err)
        if granted != (protocol.PROTOCOL_VERSION, protocol.ALL_FEATURES):
            raise protocol.FrameError("mangled HELLO reply %r" % (reply,))
        self.channel.crc = self.channel.seq_mode = True
        self.hello_done = True

    def _flush(self) -> None:
        """Discard stale input (late replies) after a timeout, keeping
        any SIGNAL/EXITED notifications."""
        if self.channel is None:
            return
        try:
            while True:
                msg = self.channel.recv(0.02)
                if msg.mtype in _EVENT_TYPES:
                    self._note_event(msg)
        except TimeoutError:
            pass
        except protocol.ProtocolError:
            pass
        except ChannelClosed:
            self._drop_channel()
