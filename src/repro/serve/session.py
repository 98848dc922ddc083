"""One hosted debug session, under supervision.

A :class:`SessionWorker` owns a whole debugger stack — an
:class:`~repro.ldb.debugger.Ldb`, its target, and the target's nub — and
runs every command for it on one dedicated thread (the PostScript
interpreter and the blocking transport are single-threaded by design,
so the thread *is* the session).  A spawned target's nub runs on that
thread too, between commands and in bounded slices within one; only a
session spawned with a fault schedule gets a nub thread behind a wire.
Around the worker thread sits the supervision machinery this package
exists for:

* a **bounded command queue**: when ``queue_limit`` commands are
  already waiting, new ones are rejected immediately with ``ERR_BUSY``
  — backpressure over unbounded buffering, so one slow session cannot
  absorb the server's memory;
* **per-command deadlines**: a command that cannot finish inside its
  deadline resolves to ``ERR_DEADLINE`` (a target still running stays
  so, and the next ``continue`` goes on from there); commands that were
  queued behind it are aged against their own deadlines before they
  run;
* a **watchdog hook** (:meth:`hung_for`): the manager's supervision
  loop detects a command stuck past its deadline plus grace and calls
  :meth:`force_expire`, which severs the transport under the stuck
  call — converting a wedged nub into a typed answer instead of a
  wedged connection;
* **graceful degradation**: when the nub dies (injected kill, fatal
  target fault) the worker joins the nub's thread if it has one, looks
  for the core it wrote on the way down, and — if one exists — reopens
  the session **read-only over the core**.  Inspection keeps working;
  mutation answers ``ERR_POST_MORTEM``.  Only when there is no core
  does the session become plain ``dead``.

The session state machine (DESIGN.md Sec. 11)::

    starting ──ok──> live ──nub died, core──> core ───┐
        │              │ └─nub died, no core─> dead ──┤
        │              └──idle / hung────────> expired┤
        └──spawn failed────────────────────────> dead ┤
                                                      └──close()──> closed
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from concurrent.futures import Future
from typing import Callable, Optional, Tuple

from ..ldb.api import ApiError, DebugAPI, ERR_TARGET_DIED
from ..nub.session import DeadlineExceeded
from .errors import (
    ERR_BUSY,
    ERR_DEADLINE,
    ERR_SESSION_EXPIRED,
    ERR_SHUTTING_DOWN,
    ERR_SPAWN_FAILED,
    ERR_INTERNAL,
    GatewayError,
)

#: commands answered from session state alone — allowed in every
#: non-closed state, so a dying session stays observable to the end
ALWAYS_ALLOWED = frozenset(("ping", "status"))


class _Job:
    __slots__ = ("cmd", "args", "future", "deadline_abs", "deadline_s",
                 "submitted", "severed")

    def __init__(self, cmd: str, args: Optional[dict], deadline_s: float):
        self.cmd = cmd
        self.args = args
        self.deadline_s = deadline_s
        self.submitted = time.monotonic()
        self.deadline_abs = self.submitted + deadline_s
        self.future: Future = Future()
        #: did the watchdog sever the transport under this job?
        self.severed = False


class SessionWorker:
    """A supervised, single-threaded hosted debug session."""

    def __init__(self, sid: str, factory: Callable[[], Tuple[object, object]],
                 *, queue_limit: int = 8, default_deadline: float = 5.0,
                 idle_ttl: float = 300.0, obs=None):
        if obs is None:
            from ..obs import Observability
            obs = Observability()
        self.obs = obs
        self.sid = sid
        #: builds (ldb, target) — runs ON the worker thread, because the
        #: debugger stack must live where its commands will run
        self.factory = factory
        self.queue_limit = queue_limit
        self.default_deadline = default_deadline
        self.idle_ttl = idle_ttl
        self.queue: "queue.Queue[_Job]" = queue.Queue(maxsize=queue_limit)
        self.state = "starting"
        self.state_reason = ""
        self.ldb = None
        self.target = None
        self.api: Optional[DebugAPI] = None
        #: resolved once the factory has run (or failed)
        self.started: Future = Future()
        self.last_activity = time.monotonic()
        #: set while a command is executing (watchdog input)
        self.busy_job: Optional[_Job] = None
        self.busy_since: Optional[float] = None
        self._lock = threading.Lock()
        self._closing = False
        self.commands_done = 0
        self.thread = threading.Thread(target=self._run, daemon=True,
                                       name="session-%s" % sid)

    def start(self) -> "SessionWorker":
        self.thread.start()
        return self

    # -- submission (any thread) -------------------------------------------

    def submit(self, cmd: str, args: Optional[dict] = None,
               deadline: Optional[float] = None) -> Future:
        """Enqueue one command; returns its future.  Rejections are
        immediate and typed — never a silent drop, never a block."""
        with self._lock:
            state = self.state
            if self._closing or state == "closed":
                raise GatewayError(ERR_SHUTTING_DOWN,
                                   "session %s is closed" % self.sid)
            if cmd not in ALWAYS_ALLOWED:
                if state == "expired":
                    raise GatewayError(
                        ERR_SESSION_EXPIRED, "session %s expired: %s"
                        % (self.sid, self.state_reason))
                if state == "dead":
                    raise GatewayError(
                        ERR_TARGET_DIED, "session %s is dead: %s"
                        % (self.sid, self.state_reason))
        job = _Job(cmd, args, self.default_deadline
                   if deadline is None else deadline)
        metrics = self.obs.metrics
        metrics.observe("serve.queue_depth", self.queue.qsize())
        try:
            self.queue.put_nowait(job)
        except queue.Full:
            metrics.inc("serve.rejects.busy")
            raise GatewayError(
                ERR_BUSY, "session %s has %d commands queued; retry later"
                % (self.sid, self.queue_limit), retryable=True)
        self.last_activity = time.monotonic()
        return job.future

    # -- supervision inputs (the manager's reaper thread/task) --------------

    def idle_for(self, now: Optional[float] = None) -> float:
        now = time.monotonic() if now is None else now
        return now - self.last_activity

    def hung_for(self, grace: float, now: Optional[float] = None) -> float:
        """Seconds the running command has been stuck *past* its
        deadline plus ``grace`` (<= 0: not hung)."""
        with self._lock:
            job = self.busy_job
            if job is None:
                return 0.0
            now = time.monotonic() if now is None else now
            return now - (job.deadline_abs + grace)

    def force_expire(self, reason: str) -> None:
        """The watchdog's hammer: sever the transport under whatever is
        stuck, so the blocking call unwinds (a wire's channel error, or
        an in-thread run seeing the close between slices), the command
        answers ``ERR_SESSION_EXPIRED``, and the session flips to
        ``expired``.  Idempotent."""
        with self._lock:
            if self.state in ("expired", "dead", "closed"):
                return
            if self.busy_job is not None:
                self.busy_job.severed = True
            self.state = "expired"
            self.state_reason = reason
        self.obs.metrics.inc("serve.hangs")
        self.obs.tracer.warn("serve.session_hung", session=self.sid,
                             reason=reason)
        self._sever_transport()

    def drain_recording(self, deadline: float) -> Optional[Future]:
        """Shutdown is imminent: when this session is live with an
        active recording writer that knows its save path, submit one
        final partial-tolerant ``record_save`` so the accumulated
        trace outlives the server.  The save runs on the worker thread
        (the stack is single-threaded); the returned future resolves
        when it lands.  Answers ``None`` when there is nothing to
        drain — no writer, no path, or the session is past saving."""
        with self._lock:
            if self.state != "live" or self._closing:
                return None
        writer = getattr(self.target, "trace_writer", None)
        if writer is None or writer.path is None:
            return None
        try:
            return self.submit("record_save", {"partial": True},
                               deadline=deadline)
        except GatewayError:
            return None  # queue full or racing a close: nothing saved

    def close(self, reason: str = "server shutdown") -> None:
        """Tear the session down: drain the queue with typed answers,
        release the nub, join the threads."""
        with self._lock:
            if self.state == "closed":
                return
            self._closing = True
        self._drain_queue(GatewayError(ERR_SHUTTING_DOWN, reason))
        self._sever_transport()
        self.thread.join(5.0)
        self._drain_queue(GatewayError(ERR_SHUTTING_DOWN, reason))
        runner = getattr(self.target, "runner", None)
        if runner is not None:
            runner.join(2.0)
        if self.ldb is not None:
            self.ldb.close()
        with self._lock:
            self.state = "closed"
            self.state_reason = reason

    def describe(self) -> dict:
        """The session's JSON-able status row (no wire traffic)."""
        with self._lock:
            out = {
                "session": self.sid,
                "state": self.state,
                "reason": self.state_reason,
                "queued": self.queue.qsize(),
                "queue_limit": self.queue_limit,
                "busy": self.busy_job is not None,
                "idle_seconds": round(self.idle_for(), 3),
                "commands_done": self.commands_done,
            }
        target = self.target
        if target is not None:
            out["target"] = target.describe()
        return out

    # -- the worker thread --------------------------------------------------

    def _run(self) -> None:
        try:
            self.ldb, self.target = self.factory()
            self.api = DebugAPI(self.ldb)
        except Exception as err:
            with self._lock:
                self.state = "dead"
                self.state_reason = "spawn failed: %s" % err
            self.obs.metrics.inc("serve.spawn_failures")
            self.started.set_exception(
                GatewayError(ERR_SPAWN_FAILED, "spawn failed: %s" % err))
            return
        with self._lock:
            if self.state == "starting":
                self.state = "live"
        self.obs.metrics.inc("serve.spawns")
        self.started.set_result(self)
        while True:
            try:
                job = self.queue.get(timeout=0.05)
            except queue.Empty:
                if self._closing:
                    return
                continue
            if self._closing:
                job.future.set_exception(
                    GatewayError(ERR_SHUTTING_DOWN, "session closing"))
                return
            self._serve_job(job)

    def _serve_job(self, job: _Job) -> None:
        if not job.future.set_running_or_notify_cancel():
            return
        metrics = self.obs.metrics
        now = time.monotonic()
        remaining = job.deadline_abs - now
        if remaining <= 0:
            # it aged out while queued: answer without executing, so a
            # backlog burns down at queue speed, not at timeout speed
            metrics.inc("serve.deadline_misses")
            job.future.set_exception(GatewayError(
                ERR_DEADLINE, "command %r spent its %.3fs deadline queued"
                % (job.cmd, job.deadline_s), retryable=True))
            return
        with self._lock:
            self.busy_job = job
            self.busy_since = now
        # the deadline rides the session itself: every nub exchange the
        # command makes — fetches, controls, retries, reconnects — is
        # bounded by it, not just the event wait
        nub_session = getattr(self.target, "session", None)
        if nub_session is not None:
            nub_session.deadline_abs = job.deadline_abs
        result = error = None
        try:
            result = self.api.execute(job.cmd, job.args, timeout=remaining)
            self._note_target_health(result)
            metrics.inc("serve.commands")
            metrics.observe("serve.cmd_latency_us",
                            int((time.monotonic() - now) * 1e6))
        except ApiError as err:
            if err.code == ERR_TARGET_DIED:
                self._degrade(str(err), err.core_path)
            error = err
        except (TimeoutError, DeadlineExceeded):
            metrics.inc("serve.deadline_misses")
            error = GatewayError(
                ERR_DEADLINE, "command %r missed its %.3fs deadline"
                % (job.cmd, job.deadline_s), retryable=True)
        except Exception as err:
            # the contract: *typed*, whatever happened
            if not job.severed:
                metrics.inc("serve.internal_errors")
            error = GatewayError(ERR_INTERNAL, "command %r failed: %s"
                                 % (job.cmd, err))
        finally:
            if nub_session is not None:
                nub_session.deadline_abs = None
            with self._lock:
                self.busy_job = None
                self.busy_since = None
                self.commands_done += 1
            self.last_activity = time.monotonic()
        if job.severed:
            # whatever the command answered on the way out, the
            # session is gone
            error = GatewayError(ERR_SESSION_EXPIRED,
                                 "session %s was force-expired: %s"
                                 % (self.sid, self.state_reason))
        if error is None:
            job.future.set_result(result)
        else:
            job.future.set_exception(error)

    # -- death and degradation ----------------------------------------------

    def _note_target_health(self, result: dict) -> None:
        """A command can *succeed* and still report death (a ``continue``
        that returns a ``died``/``disconnect`` event): degrade then too."""
        event = result.get("event") if isinstance(result, dict) else None
        if event == "died":
            self._degrade(result.get("reason") or "target died",
                          result.get("core_path"))
        elif event == "disconnect":
            self._degrade("nub connection lost", None)

    def _degrade(self, reason: str, core_path: Optional[str]) -> None:
        """The nub is gone.  Join its thread if it has one (it may still
        be writing the core), then flip to read-only core mode when a
        core exists, plain ``dead`` otherwise."""
        with self._lock:
            if self.state in ("core", "dead", "expired", "closed"):
                return
        metrics = self.obs.metrics
        metrics.inc("serve.deaths")
        runner = getattr(self.target, "runner", None)
        if runner is not None:
            runner.join(2.0)  # let the dying nub finish its core write
        if core_path is None:
            core_path = getattr(self.target, "core_path", None)
        core_target = None
        if core_path is not None:
            try:
                core_target = self.ldb.open_core(core_path)
            except Exception:
                core_target = None  # unreadable/absent core: plain death
        with self._lock:
            if core_target is not None:
                self.state = "core"
                self.state_reason = ("target died (%s); serving its core "
                                     "read-only" % reason)
                self.target = core_target
            else:
                self.state = "dead"
                self.state_reason = reason
        if core_target is not None:
            metrics.inc("serve.degraded_to_core")
            self.obs.tracer.warn("serve.session_degraded", session=self.sid,
                                 core=core_path)
        else:
            self.obs.tracer.warn("serve.session_died", session=self.sid,
                                 reason=reason)

    # -- plumbing -----------------------------------------------------------

    def _sever_transport(self) -> None:
        target = self.target
        if target is None:
            return
        transport = getattr(target, "transport", None)
        # a plain close() does not wake a thread already blocked in
        # recv() on the same socket — shutdown() does, immediately
        sock = getattr(getattr(transport, "channel", None), "sock", None)
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already half-dead: exactly what we wanted
        try:
            transport.close()
        except Exception:
            pass  # severing an already-dead transport is a no-op

    def _drain_queue(self, error: GatewayError) -> None:
        while True:
            try:
                job = self.queue.get_nowait()
            except queue.Empty:
                return
            if job.future.set_running_or_notify_cancel():
                job.future.set_exception(error)
