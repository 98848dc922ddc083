"""The session manager: many supervised debug sessions, one service.

The manager is the asyncio half of the server: it admits sessions
(**global** backpressure — a full house answers ``ERR_BUSY`` rather
than queueing spawns), mints per-session auth tokens, bridges gateway
requests onto each session's worker thread, and runs the single
**supervision loop** that watches every session for hangs and idleness:

* a command stuck past its deadline plus ``hang_grace`` gets its
  session :meth:`~repro.serve.session.SessionWorker.force_expire`\\ d —
  the watchdog severs the transport so the stuck call unwinds and the
  client gets a typed answer, never a wedged connection;
* a session idle past its TTL is **reaped**: its nub is released, its
  queue drained with typed errors, and the slot freed.  Dead and
  core-mode sessions age out the same way, so a chaos run converges to
  zero sessions without operator help.

Everything observable lands in the shared metrics registry:
``serve.sessions`` gauges (per-state counts), ``serve.queue_depth``
and ``serve.cmd_latency_us`` histograms, ``serve.reaps`` /
``serve.deaths`` / ``serve.rejects.busy`` counters — the fleet
benchmark reads its p50/p99 straight from here.
"""

from __future__ import annotations

import asyncio
import hmac
import io
import math
import os
import random
import secrets
import shutil
import tempfile
import threading
from typing import Dict, Optional

from ..nub.faults import FaultSchedule
from ..nub.session import RetryPolicy
from .errors import (
    ERR_AUTH,
    ERR_BAD_REQUEST,
    ERR_BUSY,
    ERR_DEADLINE,
    ERR_NO_SESSION,
    ERR_SHUTTING_DOWN,
    ERR_SPAWN_FAILED,
    ERR_TRIAGE,
    GatewayError,
)
from .session import SessionWorker

#: session states that count as "serving" for the live gauge
ACTIVE_STATES = ("starting", "live", "core")


def _positive(value, name: str, code: str, kind=(int, float)):
    """A client's setting, if it is a finite number above zero (and of
    ``kind``); otherwise a typed refusal that names the field."""
    if isinstance(value, bool) or not isinstance(value, kind) \
            or not 0 < value < math.inf:
        raise GatewayError(code, "%r must be a %s above zero, got %r"
                           % (name, "whole number" if kind is int
                              else "finite number", value))
    return value


class SessionManager:
    """Hosts and supervises a fleet of debug sessions."""

    def __init__(self, *, max_sessions: int = 256, queue_limit: int = 8,
                 default_deadline: float = 5.0, hang_grace: float = 2.0,
                 idle_ttl: float = 300.0, reap_interval: float = 0.25,
                 spawn_deadline: float = 30.0, drain_deadline: float = 5.0,
                 scratch_dir: Optional[str] = None,
                 token_seed: Optional[int] = None, obs=None):
        if obs is None:
            from ..obs import Observability
            obs = Observability()
        self.obs = obs
        self.max_sessions = max_sessions
        self.queue_limit = queue_limit
        self.default_deadline = default_deadline
        self.hang_grace = hang_grace
        self.idle_ttl = idle_ttl
        self.reap_interval = reap_interval
        self.spawn_deadline = spawn_deadline
        self.drain_deadline = drain_deadline
        self._own_scratch = scratch_dir is None
        self.scratch_dir = scratch_dir or tempfile.mkdtemp(prefix="ldbserve-")
        #: deterministic tokens for tests; secrets otherwise
        self._token_rng = (random.Random(token_seed)
                          if token_seed is not None else None)
        self.sessions: Dict[str, SessionWorker] = {}
        self.tokens: Dict[str, str] = {}
        self._next_sid = 0
        self._lock = threading.Lock()
        self._exe_cache: Dict[tuple, object] = {}
        self._exe_lock = threading.Lock()
        self._closing = False
        self._supervisor_task: Optional[asyncio.Task] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "SessionManager":
        if self._supervisor_task is None:
            self._supervisor_task = asyncio.ensure_future(self._supervise())
        return self

    async def close(self) -> None:
        self._closing = True
        if self._supervisor_task is not None:
            self._supervisor_task.cancel()
            try:
                await self._supervisor_task
            except asyncio.CancelledError:
                pass
            self._supervisor_task = None
        with self._lock:
            workers = list(self.sessions.values())
            self.sessions.clear()
            self.tokens.clear()
        await self._drain_recordings(workers)
        loop = asyncio.get_event_loop()
        await asyncio.gather(*(loop.run_in_executor(None, w.close)
                               for w in workers))
        self._update_gauges()
        if self._own_scratch:
            shutil.rmtree(self.scratch_dir, ignore_errors=True)

    async def _drain_recordings(self, workers) -> None:
        """The graceful half of shutdown: before any transport is
        severed, every live session with an active recording writer
        gets one bounded chance to save — partial-tolerant, so a
        session whose nub already died still lands its materialized
        prefix as a salvageable file.  The drain deadline caps the
        whole pass; a save that cannot finish in time is abandoned
        (the atomic writer guarantees the target path is never torn
        either way)."""
        drains = [(w.sid, future) for w in workers
                  for future in (w.drain_recording(self.drain_deadline),)
                  if future is not None]
        if not drains:
            return
        metrics = self.obs.metrics
        self.obs.tracer.event("serve.drain", sessions=len(drains),
                              deadline=self.drain_deadline)
        wrapped = asyncio.gather(
            *(asyncio.wrap_future(future) for _sid, future in drains),
            return_exceptions=True)
        try:
            results = await asyncio.wait_for(
                wrapped, timeout=self.drain_deadline + 1.0)
        except asyncio.TimeoutError:
            metrics.inc("serve.drain_failures", len(drains))
            self.obs.tracer.warn("serve.drain_timeout",
                                 sessions=len(drains))
            return
        for (sid, _future), result in zip(drains, results):
            if isinstance(result, BaseException):
                metrics.inc("serve.drain_failures")
                self.obs.tracer.warn("serve.drain_failed", session=sid,
                                     reason=str(result))
            else:
                metrics.inc("serve.drain_saves")
                self.obs.tracer.event("serve.drain_saved", session=sid,
                                      path=result.get("path"),
                                      partial=result.get("partial"))

    # -- spawn/attach/detach ------------------------------------------------

    async def spawn(self, args: Optional[dict] = None) -> dict:
        """Start a hosted session: compile (cached), launch a nub, and
        put the whole stack under a supervised worker."""
        args = args or {}
        worker = self._admit(args)
        source = args.get("source")
        if not isinstance(source, str) or not source:
            self._forget(worker.sid)
            raise GatewayError(ERR_SPAWN_FAILED,
                               "spawn needs 'source' (C program text)")
        arch = args.get("arch", "rmips")
        filename = args.get("filename", "main.c")
        fault = args.get("fault")
        record = args.get("record")
        if record is not None and (not isinstance(record, str) or not record):
            self._forget(worker.sid)
            raise GatewayError(ERR_SPAWN_FAILED,
                               "spawn 'record' must be a save path")
        core_path = os.path.join(self.scratch_dir, "%s.core" % worker.sid)

        def factory():
            from ..ldb import Ldb
            from ..ldb.debugger import load_over_wire
            exe = self._compiled(arch, source, filename)
            ldb = Ldb(stdout=io.StringIO())
            if fault is None:
                target = ldb.load_program(exe, core_path=core_path)
            else:
                # a fault schedule acts on the nub's sends: a wire
                target = load_over_wire(ldb, exe, core_path=core_path,
                                        fault_schedule=FaultSchedule
                                        .from_spec(fault))
            if record is not None:
                ldb.start_recording(target, path=record)
            self._tune_session(target, worker)
            return ldb, target

        worker.factory = factory
        return await self._launch(worker)

    async def attach(self, args: Optional[dict] = None) -> dict:
        """Adopt an external nub waiting on the network — the fleet
        form of ``ldb --attach``, with the reconnect path wired up."""
        args = args or {}
        worker = self._admit(args)
        host = args.get("host", "127.0.0.1")
        port = args.get("port")
        table_ps = args.get("table_ps")
        if not isinstance(port, int) or not isinstance(table_ps, str):
            self._forget(worker.sid)
            raise GatewayError(ERR_SPAWN_FAILED,
                               "attach needs 'port' (int) and 'table_ps'")

        def factory():
            from ..ldb import Ldb
            ldb = Ldb(stdout=io.StringIO())
            target = ldb.attach(host, port, table_ps)
            target.core_path = args.get("core_path")
            self._tune_session(target, worker)
            return ldb, target

        worker.factory = factory
        return await self._launch(worker)

    async def replay(self, args: Optional[dict] = None) -> dict:
        """Host a replay session over a saved recording: no nub, no
        live process — the worker's debugger stack re-executes the
        file, so the whole command vocabulary works against a crash
        that happened elsewhere, ``continue``, ``reverse_continue``,
        ``reverse_step``, ``reverse_next`` and ``goto`` included."""
        args = args or {}
        worker = self._admit(args)
        path = args.get("path")
        if not isinstance(path, str) or not path:
            self._forget(worker.sid)
            raise GatewayError(ERR_SPAWN_FAILED,
                               "replay needs 'path' (a recording file)")

        def factory():
            from ..ldb import Ldb
            ldb = Ldb(stdout=io.StringIO())
            target = ldb.open_recording(path)
            self._tune_session(target, worker)
            return ldb, target

        worker.factory = factory
        return await self._launch(worker)

    async def triage(self, args: Optional[dict] = None) -> dict:
        """Batch-triage a corpus of crash artifacts server-side: the
        `triage` gateway op.  Unlike the session ops this holds no
        session — the batch is the unit of work — but it shares the
        server's registry, so ``stats`` exposes the ``triage.*``
        family next to ``serve.*``.  Batch-level failures answer with
        ``ERR_TRIAGE``; per-artifact failures are *results* (the
        report's typed error ledger), not errors.

        The batch runs serially on the server: this process hosts the
        session workers' and nubs' threads, so it must not fork a pool,
        and a remote client does not get to choose how many processes
        the server forks.  ``path`` is the only argument."""
        from ..triage import TriageEngine, TriageError
        args = args or {}
        unknown = sorted(set(args) - {"path"})
        if unknown:
            raise GatewayError(ERR_TRIAGE, "unknown triage args: %s"
                               % ", ".join(unknown))
        path = args.get("path")
        if not isinstance(path, str) or not path:
            raise GatewayError(ERR_TRIAGE,
                               "triage needs 'path' (a directory, "
                               "manifest, or artifact)")
        engine = TriageEngine(obs=self.obs)
        loop = asyncio.get_event_loop()
        try:
            report = await loop.run_in_executor(
                None, lambda: engine.triage(path))
        except TriageError as err:
            raise GatewayError(ERR_TRIAGE, str(err))
        return {"report": report.to_dict()}

    async def detach(self, sid: str, token: Optional[str]) -> dict:
        worker = self._authorized(sid, token)
        self._forget(sid)
        loop = asyncio.get_event_loop()
        await loop.run_in_executor(None, lambda: worker.close("detached"))
        self._update_gauges()
        return {"session": sid, "state": "closed"}

    # -- commands -----------------------------------------------------------

    async def command(self, sid: str, token: Optional[str], cmd: str,
                      args: Optional[dict] = None,
                      deadline: Optional[float] = None) -> dict:
        """Run one command on a session, under its deadline.  Always
        answers: a result, or a :class:`GatewayError` with a code."""
        worker = self._authorized(sid, token)
        deadline = self.default_deadline if deadline is None else \
            _positive(deadline, "deadline", ERR_BAD_REQUEST)
        future = worker.submit(cmd, args, deadline=deadline)
        self.obs.metrics.inc("serve.requests")
        try:
            # the worker (or the watchdog) almost always answers first;
            # the extra second is the last-resort bound that keeps the
            # gateway's promise when even the watchdog path is wedged
            return await asyncio.wait_for(
                asyncio.wrap_future(future),
                timeout=deadline + self.hang_grace + 1.0)
        except asyncio.TimeoutError:
            self.obs.metrics.inc("serve.deadline_misses")
            raise GatewayError(
                ERR_DEADLINE, "command %r on %s gave no answer within "
                "%.3fs + grace" % (cmd, sid, deadline), retryable=True)

    # -- introspection ------------------------------------------------------

    def list_sessions(self) -> list:
        with self._lock:
            workers = list(self.sessions.values())
        return [w.describe() for w in workers]

    def stats(self) -> dict:
        self._update_gauges()
        snapshot = self.obs.metrics.snapshot()
        return {name: value for name, value in snapshot.items()
                if name.startswith("serve.")}

    # -- internals ----------------------------------------------------------

    def _admit(self, args: dict) -> SessionWorker:
        """Global backpressure: a full server refuses new sessions now,
        with a retryable code — it does not queue them into the dark."""
        if self._closing:
            raise GatewayError(ERR_SHUTTING_DOWN, "server is shutting down")
        queue_limit = _positive(args.get("queue_limit", self.queue_limit),
                                "queue_limit", ERR_SPAWN_FAILED, int)
        deadline = float(_positive(args.get("deadline", self.default_deadline),
                                   "deadline", ERR_SPAWN_FAILED))
        idle_ttl = float(_positive(args.get("idle_ttl", self.idle_ttl),
                                   "idle_ttl", ERR_SPAWN_FAILED))
        with self._lock:
            if len(self.sessions) >= self.max_sessions:
                self.obs.metrics.inc("serve.rejects.sessions")
                raise GatewayError(
                    ERR_BUSY, "server is at its %d-session limit"
                    % self.max_sessions, retryable=True)
            sid = "s%04d" % self._next_sid
            self._next_sid += 1
            token = self._mint_token()
            worker = SessionWorker(
                sid, factory=None,
                queue_limit=queue_limit, default_deadline=deadline,
                idle_ttl=idle_ttl, obs=self.obs)
            self.sessions[sid] = worker
            self.tokens[sid] = token
        return worker

    async def _launch(self, worker: SessionWorker) -> dict:
        worker.start()
        try:
            await asyncio.wait_for(asyncio.wrap_future(worker.started),
                                   timeout=self.spawn_deadline)
        except asyncio.TimeoutError:
            self._forget(worker.sid)
            worker.force_expire("spawn missed its deadline")
            raise GatewayError(ERR_SPAWN_FAILED,
                               "session %s spawn missed its %.1fs deadline"
                               % (worker.sid, self.spawn_deadline))
        except GatewayError:
            self._forget(worker.sid)
            raise
        self._update_gauges()
        out = worker.describe()
        out["token"] = self.tokens.get(worker.sid)
        return out

    def _forget(self, sid: str) -> None:
        with self._lock:
            self.sessions.pop(sid, None)
            self.tokens.pop(sid, None)

    def _authorized(self, sid: str, token: Optional[str]) -> SessionWorker:
        with self._lock:
            worker = self.sessions.get(sid)
            expected = self.tokens.get(sid)
        if worker is None:
            raise GatewayError(ERR_NO_SESSION, "no session %r" % sid)
        if not isinstance(token, str) or expected is None \
                or not hmac.compare_digest(token, expected):
            self.obs.metrics.inc("serve.rejects.auth")
            raise GatewayError(ERR_AUTH, "bad token for session %s" % sid)
        return worker

    def _mint_token(self) -> str:
        if self._token_rng is not None:
            return "%032x" % self._token_rng.getrandbits(128)
        return secrets.token_hex(16)

    def _compiled(self, arch: str, source: str, filename: str):
        """Compile-once cache: a fleet spawning the same workload pays
        for one compile, not one per session."""
        key = (arch, filename, source)
        with self._exe_lock:
            exe = self._exe_cache.get(key)
        if exe is not None:
            return exe
        from ..cc.driver import compile_and_link
        exe = compile_and_link({filename: source}, arch, debug=True)
        with self._exe_lock:
            self._exe_cache.setdefault(key, exe)
            self.obs.metrics.inc("serve.compiles")
            return self._exe_cache[key]

    def _tune_session(self, target, worker: SessionWorker) -> None:
        """Hosted sessions answer under deadlines, so the per-attempt
        timeout and retry budget are sized to the session's deadline
        instead of the interactive defaults; the jittered policy is
        seeded per-session so chaos runs replay."""
        session = target.session
        if session is None:
            return
        session.reply_timeout = max(0.2, worker.default_deadline / 4.0)
        session.policy = RetryPolicy(max_attempts=5, base_delay=0.01,
                                     max_delay=0.1,
                                     seed=int(worker.sid[1:], 10))

    def _update_gauges(self) -> None:
        with self._lock:
            workers = list(self.sessions.values())
        counts: Dict[str, int] = {}
        for worker in workers:
            counts[worker.state] = counts.get(worker.state, 0) + 1
        metrics = self.obs.metrics
        metrics.set_gauge("serve.sessions",
                          sum(counts.get(s, 0) for s in ACTIVE_STATES))
        for state in ("starting", "live", "core", "dead", "expired"):
            metrics.set_gauge("serve.sessions.%s" % state,
                              counts.get(state, 0))

    # -- the supervision loop ----------------------------------------------

    async def _supervise(self) -> None:
        """Watchdog + reaper: runs for the server's whole life."""
        loop = asyncio.get_event_loop()
        while True:
            await asyncio.sleep(self.reap_interval)
            with self._lock:
                workers = list(self.sessions.items())
            for sid, worker in workers:
                if worker.hung_for(self.hang_grace) > 0:
                    job = worker.busy_job
                    worker.force_expire(
                        "command %r hung past its deadline"
                        % (job.cmd if job else "?"))
                if worker.state in ("expired", "dead", "core", "live") \
                        and worker.idle_for() > worker.idle_ttl \
                        and worker.busy_job is None \
                        and worker.queue.qsize() == 0:
                    self._forget(sid)
                    self.obs.metrics.inc("serve.reaps")
                    self.obs.tracer.event("serve.session_reaped",
                                          session=sid, state=worker.state)
                    await loop.run_in_executor(
                        None, lambda w=worker: w.close("idle-reaped"))
            self._update_gauges()
