"""The JSON-line gateway: the fleet's wire surface.

One TCP connection carries any number of requests, one JSON object per
line, each tagged with a caller-chosen ``id``.  Replies carry the same
``id`` and may arrive **out of order** — every request is handled as
its own asyncio task, so a client blocked on a slow ``continue`` in
one session can still get instant answers for another session on the
same connection.  That per-request concurrency is a robustness
property, not an optimization: a hung session must never block an
unrelated one (the chaos suite asserts it).

The envelope (PROTOCOL.md Appendix A)::

    -> {"id": 7, "op": "command", "session": "s0003", "token": "...",
        "cmd": "continue", "args": {}, "deadline": 2.0}
    <- {"id": 7, "ok": true, "result": {"event": "breakpoint", ...}}
    <- {"id": 8, "ok": false, "error": {"code": "ERR_BUSY",
        "message": "...", "retryable": true}}

Every line in is answered by exactly one line out; malformed JSON is
answered too (``ERR_BAD_REQUEST``, ``id: null``).  The module also
ships the sync :class:`GatewayClient` (id-matched, out-of-order safe)
and :class:`DebugServer`, which runs the whole asyncio stack on a
background thread for blocking callers — the CLI, the tests, and the
fleet benchmark.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from typing import Optional

from ..ldb.api import ApiError
from .errors import ERR_BAD_REQUEST, ERR_INTERNAL, GatewayError
from .manager import SessionManager


class Gateway:
    """The asyncio TCP front end over a :class:`SessionManager`."""

    def __init__(self, manager: SessionManager,
                 host: str = "127.0.0.1", port: int = 0):
        self.manager = manager
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> "Gateway":
        await self.manager.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.manager.obs.tracer.event("serve.listening",
                                      host=self.host, port=self.port)
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.close()

    # -- per-connection loop ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        # one write lock per connection: reply lines from concurrent
        # request tasks must not interleave mid-line
        write_lock = asyncio.Lock()
        tasks = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                task = asyncio.ensure_future(
                    self._handle_line(line, writer, write_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except asyncio.CancelledError:
            pass  # server shutdown with the connection still open
        finally:
            for task in tasks:
                task.cancel()
            try:
                writer.close()
            except Exception:
                pass  # the peer may already be gone

    async def _handle_line(self, line: bytes, writer: asyncio.StreamWriter,
                           write_lock: asyncio.Lock) -> None:
        request_id = None
        try:
            try:
                request = json.loads(line.decode("utf-8", "replace"))
            except ValueError as err:
                raise GatewayError(ERR_BAD_REQUEST,
                                   "unparseable request line: %s" % err)
            if not isinstance(request, dict):
                raise GatewayError(ERR_BAD_REQUEST,
                                   "request must be a JSON object")
            request_id = request.get("id")
            result = await self._dispatch(request)
            reply = {"id": request_id, "ok": True, "result": result}
        except (GatewayError, ApiError) as err:
            reply = {"id": request_id, "ok": False, "error": err.to_dict()}
        except Exception as err:  # the gateway's own promise: always typed
            reply = {"id": request_id, "ok": False,
                     "error": {"code": ERR_INTERNAL, "message": str(err)}}
        async with write_lock:
            try:
                writer.write(json.dumps(reply).encode("utf-8") + b"\n")
                await writer.drain()
            except Exception:
                pass  # client hung up before its answer; nothing to do

    async def _dispatch(self, request: dict):
        op = request.get("op")
        manager = self.manager
        if op == "spawn":
            return await manager.spawn(request.get("args"))
        if op == "attach":
            return await manager.attach(request.get("args"))
        if op == "replay":
            return await manager.replay(request.get("args"))
        if op == "command":
            return await manager.command(
                request.get("session"), request.get("token"),
                request.get("cmd"), request.get("args"),
                deadline=request.get("deadline"))
        if op == "detach":
            return await manager.detach(request.get("session"),
                                        request.get("token"))
        if op == "triage":
            return await manager.triage(request.get("args"))
        if op == "sessions":
            return {"sessions": manager.list_sessions()}
        if op == "stats":
            return {"stats": manager.stats()}
        raise GatewayError(ERR_BAD_REQUEST, "unknown op %r (try: spawn, "
                           "attach, replay, triage, command, detach, "
                           "sessions, stats)" % op)


class RemoteError(Exception):
    """A typed error answered by the server, rehydrated client-side."""

    def __init__(self, error: dict):
        super().__init__("%s: %s" % (error.get("code"),
                                     error.get("message")))
        self.code = error.get("code")
        self.retryable = bool(error.get("retryable"))
        self.core_path = error.get("core_path")


class GatewayClient:
    """A blocking client for the JSON-line gateway.

    Replies are matched by ``id``, so the client stays correct even
    when the server answers out of order (which it will, whenever a
    fast request overtakes a slow one on the same connection).
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.settimeout(timeout)
        self._file = self.sock.makefile("rb")
        self._next_id = 0
        self._lock = threading.Lock()
        #: one reader at a time; a reader files other callers' replies
        #: in ``_pending`` before letting go, so a caller that checks
        #: ``_pending`` under this lock never waits for a line already read
        self._read_lock = threading.Lock()
        self._pending: dict = {}

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self.sock.close()

    def request(self, op: str, **fields) -> dict:
        """Send one request and block for *its* reply."""
        with self._lock:
            self._next_id += 1
            request_id = self._next_id
        payload = {"id": request_id, "op": op}
        payload.update(fields)
        self.sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        while True:
            with self._read_lock:
                reply = self._pending.pop(request_id, None)
                if reply is None:
                    line = self._file.readline()
                    if not line:
                        raise ConnectionError("server closed the connection")
                    reply = json.loads(line)
                    if reply.get("id") != request_id:
                        self._pending[reply.get("id")] = reply
                        continue
            if not reply.get("ok"):
                raise RemoteError(reply.get("error") or {})
            return reply.get("result")

    # -- convenience verbs --------------------------------------------------

    def spawn(self, **args) -> dict:
        return self.request("spawn", args=args)

    def attach(self, **args) -> dict:
        return self.request("attach", args=args)

    def replay(self, **args) -> dict:
        return self.request("replay", args=args)

    def command(self, session: str, token: str, cmd: str,
                args: Optional[dict] = None,
                deadline: Optional[float] = None) -> dict:
        return self.request("command", session=session, token=token,
                            cmd=cmd, args=args or {}, deadline=deadline)

    def detach(self, session: str, token: str) -> dict:
        return self.request("detach", session=session, token=token)

    def triage(self, path: str) -> dict:
        """Run a server-side (serial) triage batch; returns the report
        dict."""
        return self.request("triage", args={"path": path})["report"]

    def sessions(self) -> list:
        return self.request("sessions")["sessions"]

    def stats(self) -> dict:
        return self.request("stats")["stats"]


class DebugServer:
    """The whole server stack on a background thread, for blocking
    callers: build one, point :class:`GatewayClient`\\ s at it, close
    it.  The CLI's ``serve`` verb, the tests, and the fleet benchmark
    all run through this."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, **manager_kw):
        self.loop = asyncio.new_event_loop()
        self.manager = SessionManager(**manager_kw)
        self.gateway = Gateway(self.manager, host, port)
        self._started = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True,
                                       name="ldb-serve")
        self.thread.start()
        if not self._started.wait(30.0):
            raise RuntimeError("debug server failed to start")
        if self._start_error is not None:
            raise self._start_error

    _start_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.gateway.host

    @property
    def port(self) -> int:
        return self.gateway.port

    def client(self, timeout: float = 30.0) -> GatewayClient:
        return GatewayClient(self.host, self.port, timeout=timeout)

    def close(self) -> None:
        if not self.loop.is_closed():
            future = asyncio.run_coroutine_threadsafe(self._shutdown(),
                                                      self.loop)
            future.result(30.0)
            self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10.0)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self.gateway.start())
        except BaseException as err:
            self._start_error = err
            self._started.set()
            return
        self._started.set()
        self.loop.run_forever()
        self.loop.close()

    async def _shutdown(self) -> None:
        await self.gateway.close()
        # reap connection-handler tasks still parked on dead sockets
        tasks = [task for task in asyncio.all_tasks(self.loop)
                 if task is not asyncio.current_task()]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)


def main(argv=None) -> int:
    """``python -m repro.serve [port]`` — serve until interrupted.

    Both SIGTERM (the supervisor's polite kill) and SIGINT run the
    same graceful path: the manager drains live recordings to disk
    (bounded by its drain deadline) before any transport is severed,
    so an operator restart never costs a session its trace."""
    import signal
    import sys
    argv = sys.argv[1:] if argv is None else argv
    port = int(argv[0]) if argv else 4711
    server = DebugServer(port=port)
    print("ldb session server listening on %s:%d" % (server.host,
                                                     server.port))
    stop = threading.Event()

    def _terminate(signum, frame):
        stop.set()

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except (ValueError, OSError):
        pass  # not the main thread (embedded): SIGTERM stays default
    try:
        while not stop.is_set():
            server.thread.join(1.0)
            if not server.thread.is_alive():
                break
    except KeyboardInterrupt:
        pass
    print("ldb session server draining and shutting down")
    server.close()
    return 0
