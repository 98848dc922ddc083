"""The ``interactive`` workload: five gateway sessions, one per ISA.

Each session debugs a seeded forever-looping unit
(:func:`~perfbench.programs.interactive_unit`) through the JSON-line
gateway of an in-process :class:`~repro.serve.DebugServer`.  All load
comes from one asyncio connection on the main thread.  The command
script cycles through ``continue`` to the breakpoint, ``backtrace``,
``print`` of an expression, ``where``, ``registers``, ``set`` and
``print`` of the variable just set; every answer is checked against
what the generator knows.

Two phases follow the set-up, taking turns in ``PAIR``-second pairs of
segments so that both see the same minutes of the host:

* open loop: commands are due on a fixed schedule (``OPEN_RATE`` in
  total, evenly staggered over the sessions) whether or not earlier
  ones have answered; each is timed from its due time;
* closed loop: each session keeps one command outstanding, which
  gives the saturation throughput.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from typing import Dict, List, Optional

from .measure import Ledger, Op, kind_p50_ms, median, quantile
from .programs import ALL_ARCHES, interactive_unit, interactive_value

#: offered load of the open-loop phase in commands per second.  A 2-core
#: shared VM saturated at 450-650 cmd/s when quiet and at half that when
#: its neighbours were busy; 75 stays under half of the busy figure, so
#: a neighbour's load is not multiplied by queueing
OPEN_RATE = 75.0
#: share of the measuring time given to the open-loop phase
OPEN_SHARE = 0.5
#: length of one open-loop segment plus the closed-loop one after it
PAIR = 5.0
#: per-command deadline handed to the server; a miss is a failure
DEADLINE = 20.0
#: the interactive latency limit the tail is judged against
LATENCY_LIMIT_MS = 200.0
#: whole set-ups per run; set-up time is their median
SETUP_REPS = 3
#: closed-loop sub-window over which commands per processor second are
#: sampled
SUB_WINDOW = 1.0

KINDS = ("continue", "backtrace", "print_expr", "where", "registers",
         "set", "print_var")


class _Script:
    """One session's command stream and the model of its target: the
    hit count and the value last written to ``mark``."""

    def __init__(self, unit: dict, rng: random.Random):
        self.unit = unit
        self.rng = rng
        self.hit = 0
        self.mark = 0
        self.step = 0

    def first(self):
        """The set-up commands: plant, first stop, first backtrace, first
        print and one of every other verb — the cold path that belongs
        in set-up time, so the timed phases start warm."""
        plant = self._make("break", {"at": self.unit["hot"]},
                           lambda r: bool(r.get("addresses")))
        return [plant] + [self.next() for _ in KINDS]

    def next(self):
        kind = KINDS[self.step % len(KINDS)]
        self.step += 1
        return {"continue": self._continue, "backtrace": self._backtrace,
                "print_expr": self._print_expr, "where": self._where,
                "registers": self._registers, "set": self._set,
                "print_var": self._print_var}[kind]()

    def _make(self, kind, args, check, cmd=None):
        return kind, cmd or kind, args, check

    def _continue(self):
        self.hit += 1
        hot = self.unit["hot"]
        return self._make(
            "continue", {},
            lambda r: r.get("event") == "breakpoint"
            and (r.get("where") or {}).get("proc") == hot)

    def _backtrace(self):
        chain = self.unit["chain"]
        return self._make("backtrace", {}, lambda r: [
            f["proc"] for f in r.get("frames", ())] == chain)

    def _print_expr(self):
        want = interactive_value(self.unit, self.hit)
        return self._make("print_expr", {"expr": "a * 3 + b"},
                          lambda r: r.get("value") == want, cmd="print")

    def _where(self):
        hot = self.unit["hot"]
        return self._make("where", {}, lambda r: r.get("proc") == hot)

    def _registers(self):
        return self._make("registers", {}, lambda r: len(
            r.get("registers", ())) >= 8 and all(
                isinstance(v, int) for v in r["registers"].values()))

    def _set(self):
        self.mark = self.rng.randrange(1, 1 << 20)
        want = self.mark
        return self._make("set", {"expr": "mark = %d" % want},
                          lambda r: r.get("value") == want)

    def _print_var(self):
        want = str(self.mark)
        return self._make("print_var", {"expr": "mark"},
                          lambda r: r.get("text") == want, cmd="print")


class _Conn:
    """One JSON-line connection; replies are matched to requests by id."""

    def __init__(self):
        self.reader = self.writer = None
        self.pending: Dict[int, asyncio.Future] = {}
        self.next_id = 0
        self._task: Optional[asyncio.Task] = None

    async def open(self, host: str, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(host, port)
        self._task = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            now = time.perf_counter()
            reply = json.loads(line)
            future = self.pending.pop(reply.get("id"), None)
            if future is not None and not future.done():
                future.set_result((reply, now))
        for future in self.pending.values():
            if not future.done():
                future.set_exception(ConnectionError("gateway closed"))

    def send(self, op: str, **fields):
        """Write one request now; answers (id, future of (reply, t))."""
        self.next_id += 1
        rid = self.next_id
        future = asyncio.get_running_loop().create_future()
        self.pending[rid] = future
        payload = dict(fields, id=rid, op=op)
        self.writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        return rid, future

    async def call(self, op: str, **fields) -> dict:
        _rid, future = self.send(op, **fields)
        reply, _t = await future
        if not reply.get("ok"):
            raise RuntimeError("%s failed: %s" % (op, reply.get("error")))
        return reply["result"]

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        if self._task is not None:
            await asyncio.wait([self._task], timeout=5.0)


class _Session:
    def __init__(self, arch: str, unit: dict, seed: int):
        self.arch = arch
        self.script = _Script(unit, random.Random(seed))
        self.sid = self.token = None
        self.unit = unit


class Interactive:
    """Gateway sessions under open and closed loop; see the module."""

    #: the work is spread over 18 threads on both cores, partly in the
    #: kernel; between runs a command's processor time moved less than
    #: half as much as the host reference, so dividing by it added noise
    HOST_BOUND = False

    def __init__(self, seed: int):
        self.seed = seed
        self.server = None
        self.loop = asyncio.new_event_loop()
        self.conn = _Conn()
        self.sessions: List[_Session] = []
        self.lateness: List[float] = []
        #: closed-loop commands per wall second, per phase run, and per
        #: processor second, per sub-window
        self.saturation: List[float] = []
        self.cpu_rates: List[float] = []
        #: open-loop processor seconds and commands, per phase run
        self.open_cpu: List[float] = []
        self.open_count = 0

    # -- driving the loop ------------------------------------------------

    def _run(self, coro):
        return self.loop.run_until_complete(coro)

    def setup(self, ledger: Ledger) -> None:
        from repro.serve import DebugServer
        self.server = DebugServer(max_sessions=16, default_deadline=DEADLINE,
                                  idle_ttl=3600.0, token_seed=self.seed)
        self._run(self.conn.open(self.server.host, self.server.port))
        # the whole five-session set-up, SETUP_REPS times over fresh
        # units (the server caches compiles by source); the sessions of
        # the last round are the ones measured
        for rep in range(SETUP_REPS):
            if self.sessions:
                self._detach()
            with ledger.timed_setup():
                for index, arch in enumerate(ALL_ARCHES):
                    seed = (self.seed * SETUP_REPS + rep) * 31 + index
                    session = _Session(arch, interactive_unit(seed), seed)
                    self.sessions.append(session)
                    self._run(self._set_up(ledger, session))

    def _detach(self) -> None:
        for session in self.sessions:
            if session.sid is not None:
                try:
                    self._run(self.conn.call("detach", session=session.sid,
                                             token=session.token))
                except (RuntimeError, ConnectionError):
                    pass  # tearing down: a refused detach changes nothing
        self.sessions = []

    async def _set_up(self, ledger: Ledger, session: _Session) -> None:
        info = await self.conn.call("spawn", args={
            "source": session.unit["source"], "arch": session.arch})
        session.sid, session.token = info["session"], info["token"]
        for kind, cmd, args, check in session.script.first():
            ledger.attempted += 1
            _rid, future = self._command(session, cmd, args)
            reply, _t = await future
            if not reply.get("ok") or not check(reply["result"]):
                ledger.fail(None, "setup %s/%s: %r" % (kind, session.arch,
                                                       reply))

    def _command(self, session: _Session, cmd: str, args: dict):
        return self.conn.send("command", session=session.sid,
                              token=session.token, cmd=cmd, args=args,
                              deadline=DEADLINE)

    async def _finish(self, ledger: Ledger, session: _Session, item,
                      due: float) -> None:
        kind, cmd, args, check = item
        sent = time.perf_counter()
        rid, future = self._command(session, cmd, args)
        op = Op(kind, session.arch, ledger.phase)
        op.t0 = due
        op.rid = rid
        op.sent = sent
        try:
            reply, op.t1 = await future
        except ConnectionError as err:
            op.t1 = time.perf_counter()
            reply = {"ok": False, "error": str(err)}
        ledger.add(op)
        if not reply.get("ok"):
            ledger.fail(op, "%s/%s: %s" % (kind, session.arch,
                                           reply.get("error")))
        elif not check(reply["result"]):
            ledger.fail(op, "%s/%s: wrong answer %r" % (
                kind, session.arch, reply["result"]))

    # -- the two phases --------------------------------------------------

    async def _open_loop(self, ledger: Ledger, seconds: float) -> None:
        count = len(self.sessions)
        period = count / OPEN_RATE
        start = time.perf_counter() + 0.05
        end = start + seconds
        pending = []

        async def sender(index: int, session: _Session):
            due = start + period * index / count
            while due < end:
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                self.lateness.append(time.perf_counter() - due)
                pending.append(asyncio.ensure_future(self._finish(
                    ledger, session, session.script.next(), due)))
                due += period

        await asyncio.gather(*(sender(i, s)
                               for i, s in enumerate(self.sessions)))
        await asyncio.gather(*pending)

    async def _closed_loop(self, ledger: Ledger, seconds: float) -> None:
        cpu = time.process_time()
        start = time.perf_counter()
        end = start + seconds
        done = [0]
        sampled = len(self.cpu_rates)

        async def client(session: _Session):
            while time.perf_counter() < end:
                now = time.perf_counter()
                await self._finish(ledger, session, session.script.next(),
                                   now)
                done[0] += 1

        async def sampler():
            # commands per processor second over each sub-window; their
            # median shrugs off a window the host's neighbours disturbed
            last = (time.process_time(), 0)
            while time.perf_counter() + SUB_WINDOW <= end:
                await asyncio.sleep(SUB_WINDOW)
                now = (time.process_time(), done[0])
                if now[0] > last[0]:
                    self.cpu_rates.append((now[1] - last[1])
                                          / (now[0] - last[0]))
                last = now

        await asyncio.gather(sampler(),
                             *(client(s) for s in self.sessions))
        self.saturation.append(done[0] / (time.perf_counter() - start))
        if len(self.cpu_rates) == sampled:  # a phase shorter than a window
            self.cpu_rates.append(done[0] / (time.process_time() - cpu))

    def run(self, ledger: Ledger, seconds: float) -> None:
        pairs = max(1, round(seconds / PAIR))
        for _ in range(pairs):
            ledger.phase = "open"
            cpu, count = time.process_time(), len(ledger.ops)
            self._run(self._open_loop(ledger, seconds / pairs * OPEN_SHARE))
            self.open_cpu.append(time.process_time() - cpu)
            self.open_count += len(ledger.ops) - count
            ledger.phase = "closed"
            self._run(self._closed_loop(ledger,
                                        seconds / pairs * (1 - OPEN_SHARE)))

    def close(self) -> None:
        try:
            self._detach()
            self._run(self.conn.close())
        finally:
            if self.server is not None:
                self.server.close()
            self.loop.close()

    # -- results ---------------------------------------------------------

    def latency_ops(self, ledger: Ledger):
        return ledger.good("open")

    def cell_key(self, op):
        return op.kind  # the open-loop mix is fixed, so pool the ISAs

    def ops_per_s(self, ledger: Ledger) -> float:
        return median(self.saturation)

    def op_cpu_ms(self, ledger: Ledger) -> float:
        """Processor time per open-loop command (commands overlap, so
        the phase's total over its count)."""
        return sum(self.open_cpu) / self.open_count * 1e3

    def ops_per_cpu_s(self, ledger: Ledger) -> float:
        """Saturation throughput in processor time: closed-loop commands
        per processor second, the median over ``SUB_WINDOW`` windows."""
        return median(self.cpu_rates)

    def figures(self, ledger: Ledger) -> None:
        ops = ledger.good("open")
        if not ops:
            return
        values = [op.seconds for op in ops]
        ledger.figure("cmd_p50_ms", median(values) * 1e3, "ms",
                      "open loop at %.0f cmd/s, n=%d" % (OPEN_RATE,
                                                         len(values)))
        over = sum(1 for v in values if v * 1e3 > LATENCY_LIMIT_MS)
        ledger.figure("cmd_p99_ms", quantile(values, 0.99) * 1e3, "ms",
                      "n=%d, %d beyond; %d over the %.0f ms limit"
                      % (len(values), int(len(values) * 0.01), over,
                         LATENCY_LIMIT_MS))
        ledger.figure("cmd_per_s", median(self.saturation), "1/s",
                      "closed loop, %d sessions" % len(self.sessions))
        for name, kind in (("continue_p50_ms", "continue"),
                           ("bt_p50_ms", "backtrace"),
                           ("print_p50_ms", "print_expr")):
            value = kind_p50_ms(ops, kind)
            if value is not None:
                ledger.figure(name, value, "ms", "open loop")
        if self.lateness:
            ledger.figure("generator_late_p99_ms",
                          quantile(self.lateness, 0.99) * 1e3, "ms",
                          "how late the open-loop sender ran")
