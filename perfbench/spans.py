"""Layer spans for the traced run, taken from the benchmark's side.

The program under test carries no spans of its own, so the traced run
wraps the public entry points of each layer from here: a wrapper opens
a span when a call crosses into a layer from a different one (a layer
calling itself, such as ``Interp.run`` recursing, stays one span) and
counts every call.  Spans stay in memory until the run ends.

A span records its thread, layer, name, start and end.  Parents are
recovered afterwards: on one thread spans nest by time, and a thread
started by another one (the nub's, the expression server's, a triage
pool worker) is that thread's *partner*.  While a partner is busy the
thread that started it is blocked on it (every conversation here is
lockstep), so that time belongs to the partner's layer.  What is left
of a debugger thread's channel wait is framing and transfer
(``session.wait``).

:meth:`Timeline.attribute` splits any window of wall time over the
layers so that the parts add up to the whole; time no span covers is
``unattributed``.
"""

from __future__ import annotations

import bisect
import contextvars
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: the layers, named after the modules that make them up
LAYERS = ("serve", "api", "ldb", "exprserver", "postscript", "memories",
          "session", "nub", "engine", "timetravel", "trace", "chunkio",
          "atomicio", "core", "triage", "cc")

#: attribution buckets beyond the layers: a debugger thread waiting on
#: its channel with no partner busy, a command waiting in a session
#: queue, and time no span covers
SESSION_WAIT = "session.wait"
QUEUE_WAIT = "serve.wait"
UNATTRIBUTED = "unattributed"

#: (module, "Class.method" or "function", layer).  Module-level
#: functions are patched in every module that imported them by name.
SPAN_TARGETS = [
    ("repro.ldb.api", "DebugAPI.execute", "api"),
    ("repro.ldb.debugger", "Ldb.load_program", "ldb"),
    ("repro.ldb.debugger", "Ldb.open_core", "ldb"),
    ("repro.ldb.debugger", "Ldb.open_recording", "ldb"),
    ("repro.ldb.debugger", "Ldb.break_at_function", "ldb"),
    ("repro.ldb.debugger", "Ldb.break_at_line", "ldb"),
    ("repro.ldb.debugger", "Ldb.run_to_stop", "ldb"),
    ("repro.ldb.debugger", "Ldb.where_am_i", "ldb"),
    ("repro.ldb.debugger", "Ldb.print_variable", "ldb"),
    ("repro.ldb.debugger", "Ldb.evaluate", "ldb"),
    ("repro.ldb.debugger", "Ldb.enable_time_travel", "ldb"),
    ("repro.ldb.debugger", "Ldb.start_recording", "ldb"),
    ("repro.ldb.debugger", "Ldb.record_save", "ldb"),
    ("repro.ldb.debugger", "Ldb.reverse_continue", "ldb"),
    ("repro.ldb.debugger", "Ldb.reverse_step", "ldb"),
    ("repro.ldb.debugger", "Ldb.goto_icount", "ldb"),
    ("repro.ldb.events", "EventEngine.wait", "ldb"),
    ("repro.ldb.target", "Target.frames", "ldb"),
    ("repro.ldb.target", "Target.top_frame", "ldb"),
    ("repro.ldb.target", "Target.wait_for_stop", "ldb"),
    ("repro.ldb.target", "Target.cont", "ldb"),
    ("repro.ldb.target", "Target.resume_from_breakpoint", "ldb"),
    ("repro.ldb.target", "Target.current_icount", "ldb"),
    ("repro.ldb.target", "Target.take_checkpoint", "ldb"),
    ("repro.ldb.target", "Target.restore_checkpoint", "ldb"),
    ("repro.ldb.target", "Target.run_to_icount", "ldb"),
    ("repro.ldb.target", "Target.dump_core", "ldb"),
    ("repro.ldb.target", "Target.spill_state", "ldb"),
    ("repro.ldb.target", "Target.print_value", "ldb"),
    ("repro.ldb.target", "Target.kill", "ldb"),
    ("repro.ldb.exprserver", "ExpressionClient.evaluate", "exprserver"),
    ("repro.ldb.exprserver", "ExpressionServer.evaluate_one", "exprserver"),
    ("repro.postscript.interp", "Interp.run", "postscript"),
    ("repro.postscript.interp", "Interp.call", "postscript"),
    ("repro.ldb.memories", "CachingMemory.fetch_absolute", "memories"),
    ("repro.ldb.memories", "CachingMemory.store_absolute", "memories"),
    ("repro.ldb.memories", "CachingMemory.prefetch", "memories"),
    ("repro.ldb.memories", "CachingMemory.invalidate", "memories"),
    ("repro.ldb.memories", "WireMemory.fetch_absolute", "memories"),
    ("repro.ldb.memories", "WireMemory.store_absolute", "memories"),
    ("repro.ldb.memories", "WireMemory.fetch_block", "memories"),
    ("repro.nub.session", "NubSession.request", "session"),
    ("repro.nub.session", "NubSession.transact", "session"),
    ("repro.nub.session", "NubSession.control", "session"),
    ("repro.nub.session", "NubSession.recv_event", "session"),
    ("repro.nub.nub", "Nub._dispatch", "nub"),
    ("repro.timetravel.replay", "ReplayController.enable", "timetravel"),
    ("repro.timetravel.replay", "ReplayController.continue_forward",
     "timetravel"),
    ("repro.timetravel.replay", "ReplayController.reverse_continue",
     "timetravel"),
    ("repro.timetravel.replay", "ReplayController.reverse_step",
     "timetravel"),
    ("repro.timetravel.replay", "ReplayController.goto_icount",
     "timetravel"),
    ("repro.trace.writer", "TraceWriter.save", "trace"),
    ("repro.trace.writer", "TraceWriter._capture", "trace"),
    ("repro.trace.format", "Recording.load", "trace"),
    ("repro.trace.format", "Recording.dump", "trace"),
    ("repro.trace.replay", "ReplayTransport.transact", "trace"),
    ("repro.trace.replay", "ReplayTransport.control", "trace"),
    ("repro.trace.replay", "ReplayTransport.recv_event", "trace"),
    ("repro.trace.replay", "ReplayTransport.verify_here", "trace"),
    ("repro.machines.chunkio", "pack_container", "chunkio"),
    ("repro.machines.chunkio", "pack_block", "chunkio"),
    ("repro.machines.chunkio", "sparse_segments", "chunkio"),
    ("repro.machines.chunkio", "unpack_container", "chunkio"),
    ("repro.machines.chunkio", "salvage_container", "chunkio"),
    ("repro.machines.chunkio", "unpack_block", "chunkio"),
    ("repro.machines.atomicio", "atomic_write_bytes", "atomicio"),
    ("repro.machines.core", "CoreFile.dump", "core"),
    ("repro.machines.core", "CoreFile.load", "core"),
    ("repro.ldb.postmortem", "CoreTransport.transact", "core"),
    ("repro.ldb.postmortem", "CoreTransport.control", "core"),
    ("repro.ldb.postmortem", "CoreTransport.recv_event", "core"),
    ("repro.triage.engine", "TriageEngine.triage_paths", "triage"),
    ("repro.triage.engine", "triage_artifact", "triage"),
    ("repro.cc.driver", "compile_and_link", "cc"),
]

#: which wrapped names time an encode and which a decode
CHUNK_ENCODE = ("pack_container", "pack_block", "sparse_segments")

#: the request id of the gateway line being handled (asyncio task-local)
_RID: contextvars.ContextVar = contextvars.ContextVar("perfbench_rid",
                                                      default=None)


def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    if "." in path:
        owner_name, attr = path.split(".")
        return getattr(module, owner_name), attr
    return module, path


class Tracer:
    """Spans and counts for one traced run.

    :meth:`watch_threads` must run before the program starts any
    thread the trace should follow (it marks nub threads and records
    which thread started which); :meth:`install` and :meth:`uninstall`
    switch the span wrappers on and off around the traced phase."""

    def __init__(self):
        #: (thread id, start, end, layer, name)
        self.spans: List[Tuple[int, float, float, str, str]] = []
        #: (child thread id, parent thread id, start time)
        self.births: List[Tuple[int, int, float]] = []
        #: gateway request id -> timestamps of its trip through serve
        self.requests: Dict[object, dict] = defaultdict(dict)
        #: call durations kept whole, even when nested in their own layer
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()
        self._count_shards: List[Dict[str, float]] = []
        self._shard_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self._permanent: List[Tuple[object, str, object]] = []

    # -- counts ----------------------------------------------------------

    def _counts(self) -> Dict[str, float]:
        shard = getattr(self._local, "counts", None)
        if shard is None:
            shard = defaultdict(float)
            self._local.counts = shard
            with self._shard_lock:
                self._count_shards.append(shard)
        return shard

    def count(self, name: str, amount: float = 1) -> None:
        self._counts()[name] += amount

    def counts(self) -> Dict[str, float]:
        """Every count, summed over threads."""
        total: Dict[str, float] = defaultdict(float)
        with self._shard_lock:
            shards = list(self._count_shards)
        for shard in shards:
            for name, value in list(shard.items()):
                total[name] += value
        return total

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement, permanent=False):
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        (self._permanent if permanent else self._patches).append(
            (owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_function(self, module_name: str, name: str, replacement):
        """Patch a module-level function in its module and in every
        ``repro`` module that imported it by name."""
        import sys
        original = getattr(importlib.import_module(module_name), name)
        for mod_name, module in list(sys.modules.items()):
            if (mod_name.startswith("repro") and module is not None
                    and getattr(module, name, None) is original):
                self._patch(module, name, replacement)

    def watch_threads(self) -> None:
        """Record thread births and mark nub threads; stays on for the
        whole process, because threads outlive the traced phase."""
        tracer = self
        start = threading.Thread.start

        def tracked_start(thread, *args, **kwargs):
            start(thread, *args, **kwargs)
            tracer.births.append((thread.ident, threading.get_ident(),
                                  time.perf_counter()))

        self._patch(threading.Thread, "start", tracked_start, True)
        from repro.nub.nub import NubRunner
        run = NubRunner.__dict__["_run"]

        def nub_thread(runner):
            tracer._local.role = "nub"
            return run(runner)

        self._patch(NubRunner, "_run", nub_thread, True)

    def install(self) -> None:
        observers = self._observers()
        for module_name, path, layer in SPAN_TARGETS:
            owner, attr = _resolve(module_name, path)
            name = path.rsplit(".", 1)[-1]
            observe = observers.get(path)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._span(raw.__func__, layer,
                                                     path, observe))
                else:
                    wrapped = self._span(raw, layer, path, observe)
                self._patch(owner, attr, wrapped)
            else:
                self._patch_function(module_name, name,
                                     self._span(getattr(owner, attr), layer,
                                                path, observe))
        self._install_specials()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def close(self) -> None:
        self.uninstall()
        while self._permanent:
            owner, attr, original = self._permanent.pop()
            setattr(owner, attr, original)

    # -- wrappers --------------------------------------------------------

    def _span(self, fn, layer: str, name: str, observe=None):
        """Wrap ``fn`` in a span of ``layer``.  ``observe(args, kwargs)``,
        if given, runs before every call, nested or not, and answers a
        function that gets the call's result (``None`` if it raised) and
        its exception (``None`` if it returned)."""
        tracer = self
        local = self._local
        spans = self.spans
        clock = time.perf_counter
        ident = threading.get_ident

        def wrapper(*args, **kwargs):
            tracer.count(name)
            outer = getattr(local, "layer", None)
            if outer == layer and observe is None:
                return fn(*args, **kwargs)
            done = observe(args, kwargs) if observe is not None else None
            opened = outer != layer
            if opened:
                local.layer = layer
                t0 = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                if opened:
                    spans.append((ident(), t0, clock(), layer, name))
                    local.layer = outer
                if done is not None:
                    done(result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observers(self) -> Dict[str, object]:
        """What some span targets read off their calls beyond the span:
        path in :data:`SPAN_TARGETS` -> ``observe`` for :meth:`_span`."""
        from repro.ldb.api import ApiError

        tracer = self
        local = self._local
        clock = time.perf_counter

        def frames(args, kwargs):
            def done(result, error):
                if error is None:
                    tracer.count("ldb.frames_walked", len(result))
            return done

        def execute(args, kwargs):
            t0 = clock()

            def done(result, error):
                if isinstance(error, ApiError):
                    tracer.count("api.errors")
                    tracer.count("api.errors." + error.code)
                rid = getattr(local, "rid", None)
                if rid is not None:
                    tracer.requests[rid]["execute"] = clock() - t0
            return done

        def triage_artifact(args, kwargs):
            cpu = time.thread_time()

            def done(result, error):
                tracer.durations["triage.artifact_cpu"].append(
                    time.thread_time() - cpu)
            return done

        def atomic_write(args, kwargs):
            data = args[1] if len(args) > 1 else kwargs["data"]
            tracer.count("atomicio.bytes", len(data))
            return None

        return {"Target.frames": frames, "DebugAPI.execute": execute,
                "triage_artifact": triage_artifact,
                "atomic_write_bytes": atomic_write}

    def _install_specials(self) -> None:
        """Wrappers of calls outside :data:`SPAN_TARGETS`: channel
        traffic whose layer depends on the thread, counters read off
        results, and the serve layer's hops between threads."""
        from repro.machines.core import CoreFile
        from repro.machines.process import Process
        from repro.nub.channel import Channel
        from repro.obs.metrics import Metrics
        from repro.serve.gateway import Gateway
        from repro.serve.session import SessionWorker

        tracer = self
        local = self._local
        spans = self.spans
        clock = time.perf_counter
        ident = threading.get_ident

        inc = Metrics.__dict__["inc"]

        def metrics_inc(registry, name, amount=1):
            tracer.count("m:" + name, amount)
            return inc(registry, name, amount)

        self._patch(Metrics, "inc", metrics_inc)

        send = Channel.__dict__["send"]
        recv = Channel.__dict__["recv"]

        def channel_send(channel, msg):
            layer = "nub" if getattr(local, "role", None) == "nub" \
                else "session"
            outer = getattr(local, "layer", None)
            if outer == layer:
                return send(channel, msg)
            local.layer = layer
            t0 = clock()
            try:
                return send(channel, msg)
            finally:
                spans.append((ident(), t0, clock(), layer, "Channel.send"))
                local.layer = outer

        def channel_recv(channel, timeout=None):
            if getattr(local, "role", None) == "nub":
                return recv(channel, timeout)  # the nub idling for work
            outer = getattr(local, "layer", None)
            local.layer = SESSION_WAIT
            t0 = clock()
            try:
                return recv(channel, timeout)
            finally:
                spans.append((ident(), t0, clock(), SESSION_WAIT,
                              "Channel.recv"))
                local.layer = outer

        self._patch(Channel, "send", channel_send)
        self._patch(Channel, "recv", channel_recv)

        run_until = Process.__dict__["run_until_event"]

        def run_until_event(process, *args, **kwargs):
            cpu = process.cpu
            stats = cpu.engine.stats
            before = (cpu.icount, stats.hits, stats.compiled,
                      stats.invalidated)
            outer = getattr(local, "layer", None)
            local.layer = "engine"
            t0 = clock()
            try:
                return run_until(process, *args, **kwargs)
            finally:
                spans.append((ident(), t0, clock(), "engine",
                              "Process.run_until_event"))
                local.layer = outer
                after = (cpu.icount, stats.hits, stats.compiled,
                         stats.invalidated)
                for key, old, new in zip(
                        ("engine.instructions", "engine.block_hits",
                         "engine.blocks_compiled",
                         "engine.invalidations"), before, after):
                    tracer.count(key, new - old)

        self._patch(Process, "run_until_event", run_until_event)

        to_bytes = CoreFile.__dict__["to_bytes"]

        def core_to_bytes(core):
            raw = to_bytes(core)
            tracer.count("core.bytes", len(raw))
            return raw

        self._patch(CoreFile, "to_bytes", core_to_bytes)

        handle_line = Gateway.__dict__["_handle_line"]

        async def gateway_line(gateway, line, writer, write_lock):
            try:
                rid = json.loads(line).get("id")
            except (ValueError, AttributeError):
                rid = None
            _RID.set(rid)
            t0 = clock()
            try:
                return await handle_line(gateway, line, writer, write_lock)
            finally:
                if rid is not None:
                    tracer.requests[rid]["gateway"] = (t0, clock())

        self._patch(Gateway, "_handle_line", gateway_line)

        submit = SessionWorker.__dict__["submit"]

        def worker_submit(worker, cmd, args=None, deadline=None):
            future = submit(worker, cmd, args, deadline)
            rid = _RID.get()
            if rid is not None:
                future.perfbench_rid = rid
                tracer.requests[rid]["submitted"] = clock()
            return future

        self._patch(SessionWorker, "submit", worker_submit)

        serve_job = SessionWorker.__dict__["_serve_job"]

        def worker_serve_job(worker, job):
            rid = getattr(job.future, "perfbench_rid", None)
            local.rid = rid
            local.layer = "serve"
            t0 = clock()
            try:
                return serve_job(worker, job)
            finally:
                t1 = clock()
                spans.append((ident(), t0, t1, "serve",
                              "SessionWorker._serve_job"))
                local.layer = None
                local.rid = None
                if rid is not None:
                    tracer.requests[rid]["job"] = (ident(), t0, t1)

        self._patch(SessionWorker, "_serve_job", worker_serve_job)

        from repro.triage import engine as triage_engine
        symbolize = triage_engine._symbolize

        def triage_symbolize(*args, **kwargs):
            t0 = clock()
            try:
                return symbolize(*args, **kwargs)
            finally:
                tracer.durations["triage._symbolize"].append(clock() - t0)

        self._patch(triage_engine, "_symbolize", triage_symbolize)

    # -- results ---------------------------------------------------------

    def timeline(self) -> "Timeline":
        return Timeline(list(self.spans), list(self.births))


def _flatten(spans) -> List[Tuple[float, float, str, str]]:
    """Turn one thread's nested spans into disjoint self-time segments
    ``(start, end, layer, name)``: each instant goes to the innermost
    span open at that instant."""
    events = []
    for index, (t0, t1, layer, name) in enumerate(spans):
        events.append((t0, 1, -t1, index))
        events.append((t1, 0, -t0, index))
    events.sort()
    out = []
    stack: List[int] = []
    last = None
    for t, is_open, _order, index in events:
        if stack and last is not None and t > last:
            _t0, _t1, layer, name = spans[stack[-1]]
            out.append((last, t, layer, name))
        if is_open:
            stack.append(index)
        elif index in stack:
            stack.remove(index)
        last = t
    return out


class Timeline:
    """The recorded spans, flattened per thread, ready to attribute."""

    def __init__(self, spans, births):
        per_thread = defaultdict(list)
        for tid, t0, t1, layer, name in spans:
            per_thread[tid].append((t0, t1, layer, name))
        self.segments = {tid: _flatten(items)
                         for tid, items in per_thread.items()}
        self._starts = {tid: [seg[0] for seg in segs]
                        for tid, segs in self.segments.items()}
        #: parent -> [(child, alive from, alive until)]; a thread id is
        #: reused once its thread ends, so each birth owns the span of
        #: time up to the next birth of the same id
        lives = defaultdict(list)
        for child, parent, born in sorted(births, key=lambda b: b[2]):
            lives[child].append((born, parent))
        self.children = defaultdict(list)
        for child, entries in lives.items():
            for index, (born, parent) in enumerate(entries):
                until = (entries[index + 1][0] if index + 1 < len(entries)
                         else float("inf"))
                self.children[parent].append((child, born, until))

    def _clip(self, tid: int, a: float, b: float):
        segs = self.segments.get(tid)
        if not segs:
            return []
        index = max(0, bisect.bisect_left(self._starts[tid], a) - 1)
        out = []
        for start, end, layer, name in segs[index:]:
            if start >= b:
                break
            if end <= a:
                continue
            out.append((max(start, a), min(end, b), layer, name))
        return out

    def attribute(self, tid: int, a: float, b: float) -> Dict[str, float]:
        """Split the window ``[a, b]`` of thread ``tid`` over the layer
        buckets; the values add up to ``b - a``."""
        events = []
        for start, end, layer, _name in self._clip(tid, a, b):
            events.append((start, 1, 0, layer))
            events.append((end, -1, 0, layer))
        for child, born, until in self.children.get(tid, ()):
            lo, hi = max(a, born), min(b, until)
            if lo >= hi:
                continue
            for start, end, layer, _name in self._clip(child, lo, hi):
                events.append((start, 1, 1, layer))
                events.append((end, -1, 1, layer))
        events.sort(key=lambda e: (e[0], e[1]))
        out: Dict[str, float] = defaultdict(float)
        own: Optional[str] = None
        helpers: Dict[str, int] = defaultdict(int)
        busy = 0
        last = a
        for t, delta, is_partner, layer in events:
            span = t - last
            if span > 0:
                if busy:
                    for name, n in helpers.items():
                        if n:
                            out[name] += span * n / busy
                else:
                    out[own or UNATTRIBUTED] += span
            if is_partner:
                helpers[layer] += delta
                busy += delta
            else:
                own = layer if delta > 0 else None
            last = max(last, t)
        if b > last:
            out[own or UNATTRIBUTED] += b - last
        return dict(out)

    def layer_segments(self, layer: str):
        """Every self-time segment of ``layer``, on any thread."""
        for segs in self.segments.values():
            for seg in segs:
                if seg[2] == layer:
                    yield seg
