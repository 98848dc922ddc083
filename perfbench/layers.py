"""Per-layer metrics of a traced run.

Every timed operation of the traced phase is split over the layers
(:meth:`~perfbench.spans.Timeline.attribute`); the per-layer figures
are that split plus counts taken at the same boundaries.  Counts are
per operation unless a name says otherwise, so runs of different
lengths compare.  A count covers the whole traced phase, so it is
divided by every operation the phase attempted, not only by the ones
whose latency is split (on ``interactive`` those are the open-loop
commands, while the phase also holds the closed loop).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Dict, List, Sequence

from .measure import Op, median, quantile
from .spans import (LAYERS, QUEUE_WAIT, SESSION_WAIT, UNATTRIBUTED,
                    CHUNK_ENCODE, Tracer)

#: (name, unit) of every per-layer metric, in report order
GENERIC = [(layer + suffix, unit) for layer in LAYERS
           for suffix, unit in ((".calls", "1/op"), (".share", "ratio"),
                                (".self_p50_ms", "ms"),
                                (".self_p99_ms", "ms"))]
SPECIFIC = [
    ("serve.queue_wait_p50_ms", "ms"), ("serve.queue_wait_p99_ms", "ms"),
    ("serve.gateway_self_ms", "ms"), ("serve.rejects", "count"),
    ("serve.deadline_misses", "count"),
    ("api.errors", "count"),
    ("ldb.frames_walked", "1/op"),
    ("memories.fetches", "1/op"), ("memories.cache_hit_ratio", "ratio"),
    ("memories.invalidations", "1/op"),
    ("session.round_trips", "1/op"), ("session.bytes_in", "B/op"),
    ("session.bytes_out", "B/op"), ("session.wait_ms", "ms"),
    ("session.retries", "count"),
    ("nub.busy_ms", "ms"),
    ("engine.instructions", "1/op"), ("engine.mips", "1e6/s"),
    ("engine.block_hit_ratio", "ratio"), ("engine.invalidations", "count"),
    ("timetravel.windows", "1/cmd"),
    ("timetravel.replayed_instructions", "1/cmd"),
    ("timetravel.useful_ratio", "ratio"), ("timetravel.checkpoints", "1/op"),
    ("trace.save_ms", "ms"), ("trace.saved_bytes", "B"),
    ("trace.spills_pulled", "1/save"), ("trace.open_ms", "ms"),
    ("trace.replay_checks", "1/op"),
    ("chunkio.encode_ms", "ms"), ("chunkio.decode_ms", "ms"),
    ("atomicio.write_ms", "ms"), ("atomicio.bytes", "B"),
    ("core.dump_ms", "ms"), ("core.load_ms", "ms"), ("core.bytes", "B"),
    ("triage.artifact_p50_ms", "ms"), ("triage.symbolize_ms", "ms"),
    ("triage.pool_overhead_ms", "ms"), ("triage.errors", "count"),
    ("cc.compile_s", "s"),
    ("unattributed_ratio", "ratio"), ("tracing_overhead_ratio", "ratio"),
]
PER_LAYER = GENERIC + SPECIFIC

REVERSE_KINDS = ("reverse_continue", "reverse_step")


def attribute_ops(tracer: Tracer, timeline, ops: Sequence[Op],
                  main_tid: int) -> List[Dict[str, float]]:
    """One bucket -> seconds split per operation; each adds up to the
    operation's wall time."""
    out = []
    for op in ops:
        if op.rid is None:
            parts = timeline.attribute(main_tid, op.t0, op.t1)
        else:
            parts = _attribute_request(timeline, tracer.requests.get(
                op.rid, {}), op.sent, op.t1)
        out.append(parts)
    return out


def _attribute_request(timeline, request: dict, sent: float,
                       received: float) -> Dict[str, float]:
    """A gateway command: the client's round trip, of which the gateway
    task covers a part, of which the session worker covers a part."""
    wall = received - sent
    gateway, job = request.get("gateway"), request.get("job")
    if gateway is None or job is None:
        return {UNATTRIBUTED: wall}
    tid, j0, j1 = job
    parts = defaultdict(float, timeline.attribute(tid, j0, j1))
    queued = max(0.0, j0 - request.get("submitted", j0))
    g0, g1 = gateway
    parts[QUEUE_WAIT] += queued
    parts["serve"] += max(0.0, (g1 - g0) - (j1 - j0) - queued)
    parts[UNATTRIBUTED] += max(0.0, wall - (g1 - g0))
    return dict(parts)


def _spans_named(tracer: Tracer, name: str, since: float) -> List[float]:
    return [t1 - t0 for _tid, t0, t1, _layer, span in tracer.spans
            if span == name and t0 >= since]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, timeline, ops: Sequence[Op],
                  attempted: int, counts: Dict[str, float], since: float,
                  overhead: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from a traced phase that began at
    ``since``: ``ops`` are the operations whose latency is split,
    ``attempted`` counts every operation of the phase, and ``counts``
    are the counts made during it."""
    splits = attribute_ops(tracer, timeline, ops,
                           threading.main_thread().ident)
    n = max(1, attempted)
    wall = sum(op.t1 - (op.sent if op.rid is not None else op.t0)
               for op in ops) or 1.0
    out: Dict[str, float] = {}
    span_calls = defaultdict(int)
    for _tid, t0, _t1, layer, _name in tracer.spans:
        if t0 >= since:
            span_calls[layer] += 1
    for layer in LAYERS:
        per_op = [s.get(layer, 0.0) * 1e3 for s in splits]
        busy = [v for v in per_op if v > 0]
        out[layer + ".calls"] = span_calls[layer] / n
        out[layer + ".share"] = sum(per_op) / 1e3 / wall
        out[layer + ".self_p50_ms"] = median(busy) if busy else 0.0
        out[layer + ".self_p99_ms"] = quantile(busy, 0.99) if busy else 0.0

    def c(name):
        return counts.get(name, 0.0)

    requests = [tracer.requests.get(op.rid, {}) for op in ops
                if op.rid is not None]
    queue = [(r["job"][1] - r["submitted"]) * 1e3 for r in requests
             if "job" in r and "submitted" in r]
    gateway_self = [(op.t1 - op.sent - r["execute"]) * 1e3
                    for op, r in zip([o for o in ops if o.rid is not None],
                                     requests) if "execute" in r]
    out["serve.queue_wait_p50_ms"] = median(queue) if queue else 0.0
    out["serve.queue_wait_p99_ms"] = quantile(queue, 0.99) if queue else 0.0
    out["serve.gateway_self_ms"] = (median(gateway_self)
                                    if gateway_self else 0.0)
    out["serve.rejects"] = sum(v for k, v in counts.items()
                               if k.startswith("m:serve.rejects"))
    out["serve.deadline_misses"] = c("m:serve.deadline_misses")
    out["api.errors"] = c("api.errors")
    out["ldb.frames_walked"] = c("ldb.frames_walked") / n
    out["memories.fetches"] = c("m:cache.fetch") / n
    out["memories.cache_hit_ratio"] = (c("m:cache.hit") / c("m:cache.fetch")
                                       if c("m:cache.fetch") else 0.0)
    out["memories.invalidations"] = c("m:cache.invalidate") / n
    out["session.round_trips"] = c("m:session.requests") / n
    out["session.bytes_in"] = c("m:session.bytes_in") / n
    out["session.bytes_out"] = c("m:session.bytes_out") / n
    out["session.wait_ms"] = _mean(s.get(SESSION_WAIT, 0.0) * 1e3
                                   for s in splits)
    out["session.retries"] = c("m:session.retries")
    out["nub.busy_ms"] = _mean(s.get("nub", 0.0) * 1e3 for s in splits)
    engine_time = sum(end - start for start, end, _l, _n
                      in timeline.layer_segments("engine")
                      if start >= since)
    out["engine.instructions"] = c("engine.instructions") / n
    out["engine.mips"] = (c("engine.instructions") / engine_time / 1e6
                          if engine_time else 0.0)
    hits, compiled = c("engine.block_hits"), c("engine.blocks_compiled")
    out["engine.block_hit_ratio"] = (hits / (hits + compiled)
                                     if hits + compiled else 0.0)
    out["engine.invalidations"] = c("engine.invalidations")
    reverse = max(1, sum(1 for op in ops if op.kind in REVERSE_KINDS))
    out["timetravel.windows"] = c("m:replay.windows") / reverse
    out["timetravel.replayed_instructions"] = (
        c("m:replay.instructions_replayed") / reverse)
    # each reverse command lands once; every other window was searched
    # in vain
    out["timetravel.useful_ratio"] = (reverse / c("m:replay.windows")
                                      if c("m:replay.windows") else 0.0)
    out["timetravel.checkpoints"] = c("m:replay.checkpoints") / n
    saves = _spans_named(tracer, "TraceWriter.save", since)
    out["trace.save_ms"] = _mean(saves) * 1e3
    out["trace.saved_bytes"] = (c("m:trace.saved_bytes") / len(saves)
                                if saves else 0.0)
    out["trace.spills_pulled"] = (c("TraceWriter._capture") / len(saves)
                                  if saves else 0.0)
    out["trace.open_ms"] = _mean(_spans_named(tracer, "Recording.load",
                                              since)) * 1e3
    out["trace.replay_checks"] = c("m:trace.replay.checks") / n
    encode = decode = 0.0
    for _tid, t0, t1, layer, name in tracer.spans:
        if layer == "chunkio" and t0 >= since:
            if name in CHUNK_ENCODE:
                encode += t1 - t0
            else:
                decode += t1 - t0
    out["chunkio.encode_ms"] = encode * 1e3 / n
    out["chunkio.decode_ms"] = decode * 1e3 / n
    writes = _spans_named(tracer, "atomic_write_bytes", since)
    out["atomicio.write_ms"] = _mean(writes) * 1e3
    out["atomicio.bytes"] = (c("atomicio.bytes") / len(writes)
                             if writes else 0.0)
    dumps = _spans_named(tracer, "CoreFile.dump", since)
    out["core.dump_ms"] = _mean(dumps) * 1e3
    out["core.load_ms"] = _mean(_spans_named(tracer, "CoreFile.load",
                                             since)) * 1e3
    out["core.bytes"] = c("core.bytes") / len(dumps) if dumps else 0.0
    artifacts = _spans_named(tracer, "triage_artifact", since)
    batches = _spans_named(tracer, "TriageEngine.triage_paths", since)
    out["triage.artifact_p50_ms"] = (median(artifacts) * 1e3
                                     if artifacts else 0.0)
    out["triage.symbolize_ms"] = _mean(
        tracer.durations.get("triage._symbolize", ())) * 1e3
    # batch wall time beyond the processor time the artifacts took on
    # their worker threads: what the pool costs over running serially
    cpu = tracer.durations.get("triage.artifact_cpu", ())
    out["triage.pool_overhead_ms"] = ((sum(batches) - sum(cpu)) * 1e3
                                      / len(batches) if batches else 0.0)
    out["triage.errors"] = c("m:triage.errors")
    out["cc.compile_s"] = _mean(_spans_named(tracer, "compile_and_link",
                                             0.0))
    out["unattributed_ratio"] = sum(s.get(UNATTRIBUTED, 0.0)
                                    for s in splits) / wall
    out["tracing_overhead_ratio"] = overhead
    return out


def verb_self_ms(timeline, since: float) -> Dict[str, float]:
    """Total self time per ``ldb``-layer entry point (the outermost
    verb of each ldb span), for the report."""
    totals: Dict[str, float] = defaultdict(float)
    for start, end, layer, name in timeline.layer_segments("ldb"):
        if start >= since:
            totals[name] += (end - start) * 1e3
    return dict(totals)
