"""Structured tracing: nested spans and point events in a ring buffer.

The paper's Sec. 7 evaluation was done by hand-instrumenting ldb; this
module makes that instrumentation a permanent, queryable part of the
system.  A :class:`Tracer` records two kinds of entries:

* **events** — one structured record (a flat dict) for a moment in
  time: a decoded wire frame, a target stop, a reconnect warning;
* **spans** — a named region with nesting (``reverse_continue`` →
  ``replay.scan`` → per-chunk wire traffic), recorded as ``begin`` and
  ``end`` entries carrying the nesting depth, so the transcript reads
  like an indented call tree.

Records land in a bounded in-memory ring (old entries fall off) and,
optionally, stream to a JSONL sink as they happen.  Two invariants keep
the tracer honest:

* **behaviour-neutral** — recording never touches the target, sends
  wire messages, or changes control flow; a traced session is
  byte-identical to an untraced one (asserted by a property test across
  all five ISAs);
* **deterministic transcripts** — every record carries a logical
  sequence number; wall-clock fields (``t_us``, ``dur_us``) are
  stripped by the default :meth:`Tracer.dump`, so two runs of the same
  scripted session produce identical, diffable JSONL.

Warning-level events are recorded even while tracing is off: a
reconnect or a checkpoint restore is operator-relevant whether or not
anyone asked for a flight recording.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

#: wall-clock fields stripped from deterministic dumps
NONDETERMINISTIC_FIELDS = ("t_us", "dur_us", "latency_us")

LEVELS = ("debug", "info", "warning", "error")


class Span:
    """A live traced region; use via ``with tracer.span(...)``."""

    __slots__ = ("tracer", "name", "fields", "depth", "_t0", "_closed")

    def __init__(self, tracer: "Tracer", name: str, fields: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.fields = fields
        self.depth = 0
        self._t0 = 0.0
        self._closed = False

    def note(self, **fields) -> None:
        """Attach late fields, reported on the span's ``end`` record."""
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        self.depth = self.tracer._enter_span(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._closed:
            return
        self._closed = True
        dur_us = int((time.perf_counter() - self._t0) * 1e6)
        self.tracer._exit_span(self, dur_us, error=exc is not None)


class _NullSpan:
    """The disabled-tracer span: free to enter, records nothing."""

    __slots__ = ()

    def note(self, **fields) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Records spans and events into a bounded ring, optionally
    streaming JSONL to a sink.

    The ring and sequence counter are shared across threads (the nub
    serve loop traces from its own thread); the span *stack* is
    per-thread, so nesting depths never interleave.
    """

    def __init__(self, capacity: int = 8192):
        self.capacity = capacity
        self.enabled = False
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._local = threading.local()
        self._t0 = time.perf_counter()
        #: an optional file-like object receiving one JSON line per
        #: record as it is recorded (the streaming mode of `trace on`)
        self.sink = None

    # -- switching ---------------------------------------------------------

    def enable(self, sink=None) -> None:
        self.enabled = True
        if sink is not None:
            self.sink = sink

    def disable(self) -> None:
        self.enabled = False
        self.sink = None

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._seq = 0

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **fields):
        """A nested traced region: ``with tracer.span("reverse_continue"):``.

        Returns a no-op span while tracing is off, so instrumented code
        pays one attribute check and nothing else.
        """
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, fields)

    def event(self, name: str, level: str = "info", **fields) -> None:
        """Record a point event.  ``warning``/``error`` events are
        recorded even while tracing is disabled."""
        if not self.enabled and level not in ("warning", "error"):
            return
        record = {"ev": "event", "name": name, "level": level,
                  "depth": self._depth()}
        record.update(fields)
        self._record(record)

    def warn(self, name: str, **fields) -> None:
        self.event(name, level="warning", **fields)

    # -- span plumbing -----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _depth(self) -> int:
        return len(self._stack())

    def _enter_span(self, span: Span) -> int:
        stack = self._stack()
        depth = len(stack)
        stack.append(span)
        record = {"ev": "begin", "name": span.name, "depth": depth}
        record.update(span.fields)
        self._record(record)
        return depth

    def _exit_span(self, span: Span, dur_us: int, error: bool) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        record = {"ev": "end", "name": span.name, "depth": span.depth}
        record.update(span.fields)
        if error:
            record["error"] = True
        record["dur_us"] = dur_us
        self._record(record)

    def _record(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            record["t_us"] = int((time.perf_counter() - self._t0) * 1e6)
            self._ring.append(record)
            sink = self.sink
        if sink is not None:
            try:
                sink.write(json.dumps(record, sort_keys=True) + "\n")
            except (OSError, ValueError):
                self.sink = None  # a dead sink never breaks the session

    # -- reading -----------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """A snapshot of the ring, oldest first."""
        with self._lock:
            return list(self._ring)

    def find(self, name: str, level: Optional[str] = None) -> List[Dict[str, Any]]:
        """Every recorded entry with the given name (and level)."""
        return [r for r in self.records()
                if r.get("name") == name
                and (level is None or r.get("level") == level)]

    def dump(self, file=None, deterministic: bool = True) -> str:
        """The ring as JSONL, one record per line, oldest first.

        The default strips wall-clock fields (:data:`NONDETERMINISTIC_FIELDS`)
        so two runs of the same scripted session diff clean; pass
        ``deterministic=False`` to keep timings.  Writes to ``file``
        when given and always returns the text.
        """
        lines = []
        for record in self.records():
            if deterministic:
                record = {k: v for k, v in record.items()
                          if k not in NONDETERMINISTIC_FIELDS}
            lines.append(json.dumps(record, sort_keys=True))
        text = "\n".join(lines) + ("\n" if lines else "")
        if file is not None:
            file.write(text)
        return text
