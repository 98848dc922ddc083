"""Unified observability for the debug stack (tracing + metrics).

Hanson's follow-up (MSR-TR-99-4) argues the debugger/nub interface
should be a small, precisely specified abstraction; measuring one
requires instrumentation that is part of the system, not a pile of
per-module counters.  This package is that substrate:

* :class:`~repro.obs.metrics.Metrics` — a registry of named counters,
  gauges, and histograms with one ``snapshot()``/``diff()`` reading
  API, shared by the session, the memory DAG, the replay controller,
  the nub, and every benchmark;
* :class:`~repro.obs.trace.Tracer` — nested spans and structured
  events in a bounded ring, dumpable as deterministic JSONL;
* :func:`~repro.obs.wiretap.describe` — decoded wire frames for
  human-readable, diffable protocol transcripts.

:class:`Observability` bundles one of each; an :class:`~repro.ldb.Ldb`
owns one and threads it through every target it creates, so a whole
multi-target session reads from a single registry and one trace.
"""

from __future__ import annotations

from typing import Optional

from .metrics import Counter, Gauge, Histogram, Metrics
from .trace import NONDETERMINISTIC_FIELDS, Span, Tracer
from .wiretap import describe, opcode_name


class Observability:
    """One metrics registry + one tracer, shared down a debug stack."""

    def __init__(self, metrics: Optional[Metrics] = None,
                 tracer: Optional[Tracer] = None):
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer if tracer is not None else Tracer()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "NONDETERMINISTIC_FIELDS",
    "Observability",
    "Span",
    "Tracer",
    "describe",
    "opcode_name",
]
