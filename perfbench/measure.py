"""What one workload run produced, and the statistics over it.

A :class:`Ledger` collects the timed operations (kind, cell, start,
end, processor time), the set-up samples, and the correctness verdicts;
``attempted`` counts operations tried and ``failed`` those that raised
or gave a wrong answer.

Processor time is the whole process's (every thread: client, gateway,
session workers, nubs, pools), so it is the work an operation costs.
On a shared virtual machine it repeats where wall-clock time does not:
time the machine gives to its neighbours counts in neither.  It still
drifts with how hard the neighbours press on the shared cores, so a
ledger can carry a :class:`~perfbench.hostspeed.HostSpeed` for the
set-ups and one for the run, topped up between operations.
"""

from __future__ import annotations

import gc
import math
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .hostspeed import HostSpeed


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 <= q <= 1)."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no values")
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values)


def geomean(values: Sequence[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


#: the tail percentile every workload reports, taken per operation kind
#: over kinds with at least ``TAIL_MIN`` samples, so ten or more lie
#: beyond it
TAIL_Q = 0.90
TAIL_MIN = 100


class OpFailed(Exception):
    """An operation raised or answered wrongly; the workload abandons
    the script it was in and carries on with the next one."""


class Op:
    __slots__ = ("kind", "cell", "t0", "t1", "cpu", "ok", "phase", "rid",
                 "sent")

    def __init__(self, kind: str, cell: str, phase: str):
        self.kind = kind
        self.cell = cell
        self.phase = phase
        self.t0 = self.t1 = 0.0
        #: processor seconds the process spent during the operation
        self.cpu = None
        self.ok = True
        #: gateway request id and send time (gateway operations only)
        self.rid = None
        self.sent = None

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class Ledger:
    def __init__(self):
        self.ops: List[Op] = []
        #: processor and wall seconds of each whole set-up
        self.setup: List[float] = []
        self.setup_wall: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: figures a workload reports beside the common metrics
        self.figures: Dict[str, Tuple[float, str, str]] = {}
        self.phase = "main"
        #: host speed beside the set-ups and beside the run, for a
        #: workload whose times are divided by it (None: untracked)
        self.setup_speed: Optional[HostSpeed] = None
        self.speed: Optional[HostSpeed] = None

    def figure(self, name: str, value: float, unit: str, note: str = ""):
        self.figures[name] = (value, unit, note)

    def fail(self, op: Optional[Op], message: str) -> None:
        if op is not None:
            if not op.ok:
                return
            op.ok = False
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    @contextmanager
    def timed_setup(self):
        """Time one whole set-up, in processor and wall seconds, then top
        up the set-up's host speed if it is tracked."""
        gc.collect()
        cpu, wall = time.process_time(), time.perf_counter()
        yield
        self.setup.append(time.process_time() - cpu)
        self.setup_wall.append(time.perf_counter() - wall)
        if self.setup_speed is not None:
            self.setup_speed.top_up()

    @contextmanager
    def op(self, kind: str, cell: str):
        """Time one operation; an exception inside counts it failed
        and surfaces as :class:`OpFailed`."""
        if self.speed is not None:
            self.speed.top_up()
        op = Op(kind, cell, self.phase)
        self.attempted += 1
        cpu = time.process_time()
        op.t0 = time.perf_counter()
        try:
            yield op
        except OpFailed:
            raise
        except Exception as err:
            op.t1 = time.perf_counter()
            self.fail(op, "%s/%s: %s: %s" % (kind, cell,
                                             type(err).__name__, err))
            raise OpFailed(str(err)) from err
        op.t1 = time.perf_counter()
        op.cpu = time.process_time() - cpu
        self.ops.append(op)

    def expect(self, op: Op, condition: bool, message: str) -> None:
        """A correctness check on ``op``'s answer; a miss fails the op
        and abandons the script."""
        if not condition:
            self.fail(op, "%s/%s: %s" % (op.kind, op.cell, message))
            raise OpFailed(message)

    def add(self, op: Op) -> None:
        """Record an operation timed elsewhere (the gateway client)."""
        self.attempted += 1
        self.ops.append(op)

    def good(self, phase: Optional[str] = None) -> List[Op]:
        return [op for op in self.ops if op.ok
                and (phase is None or op.phase == phase)]


def cell_p50_ms(ops: Sequence[Op], key=lambda op: (op.kind, op.cell),
                value=lambda op: op.seconds, stat=median) -> float:
    """Geometric mean over cells of each cell's median (or other
    ``stat``) ``value`` (wall seconds unless told otherwise), so the
    figure does not depend on the mix of kinds a run holds and moves by
    the same factor whichever kind gets cheaper."""
    cells: Dict[object, List[float]] = {}
    for op in ops:
        cells.setdefault(key(op), []).append(value(op))
    return geomean(stat(v) for v in cells.values()) * 1e3


def cell_cpu_ms(ops: Sequence[Op], key) -> float:
    """Geometric mean over cells of each cell's mean processor time: a
    mean, like the host speed it is divided by, so both weigh every
    instant of the run alike."""
    return cell_p50_ms(ops, key, lambda op: op.cpu, mean)


def whole_rounds(seconds: float) -> Iterator[int]:
    """Round numbers from 0, as many as come nearest to filling
    ``seconds`` at the mean round time so far; at least one.  A run then
    holds whole rounds (the same mix of kinds), and a slow host runs
    fewer of them rather than overrunning by more than half a round."""
    start = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done / 2 > seconds:
            return


def kind_tail_ms(ops: Sequence[Op]) -> Tuple[Optional[float], int]:
    """Geometric mean over operation kinds of each kind's
    :data:`TAIL_Q` latency, over the kinds with :data:`TAIL_MIN` or more
    samples; answers it with the number of operations it covers, or
    ``(None, 0)`` if no kind has enough.  Per kind, so the figure does
    not sit on the edge between two kinds of different speed."""
    kinds: Dict[str, List[float]] = {}
    for op in ops:
        kinds.setdefault(op.kind, []).append(op.seconds)
    kept = [v for v in kinds.values() if len(v) >= TAIL_MIN]
    if not kept:
        return None, 0
    return (geomean(quantile(v, TAIL_Q) for v in kept) * 1e3,
            sum(len(v) for v in kept))


def kind_p50_ms(ops: Sequence[Op], kind: str) -> Optional[float]:
    values = [op.seconds for op in ops if op.kind == kind]
    return median(values) * 1e3 if values else None
