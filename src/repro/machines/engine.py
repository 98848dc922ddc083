"""Execution engines: pluggable strategies for running the simulation.

The interpreter is the hot path of the whole system — time-travel
replay, the fault matrix, and every `repro.serve` fleet workload are
bounded by simulated instructions per second.  This module splits the
*policy* of running (when to stop, how to dispatch) from the
*semantics* of one instruction (``Cpu.step``), behind one small
interface:

* :class:`StepEngine` — the reference implementation: decode and
  execute one instruction at a time, exactly ``Cpu.step`` in a loop.
* :class:`BlockEngine` — a decoded-basic-block core in the spirit of
  the DiVM bitcode simulator (PAPERS.md): decode from the pc to the
  next control transfer *once*, fuse the block's prebuilt execute
  bodies into one generated function keyed by ``(addr, code-bytes
  generation)``, and dispatch whole blocks between icount/stop checks.

Both engines must produce byte-identical architectural state: the same
stops, registers, memory, faults, and icount.  The subtle rules that
make that true are concentrated in :func:`_block_source`, which emits
``Cpu.step``'s exact prologue/epilogue inline around every body — the
rmips load-delay commit and ``_wrote_reg`` reset, the
faulting-instruction-retires rule, and MemoryFault→SIGSEGV — and in
the dispatch loop, which keeps the decode-fault-does-not-retire rule
(a decode fault drops the pending load and retires nothing; see the
zero-step fault blocks) and runs a block that a stop cuts short
through ``Cpu.step`` itself.

Cache invalidation: the engine marks every byte it decoded from in a
per-byte code map and registers a write hook on the target memory.
Any write that overlaps a decoded byte — PLANT/unplant, POKE,
BLOCKSTORE, a self-modifying store, or a checkpoint restore rewriting
a code page — bumps the generation counter and drops every cached
block, so the next dispatch re-decodes current bytes.  A store that
lands inside the *currently executing* block is caught by a
generation check after every instruction that may write memory.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Dict, List, Optional, Tuple

from .isa import (
    DEFAULT_MAX_STEPS,
    Halt,
    IcountReached,
    SIGILL,
    SIGSEGV,
    TargetFault,
)
from .memory import MemoryFault

#: Environment variable consulted when no engine is requested
#: explicitly; value "step" or "block".
ENGINE_ENV = "LDB_SIM_ENGINE"

#: The engine used when neither the caller nor the environment picks
#: one.  The block engine is the default: its architectural state is
#: byte-identical to the step engine (the equivalence property in
#: tests/machines/test_engines.py), only faster.
DEFAULT_ENGINE = "block"


class StopSpec:
    """One shared description of when a run must stop.

    ``Cpu.run`` builds one from its keyword-only ``max_steps`` /
    ``stop_at_icount`` (``Process.run_until_event`` passes its own
    through), and every engine runs against it.

    * ``max_steps`` — runaway guard: after this many retired
      instructions the run raises the SIGILL/99 runaway fault.
    * ``stop_at_icount`` — absolute retired-instruction target:
      checked *between* instructions, raising :class:`IcountReached`
      before executing the instruction that would pass it.
    """

    __slots__ = ("max_steps", "stop_at_icount")

    def __init__(self, max_steps: int = DEFAULT_MAX_STEPS,
                 stop_at_icount: Optional[int] = None):
        if max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if stop_at_icount is not None and stop_at_icount < 0:
            raise ValueError("stop_at_icount must be >= 0")
        self.max_steps = max_steps
        self.stop_at_icount = stop_at_icount

    def __repr__(self) -> str:
        return "<stop max_steps=%d stop_at_icount=%r>" % (
            self.max_steps, self.stop_at_icount)


class SimStats:
    """Block-cache counters; the source of the ``sim.*`` metrics."""

    __slots__ = ("compiled", "hits", "invalidated")

    def __init__(self):
        self.compiled = 0
        self.hits = 0
        self.invalidated = 0

    def as_dict(self) -> Dict[str, int]:
        return {"blocks_compiled": self.compiled,
                "block_hits": self.hits,
                "blocks_invalidated": self.invalidated}


class ExecutionEngine:
    """Strategy interface: run a Cpu until a stop condition fires.

    ``run`` must behave exactly like the historical ``Cpu.run`` loop:
    return the exit status on :class:`Halt`, raise
    :class:`IcountReached` when the icount target is hit between
    instructions, let :class:`TargetFault` propagate, and raise the
    SIGILL/99 runaway fault when ``max_steps`` instructions retire
    without any of the above.
    """

    name = "abstract"

    def __init__(self, cpu=None):
        self.cpu = cpu
        self.stats = SimStats()

    def run(self, cpu, stop: StopSpec) -> int:
        raise NotImplementedError

    def describe(self) -> Dict[str, int]:
        """Engine identity + counters, for `ldb sim` / the sim_stats verb."""
        info: Dict[str, int] = {}
        info.update(self.stats.as_dict())
        return info


class StepEngine(ExecutionEngine):
    """The reference engine: ``Cpu.step`` in a loop, nothing cached."""

    name = "step"

    def run(self, cpu, stop: StopSpec) -> int:
        remaining = stop.max_steps
        target = stop.stop_at_icount
        try:
            while remaining > 0:
                if target is not None and cpu.icount >= target:
                    raise IcountReached(cpu.icount, cpu.pc)
                cpu.step()
                remaining -= 1
        except Halt as halt:
            return halt.status
        raise TargetFault(SIGILL, code=99, address=cpu.pc)  # runaway


#: Per-instruction shape flags (see :func:`_block_source`).
_WRITES = 1  # may write target memory: re-check the generation after it
_LOADS = 2   # a delayed load: the next instruction lands its commit


def _block_source(shape: Tuple[int, ...], delay: bool,
                  zero_reg: bool) -> str:
    """Python source of the factory for one block *shape*.

    ``make(engine, gen, b0, ..., bN)`` returns ``block(cpu)``, which
    calls the bodies back to back with ``Cpu.step``'s bookkeeping
    emitted inline, so that after it returns or raises the state is
    exactly what N calls of ``Cpu.step`` would leave:

    * icount: every retired instruction counts, and a faulting one
      retires (``n`` tracks how many finished before it);
    * a MemoryFault becomes SIGSEGV code 2, every other exception is
      re-raised unchanged;
    * with a load delay (``delay``), ``_wrote_reg`` is reset before
      every instruction, and a pending load is taken and committed
      around the first instruction (its state on entry is unknown) and
      around every instruction that follows a load — the others cannot
      have one;
    * after a ``_WRITES`` instruction that is not the block's last, a
      changed generation ends the block early (its store hit decoded
      code; the dispatcher resumes at ``cpu.pc`` with fresh bytes).

    The source depends only on ``shape`` (one flag word per
    instruction) and the two arch flags, never on target bytes, so one
    compiled template serves every block of that shape.
    """
    count = len(shape)
    land = ["if commit is not None and commit[0]%s != cpu._wrote_reg:"
            % (" and commit[0]" if zero_reg else ""),
            "    cpu.regs[commit[0]] = commit[1]"]
    body = []
    for i, flags in enumerate(shape):
        takes = delay and (i == 0 or shape[i - 1] & _LOADS)
        if takes:
            body += ["commit = cpu._pending_load",
                     "cpu._pending_load = None"]
        if delay:
            body.append("cpu._wrote_reg = None")
        body.append("b%d(cpu)" % i)
        if i + 1 < count:
            body.append("n = %d" % (i + 1))
            if takes:
                body += land + ["commit = None"]
            if flags & _WRITES:
                body += ["if engine.generation != gen:",
                         "    cpu.icount += %d" % (i + 1),
                         "    return"]
    handler = ["cpu.icount += n + 1"] + (land if delay else []) + [
        "if isinstance(exc, MemoryFault):",
        "    raise TargetFault(SIGSEGV, code=2, address=exc.address)",
        "raise"]
    # ``takes`` is the last instruction's: its commit lands after it
    tail = (land if takes else []) + ["cpu.icount += %d" % count]
    lines = (["def make(engine, gen, %s):"
              % ", ".join("b%d" % i for i in range(count)),
              "    def block(cpu):",
              "        n = 0",
              "        try:"]
             + ["            " + line for line in body]
             + ["        except BaseException as exc:"]
             + ["            " + line for line in handler]
             + ["        " + line for line in tail]
             + ["    return block"])
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=256)
def _template(shape: Tuple[int, ...], delay: bool,
              zero_reg: bool) -> Callable:
    """The compiled factory for one shape; the memo holds code only
    (a process meets a few dozen shapes, each compiled once)."""
    namespace = {"MemoryFault": MemoryFault, "TargetFault": TargetFault,
                 "SIGSEGV": SIGSEGV}
    exec(compile(_block_source(shape, delay, zero_reg),
                 "<block of %d>" % len(shape), "exec"), namespace)
    return namespace["make"]


class _Block:
    """One compiled basic block.

    ``run`` is the fused function executing all ``length``
    instructions; a None ``run`` with a non-None ``fault`` is a
    decode-fault terminator: dispatching it replays ``Cpu.step``'s
    decode-fault path (the pending load is dropped, nothing retires,
    the fault is raised).
    """

    __slots__ = ("gen", "run", "length", "fault", "start", "size")

    def __init__(self, gen: int, run: Optional[Callable], length: int,
                 fault: Optional[Tuple[int, int, int]],
                 start: int, size: int):
        self.gen = gen
        self.run = run
        self.length = length
        self.fault = fault
        self.start = start
        self.size = size


class BlockEngine(ExecutionEngine):
    """Decoded-basic-block dispatch with write-invalidated caching."""

    name = "block"

    #: Longest straight-line run compiled into one block.  Blocks end
    #: at the arch's control transfers anyway; this bounds pathological
    #: straight-line code so stop checks stay responsive.
    MAX_BLOCK = 128

    def __init__(self, cpu):
        super().__init__(cpu)
        self.arch = cpu.arch
        self.mem = cpu.mem
        #: bumped on every write into decoded code; blocks compiled
        #: under an older generation are never dispatched again
        self.generation = 0
        self._blocks: Dict[int, _Block] = {}
        #: per-byte map of decoded code: 1 where some cached block
        #: decoded from this address.  Byte-exact so that data packed
        #: right next to text (the linker aligns data to 16 bytes after
        #: text) never false-invalidates on hot stores.  It grows only
        #: up to the highest decoded byte: an address past its end is
        #: unmarked by construction.
        self._code_marks = bytearray()
        #: bounds of the marked region: stores outside [lo, hi) skip
        #: the byte-map scan entirely (the write hook runs per store)
        self._marks_lo = cpu.mem.size
        self._marks_hi = 0
        cpu.mem.add_write_hook(self._on_write)

    # -- invalidation -----------------------------------------------------

    def _on_write(self, address: int, size: int) -> None:
        """Memory write hook: any store overlapping decoded code drops
        the whole cache (simple, and correct for PLANT/unplant, POKE,
        BLOCKSTORE, self-modifying stores, and snapshot restores)."""
        if address >= self._marks_hi or address + size <= self._marks_lo:
            return  # outside every decoded span: the common case (data)
        if 1 in self._code_marks[address:address + size]:
            self._invalidate()

    def _invalidate(self) -> None:
        self.generation += 1
        self.stats.invalidated += len(self._blocks)
        marks = self._code_marks
        for block in self._blocks.values():
            if block.size:
                marks[block.start:block.start + block.size] = \
                    bytes(block.size)
        self._blocks.clear()
        self._marks_lo = self.mem.size
        self._marks_hi = 0

    def flush(self) -> None:
        """Drop every cached block (public; normal invalidation is
        automatic via the memory write hook)."""
        if self._blocks:
            self._invalidate()

    # -- compilation ------------------------------------------------------

    def _compile(self, pc: int) -> _Block:
        arch = self.arch
        mem = self.mem
        gen = self.generation
        bodies: List[Callable] = []
        shape: List[int] = []
        fault: Optional[Tuple[int, int, int]] = None
        addr = pc
        while len(bodies) < self.MAX_BLOCK:
            try:
                insn = arch.decode(mem, addr)
            except MemoryFault as exc:
                fault = (SIGSEGV, 1, exc.address)
                break
            except TargetFault as exc:
                fault = (exc.signo, exc.code, exc.address)
                break
            body = arch.compile_insn(insn, addr)
            if body is None:
                body = _generic_body(arch.execute, insn)
                flags = _WRITES  # unknown semantics: stay conservative
            else:
                flags = _WRITES if arch.may_write_mem(insn) else 0
            if insn.op in arch.loads():
                flags |= _LOADS
            bodies.append(body)
            shape.append(flags)
            addr += insn.size
            if arch.is_block_end(insn):
                break
        if bodies:
            # A decode fault after at least one instruction is *not*
            # part of this block: execution may never get there (a
            # mid-block stop, an exception, a patched branch).  The
            # faulting pc gets its own zero-step fault block on demand.
            fault = None
            size = addr - pc
            # nothing follows the last instruction inside the block, so
            # its flags do not change the source: one template fewer
            shape[-1] = 0
            run = _template(tuple(shape), arch.has_load_delay,
                            arch.zero_reg)(self, gen, *bodies)
        else:
            # Zero-step fault block.  Its *cause* is the undecodable
            # bytes at pc, so mark a conservative span: a write there
            # (e.g. self-modifying code repairing an illegal opcode)
            # must invalidate this block too.
            size = min(16, self.mem.size - pc) if pc < self.mem.size else 0
            run = None
        block = _Block(gen, run, len(bodies), fault, pc, size)
        if size > 0:
            marks = self._code_marks
            if pc + size > len(marks):
                marks.extend(bytes(pc + size - len(marks)))
            marks[pc:pc + size] = b"\x01" * size
            if pc < self._marks_lo:
                self._marks_lo = pc
            if pc + size > self._marks_hi:
                self._marks_hi = pc + size
        return block

    # -- dispatch ---------------------------------------------------------

    def run(self, cpu, stop: StopSpec) -> int:
        remaining = stop.max_steps
        target = stop.stop_at_icount
        blocks = self._blocks
        stats = self.stats
        try:
            while remaining > 0:
                icount = cpu.icount
                if target is not None and icount >= target:
                    raise IcountReached(icount, cpu.pc)
                pc = cpu.pc
                block = blocks.get(pc)
                if block is None or block.gen != self.generation:
                    block = self._compile(pc)
                    blocks[pc] = block
                    stats.compiled += 1
                else:
                    stats.hits += 1
                run = block.run
                if run is None:
                    # decode-fault terminator: replay Cpu.step's decode
                    # path exactly — the pending load is dropped and
                    # nothing retires
                    cpu._pending_load = None
                    cpu._wrote_reg = None
                    signo, code, address = block.fault
                    raise TargetFault(signo, code=code, address=address)
                due = remaining
                if target is not None and target - icount < due:
                    due = target - icount
                if block.length <= due:
                    run(cpu)
                else:
                    # the stop lands inside this block: run the prefix
                    # through the reference, one instruction at a time
                    for _ in range(due):
                        cpu.step()
                # the delta is the number of retired instructions
                remaining -= cpu.icount - icount
        except Halt as halt:
            return halt.status
        raise TargetFault(SIGILL, code=99, address=cpu.pc)  # runaway

    # -- introspection ----------------------------------------------------

    def describe(self) -> Dict[str, int]:
        info = super().describe()
        info["blocks_cached"] = len(self._blocks)
        info["generation"] = self.generation
        return info


def _generic_body(execute, insn):
    """Fallback body: the arch's own execute with the decode pre-done.
    Used for every instruction the arch does not specialize — semantics
    are the arch's single source of truth."""
    def body(cpu):
        execute(cpu, insn)
    return body


_ENGINES = {"step": StepEngine, "block": BlockEngine}


def engine_names() -> Tuple[str, ...]:
    return tuple(sorted(_ENGINES))


def make_engine(spec, cpu) -> ExecutionEngine:
    """Resolve an engine request into an engine bound to ``cpu``.

    ``spec`` may be None (environment variable :data:`ENGINE_ENV`, then
    :data:`DEFAULT_ENGINE`), an engine name, an ExecutionEngine
    subclass, or a ready instance.
    """
    if spec is None:
        spec = os.environ.get(ENGINE_ENV) or DEFAULT_ENGINE
    if isinstance(spec, ExecutionEngine):
        return spec
    if isinstance(spec, type) and issubclass(spec, ExecutionEngine):
        return spec(cpu)
    if isinstance(spec, str):
        cls = _ENGINES.get(spec)
        if cls is None:
            raise ValueError("unknown execution engine %r (one of %s)"
                             % (spec, ", ".join(engine_names())))
        return cls(cpu)
    raise TypeError("engine must be a name, class, or instance, not %r"
                    % (spec,))
