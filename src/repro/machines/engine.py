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
  next control transfer *once*, and run the block as one generated
  function whose body is its instructions' own source — each ISA's
  ``compile_insn`` gives a :class:`~repro.machines.isa.Fragment` per
  instruction, with loads and stores inlined on the memory's bytes by
  :mod:`.memory`'s builders.  Blocks are cached by ``(addr, code-bytes
  generation)`` and dispatched whole between icount/stop checks.

Both engines must produce byte-identical architectural state: the same
stops, registers, memory, faults, and icount.  The subtle rules that
make that true are concentrated in :func:`_block_source`, which emits
``Cpu.step``'s exact prologue/epilogue inline around every fragment —
the rmips load-delay commit and ``_wrote_reg``, the
faulting-instruction-retires rule, and MemoryFault→SIGSEGV — and in
the dispatch loop, which keeps the decode-fault-does-not-retire rule
(a decode fault drops the pending load and retires nothing; see the
zero-step fault blocks) and runs a block that a stop cuts short
through ``Cpu.step`` itself.  A block's source depends on its
fragments and two arch flags, never on operand values, so one compiled
template serves every block with the same sequence of instruction
kinds (:func:`_template`).

Cache invalidation: the engine marks every byte it decoded from in a
per-byte code map and registers a write hook on the target memory.
Any write that overlaps a decoded byte — PLANT/unplant, POKE,
BLOCKSTORE, a self-modifying store, or a checkpoint restore rewriting
a code page — bumps the generation counter and drops every cached
block, so the next dispatch re-decodes current bytes.  A store that
lands inside the *currently executing* block is caught by a
generation check after every fragment that may write memory.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Dict, List, Optional, Tuple

from .isa import (
    DEFAULT_MAX_STEPS,
    Fragment,
    Halt,
    IcountReached,
    SIGFPE,
    SIGILL,
    SIGSEGV,
    SIGTRAP,
    TargetFault,
    to_i32,
)
from .memory import FRAGMENT_BINDINGS, MemoryFault

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


def _land(zero_reg: bool, wrote: Optional[str]) -> List[str]:
    """Cpu.step's delay-slot commit, after an instruction that left
    ``wrote`` in ``_wrote_reg`` (source; None: no register)."""
    test = "commit is not None"
    if zero_reg:
        test += " and commit[0]"
    if wrote is not None:
        test += " and commit[0] != %s" % wrote
    return ["if %s:" % test, "    regs[commit[0]] = commit[1]"]


def _block_source(frags: Tuple[Fragment, ...], delay: bool,
                  zero_reg: bool) -> str:
    """Python source of the factory for one sequence of fragments.

    ``make(engine, gen, mem, pcs, values)`` returns ``block(cpu)``,
    which runs the fragments' source back to back with ``Cpu.step``'s
    bookkeeping emitted inline, so that after it returns or raises the
    state is exactly what N calls of ``Cpu.step`` would leave.
    ``pcs`` holds each instruction's address and the block's end, and
    ``values`` every fragment's operands in order; both become free
    variables of ``block``.

    * icount: every retired instruction counts, and a faulting one
      retires (``n`` tracks how many finished before it); the pc is
      stored only where it is observed: before a fragment that
      ``calls`` out, at a fault (the faulting instruction's own), on an
      early return and at the end;
    * a MemoryFault becomes SIGSEGV code 2, every other exception is
      re-raised unchanged;
    * with a load delay (``delay``), a pending load is taken and
      committed around the first instruction (its state on entry is
      unknown) and around every instruction that follows a ``loads``
      fragment — the others cannot have one.  ``_wrote_reg`` is reset
      once on entry and after every fragment that ``calls`` out (which
      records it itself); a commit compares against each fragment's
      static ``wrote``, and the end stores the last one's;
    * after a ``writes`` fragment that is not the block's last, a
      changed generation ends the block early (its store hit decoded
      code; the dispatcher resumes at ``cpu.pc`` with fresh bytes).

    The source depends only on the fragments and the two arch flags,
    never on operand values or target bytes.
    """
    count = len(frags)
    names: List[str] = []
    body: List[str] = []
    for i, frag in enumerate(frags):
        fields = {name: "%s_%d" % (name, i) for name in frag.params}
        names += fields.values()
        fields["pc"] = "pc_%d" % i
        fields["npc"] = "pc_%d" % (i + 1)
        takes = delay and (i == 0 or frags[i - 1].loads)
        if takes:
            body += ["commit = cpu._pending_load",
                     "cpu._pending_load = None"]
        if frag.calls:
            body.append("cpu.pc = pc_%d" % i)
        body += frag.source.format(**fields).split("\n")
        if frag.calls:
            wrote = "cpu._wrote_reg"
        else:
            wrote = frag.wrote and frag.wrote.format(**fields)
        if i + 1 < count:
            body.append("n = %d" % (i + 1))
            if takes:
                body += _land(zero_reg, wrote) + ["commit = None"]
            if frag.writes:
                body += ["if engine.generation != gen:"]
                if not frag.jumps:
                    body += ["    cpu.pc = pc_%d" % (i + 1)]
                body += ["    cpu.icount += %d" % (i + 1), "    return"]
            if delay and frag.calls:
                body.append("cpu._wrote_reg = None")
    handler = ["cpu.pc = pcs[n]", "cpu.icount += n + 1"]
    if delay:
        handler += _land(zero_reg, "cpu._wrote_reg")
    handler += [
        "if isinstance(exc, MemoryFault):",
        "    raise TargetFault(SIGSEGV, code=2, address=exc.address)",
        "raise"]
    # ``takes``, ``frag`` and ``wrote`` are the last instruction's
    tail = _land(zero_reg, wrote) if takes else []
    if not frag.jumps:
        tail.append("cpu.pc = pc_%d" % count)
    if delay and wrote is not None and not frag.calls:
        tail.append("cpu._wrote_reg = %s" % wrote)
    tail.append("cpu.icount += %d" % count)
    head = ["def make(engine, gen, mem, pcs, values):"]
    if names:
        head.append("    %s, = values" % ", ".join(names))
    head.append("    %s, = pcs" % ", ".join(
        "pc_%d" % i for i in range(count + 1)))
    head += ["    " + line for line in FRAGMENT_BINDINGS]
    head += ["    def block(cpu):",
             "        regs = cpu.regs"]
    if delay:
        head.append("        cpu._wrote_reg = None")
    lines = (head + ["        n = 0", "        try:"]
             + ["            " + line for line in body]
             + ["        except BaseException as exc:"]
             + ["            " + line for line in handler]
             + ["        " + line for line in tail]
             + ["    return block"])
    return "\n".join(lines) + "\n"


#: what block code may name beside its own bindings
_GLOBALS = {"MemoryFault": MemoryFault, "TargetFault": TargetFault,
            "Halt": Halt, "SIGSEGV": SIGSEGV, "SIGFPE": SIGFPE,
            "SIGTRAP": SIGTRAP, "to_i32": to_i32}


@functools.lru_cache(maxsize=1024)
def _template(frags: Tuple[Fragment, ...], delay: bool,
              zero_reg: bool) -> Callable:
    """The compiled factory for one sequence of fragments; the memo
    holds code only, keyed by fragment identity, never by operands."""
    namespace = dict(_GLOBALS)
    exec(compile(_block_source(frags, delay, zero_reg),
                 "<block of %d>" % len(frags), "exec"), namespace)
    return namespace["make"]


#: an op the arch leaves to :meth:`Arch.execute`: its decode is done once
#: and its semantics are the arch's own, so every flag is conservative
_EXECUTE = Fragment("execute", "{execute}(cpu, {insn})",
                    ("execute", "insn"), loads=True,
                    jumps=True, calls=True)


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
        frags: List[Fragment] = []
        values: List = []
        pcs = [pc]
        fault: Optional[Tuple[int, int, int]] = None
        addr = pc
        while len(frags) < self.MAX_BLOCK:
            try:
                insn = arch.decode(mem, addr)
            except MemoryFault as exc:
                fault = (SIGSEGV, 1, exc.address)
                break
            except TargetFault as exc:
                fault = (exc.signo, exc.code, exc.address)
                break
            compiled = arch.compile_insn(insn, addr)
            if compiled is None:
                frags.append(_EXECUTE)
                values += (arch.execute, insn)
            else:
                frags.append(compiled[0])
                values += compiled[1]
            addr += insn.size
            pcs.append(addr & 0xFFFFFFFF)
            if arch.is_block_end(insn):
                break
        if frags:
            # A decode fault after at least one instruction is *not*
            # part of this block: execution may never get there (a
            # mid-block stop, an exception, a patched branch).  The
            # faulting pc gets its own zero-step fault block on demand.
            fault = None
            size = addr - pc
            run = _template(tuple(frags), arch.has_load_delay,
                            arch.zero_reg)(self, gen, mem, tuple(pcs),
                                           tuple(values))
        else:
            # Zero-step fault block.  Its *cause* is the undecodable
            # bytes at pc, so mark a conservative span: a write there
            # (e.g. self-modifying code repairing an illegal opcode)
            # must invalidate this block too.
            size = min(16, self.mem.size - pc) if pc < self.mem.size else 0
            run = None
        block = _Block(gen, run, len(frags), fault, pc, size)
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
