"""The stack-frame abstraction (paper Sec. 4).

The machine-independent class holds the program counter, the
symbol-table entry of the corresponding procedure, and methods that
compute scopes for name resolution.  Machine-dependent subtypes (in
:mod:`repro.ldb.machdep`) supply only two methods: one that walks down
the stack and one that restores registers from the stack — together
they build the caller's abstract memory, reusing aliases from the called
frame for callee-saved registers it did not modify (Sec. 4.1).

:class:`Machine` is the rest of a target as the debugger sees it: the
facts each machine-dependent module states, and the machine-independent
code that reads them to lay out the nub's saved context and build the
top frame.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..postscript import ABSOLUTE, KIND_BYTES, Location, PSDict, PSError
from .memories import AliasMemory, JoinedMemory, MemoryStats, RegisterMemory

#: registers whose save slots lie within this many bytes of each other
#: are prefetched as one span (context slots are adjacent; a frame's
#: stack save area is a second tight cluster)
_PREFETCH_GAP = 64


class CorruptStackError(Exception):
    """A down-stack walker found evidence of corruption — a misaligned
    or non-monotonic stack pointer, a return address outside the text
    segment, a backwards fp chain.  :func:`build_stack` converts it into
    a terminating :class:`CorruptFrame` instead of letting it surface."""


class Frame:
    """One procedure activation.

    ``memory`` is the joined abstract memory of Fig. 4; ``frame_base``
    is the value the per-architecture PostScript binds as ``FrameBase``
    to address locals (the vfp on rmips, the fp elsewhere).
    """

    #: True only on the :class:`CorruptFrame` sentinel
    corrupt = False

    def __init__(self, target, pc: int, memory: JoinedMemory,
                 frame_base: int, sp: int, level: int = 0,
                 stats: Optional[MemoryStats] = None):
        self.target = target
        self.pc = pc
        self.memory = memory
        self.frame_base = frame_base
        self.sp = sp
        self.level = level
        #: the counters the top frame's DAG and its callers' DAGs share
        self.stats = stats

    # -- machine-independent methods ------------------------------------

    def proc_entry(self) -> Optional[PSDict]:
        """The symbol-table entry of this frame's procedure."""
        return self.target.symtab.proc_entry_for_pc(self.pc)

    def proc_name(self) -> str:
        entry = self.proc_entry()
        if entry is not None:
            return entry["name"].text
        hit = self.target.linker.proc_containing(self.pc)
        return hit[1] if hit else "0x%x" % self.pc

    def stop(self) -> Optional[Tuple[int, PSDict]]:
        """The stopping point at or before the pc, with its index."""
        entry = self.proc_entry()
        if entry is None:
            return None
        return self.target.symtab.stop_for_pc(entry, self.pc)

    def scope_stop(self) -> Optional[PSDict]:
        hit = self.stop()
        return hit[1] if hit else None

    def resolve(self, name: str) -> Optional[PSDict]:
        """Resolve a name in this frame's scope (the paper's context:
        a particular stopping point in a particular procedure)."""
        return self.target.symtab.resolve(name, self.scope_stop(),
                                          self.proc_entry())

    def visible_names(self) -> List[str]:
        names: List[str] = []
        stop = self.scope_stop()
        entry = stop.get("syms") if stop is not None else None
        while entry is not None:
            names.append(entry["name"].text)
            entry = entry.get("uplink")
        proc = self.proc_entry()
        if proc is not None:
            for key in proc["statics"].keys():
                names.append(key if isinstance(key, str) else str(key))
        return names

    def read_reg(self, index: int) -> int:
        return self.memory.fetch(Location.absolute("r", index), "i32")

    def write_reg(self, index: int, value: int) -> None:
        self.memory.store(Location.absolute("r", index), "i32", value)

    def location_line(self) -> Tuple[str, int]:
        entry = self.proc_entry()
        if entry is None:
            return ("?", 0)
        stop = self.scope_stop()
        if stop is not None:
            return (entry["sourcefile"].text, stop["sourcey"])
        return (entry["sourcefile"].text, entry["sourcey"])

    # -- machine-dependent methods (supplied by subtypes) ------------------

    def caller(self) -> Optional["Frame"]:
        """Walk down the stack: build the caller's frame, or None."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return "<frame #%d %s pc=0x%x>" % (self.level, self.proc_name(), self.pc)


class CorruptFrame(Frame):
    """The sentinel that ends a truncated backtrace: the walk hit
    evidence of stack corruption and stopped.  It prints as
    ``<corrupt frame>``, resolves no names, and has no caller — so a
    smashed stack yields a partial, labelled backtrace on live and
    post-mortem targets alike, never a debugger crash."""

    corrupt = True

    def __init__(self, target, level: int, reason: str):
        super().__init__(target, 0, None, 0, 0, level=level)
        #: why the walk stopped (for traces and curious users)
        self.reason = reason

    def proc_entry(self) -> None:
        return None

    def proc_name(self) -> str:
        return "<corrupt frame>"

    def location_line(self) -> Tuple[str, int]:
        return ("?", 0)

    def stop(self) -> None:
        return None

    def resolve(self, name: str) -> None:
        return None

    def visible_names(self) -> List[str]:
        return []

    def caller(self) -> None:
        return None

    def __repr__(self) -> str:
        return "<frame #%d <corrupt frame> (%s)>" % (self.level, self.reason)


def corrupt_frame(target, level: int, reason: str) -> CorruptFrame:
    """Make the sentinel, leaving a mark in the observability hub —
    every corrupt-frame bailout should be visible in metrics/traces."""
    obs = getattr(target, "obs", None)
    if obs is not None:
        obs.metrics.inc("target.corrupt_frames")
        obs.tracer.warn("target.corrupt_frame", reason=reason)
    return CorruptFrame(target, level, reason)


def guard_down_stack(target, caller_pc: int, caller_sp: int, callee_sp: int,
                     stack_align: int, pc_align: int) -> None:
    """The corruption defenses shared by the machdep down-stack walkers.

    Walking *down* the stack (toward callers), stack addresses only
    grow and return addresses land inside the text segment; anything
    else is a smashed frame, reported as :class:`CorruptStackError`
    rather than followed into the weeds.
    """
    if pc_align > 1 and caller_pc % pc_align:
        raise CorruptStackError("misaligned return pc 0x%x" % caller_pc)
    bounds = target.linker.text_range()
    if bounds is not None and not bounds[0] <= caller_pc < bounds[1]:
        raise CorruptStackError(
            "return pc 0x%x outside text [0x%x, 0x%x)"
            % (caller_pc, bounds[0], bounds[1]))
    if stack_align > 1 and caller_sp % stack_align:
        raise CorruptStackError("misaligned caller sp 0x%x" % caller_sp)
    if caller_sp < callee_sp:
        raise CorruptStackError(
            "caller sp 0x%x below callee sp 0x%x (stack walked backwards)"
            % (caller_sp, callee_sp))


def build_stack(frame: Optional[Frame], limit: int = 64) -> List[Frame]:
    """The frames from ``frame`` outward, walked defensively: given a
    frame it never raises and always returns at least that frame.

    Any evidence of corruption — a walker's :class:`CorruptStackError`,
    unreadable frame memory, or a frame cycle — truncates the walk with
    a :class:`CorruptFrame` sentinel instead of surfacing an exception.
    """
    frames: List[Frame] = []
    seen = set()
    while frame is not None and len(frames) < limit:
        if frame.corrupt:
            frames.append(frame)
            break
        key = (frame.pc, frame.sp, frame.frame_base)
        if key in seen:
            frames.append(corrupt_frame(frame.target, frame.level,
                                        "frame cycle at pc 0x%x" % frame.pc))
            break
        seen.add(key)
        frames.append(frame)
        try:
            frame = frame.caller()
        except CorruptStackError as err:
            frames.append(corrupt_frame(frame.target, frame.level + 1,
                                        str(err)))
            break
        except PSError as err:
            frames.append(corrupt_frame(frame.target, frame.level + 1,
                                        "unreadable frame memory: %s" % err))
            break
    return frames


def prefetch_alias_targets(wire, aliases: Dict[Tuple[str, int], Location],
                           widths: Dict[str, str]) -> None:
    """Warm the wire cache for every saved-register slot the aliases
    point at, coalescing neighbours into block transfers.

    A frame's register aliases land in a few tight clusters — the saved
    context, and (in caller frames) the procedure's stack save area —
    but a single min..max span would drag in everything between a low
    context address and a high stack address, so near neighbours
    (within ``_PREFETCH_GAP``) coalesce and distant ones get their own
    span.  On an uncached path ``prefetch`` is a no-op.
    """
    per_space: Dict[str, list] = {}
    for (space, _reg), loc in aliases.items():
        if loc.mode != ABSOLUTE:
            continue  # immediates live in the debugger
        size = KIND_BYTES.get(widths.get(space, "i32"), 4)
        per_space.setdefault(loc.space, []).append((loc.offset, size))
    for target_space, slots in per_space.items():
        slots.sort()
        start = end = None
        for offset, size in slots:
            if start is None:
                start, end = offset, offset + size
            elif offset - end <= _PREFETCH_GAP:
                end = max(end, offset + size)
            else:
                wire.prefetch(target_space, start, end - start)
                start, end = offset, offset + size
        if start is not None:
            wire.prefetch(target_space, start, end - start)


def make_register_dag(target, aliases: Dict[Tuple[str, int], Location],
                      widths: Dict[str, str],
                      stats: Optional[MemoryStats] = None) -> JoinedMemory:
    """Assemble the Fig. 4 DAG: wire <- alias <- register <- joined."""
    stats = stats if stats is not None else MemoryStats()
    wire = target.wire
    prefetch_alias_targets(wire, aliases, widths)
    alias = AliasMemory(wire, aliases, stats=stats)
    register = RegisterMemory(alias, widths, stats=stats)
    routes: Dict[str, object] = {"c": wire, "d": wire}
    for space in widths:
        routes[space] = register
    routes["x"] = register
    return JoinedMemory(routes, stats=stats)


class Machine:
    """A target machine as the debugger sees it (paper Sec. 4.3).

    A subclass states facts: the breakpoint data, the register counts,
    the float kind, the sp and fp register numbers and the frame class.
    The code here reads them to lay out the nub's saved context — the
    pc, then the integer registers, then the floats, then the flags, as
    ``Arch.context_fields()`` lays it out on the target side — and to
    build the top frame from it.
    """

    arch_name: str
    #: the data/<arch>.ps dictionary the target's symbol tables use
    ps_arch: str
    byteorder: str
    #: the four breakpoint items (paper Sec. 3): the break and no-op bit
    #: patterns as little-endian values, the instruction fetch size, and
    #: the pc advance that "interprets" a skipped no-op
    break_bytes_le: bytes
    nop_bytes_le: bytes
    insn_fetch_size: int
    noop_advance: int
    nregs: int
    nfregs: int
    #: the kind of a floating register and of its context slot
    float_kind = "f64"
    sp_reg: int
    #: None when the machine has no frame pointer
    fp_reg: Optional[int] = None
    frame_class: type
    #: the pc's offset in the saved context
    pc_slot = 0

    def __init__(self):
        #: register spaces and the kinds of their registers
        self.regset_widths = {"r": "i32", "f": self.float_kind}

    def reg_slot(self, index: int) -> int:
        """The offset of integer register ``index`` in the context."""
        return self.pc_slot + 4 + 4 * index

    def freg_slot(self, index: int) -> int:
        """The offset of floating register ``index`` in the context."""
        return self.reg_slot(self.nregs) + KIND_BYTES[self.float_kind] * index

    def context_size(self) -> int:
        return self.freg_slot(self.nfregs) + 4  # the flags word

    def pc_context_location(self, context_addr: int) -> Location:
        return Location.absolute("d", context_addr + self.pc_slot)

    def context_aliases(self, context_addr: int, pc: int,
                        frame_base: int) -> Dict[Tuple[str, int], Location]:
        """The top frame's aliases: each register for its context
        slot, the extra register ``x0`` for the pc."""
        aliases: Dict[Tuple[str, int], Location] = {}
        for i in range(self.nregs):
            aliases[("r", i)] = Location.absolute(
                "d", context_addr + self.reg_slot(i))
        for i in range(self.nfregs):
            aliases[("f", i)] = Location.absolute(
                "d", context_addr + self.freg_slot(i))
        aliases[("x", 0)] = Location.immediate(pc)
        return aliases

    def frame_base(self, target, pc: int, sp: int, fp: Optional[int]) -> int:
        """The value the PostScript binds as ``FrameBase`` in the top frame."""
        return fp

    def cache_fixup(self, target):
        """A fixup for values sliced out of cached blocks, or None:
        saved contexts need no per-value fixing by default."""
        return None

    def new_top_frame(self, target, context_addr: int) -> Frame:
        """The paper's Frame.New: the nub's saved context -> the
        topmost frame."""
        wire = target.wire
        # the whole context in one block transfer (when the nub speaks
        # blocks): the fetches below and the DAG's then hit the cache
        wire.prefetch("d", context_addr, self.context_size())

        def word(offset: int) -> int:
            return wire.fetch(Location.absolute("d", context_addr + offset),
                              "i32") & 0xFFFFFFFF

        pc = word(self.pc_slot)
        fp = None if self.fp_reg is None else word(self.reg_slot(self.fp_reg))
        sp = word(self.reg_slot(self.sp_reg))
        base = self.frame_base(target, pc, sp, fp)
        stats = MemoryStats()
        memory = make_register_dag(
            target, self.context_aliases(context_addr, pc, base),
            self.regset_widths, stats=stats)
        return self.frame_class(target, pc, memory, base, sp, stats=stats)
