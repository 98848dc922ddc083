"""The ldb debugger: the client interface (paper Sec. 6).

Like the paper's ldb, this class is usable by other programs — the
command-line UI (:mod:`repro.ldb.cli`) is just one client.  Users can
set and remove breakpoints, start and stop programs, evaluate
expressions, and make assignments to variables; the debugger can hold
connections to several targets at once, on different architectures.
"""

from __future__ import annotations

import io
import sys
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..cc.driver import loader_table_ps
from ..machines import Executable, Process
from ..nub.channel import Channel, connect, pair
from ..nub.nub import Nub, NubRunner
from ..nub.session import LocalTransport
from ..obs import Observability
from ..postscript import (
    CopyError,
    Interp,
    PSDict,
    copy_table,
    new_interp,
    new_reader,
)
from .breakpoints import BreakpointError
from .frames import Frame
from .target import Target, TargetError


#: how much loader-table text the process keeps templates for, in
#: characters.  A template's objects take about four times its text, so
#: this keeps about 2.5 MB: the 30 crash-program tables of perfbench's
#: ``artifacts`` (150 KB) three times over, or T2's large table (440 KB)
_TABLE_TEXT_BOUND = 512 << 10


def read_table(interp: Interp, source: str) -> PSDict:
    """Interpret loader-table PostScript in ``interp``; the table it
    builds.  Every template is read this way, and so is every table
    that is never cached."""
    interp.run(source, "loader-table")
    table = interp.pop()
    if not isinstance(table, PSDict):
        raise TargetError("loader table did not build a dictionary")
    return table


class _LoaderTables:
    """The process's loader-table templates, keyed by text and evicted
    least recently used first once their texts pass
    :data:`_TABLE_TEXT_BOUND`.

    A template is read in an interpreter of its own, reset to the
    initial PostScript after every read, and is never handed out:
    every reader gets a :func:`~repro.postscript.copy_table` of it.
    A text whose table a copy cannot hold without sharing is kept as
    ``None`` and read fresh, in the reader's own interpreter, every time.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._templates: "OrderedDict[str, Optional[PSDict]]" = OrderedDict()
        self._size = 0
        #: the template reader, the ids of its initial objects, and its
        #: userdict and systemdict entries as read; made on first use
        self._reader: Optional[Interp] = None
        self._foreign: frozenset = frozenset()
        self._initial: Tuple[dict, dict] = ({}, {})

    def read(self, source: str, interp: Interp) -> Tuple[PSDict, bool]:
        """``source``'s table for ``interp``, and whether it came from a
        template read before (False when this call interpreted it)."""
        with self._lock:
            if source in self._templates:
                self._templates.move_to_end(source)
                template = self._templates[source]
            elif len(source) > _TABLE_TEXT_BOUND:
                template = None
            else:
                first = self._build(source)
                if first is not None:
                    return first, False
                template = None
        if template is None:
            return read_table(interp, source), False
        return copy_table(template), True

    def _build(self, source: str) -> Optional[PSDict]:
        """Read ``source`` into a template and cache it; its first copy,
        or None for a table that is never cached.  A read that raises
        caches nothing.  The caller holds the lock."""
        if self._reader is None:
            self._reader, self._foreign = new_reader()
            self._initial = (dict(self._reader.userdict.store),
                             dict(self._reader.systemdict.store))
        reader = self._reader
        try:
            template = read_table(reader, source)
        finally:
            # what the read left behind goes, so the next template is
            # read against the initial PostScript alone
            reader.ostack.clear()
            del reader.dstack[2:]
            reader.userdict.store = dict(self._initial[0])
            reader.systemdict.store = dict(self._initial[1])
            reader.stdout = io.StringIO()
        try:
            first = copy_table(template, self._foreign)
        except (CopyError, RecursionError):  # the copy recurses per level
            template = first = None
        self._templates[source] = template
        self._size += len(source)
        while self._size > _TABLE_TEXT_BOUND:
            text, _ = self._templates.popitem(last=False)
            self._size -= len(text)
        return first


#: the templates every debugger in the process reads from
_tables = _LoaderTables()


class Ldb:
    """A retargetable debugger instance."""

    def __init__(self, stdout=None):
        # "Modula-3 initialization" + the initial PostScript, read once
        # per process and copied here: one embedded interpreter serves
        # symbol tables and expressions
        self.stdout = stdout if stdout is not None else sys.stdout
        self.interp = new_interp(stdout=self.stdout)
        self.targets: Dict[str, Target] = {}
        self.current: Optional[Target] = None
        self._expr_client = None
        self._events = None
        self._next_target = 0
        #: one observability hub for the whole debugger: every target's
        #: session, memory DAG, and replay controller report into it
        self.obs = Observability()

    # -- connecting to targets ---------------------------------------------

    def read_loader_table(self, ps_source: str) -> PSDict:
        """The table that interpreting loader-table PostScript builds.

        A process interprets each text once, into a template shared by
        every debugger (:class:`_LoaderTables`), and this debugger gets a
        structural copy of its own: forcing a deferred value in it
        (``SymbolTable.force``) changes no other debugger's table.  A
        table that holds an object of the initial PostScript, keys a
        dictionary by an array or a dictionary, or nests too deep to
        copy is read fresh, into this debugger's interpreter, every
        time.  A read that fails raises the interpreter's
        :class:`~repro.postscript.PSError`, or :class:`TargetError` when
        the text leaves no dictionary, and caches nothing.  The registry
        counts reads served from an earlier read
        (``ldb.table_reads.cached``) and reads that interpreted the text
        (``ldb.table_reads.fresh``).
        """
        table, cached = _tables.read(ps_source, self.interp)
        self.obs.metrics.inc("ldb.table_reads.cached" if cached
                             else "ldb.table_reads.fresh")
        return table

    def _new_target_name(self) -> str:
        name = "t%d" % self._next_target
        self._next_target += 1
        return name

    def adopt_channel(self, channel: Channel, table_ps: str,
                      connector=None, cache: bool = True) -> Target:
        """Debug over an existing connection (any transport), from the
        stop the nub announces on it.

        ``connector`` — a zero-argument callable returning a fresh
        :class:`Channel` — gives the target a reconnect path: if the
        connection dies, ``Target.reconnect()`` re-attaches through it.
        When the first stop announcement (or the HELLO reply after it)
        is lost, the target re-dials once through it, and the nub
        announces its stop again.
        ``cache=False`` turns off the block-transfer memory cache and
        sends every fetch as its own FETCH message.
        """
        return self._adopt(table_ps, cache, channel=channel,
                           connector=connector)

    def load_program(self, exe: Executable, table_ps: Optional[str] = None,
                     cache: bool = True,
                     core_path: Optional[str] = None) -> Target:
        """Start a target process as a "child": the fork analog.  Its
        nub runs on this thread with no wire (a
        :class:`~repro.nub.session.LocalTransport`) and reports into
        this debugger's observability hub.  The target stops at the
        entry pause before ``main``.

        ``core_path`` tells the nub where to auto-write a core when the
        target takes a fatal signal.
        """
        process = Process(exe)
        table_ps = table_ps or _loader_ps(exe)
        nub = Nub(process, core_path=core_path, loader_ps=table_ps,
                  obs=self.obs)
        target = self._adopt(table_ps, cache, transport=LocalTransport(nub))
        target.process = process
        target.nub = nub
        target.core_path = core_path
        return target

    def _adopt(self, table_ps: str, cache: bool, channel=None,
               connector=None, transport=None) -> Target:
        """A new current target over ``channel`` or ``transport``, at
        the stop its nub announces first."""
        table = self.read_loader_table(table_ps)
        target = Target(self.interp, channel, table, self._new_target_name(),
                        connector=connector, transport=transport,
                        cache=cache, obs=self.obs)
        target.loader_ps = table_ps
        self.targets[target.name] = target
        self.current = target
        self._await_stop(target)
        return target

    def open_core(self, path: str, table_ps: Optional[str] = None,
                  cache: bool = True) -> Target:
        """Open a core file for post-mortem debugging: no nub, no
        process — the whole debugger stack runs against the recorded
        memory image.

        The symbol table comes from the core itself when the nub
        embedded one (the usual case); otherwise pass ``table_ps``.
        Backtraces, frame walks, and variable inspection work exactly
        as on the live target at the recorded stop; mutating verbs
        (continue, step, set, break) refuse with a clear error.

        A truncated or tail-corrupt core opens on its longest valid
        prefix with a :class:`~repro.machines.atomicio.SalvagedArtifact`
        warning.
        """
        from ..machines.core import CoreError, CoreFile
        from .postmortem import CoreTransport
        try:
            core = CoreFile.load(path, salvage=True)
            transport = CoreTransport(core, obs=self.obs)
        except CoreError as err:
            raise TargetError("cannot open core %s: %s" % (path, err))
        target = self._adopt_file("core", path, transport, core.arch_name,
                                  table_ps or core.loader_ps, cache)
        target.core = core
        self.obs.tracer.event("ldb.open_core", path=path,
                              arch=core.arch_name, signo=core.signo)
        return target

    def _adopt_file(self, kind: str, path: str, transport,
                    arch_name: str, table_ps: Optional[str],
                    cache: bool) -> Target:
        """Debug a core or a recording: read its symbol table, check it
        names the file's architecture, take the stop the file announces,
        and adopt the breakpoints planted when it was written."""
        if table_ps is None:
            raise TargetError("%s %s embeds no symbol table; pass table_ps"
                              % (kind, path))
        table = self.read_loader_table(table_ps)
        target = Target(self.interp, None, table, self._new_target_name(),
                        transport=transport, cache=cache, obs=self.obs)
        if target.arch_name != arch_name:
            raise TargetError("%s %s is %s but the symbol table says %s"
                              % (kind, path, arch_name, target.arch_name))
        self.targets[target.name] = target
        self.current = target
        target.loader_ps = table_ps
        target.wait_for_stop()
        target.breakpoints.resync()
        return target

    def attach(self, host: str, port: int, table_ps: str,
               cache: bool = True) -> Target:
        """Connect to a faulty process waiting on the network, and
        adopt the breakpoints a previous debugger left planted there
        (paper Sec. 7.1) when the target is found stopped."""
        channel = connect(host, port)
        connector = lambda: connect(host, port)
        target = self.adopt_channel(channel, table_ps, connector=connector,
                                    cache=cache)
        if target.state == "stopped":
            target.breakpoints.resync()
        return target

    def switch_target(self, name: str) -> Target:
        """Switch targets — possibly to a different architecture; the
        per-architecture dictionary rebinds the machine-dependent names
        (paper Sec. 5)."""
        target = self.targets.get(name)
        if target is None:
            raise TargetError("no target named %r (targets: %s)"
                              % (name, " ".join(self.targets) or "none"))
        self.current = target
        return target

    def close(self) -> None:
        """Close every target's transport.  A second call does nothing."""
        for target in self.targets.values():
            target.transport.close()

    # -- breakpoints -------------------------------------------------------------

    def break_at(self, spec: str, target: Target) -> List[int]:
        """Plant breakpoints at ``spec``: ``<file>:<line>`` (every
        stopping point on the line) or a procedure name."""
        if ":" not in spec:
            return [self.break_at_function(spec, target)]
        filename, _, line_text = spec.rpartition(":")
        try:
            line = int(line_text)
        except ValueError:
            raise BreakpointError("bad line number %r" % line_text)
        return self.break_at_line(filename, line, target)

    def break_at_function(self, name: str,
                          target: Optional[Target] = None) -> int:
        """Plant a breakpoint at a procedure's entry stopping point."""
        target = target or self._need_target()
        entry = target.symtab.extern_entry(name)
        if entry is None or entry["kind"].text != "procedure":
            raise BreakpointError("no procedure named %s" % name)
        stop = target.symtab.first_stop_of(entry)
        if stop is None:
            raise BreakpointError("%s has no stopping points" % name)
        address = target.symtab.stop_address(stop)
        target.breakpoints.plant(address, note=name)
        return address

    def break_at_line(self, filename: str, line: int,
                      target: Optional[Target] = None) -> List[int]:
        """Plant breakpoints at every stopping point on a source line
        (one line may hold several — Sec. 2)."""
        target = target or self._need_target()
        hits = target.symtab.stops_for_line(filename, line)
        if not hits:
            raise BreakpointError("no stopping point at %s:%d" % (filename, line))
        addresses = []
        for _proc, stop in hits:
            address = target.symtab.stop_address(stop)
            target.breakpoints.plant(address, note="%s:%d" % (filename, line))
            addresses.append(address)
        return addresses

    def break_at_stop(self, proc_name: str, stop_index: int,
                      target: Optional[Target] = None) -> int:
        target = target or self._need_target()
        entry = target.symtab.extern_entry(proc_name)
        stop = target.symtab.loci(entry)[stop_index]
        address = target.symtab.stop_address(stop)
        target.breakpoints.plant(address, note="%s:%d" % (proc_name, stop_index))
        return address

    def clear_breakpoints(self, target: Optional[Target] = None) -> None:
        (target or self._need_target()).breakpoints.remove_all()

    # -- execution ------------------------------------------------------------------

    def run_to_stop(self, target: Optional[Target] = None,
                    timeout: float = 30.0) -> str:
        """Continue and wait for the next stop or exit."""
        target = target or self._need_target()
        replay = target.replay
        if replay is not None and (target.state == "stopped"
                                   or replay.cut is not None):
            # recording: the controller chunks execution with RUNTO and
            # drops automatic checkpoints along the way, going on with
            # a chunk the last command's deadline cut short
            return self._reverse_op(
                lambda: replay.continue_forward(timeout=timeout))
        if target.state == "stopped":
            if target.at_breakpoint() or self._at_entry_pause(target):
                target.resume_from_breakpoint()
            else:
                target.cont()
        return self._await_stop(target, timeout)

    def _await_stop(self, target: Target, timeout: float = 30.0) -> str:
        """Wait for the target's next stop.  When the connection was
        dropped under the wait (a damaged stop announcement drops it),
        re-dial: the nub announces the stop again, or the target is
        still running and the wait goes on."""
        if target.wait_for_stop(timeout) == "reconnecting":
            target.reconnect()
            if target.state == "running":
                target.wait_for_stop(timeout)
        return target.state

    def _at_entry_pause(self, target: Target) -> bool:
        from ..machines.isa import SIGTRAP
        if target.state != "stopped" or target.signo != SIGTRAP:
            return False
        pause = target.linker.global_address("__nub_pause")
        return pause is not None and target.stop_pc() == pause

    def _need_target(self) -> Target:
        if self.current is None:
            raise TargetError("no current target")
        return self.current

    # -- inspection --------------------------------------------------------------------

    def where_am_i(self, target: Optional[Target] = None) -> Tuple[str, str, int]:
        """(procedure, file, line) at the current stop."""
        target = target or self._need_target()
        frame = target.top_frame()
        filename, line = frame.location_line()
        return frame.proc_name(), filename, line

    def print_variable(self, name: str, frame: Optional[Frame] = None,
                       target: Optional[Target] = None) -> str:
        """Print a variable's value; returns the printed text."""
        target = target or self._need_target()
        frame = frame or target.top_frame()
        entry = frame.resolve(name)
        if entry is None:
            raise TargetError("no symbol %r visible here" % name)
        before = _tell(self.stdout)
        target.print_value(entry, frame)
        return _read_back(self.stdout, before)

    def backtrace(self, target: Target, limit: int) -> List[dict]:
        """One row per frame, innermost first: ``level``, ``proc``,
        ``file``, ``line``, ``pc``, ``corrupt``, and ``offset`` (the pc
        relative to its procedure's entry, what the triage normalizer
        folds to "proc+0xoff"; None when unknown)."""
        rows = []
        for frame in target.frames(limit):
            filename, line = frame.location_line()
            row = {"level": frame.level, "proc": frame.proc_name(),
                   "file": filename, "line": line, "pc": frame.pc,
                   "corrupt": frame.corrupt, "offset": None}
            if not frame.corrupt:
                hit = target.linker.proc_containing(frame.pc)
                if hit is not None:
                    row["offset"] = frame.pc - hit[0]
            rows.append(row)
        return rows

    def backtrace_text(self, target: Optional[Target] = None,
                       limit: int = 64) -> str:
        return format_backtrace(self.backtrace(target or self._need_target(),
                                               limit))

    def registers(self, target: Target) -> Dict[str, int]:
        """The integer registers at the top frame, name -> value.

        The register names come from the machine-dependent PostScript
        (the RegNames array in data/<arch>.ps) — "ldb uses machine-
        dependent PostScript to ... enumerate a target's registers"
        (paper Sec. 4.3)."""
        frame = target.top_frame()
        return {item.text: frame.read_reg(index) & 0xFFFFFFFF
                for index, item in enumerate(target.arch_dict["RegNames"])}

    def registers_text(self, target: Optional[Target] = None) -> str:
        """:meth:`registers`, then the floating-point registers the
        FRegNames array names, one per line."""
        target = target or self._need_target()
        parts = ["%-4s 0x%08x" % item
                 for item in self.registers(target).items()]
        from ..postscript import Location
        memory = target.top_frame().memory
        for index, item in enumerate(target.arch_dict["FRegNames"]):
            value = memory.fetch(Location.absolute("f", index), "f64")
            parts.append("%-4s %g" % (item.text, value))
        return "\n".join(parts) + "\n"

    # -- time travel (checkpoint/replay) -----------------------------------

    def enable_time_travel(self, target: Optional[Target] = None,
                           interval: int = 5_000, capacity: int = 32):
        """Start recording: a base checkpoint now, automatic checkpoints
        every ``interval`` retired instructions from here on, and the
        reverse commands become available."""
        from ..timetravel import ReplayController, ReplayError
        target = target or self._need_target()
        if target.replay is None:
            controller = ReplayController(target, interval=interval,
                                          capacity=capacity)
            try:
                controller.enable()
            except ReplayError as err:
                raise TargetError(str(err))
            target.replay = controller
        return target.replay

    def start_recording(self, target: Optional[Target] = None,
                        path: Optional[str] = None, interval: int = 5_000,
                        capacity: int = 32):
        """Like :meth:`enable_time_travel`, but the session also
        accumulates a persistent recording: every checkpoint is spilled
        (complete machine state pulled over the wire), every stop gets
        a divergence digest, and debugger-injected writes are logged.
        ``record_save`` writes the accumulated file."""
        from ..trace import TraceWriter
        target = target or self._need_target()
        replay = self.enable_time_travel(target, interval=interval,
                                         capacity=capacity)
        if target.trace_writer is None:
            writer = TraceWriter(target, path=path, interval=interval)
            replay.writer = writer
            target.trace_writer = writer
            # backfill the current stop: enable_time_travel checkpointed
            # it before the writer existed (spill() dedups)
            writer.spill(replay._ensure_checkpoint_here())
            self.obs.tracer.event("ldb.start_recording", path=path,
                                  interval=interval)
        elif path is not None:
            target.trace_writer.path = path
        return target.trace_writer

    def record_save(self, path: Optional[str] = None,
                    target: Optional[Target] = None,
                    allow_partial: bool = False):
        """Write the accumulated recording to disk (``record save``).

        With ``allow_partial=True`` a target that can no longer answer
        SPILL (dead nub, severed transport) degrades to saving the
        checkpoints already pulled — a salvageable partial recording —
        instead of failing outright."""
        from ..nub.session import TransportError
        from ..trace import TraceError
        target = target or self._need_target()
        writer = target.trace_writer
        if writer is None:
            raise TargetError(
                "no recording in progress on %s (use 'record --save' "
                "first)" % target.name)
        if target.state == "stopped":
            # make sure the position being looked at is in the file
            try:
                writer.spill(target.replay._ensure_checkpoint_here())
            except (TargetError, TransportError):
                if not allow_partial:
                    raise
        try:
            return writer.save(path)
        except (TraceError, TargetError, TransportError, OSError) as err:
            if not allow_partial:
                if isinstance(err, (TraceError, OSError)):
                    raise TargetError(str(err))
                raise
            self.obs.tracer.warn("ldb.record_save_degraded",
                                 reason=str(err))
            try:
                return writer.save(path, partial=True)
            except TraceError as inner:
                raise TargetError(str(inner))

    def record_stop(self, target: Optional[Target] = None):
        """Stop recording without saving: detach the writer and discard
        what it accumulated (``record stop``).  Time travel itself
        stays enabled — only the persistent-recording overlay ends, and
        the input log stays with the controller, whose replays re-apply
        it.  Answers (spill count, input count) not saved."""
        target = target or self._need_target()
        writer = target.trace_writer
        if writer is None:
            raise TargetError(
                "no recording in progress on %s (use 'record --save' "
                "first)" % target.name)
        discarded = (len(writer.spills) + len(writer._pending),
                     len(writer.inputs))
        target.trace_writer = None
        if target.replay is not None and getattr(
                target.replay, "writer", None) is writer:
            target.replay.writer = None
        self.obs.metrics.inc("trace.stops")
        self.obs.tracer.event("ldb.record_stop", spills=discarded[0],
                              inputs=discarded[1])
        return discarded

    def open_recording(self, path: str, table_ps: Optional[str] = None,
                       cache: bool = True) -> Target:
        """Reopen a saved recording: no nub, no live process — the
        whole debugger stack runs against re-executed machine states
        restored from the file's checkpoint spills.

        Unlike a core, a recording is a *timeline*: forward continue,
        stepping, reverse commands, and ``goto`` all work, and the
        re-execution is verified against the recorded event log —
        a mismatch raises a divergence error naming the first bad
        icount rather than silently serving wrong state.

        A truncated or tail-corrupt file opens on its longest valid
        chunk prefix — the spills, stops, and inputs that survived —
        with a :class:`~repro.machines.atomicio.SalvagedArtifact`
        warning; replay verifies up to the salvage horizon."""
        from ..timetravel import ReplayController
        from ..trace import Recording, ReplayTransport, TraceError
        from ..trace.format import SPILL_AUTO
        from ..timetravel.ring import Checkpoint
        try:
            recording = Recording.load(path, salvage=True)
            transport = ReplayTransport(recording, obs=self.obs)
        except TraceError as err:
            raise TargetError("cannot open recording %s: %s" % (path, err))
        meta = recording.meta
        target = self._adopt_file("recording", path, transport,
                                  meta.arch_name, table_ps or meta.loader_ps,
                                  cache)
        target.recording = recording
        # seed the reverse machinery with the file's spilled
        # checkpoints, every one restorable by its recorded cid, and
        # its stores: the controller's runs re-apply them
        controller = ReplayController(
            target, interval=meta.interval,
            capacity=max(64, 2 * len(recording.spills) + 8))
        controller.inputs = list(recording.inputs)
        for spill in recording.spills:
            controller.ring.add(Checkpoint(
                spill.cid, spill.icount, spill.pc, None, spill.signo,
                spill.code, "auto" if spill.kind == SPILL_AUTO else "stop"))
        target.replay = controller
        self.obs.tracer.event("ldb.open_recording", path=path,
                              arch=meta.arch_name,
                              spills=len(recording.spills),
                              final_icount=recording.final_icount)
        return target

    def _replay(self, target: Optional[Target] = None):
        target = target or self._need_target()
        if target.replay is None:
            raise TargetError(
                "time travel is not enabled on %s (use 'record' first)"
                % target.name)
        return target.replay

    def _reverse_op(self, op):
        from ..timetravel import ReplayError
        try:
            return op()
        except ReplayError as err:
            raise TargetError(str(err))

    def reverse_continue(self, target: Optional[Target] = None):
        """Rewind to the most recent earlier breakpoint hit."""
        replay = self._replay(target)
        return self._reverse_op(replay.reverse_continue)

    def reverse_step(self, target: Optional[Target] = None):
        """Rewind to the previous stopping point (into calls)."""
        replay = self._replay(target)
        return self._reverse_op(replay.reverse_step)

    def reverse_next(self, target: Optional[Target] = None):
        """Rewind to the previous stopping point at the same or a
        shallower frame depth (over calls)."""
        replay = self._replay(target)
        return self._reverse_op(replay.reverse_next)

    def goto_icount(self, icount: int, target: Optional[Target] = None):
        """Travel to an absolute retired-instruction count."""
        replay = self._replay(target)
        return self._reverse_op(lambda: replay.goto_icount(icount))

    # -- events and stepping (paper Sec. 7.1) -----------------------------------------

    @property
    def events(self):
        """The event engine: typed stop events, conditional breakpoints,
        and source-level stepping built on breakpoints."""
        if self._events is None:
            from .events import EventEngine
            self._events = EventEngine(self)
        return self._events

    def step(self, target: Optional[Target] = None):
        """Source-level step (into): run to the next stopping point."""
        return self.events.step(target or self._need_target())

    def step_over(self, target: Optional[Target] = None):
        """Source-level next: skip stops in deeper frames."""
        return self.events.next(target or self._need_target())

    def break_if(self, spec: str, condition: str,
                 target: Optional[Target] = None) -> int:
        """A conditional breakpoint: stop only when the expression is
        true (event-driven debugging subsumes these, Sec. 7.1)."""
        addresses = self.break_at(spec, target or self._need_target())
        for address in addresses:
            self.events.add_condition(address, condition)
        return addresses[0]

    # -- expressions (via the expression server) ------------------------------------------

    def expression_client(self):
        if self._expr_client is None:
            from .exprserver import ExpressionClient
            self._expr_client = ExpressionClient(self)
        return self._expr_client

    def evaluate(self, expression: str, frame: Optional[Frame] = None,
                 target: Optional[Target] = None):
        """Evaluate a C expression in the current frame's context."""
        target = target or self._need_target()
        frame = frame or target.top_frame()
        return self.expression_client().evaluate(expression, target, frame)

    def assign(self, expression: str, frame: Optional[Frame] = None,
               target: Optional[Target] = None):
        """Assignments are expressions (``a = 5``)."""
        return self.evaluate(expression, frame, target)


def format_backtrace(rows: List[dict]) -> str:
    """:meth:`Ldb.backtrace` rows as ``#<level> <proc> () at
    <file>:<line>`` lines."""
    return "\n".join("#%-2d %s () at %s:%d" % (row["level"], row["proc"],
                                               row["file"], row["line"])
                     for row in rows) + "\n"


def _tell(stream) -> Optional[int]:
    try:
        return stream.tell()
    except (AttributeError, OSError, io.UnsupportedOperation):
        return None


def _read_back(stream, before: Optional[int]) -> str:
    """Recover what was just printed, when the stream allows it; on a
    write-only stream (a terminal) the text is already visible."""
    if before is None:
        return ""
    try:
        end = stream.tell()
        stream.seek(before)
        text = stream.read(end - before)
        stream.seek(end)
        return text
    except (OSError, io.UnsupportedOperation):
        return ""


def _loader_ps(exe: Executable) -> str:
    return getattr(exe, "loader_ps", None) or loader_table_ps(exe)


def load_over_wire(ldb: Ldb, exe: Executable, cache: bool = True,
                   core_path: Optional[str] = None,
                   fault_schedule=None) -> Target:
    """Start ``exe`` under a nub on its own thread, spoken to over a
    socketpair with the full byte protocol (HELLO, retries, framing).

    This is the wire counterpart of :meth:`Ldb.load_program` (same
    ``cache`` and ``core_path``), for what only a wire can show: a seeded
    :class:`~repro.nub.faults.FaultSchedule` on the nub's sends (the
    session server's ``fault`` spawn argument, the fault-injection
    tests), byte counts, and the replies the in-thread host must match.
    """
    debugger_end, nub_end = pair()
    process = Process(exe)
    table_ps = _loader_ps(exe)
    nub = Nub(process, channel=nub_end, core_path=core_path,
              loader_ps=table_ps, fault_schedule=fault_schedule)
    runner = NubRunner(nub).start()
    target = ldb.adopt_channel(debugger_end, table_ps, cache=cache)
    target.process = process
    target.nub = nub
    target.runner = runner
    target.core_path = core_path
    return target
