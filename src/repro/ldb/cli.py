"""The ldb command-line user interface.

A small client of the :class:`~repro.ldb.debugger.Ldb` interface —
like the paper's ldb, the debugger proper exposes a client interface so
other front ends (GUIs, event-action debuggers) could be built on it.

Usage::

    ldb program.img              # image produced by `rcc -g ... -o program.img`
    ldb --source fib.c --target rmips

Commands::

    break <function> | break <file>:<line>
    run / continue / c
    record [interval]
    record --save <file> [interval]
    record save [file]
    record stop
    replay <file>
    reverse-continue / rc
    reverse-step / rs
    reverse-next / rn
    goto <icount>
    icount / checkpoint
    print <expression> | p <expression>
    set <var> = <expression>
    backtrace / bt
    where
    core <file>
    dumpcore <file>
    registers / regs
    info breaks | info checkpoints
    stats
    sim
    trace on | trace off | trace dump [file]
    triage <dir|manifest.json|artifact>
    targets / target <name>
    kill / quit

Batch mode::

    ldb triage <dir|manifest.json> [--workers N] [--json report.json]
        [--top N]

See docs/ldb.md for the full command reference.
"""

from __future__ import annotations

import pickle
import sys
import warnings
from typing import List, Optional

from ..cc.driver import compile_and_link
from ..cc.lexer import CError
from .breakpoints import BreakpointError
from ..postscript import PSError
from ..trace import DivergenceError
from .debugger import Ldb
from .exprserver import EvalError
from .target import TargetError


class Cli:
    def __init__(self, stdin=None, stdout=None):
        self.stdin = stdin if stdin is not None else sys.stdin
        self.out = stdout if stdout is not None else sys.stdout
        self.ldb = Ldb(stdout=self.out)
        self.done = False
        self.server = None  # the session server, once `serve` runs

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def say(self, text: str) -> None:
        self.out.write(text + "\n")

    def load_image(self, path: str) -> None:
        with open(path, "rb") as f:
            exe = pickle.load(f)
        self.start_program(exe)

    def compile_source(self, path: str, target_arch: str) -> None:
        with open(path) as f:
            source = f.read()
        exe = compile_and_link({path: source}, target_arch, debug=True)
        self.start_program(exe)

    def start_program(self, exe) -> None:
        target = self.ldb.load_program(exe)
        self.say("target %s (%s) stopped before main"
                 % (target.name, target.arch_name))

    # -- the command loop ---------------------------------------------------

    def repl(self) -> None:
        try:
            while not self.done:
                self.out.write("(ldb) ")
                self.out.flush()
                line = self.stdin.readline()
                if not line:
                    break
                self.command(line.strip())
        finally:
            self.close()

    def command(self, line: str) -> None:
        if not line:
            return
        verb, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            self.dispatch(verb, rest)
        except DivergenceError as err:
            # replay stopped matching the file: the session is suspect
            # from here on, say so loudly but keep the REPL alive
            self.say("ldb: REPLAY DIVERGED: %s" % err)
        except (TargetError, BreakpointError, EvalError, CError, PSError) as err:
            self.say("ldb: %s" % err)

    def dispatch(self, verb: str, rest: str) -> None:
        if verb in ("quit", "q", "exit"):
            self.done = True
        elif verb == "break" or verb == "b":
            self.cmd_break(rest)
        elif verb in ("run", "continue", "c", "r"):
            self.cmd_continue()
        elif verb in ("step", "s"):
            self.cmd_step(over=False)
        elif verb in ("next", "n"):
            self.cmd_step(over=True)
        elif verb == "record":
            self.cmd_record(rest)
        elif verb == "replay":
            self.cmd_replay(rest)
        elif verb in ("reverse-continue", "rc"):
            self.cmd_reverse("continue")
        elif verb in ("reverse-step", "rs"):
            self.cmd_reverse("step")
        elif verb in ("reverse-next", "rn"):
            self.cmd_reverse("next")
        elif verb == "goto":
            self.cmd_goto(rest)
        elif verb == "icount":
            self.say("icount %d" % self.ldb.current.current_icount())
        elif verb == "checkpoint":
            cid, icount = self.ldb.current.take_checkpoint()
            self.say("checkpoint %d at icount %d" % (cid, icount))
        elif verb == "condition":
            spec, _, expr = rest.partition(" ")
            self.ldb.break_if(spec, expr.strip())
            self.say("conditional breakpoint at %s when %s" % (spec, expr))
        elif verb in ("print", "p"):
            self.cmd_print(rest)
        elif verb == "set":
            self.ldb.assign(rest)
        elif verb in ("backtrace", "bt"):
            self.out.write(self.ldb.backtrace_text())
        elif verb == "where":
            proc, filename, line = self.ldb.where_am_i()
            self.say("%s () at %s:%d" % (proc, filename, line))
        elif verb == "core":
            self.cmd_core(rest)
        elif verb == "dumpcore":
            self.cmd_dumpcore(rest)
        elif verb in ("registers", "regs"):
            self.out.write(self.ldb.registers_text())
        elif verb == "info":
            self.cmd_info(rest)
        elif verb == "stats":
            self.cmd_stats()
        elif verb == "sim":
            self.cmd_sim()
        elif verb == "trace":
            self.cmd_trace(rest)
        elif verb == "triage":
            self.cmd_triage(rest)
        elif verb == "targets":
            for name, target in self.ldb.targets.items():
                marker = "*" if target is self.ldb.current else " "
                self.say("%s %s (%s) %s" % (marker, name, target.arch_name,
                                            target.state))
        elif verb == "target":
            target = self.ldb.switch_target(rest)
            self.say("now debugging %s (%s)" % (target.name, target.arch_name))
        elif verb == "kill":
            self.ldb.current.kill()
            self.say("killed")
        elif verb == "serve":
            self.cmd_serve(rest)
        elif verb == "sessions":
            self.cmd_sessions()
        else:
            self.say("ldb: unknown command %r (try: break condition run step next "
                     "record replay reverse-continue reverse-step reverse-next "
                     "goto print set backtrace where core dumpcore registers "
                     "stats sim trace triage targets serve sessions quit)" % verb)

    def _open_salvageable(self, opener, path: str):
        """Run ``opener(path)`` surfacing any SalvagedArtifact warning
        as a visible CLI line (damaged artifacts open read-only on
        their valid prefix — the user should know)."""
        from ..machines.atomicio import SalvagedArtifact
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", SalvagedArtifact)
            target = opener(path)
        for entry in caught:
            if issubclass(entry.category, SalvagedArtifact):
                self.say("warning: %s" % entry.message)
        return target

    def cmd_core(self, path: str) -> None:
        """Open a core file: a post-mortem target with no nub behind it."""
        if not path:
            self.say("usage: core <file>")
            return
        target = self._open_salvageable(self.ldb.open_core, path)
        self.say("post-mortem target %s (%s): signal %d, icount %d"
                 % (target.name, target.arch_name, target.signo,
                    target.core.icount))
        try:
            proc, filename, line = self.ldb.where_am_i()
            self.say("died in %s () at %s:%d" % (proc, filename, line))
        except Exception:
            self.say("died at an unknown location (saved context unreadable)")

    def cmd_dumpcore(self, path: str) -> None:
        """Snapshot the stopped target into a core file."""
        if not path:
            self.say("usage: dumpcore <file>")
            return
        core = self.ldb.current.dump_core(path)
        self.say("core written to %s (%d memory segments, icount %d)"
                 % (path, len(core.segments), core.icount))

    def cmd_record(self, rest: str) -> None:
        words = rest.split()
        if words and words[0] == "stop":
            # `record stop`: detach the writer without saving
            spills, inputs = self.ldb.record_stop()
            self.say("recording stopped without saving (%d checkpoint "
                     "spills and %d inputs not saved; time travel stays "
                     "on)"
                     % (spills, inputs))
            return
        if words and words[0] == "save":
            # `record save [file]`: write the accumulated recording
            path = words[1] if len(words) > 1 else None
            recording = self.ldb.record_save(path)
            writer = self.ldb.current.trace_writer
            self.say("recording saved to %s (%d checkpoint spills, "
                     "%d stops, %d inputs)"
                     % (writer.path, len(recording.spills),
                        len(recording.stops), len(recording.inputs)))
            return
        if words and words[0] == "--save":
            # `record --save <file> [interval]`: persistent recording
            if len(words) < 2:
                self.say("usage: record --save <file> [interval]")
                return
            path = words[1]
            interval = int(words[2]) if len(words) > 2 else 5_000
            writer = self.ldb.start_recording(path=path, interval=interval)
            self.say("recording to %s: checkpoint spill every %d "
                     "instructions (write it with: record save)"
                     % (writer.path, writer.interval))
            return
        interval = int(rest) if rest else 5_000
        replay = self.ldb.enable_time_travel(interval=interval)
        self.say("recording: checkpoint every %d instructions"
                 % replay.interval)

    def cmd_replay(self, path: str) -> None:
        """Reopen a saved recording: a replay target with no nub."""
        if not path:
            self.say("usage: replay <file>")
            return
        target = self._open_salvageable(self.ldb.open_recording, path)
        recording = target.recording
        self.say("replay target %s (%s): %d checkpoint spills, "
                 "icounts %d..%d"
                 % (target.name, target.arch_name, len(recording.spills),
                    recording.meta.base_icount, recording.final_icount))
        try:
            proc, filename, line = self.ldb.where_am_i()
            self.say("recording ends in %s () at %s:%d (signal %d)"
                     % (proc, filename, line, target.signo))
        except Exception:
            self.say("recording ends at an unknown location")

    def cmd_reverse(self, how: str) -> None:
        if how == "continue":
            hit = self.ldb.reverse_continue()
        elif how == "step":
            hit = self.ldb.reverse_step()
        else:
            hit = self.ldb.reverse_next()
        proc, filename, line = self.ldb.where_am_i()
        self.say("back at icount %d: %s () at %s:%d"
                 % (hit.icount, proc, filename, line))

    def cmd_goto(self, rest: str) -> None:
        state = self.ldb.goto_icount(int(rest))
        if state == "stopped":
            self.say("now at icount %d" % self.ldb.current.current_icount())
        else:
            self.say("target is %s" % state)

    def cmd_break(self, spec: str) -> None:
        if ":" in spec:
            filename, _, line_text = spec.rpartition(":")
            addresses = self.ldb.break_at_line(filename, int(line_text))
            for address in addresses:
                self.say("breakpoint at 0x%x (%s)" % (address, spec))
        else:
            address = self.ldb.break_at_function(spec)
            self.say("breakpoint at 0x%x (%s)" % (address, spec))

    def cmd_step(self, over: bool) -> None:
        event = self.ldb.step_over() if over else self.ldb.step()
        if event.kind in ("step", "breakpoint"):
            proc, filename, line = self.ldb.where_am_i()
            self.say("%s () at %s:%d" % (proc, filename, line))
        elif event.kind == "exit":
            self.say("program exited with status %s" % event.status)
        else:
            self.say("stopped: %s" % event.kind)

    def cmd_continue(self) -> None:
        # the event engine applies breakpoint conditions (Sec. 7.1)
        try:
            event = self.ldb.events.wait()
        except TimeoutError as err:
            self.say("target %s is still running (%s)"
                     % (self.ldb.current.name, err))
            return
        target = self.ldb.current
        if event.kind in ("breakpoint", "step"):
            proc, filename, line = self.ldb.where_am_i()
            self.say("stopped in %s () at %s:%d" % (proc, filename, line))
        elif event.kind == "signal":
            proc, filename, line = self.ldb.where_am_i()
            self.say("signal %d in %s () at %s:%d"
                     % (event.signo, proc, filename, line))
        elif event.kind == "exit":
            self.say("program exited with status %s" % event.status)
            if hasattr(target, "process"):
                self.out.write(target.process.output())
        elif event.kind == "died":
            self.say("target died: %s" % event.reason)
            if event.core_path:
                self.say("a core was written; open it with: core %s"
                         % event.core_path)
        else:
            self.say("target is %s" % event.kind)

    def cmd_print(self, expr: str) -> None:
        # a bare variable name prints via its type's printer procedure;
        # anything else goes through the expression server
        if expr.isidentifier():
            try:
                self.ldb.print_variable(expr)
                return
            except TargetError:
                pass
        value = self.ldb.evaluate(expr)
        self.say(str(value))

    def cmd_info(self, what: str) -> None:
        if what.startswith("break"):
            target = self.ldb.current
            for address, bp in sorted(target.breakpoints.planted.items()):
                self.say("0x%x %s" % (address, bp.note))
        elif what.startswith("checkpoint"):
            target = self.ldb.current
            if target.replay is None:
                self.say("not recording")
                return
            for ck in target.replay.ring.entries:
                self.say("ckpt %d at icount %d pc=0x%x (%s)"
                         % (ck.cid, ck.icount, ck.pc, ck.kind))
        else:
            self.say("info: breaks | checkpoints")

    # -- observability ------------------------------------------------------

    def cmd_stats(self) -> None:
        """Print every nonzero metric in the debugger's registry."""
        snapshot = self.ldb.obs.metrics.snapshot()
        if not snapshot:
            self.say("no metrics recorded")
            return
        width = max(len(name) for name in snapshot)
        for name in sorted(snapshot):
            value = snapshot[name]
            text = "%g" % value if isinstance(value, float) else str(value)
            self.say("%-*s  %s" % (width, name, text))

    def cmd_sim(self) -> None:
        """Print the current target's simulator-engine counters."""
        target = self.ldb.current
        if target is None:
            self.say("no target")
            return
        process = getattr(target, "process", None)
        if process is None:
            self.say("target %s has no in-process simulator" % target.name)
            return
        engine = process.cpu.engine
        info = engine.describe()
        self.say("engine %s" % engine.name)
        if not info:
            return
        width = max(len(name) for name in info)
        for name in sorted(info):
            self.say("%-*s  %s" % (width, name, info[name]))

    def cmd_trace(self, rest: str) -> None:
        tracer = self.ldb.obs.tracer
        arg, _, operand = rest.partition(" ")
        if arg == "on":
            tracer.enable()
            self.say("tracing on")
        elif arg == "off":
            tracer.disable()
            self.say("tracing off")
        elif arg == "dump":
            path = operand.strip()
            if path:
                from ..machines.atomicio import atomic_write_text
                count = len(tracer.records())
                atomic_write_text(path, tracer.dump())
                self.say("%d trace records written to %s" % (count, path))
            else:
                self.out.write(tracer.dump())
        elif arg == "clear":
            tracer.clear()
            self.say("trace buffer cleared")
        else:
            self.say("trace: on | off | dump [file] | clear")

    def cmd_triage(self, rest: str) -> None:
        """Batch-triage a corpus of crash artifacts from inside the
        REPL, serially in this process:
        `triage <dir|manifest.json|artifact>`.  The full flag surface
        (a process pool included) lives on the `ldb triage`
        subcommand."""
        from ..triage import TriageEngine, TriageError
        words = rest.split()
        if len(words) != 1:
            self.say("usage: triage <dir|manifest.json|artifact>")
            return
        # share the debugger's registry so `stats` shows triage.*
        engine = TriageEngine(obs=self.ldb.obs)
        try:
            report = engine.triage(words[0])
        except TriageError as err:
            self.say("ldb: triage: %s" % err)
            return
        self.out.write(report.render())

    def cmd_serve(self, rest: str) -> None:
        """Start the session server (docs/ldb.md, DESIGN.md Sec. 11)
        on a background thread; this CLI keeps working beside it."""
        if self.server is not None:
            self.say("session server already listening on %s:%d"
                     % (self.server.host, self.server.port))
            return
        from ..serve import DebugServer
        port = int(rest) if rest else 0
        self.server = DebugServer(port=port)
        self.say("session server listening on %s:%d"
                 % (self.server.host, self.server.port))

    def cmd_sessions(self) -> None:
        if self.server is None:
            self.say("no session server (start one with: serve [port])")
            return
        rows = self.server.manager.list_sessions()
        if not rows:
            self.say("no sessions")
            return
        for row in rows:
            self.say("%s  %-8s queued=%d busy=%s idle=%.1fs done=%d  %s"
                     % (row["session"], row["state"], row["queued"],
                        "y" if row["busy"] else "n", row["idle_seconds"],
                        row["commands_done"], row.get("reason", "")))


def triage_main(argv: List[str]) -> int:
    """The `ldb triage` subcommand: batch mode, no REPL."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="ldb triage",
        description="batch-triage a corpus of crash artifacts (core "
                    "files and .ldbrec recordings) into ranked, "
                    "deduplicated crash groups")
    ap.add_argument("corpus",
                    help="a directory of artifacts, a JSON manifest, "
                         "or a single artifact file")
    ap.add_argument("--workers", type=int, default=1,
                    help="worker processes (default 1: serial, in this "
                         "process)")
    ap.add_argument("--json", metavar="FILE",
                    help="also write the full report as JSON")
    ap.add_argument("--top", type=int, default=10,
                    help="crash groups to show (default 10)")
    ap.add_argument("--frames", type=int, default=8,
                    help="exemplar backtrace frames to show (default 8)")
    args = ap.parse_args(argv)

    from ..triage import TriageEngine, TriageError
    try:
        engine = TriageEngine(workers=args.workers)
        report = engine.triage(args.corpus)
    except TriageError as err:
        sys.stderr.write("ldb triage: %s\n" % err)
        return 2
    sys.stdout.write(report.render(top=args.top, frames=args.frames))
    if args.json:
        report.dump_json(args.json)
        sys.stdout.write("full report written to %s\n" % args.json)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "triage":
        return triage_main(argv[1:])

    ap = argparse.ArgumentParser(prog="ldb", description="a retargetable debugger")
    ap.add_argument("image", nargs="?", help="program image from rcc -o")
    ap.add_argument("--source", help="compile and debug a C source file")
    ap.add_argument("--core", help="open a core file post-mortem")
    ap.add_argument("--replay", help="reopen a saved recording (.ldbrec)")
    ap.add_argument("--target", default="rmips",
                    choices=["rmips", "rmipsel", "rsparc", "rm68k", "rvax"])
    args = ap.parse_args(argv)
    cli = Cli()
    if args.source:
        cli.compile_source(args.source, args.target)
    elif args.core:
        cli.cmd_core(args.core)
    elif args.replay:
        cli.cmd_replay(args.replay)
    elif args.image:
        cli.load_image(args.image)
    else:
        ap.error("give an image, --source, --core, or --replay")
    cli.repl()
    return 0


if __name__ == "__main__":
    sys.exit(main())
