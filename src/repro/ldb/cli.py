"""The ldb command-line user interface.

Like the paper's ldb, the debugger proper exposes a client interface
that other front ends (GUIs, event-action debuggers, the session
server) are built on; this REPL renders the answers of
:class:`~repro.ldb.api.DebugAPI`, the same verbs the gateway serves.

Usage::

    ldb program.img              # image produced by `rcc -g ... -o program.img`
    ldb --source fib.c --target rmips
    ldb triage <dir|manifest.json> [--workers N] [--json report.json]
        [--top N]

An unknown command lists the verbs; docs/ldb.md is the full command
reference.
"""

from __future__ import annotations

import pickle
import sys
import warnings
from typing import List, Optional

from ..cc.driver import compile_and_link
from ..cc.lexer import CError
from ..postscript import PSError
from ..trace import DivergenceError
from .api import ERR_DIVERGED, ApiError, DebugAPI
from .breakpoints import BreakpointError
from .debugger import Ldb, format_backtrace
from .exprserver import EvalError
from .target import TargetError

#: verbs that need an argument, with the line that says so
USAGE = {
    "break": "break <function> | break <file>:<line>",
    "condition": "condition <function | file:line> <expression>",
    "print": "print <expression>",
    "set": "set <var> = <expression>",
    "goto": "goto <icount>",
    "replay": "replay <file>",
    "core": "core <file>",
    "dumpcore": "dumpcore <file>",
    "target": "target <name>",
}

#: short and long spellings of the verbs, by the name each one runs as
ALIASES = {"q": "quit", "exit": "quit", "b": "break", "run": "continue",
           "c": "continue", "r": "continue", "s": "step", "n": "next",
           "rc": "reverse-continue", "rs": "reverse-step",
           "rn": "reverse-next", "p": "print", "bt": "backtrace",
           "regs": "registers"}

#: the automatic-checkpoint interval ``record`` uses unless given one
RECORD_INTERVAL = 5_000


class Cli:
    """The REPL: a renderer over :class:`~repro.ldb.api.DebugAPI`.

    Each verb that acts on the current target turns its text into one
    ``DebugAPI.execute`` call and prints the answer, so the REPL and
    the session server's gateway share one implementation of every
    such verb, and the REPL's errors are the API's messages.  The verbs
    only a terminal needs (recording start, cores, checkpoints,
    observability, serving) are methods of this class alone."""

    def __init__(self, stdin=None, stdout=None):
        self.stdin = stdin if stdin is not None else sys.stdin
        self.out = stdout if stdout is not None else sys.stdout
        self.ldb = Ldb(stdout=self.out)
        self.api = DebugAPI(self.ldb)
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
        except (ApiError, DivergenceError) as err:
            # a replay that stopped matching its file leaves the session
            # suspect from here on: say so loudly, but keep going
            diverged = getattr(err, "code", ERR_DIVERGED) == ERR_DIVERGED
            self.say("ldb: %s%s" % ("REPLAY DIVERGED: " if diverged else "",
                                    err))
        except TimeoutError as err:
            self.say("target %s is still running (%s)"
                     % (self.ldb.current.name, err))
        except (TargetError, BreakpointError, EvalError, CError, PSError,
                OSError) as err:
            self.say("ldb: %s" % err)

    def dispatch(self, verb: str, rest: str) -> None:
        verb = ALIASES.get(verb, verb)
        handler = getattr(self, "cmd_" + verb.replace("-", "_"), None)
        if handler is None:
            self.say("ldb: unknown command %r (try: %s)" % (verb, " ".join(
                sorted(name[4:].replace("_", "-") for name in dir(self)
                       if name.startswith("cmd_")))))
        elif verb in USAGE and not rest:
            self.say("usage: %s" % USAGE[verb])
        else:
            handler(rest)

    def cmd_quit(self, rest: str) -> None:
        self.done = True

    # -- verbs answered by the API ------------------------------------------

    def cmd_break(self, spec: str) -> None:
        result = self.api.execute("break", {"at": spec})
        for address in result["addresses"]:
            self.say("breakpoint at 0x%x (%s)" % (address, spec))

    def cmd_condition(self, rest: str) -> None:
        spec, _, expr = rest.partition(" ")
        expr = expr.strip()
        if not expr:
            self.say("usage: %s" % USAGE["condition"])
            return
        self.api.execute("break", {"at": spec, "condition": expr})
        self.say("conditional breakpoint at %s when %s" % (spec, expr))

    def cmd_continue(self, rest: str) -> None:
        # the event engine applies breakpoint conditions (Sec. 7.1)
        self._say_event(self.api.execute("continue"))

    def cmd_step(self, rest: str) -> None:
        self._say_event(self.api.execute("step"))

    def cmd_next(self, rest: str) -> None:
        self._say_event(self.api.execute("next"))

    def _say_event(self, result: dict) -> None:
        event = result["event"]
        if event == "breakpoint":
            self.say("stopped in %s" % _place(result["where"]))
        elif event == "step":
            self.say(_place(result["where"]))
        elif event == "signal":
            self.say("signal %d in %s"
                     % (result["signo"], _place(result["where"])))
        elif event == "exit":
            self.say("program exited with status %s" % result["status"])
            process = getattr(self.ldb.current, "process", None)
            if process is not None:
                self.out.write(process.output())
        elif event == "died":
            self.say("target died: %s" % result["reason"])
            if result["core_path"]:
                self.say("a core was written; open it with: core %s"
                         % result["core_path"])
        else:
            self.say("target is %s" % event)

    def cmd_print(self, expr: str) -> None:
        result = self.api.execute("print", {"expr": expr})
        # a variable's printer procedure has already written its text
        # to this REPL's output; an evaluated expression answers a value
        if "value" in result:
            self.say(str(result["value"]))

    def cmd_set(self, expr: str) -> None:
        self.say(str(self.api.execute("set", {"expr": expr})["value"]))

    def cmd_backtrace(self, rest: str) -> None:
        self.out.write(format_backtrace(
            self.api.execute("backtrace")["frames"]))

    def cmd_where(self, rest: str) -> None:
        self.say(_place(self.api.execute("where")))

    def cmd_kill(self, rest: str) -> None:
        self.api.execute("kill")
        self.say("killed")

    def cmd_dumpcore(self, path: str) -> None:
        """Snapshot the stopped target into a core file."""
        result = self.api.execute("dumpcore", {"path": path})
        self.say("core written to %s (%d memory segments, icount %d)"
                 % (path, result["segments"], result["icount"]))

    def cmd_sim(self, rest: str) -> None:
        """Print the current target's simulator-engine counters."""
        info = self.api.execute("sim_stats")
        self.say("engine %s" % info.pop("engine"))
        if info:
            width = max(len(name) for name in info)
            for name in sorted(info):
                self.say("%-*s  %s" % (width, name, info[name]))

    def cmd_replay(self, path: str) -> None:
        """Reopen a saved recording: a replay target with no nub."""
        result = self._open_salvageable(
            lambda: self.api.execute("replay_open", {"path": path}))
        target = result["target"]
        self.say("replay target %s (%s): %d checkpoint spills, "
                 "icounts %d..%d, ends with signal %d"
                 % (target["name"], target["arch"], result["spills"],
                    result["base_icount"], result["final_icount"],
                    target["signo"]))

    def cmd_reverse_continue(self, rest: str) -> None:
        self._say_landing(self.api.execute("reverse_continue"))

    def cmd_reverse_step(self, rest: str) -> None:
        self._say_landing(self.api.execute("reverse_step"))

    def cmd_reverse_next(self, rest: str) -> None:
        self._say_landing(self.api.execute("reverse_next"))

    def _say_landing(self, result: dict) -> None:
        self.say("back at icount %d: %s"
                 % (result["icount"], _place(result["where"])))

    def cmd_goto(self, rest: str) -> None:
        try:
            icount = int(rest)
        except ValueError:
            self.say("usage: %s" % USAGE["goto"])
            return
        result = self.api.execute("goto", {"icount": icount})
        if result["state"] == "stopped":
            self.say("now at icount %d" % result["icount"])
        else:
            self.say("target is %s" % result["state"])

    def cmd_record(self, rest: str) -> None:
        words = rest.split()
        if words[:1] == ["stop"]:
            # `record stop`: detach the writer without saving
            result = self.api.execute("record_stop")
            self.say("recording stopped without saving (%d checkpoint "
                     "spills and %d inputs not saved; time travel stays "
                     "on)" % (result["discarded_spills"],
                              result["discarded_inputs"]))
        elif words[:1] == ["save"]:
            # `record save [file]`: write the accumulated recording
            result = self.api.execute(
                "record_save", {"path": words[1] if len(words) > 1
                                else None})
            self.say("recording saved to %s (%d checkpoint spills, "
                     "%d stops, %d inputs)"
                     % (result["path"], result["spills"], result["stops"],
                        result["inputs"]))
        else:
            # `record [interval]`, or `record --save <file> [interval]`
            # for a persistent recording
            saving = words[:1] == ["--save"]
            interval = _interval(words[2:] if saving else words)
            if interval is None or saving and len(words) < 2:
                self.say("usage: record [interval] | record --save <file> "
                         "[interval] | record save [file] | record stop")
            elif saving:
                writer = self.ldb.start_recording(path=words[1],
                                                  interval=interval)
                self.say("recording to %s: checkpoint spill every %d "
                         "instructions (write it with: record save)"
                         % (writer.path, writer.interval))
            else:
                replay = self.ldb.enable_time_travel(interval=interval)
                self.say("recording: checkpoint every %d instructions"
                         % replay.interval)

    def cmd_info(self, what: str) -> None:
        if what.startswith("break"):
            for row in self.api.execute("breaks")["breakpoints"]:
                self.say("0x%x %s" % (row["address"], row["note"]))
        elif what.startswith("checkpoint"):
            replay = self.ldb._need_target().replay
            if replay is None:
                self.say("not recording")
                return
            for ck in replay.ring.entries:
                self.say("ckpt %d at icount %d pc=0x%x (%s)"
                         % (ck.cid, ck.icount, ck.pc, ck.kind))
        else:
            self.say("info: breaks | checkpoints")

    # -- verbs only the REPL has --------------------------------------------

    def _open_salvageable(self, opener):
        """Run ``opener()`` surfacing any SalvagedArtifact warning as a
        visible CLI line (damaged artifacts open read-only on their
        valid prefix — the user should know)."""
        from ..machines.atomicio import SalvagedArtifact
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", SalvagedArtifact)
            result = opener()
        for entry in caught:
            if issubclass(entry.category, SalvagedArtifact):
                self.say("warning: %s" % entry.message)
        return result

    def cmd_core(self, path: str) -> None:
        """Open a core file: a post-mortem target with no nub behind it."""
        target = self._open_salvageable(lambda: self.ldb.open_core(path))
        self.say("post-mortem target %s (%s): signal %d, icount %d"
                 % (target.name, target.arch_name, target.signo,
                    target.core.icount))
        # the defensive unwinder answers even for a smashed context
        top = self.api.execute("backtrace", {"limit": 1})["frames"][0]
        self.say("died at an unknown location (saved context unreadable)"
                 if top["corrupt"] else "died in %s" % _place(top))

    def cmd_registers(self, rest: str) -> None:
        self.out.write(self.ldb.registers_text())

    def cmd_icount(self, rest: str) -> None:
        self.say("icount %d" % self.ldb._need_target().current_icount())

    def cmd_checkpoint(self, rest: str) -> None:
        cid, icount = self.ldb._need_target().take_checkpoint()
        self.say("checkpoint %d at icount %d" % (cid, icount))

    def cmd_targets(self, rest: str) -> None:
        for name, target in self.ldb.targets.items():
            marker = "*" if target is self.ldb.current else " "
            self.say("%s %s (%s) %s" % (marker, name, target.arch_name,
                                        target.state))

    def cmd_target(self, name: str) -> None:
        target = self.ldb.switch_target(name)
        self.say("now debugging %s (%s)" % (target.name, target.arch_name))

    # -- observability ------------------------------------------------------

    def cmd_stats(self, rest: str) -> None:
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
        try:
            port = int(rest) if rest else 0
        except ValueError:
            port = -1
        if not 0 <= port <= 65535:
            self.say("usage: serve [port]")
            return
        from ..serve import DebugServer
        self.server = DebugServer(port=port)
        self.say("session server listening on %s:%d"
                 % (self.server.host, self.server.port))

    def cmd_sessions(self, rest: str) -> None:
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


def _place(where: Optional[dict]) -> str:
    """An API ``where`` as ``<proc> () at <file>:<line>``."""
    if where is None:
        return "an unknown location"
    return "%s () at %s:%d" % (where["proc"], where["file"], where["line"])


def _interval(words: List[str]) -> Optional[int]:
    """``record``'s optional interval: the default when absent, None
    when it is not one positive integer."""
    if not words:
        return RECORD_INTERVAL
    if len(words) == 1 and words[0].isdecimal() and int(words[0]) > 0:
        return int(words[0])
    return None


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
        cli.command("core %s" % args.core)
    elif args.replay:
        cli.command("replay %s" % args.replay)
    elif args.image:
        cli.load_image(args.image)
    else:
        ap.error("give an image, --source, --core, or --replay")
    cli.repl()
    return 0


if __name__ == "__main__":
    sys.exit(main())
