"""A machine-readable command/response layer over the debugger.

The paper's ldb is "usable by other programs" — the CLI is just one
client.  This module is the client interface for *programs*: every
debugger verb is a ``(command, args)`` pair executed against an
:class:`~repro.ldb.debugger.Ldb`, answering a JSON-able dict or raising
a typed :class:`ApiError` whose ``code`` a remote caller can switch on.
The session server (:mod:`repro.serve`) speaks exactly this vocabulary
over its gateway, and a batch triage pipeline can drive cores through
the same surface without ever parsing human-formatted text.

Two properties matter more than the verb list:

* **total**: every command terminates with a result or a typed error —
  unknown verbs, bad arguments, dead targets, and post-mortem refusals
  are all distinct codes, never a raw traceback;
* **bounded**: the blocking verbs (``continue``/``step``/``next``)
  take a ``timeout`` so a supervisor can put a deadline on them.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..cc.lexer import CError
from ..nub.session import DeadlineExceeded, TransportError
from ..postscript import PSError
from ..trace import DivergenceError, TraceError
from .breakpoints import BreakpointError
from .exprserver import EvalError
from .target import Target, TargetDiedError, TargetError

# -- the typed error vocabulary (documented in PROTOCOL.md App. A, and
# -- cross-checked by tools/check_protocol_doc.py) ------------------------

ERR_BAD_COMMAND = "ERR_BAD_COMMAND"    # unknown verb
ERR_BAD_ARGS = "ERR_BAD_ARGS"          # missing/malformed arguments
ERR_NO_TARGET = "ERR_NO_TARGET"        # the debugger has no target
ERR_TARGET_STATE = "ERR_TARGET_STATE"  # verb illegal in this state
ERR_POST_MORTEM = "ERR_POST_MORTEM"    # mutating verb on a core
ERR_TARGET_DIED = "ERR_TARGET_DIED"    # the nub/process is gone
ERR_EVAL = "ERR_EVAL"                  # expression/symbol error
ERR_DIVERGED = "ERR_DIVERGED"          # replay stopped matching the file


class ApiError(Exception):
    """A command failed in a way the caller can reason about."""

    def __init__(self, code: str, message: str,
                 core_path: Optional[str] = None):
        super().__init__(message)
        self.code = code
        self.core_path = core_path

    def to_dict(self) -> dict:
        out = {"code": self.code, "message": str(self)}
        if self.core_path:
            out["core_path"] = self.core_path
        return out


#: verbs that change target state — refused on a post-mortem target
#: before anything else runs, with the dedicated code
MUTATING = frozenset(("continue", "step", "next", "set", "break",
                      "delete_breaks", "kill"))


class DebugAPI:
    """Structured commands against one :class:`Ldb`."""

    def __init__(self, ldb):
        self.ldb = ldb
        self._verbs: Dict[str, Callable] = {
            "ping": self._cmd_ping,
            "status": self._cmd_status,
            "break": self._cmd_break,
            "delete_breaks": self._cmd_delete_breaks,
            "breaks": self._cmd_breaks,
            "continue": self._cmd_continue,
            "step": self._cmd_step,
            "next": self._cmd_next,
            "print": self._cmd_print,
            "set": self._cmd_set,
            "backtrace": self._cmd_backtrace,
            "where": self._cmd_where,
            "fault": self._cmd_fault,
            "registers": self._cmd_registers,
            "kill": self._cmd_kill,
            "dumpcore": self._cmd_dumpcore,
            "sim_stats": self._cmd_sim_stats,
            "record_save": self._cmd_record_save,
            "record_stop": self._cmd_record_stop,
            "replay_open": self._cmd_replay_open,
        }

    def commands(self):
        """Every verb this API answers (the gateway's help surface)."""
        return sorted(self._verbs)

    def execute(self, cmd: str, args: Optional[dict] = None,
                timeout: Optional[float] = None) -> dict:
        """Run one command; returns a JSON-able result dict or raises
        :class:`ApiError`.  ``timeout`` bounds the blocking verbs."""
        handler = self._verbs.get(cmd)
        if handler is None:
            raise ApiError(ERR_BAD_COMMAND, "unknown command %r (try: %s)"
                           % (cmd, " ".join(self.commands())))
        args = args or {}
        if not isinstance(args, dict):
            raise ApiError(ERR_BAD_ARGS, "args must be an object, not %r"
                           % type(args).__name__)
        target = self.ldb.current
        if cmd in MUTATING and target is not None and target.post_mortem:
            raise ApiError(ERR_POST_MORTEM,
                           "target %s is post-mortem (a core file): "
                           "cannot %s" % (target.name, cmd))
        try:
            return handler(args, timeout)
        except ApiError:
            raise
        except DivergenceError as err:
            # must outrank TransportError (its base class): a diverged
            # replay is a verdict about the file, not a dead nub
            raise ApiError(ERR_DIVERGED, str(err))
        except TargetDiedError as err:
            raise ApiError(ERR_TARGET_DIED, str(err),
                           core_path=err.core_path)
        except DeadlineExceeded:
            raise  # the supervisor's time bound, not an API failure
        except TransportError as err:
            # the whole retry budget met nothing: the nub is gone
            target = self.ldb.current
            raise ApiError(ERR_TARGET_DIED, "nub unreachable: %s" % err,
                           core_path=getattr(target, "core_path", None))
        except BreakpointError as err:
            raise ApiError(ERR_BAD_ARGS, str(err))
        except (EvalError, CError, PSError) as err:
            if getattr(err, "transport_error", None) is not None:
                # a transport failure wearing a PostScript error: the
                # nub is unreachable, not the expression wrong
                target = self.ldb.current
                raise ApiError(ERR_TARGET_DIED, str(err),
                               core_path=getattr(target, "core_path", None))
            raise ApiError(ERR_EVAL, str(err))
        except TargetError as err:
            target = self.ldb.current
            if target is not None and target.post_mortem:
                raise ApiError(ERR_POST_MORTEM, str(err))
            raise ApiError(ERR_TARGET_STATE, str(err))

    # -- helpers ------------------------------------------------------------

    def _target(self) -> Target:
        target = self.ldb.current
        if target is None:
            raise ApiError(ERR_NO_TARGET, "no current target")
        return target

    def _arg(self, args: dict, name: str, kind=str):
        value = args.get(name)
        if not isinstance(value, kind):
            raise ApiError(ERR_BAD_ARGS, "command needs %r (a %s), got %r"
                           % (name, kind.__name__, value))
        return value

    def _event_dict(self, event) -> dict:
        out: dict = {"event": event.kind}
        if event.kind in ("breakpoint", "step", "signal"):
            if event.kind == "signal":
                out["signo"] = event.signo
                out["code"] = event.code
            try:
                proc, filename, line = self.ldb.where_am_i(event.target)
                out["where"] = {"proc": proc, "file": filename, "line": line}
            except Exception:
                # a smashed stack must not turn a stop report into a
                # crash: the stop is real even if unlocatable
                out["where"] = None
        elif event.kind == "exit":
            out["status"] = event.status
        elif event.kind == "died":
            out["reason"] = event.reason
            out["core_path"] = event.core_path
        return out

    # -- the verbs ----------------------------------------------------------

    def _cmd_ping(self, args, timeout) -> dict:
        return {"pong": True}

    def _cmd_status(self, args, timeout) -> dict:
        target = self.ldb.current
        if target is None:
            return {"target": None, "targets": []}
        return {"target": target.describe(),
                "targets": [t.describe()
                            for t in self.ldb.targets.values()]}

    def _cmd_break(self, args, timeout) -> dict:
        target = self._target()
        spec = self._arg(args, "at")
        if ":" in spec:
            filename, _, line_text = spec.rpartition(":")
            try:
                line = int(line_text)
            except ValueError:
                raise ApiError(ERR_BAD_ARGS, "bad line number %r" % line_text)
            addresses = self.ldb.break_at_line(filename, line, target)
        else:
            addresses = [self.ldb.break_at_function(spec, target)]
        condition = args.get("condition")
        if condition is not None:
            for address in addresses:
                self.ldb.events.add_condition(address, condition)
        return {"addresses": addresses, "at": spec}

    def _cmd_delete_breaks(self, args, timeout) -> dict:
        target = self._target()
        count = len(target.breakpoints.planted)
        self.ldb.clear_breakpoints(target)
        return {"removed": count}

    def _cmd_breaks(self, args, timeout) -> dict:
        target = self._target()
        return {"breakpoints": [{"address": address, "note": bp.note}
                                for address, bp
                                in sorted(target.breakpoints.planted.items())]}

    def _cmd_continue(self, args, timeout) -> dict:
        target = self._target()
        kwargs = {} if timeout is None else {"timeout": timeout}
        event = self.ldb.events.wait(target, **kwargs)
        return self._event_dict(event)

    def _cmd_step(self, args, timeout) -> dict:
        return self._event_dict(self.ldb.step(self._target()))

    def _cmd_next(self, args, timeout) -> dict:
        return self._event_dict(self.ldb.step_over(self._target()))

    def _cmd_print(self, args, timeout) -> dict:
        target = self._target()
        expr = self._arg(args, "expr")
        if expr.isidentifier():
            try:
                text = self.ldb.print_variable(expr, target=target)
                return {"expr": expr, "text": text.strip()}
            except TargetError:
                pass  # not a printable variable: fall through to eval
        value = self.ldb.evaluate(expr, target=target)
        return {"expr": expr, "value": value}

    def _cmd_set(self, args, timeout) -> dict:
        target = self._target()
        expr = self._arg(args, "expr")
        value = self.ldb.assign(expr, target=target)
        return {"expr": expr, "value": value}

    def _cmd_backtrace(self, args, timeout) -> dict:
        target = self._target()
        limit = args.get("limit", 64)
        frames = []
        for frame in target.frames(limit):
            filename, line = frame.location_line()
            row = {"level": frame.level, "proc": frame.proc_name(),
                   "file": filename, "line": line, "pc": frame.pc,
                   "corrupt": frame.corrupt, "offset": None}
            if not frame.corrupt:
                hit = target.linker.proc_containing(frame.pc)
                if hit is not None:
                    # pc relative to the procedure's entry: what the
                    # triage normalizer folds to "proc+0xoff"
                    row["offset"] = frame.pc - hit[0]
            frames.append(row)
        return {"frames": frames}

    def _cmd_where(self, args, timeout) -> dict:
        proc, filename, line = self.ldb.where_am_i(self._target())
        return {"proc": proc, "file": filename, "line": line}

    def _cmd_fault(self, args, timeout) -> dict:
        # the crash identity in one verb: what killed the target, where,
        # and when — built to stay answerable on damaged artifacts, so
        # the unlocatable parts degrade to None instead of erroring
        target = self._target()
        out = {"arch": target.arch_name, "state": target.state,
               "signo": target.signo, "code": target.sigcode,
               "post_mortem": target.post_mortem,
               "replaying": target.replaying,
               "fault_pc": None, "icount": None}
        core = getattr(target, "core", None)
        if core is not None:
            out["fault_pc"] = core.fault_pc
            out["icount"] = core.icount
            return out
        if target.state == "stopped":
            try:
                out["fault_pc"] = target.stop_pc()
            except (TargetError, PSError, TransportError):
                pass  # a corrupt context leaves the pc unknown, not fatal
            try:
                out["icount"] = target.current_icount()
            except (TargetError, TransportError):
                pass  # a dead nub leaves the icount unknown, not fatal
        return out

    def _cmd_registers(self, args, timeout) -> dict:
        target = self._target()
        frame = target.top_frame()
        reg_names = target.arch_dict.get("RegNames")
        if reg_names is None:
            names = target.machdep.reg_names()
        else:
            names = [item.text for item in reg_names]
        registers = {}
        for index, name in enumerate(names):
            registers[name] = frame.read_reg(index) & 0xFFFFFFFF
        return {"registers": registers}

    def _cmd_kill(self, args, timeout) -> dict:
        target = self._target()
        target.kill()
        return {"state": target.state}

    def _cmd_dumpcore(self, args, timeout) -> dict:
        target = self._target()
        path = self._arg(args, "path")
        core = target.dump_core(path)
        return {"path": path, "segments": len(core.segments),
                "icount": core.icount}

    def _cmd_record_save(self, args, timeout) -> dict:
        # persist the accumulated recording (start one with the ldb
        # client's start_recording; the CLI's `record --save`)
        target = self._target()
        path = args.get("path")
        if path is not None and not isinstance(path, str):
            raise ApiError(ERR_BAD_ARGS, "path must be a string, got %r"
                           % path)
        partial = args.get("partial", False)
        if not isinstance(partial, bool):
            raise ApiError(ERR_BAD_ARGS, "partial must be a boolean, got %r"
                           % partial)
        try:
            recording = self.ldb.record_save(path, target,
                                             allow_partial=partial)
        except TraceError as err:
            raise ApiError(ERR_TARGET_STATE, str(err))
        return {"path": target.trace_writer.path,
                "spills": len(recording.spills),
                "stops": len(recording.stops),
                "inputs": len(recording.inputs),
                "partial": bool(recording.partial)}

    def _cmd_record_stop(self, args, timeout) -> dict:
        # stop recording without saving: detach the writer, discard
        # the accumulated spills (time travel and its inputs stay on)
        target = self._target()
        if target.trace_writer is None:
            raise ApiError(ERR_TARGET_STATE,
                           "no recording in progress on %s" % target.name)
        spills, inputs = self.ldb.record_stop(target)
        return {"stopped": True, "discarded_spills": spills,
                "discarded_inputs": inputs}

    def _cmd_replay_open(self, args, timeout) -> dict:
        path = self._arg(args, "path")
        target = self.ldb.open_recording(path)
        recording = target.recording
        return {"target": target.describe(),
                "spills": len(recording.spills),
                "base_icount": recording.meta.base_icount,
                "final_icount": recording.final_icount}

    def _cmd_sim_stats(self, args, timeout) -> dict:
        # non-mutating: reads the simulator engine's own counters, so
        # it works only on targets whose simulator lives in-process
        target = self._target()
        if target.post_mortem:
            raise ApiError(ERR_POST_MORTEM,
                           "target %s is post-mortem (a core file): "
                           "no simulator is running" % target.name)
        process = getattr(target, "process", None)
        if process is None:
            raise ApiError(ERR_TARGET_STATE,
                           "target %s has no in-process simulator "
                           "(adopted channel?)" % target.name)
        engine = process.cpu.engine
        return {"engine": engine.name, **engine.describe()}
