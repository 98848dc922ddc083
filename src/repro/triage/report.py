"""Triage results: per-artifact records, crash groups, and the report.

Everything here is deliberately dumb data — JSON-able dicts behind thin
classes — because the report *is* the product: the engine's callers
(the CLI, the gateway, the bench, a cron job filing tickets) all
consume the same shape.  The two record kinds mirror the batch
contract: an artifact either triages to an :class:`ArtifactRecord`
(symbolized, hashed, bucketable) or fails to an :class:`ArtifactError`
with a typed ``kind`` — and a failure of one artifact never aborts the
batch (the corruption-matrix tests hold the engine to that).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

#: the typed per-artifact failure kinds (ArtifactError.kind)
ERROR_UNREADABLE = "unreadable"            # cannot read the file at all
ERROR_NOT_ARTIFACT = "not-an-artifact"     # neither LDBC nor LDBT magic
ERROR_CORRUPT_CORE = "corrupt-core"        # CoreError: damaged/truncated
ERROR_CORRUPT_RECORDING = "corrupt-recording"  # TraceError: damaged file
ERROR_DIVERGED = "diverged"                # replay contradicted its log
ERROR_SYMBOLIZE = "symbolize-failed"       # opened, but triage verbs failed

ERROR_KINDS = (ERROR_UNREADABLE, ERROR_NOT_ARTIFACT, ERROR_CORRUPT_CORE,
               ERROR_CORRUPT_RECORDING, ERROR_DIVERGED, ERROR_SYMBOLIZE)


class ArtifactError:
    """One artifact the batch could not triage, and why."""

    __slots__ = ("path", "kind", "message")

    def __init__(self, path: str, kind: str, message: str):
        assert kind in ERROR_KINDS, kind
        self.path = path
        self.kind = kind
        self.message = message

    def to_dict(self) -> dict:
        return {"path": self.path, "kind": self.kind,
                "message": self.message}

    def __repr__(self) -> str:
        return "<artifact-error %s: %s>" % (self.kind, self.path)


class ArtifactRecord:
    """One successfully triaged artifact."""

    __slots__ = ("path", "kind", "arch", "signo", "code", "fault_pc",
                 "icount", "stack_hash", "tokens", "frames", "where",
                 "corrupt_stack", "seconds", "salvaged")

    def __init__(self, path: str, kind: str, arch: str, signo: int,
                 code: int, fault_pc: Optional[int], icount: int,
                 stack_hash: str, tokens: List[str], frames: List[dict],
                 where: Optional[dict], corrupt_stack: bool,
                 seconds: float, salvaged: bool = False):
        self.path = path
        #: "core" or "recording"
        self.kind = kind
        self.arch = arch
        self.signo = signo
        self.code = code
        self.fault_pc = fault_pc
        self.icount = icount
        self.stack_hash = stack_hash
        #: the normalized function+offset fold the hash covers
        self.tokens = tokens
        #: the full symbolized backtrace (every frame, proc/file/line)
        self.frames = frames
        self.where = where
        #: did the defensive unwinder truncate the walk?
        self.corrupt_stack = corrupt_stack
        self.seconds = seconds
        #: was the artifact damaged and recovered on its valid prefix?
        self.salvaged = salvaged

    def to_dict(self) -> dict:
        return {"path": self.path, "kind": self.kind, "arch": self.arch,
                "signo": self.signo, "code": self.code,
                "fault_pc": self.fault_pc, "icount": self.icount,
                "stack_hash": self.stack_hash, "tokens": self.tokens,
                "frames": self.frames, "where": self.where,
                "corrupt_stack": self.corrupt_stack,
                "seconds": round(self.seconds, 6),
                "salvaged": self.salvaged}


class CrashGroup:
    """One bucket of duplicate crashes: everything that folded to the
    same normalized stack hash."""

    __slots__ = ("stack_hash", "members")

    def __init__(self, stack_hash: str):
        self.stack_hash = stack_hash
        self.members: List[ArtifactRecord] = []

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def exemplar(self) -> ArtifactRecord:
        """The group's representative: the first member triaged."""
        return self.members[0]

    def to_dict(self) -> dict:
        ex = self.exemplar
        return {
            "stack_hash": self.stack_hash,
            "count": self.count,
            "arch": ex.arch,
            "signo": ex.signo,
            "code": ex.code,
            "tokens": ex.tokens,
            "exemplar": ex.to_dict(),
            "paths": [m.path for m in self.members],
        }


class TriageReport:
    """The batch's outcome: ranked groups plus the error ledger."""

    def __init__(self, groups: List[CrashGroup], errors: List[ArtifactError],
                 scanned: int, elapsed_seconds: float):
        #: largest group first; ties break on the hash for determinism
        self.groups = sorted(groups,
                             key=lambda g: (-g.count, g.stack_hash))
        self.errors = errors
        self.scanned = scanned
        self.elapsed_seconds = elapsed_seconds

    @property
    def triaged(self) -> int:
        return sum(group.count for group in self.groups)

    def group_of(self, path: str) -> Optional[CrashGroup]:
        """The group holding ``path`` (the dedup-quality tests' probe)."""
        for group in self.groups:
            if any(member.path == path for member in group.members):
                return group
        return None

    def to_dict(self) -> dict:
        return {
            "scanned": self.scanned,
            "triaged": self.triaged,
            "groups": [group.to_dict() for group in self.groups],
            "errors": [error.to_dict() for error in self.errors],
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }

    def dump_json(self, path: str) -> None:
        """Write the report crash-consistently (temp + fsync + rename):
        a fleet cron job killed mid-dump leaves the previous report,
        never a torn JSON file."""
        from ..machines.atomicio import atomic_write_text
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        atomic_write_text(path, text)

    # -- the human-readable rendering ---------------------------------------

    def render(self, top: int = 10, frames: int = 8) -> str:
        """The ranked crash-group report as terminal text."""
        lines: List[str] = []
        lines.append("triaged %d/%d artifacts into %d crash groups "
                     "(%d errors) in %.2fs"
                     % (self.triaged, self.scanned, len(self.groups),
                        len(self.errors), self.elapsed_seconds))
        for rank, group in enumerate(self.groups[:top], 1):
            ex = group.exemplar
            lines.append("")
            lines.append("#%-2d %5d crash%s  %s  %s  signal %d/%d"
                         % (rank, group.count,
                            "es" if group.count != 1 else "  ",
                            group.stack_hash, ex.arch, ex.signo, ex.code))
            where = ex.where or {}
            if where.get("proc"):
                lines.append("    died in %s () at %s:%s"
                             % (where.get("proc"), where.get("file"),
                                where.get("line")))
            for frame in ex.frames[:frames]:
                if frame.get("corrupt"):
                    lines.append("      #%-2d <corrupt frame>"
                                 % frame.get("level", 0))
                    break
                lines.append("      #%-2d %s () at %s:%s"
                             % (frame.get("level", 0), frame.get("proc"),
                                frame.get("file"), frame.get("line")))
            if len(ex.frames) > frames:
                lines.append("      ... %d more frames"
                             % (len(ex.frames) - frames))
            lines.append("    exemplar %s" % ex.path)
        if len(self.groups) > top:
            lines.append("")
            lines.append("... %d more groups (see the JSON report)"
                         % (len(self.groups) - top))
        if self.errors:
            lines.append("")
            lines.append("%d artifacts could not be triaged:"
                         % len(self.errors))
            counts: Dict[str, int] = {}
            for error in self.errors:
                counts[error.kind] = counts.get(error.kind, 0) + 1
            for kind in sorted(counts):
                lines.append("    %-20s %d" % (kind, counts[kind]))
        return "\n".join(lines) + "\n"
