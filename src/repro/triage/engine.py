"""The batch crash-triage engine: thousands of artifacts, one report.

Cores (PR 5) and recordings (PR 8) gave every dead target a durable
artifact; this module is what consumes them *in bulk* — the payoff
Hanson argues a machine-independent debugging vocabulary exists for
(MSR-TR-99-4, PAPERS.md): programmatic, automated debugging.  The
engine ingests a directory (or manifest) of artifacts and, for each:

1. **classifies** it by magic — ``LDBC`` is a core, ``LDBT`` a
   recording, anything else a typed error record;
2. **symbolizes** it through the existing post-mortem stack: a fresh
   :class:`~repro.ldb.debugger.Ldb` opens the artifact over
   ``CoreTransport``/``ReplayTransport`` and the triage questions are
   asked through :class:`~repro.ldb.api.DebugAPI` verbs (``status``,
   ``fault``, ``backtrace``, ``where``) — no new debugger code paths,
   the same vocabulary the session server speaks;
3. **normalizes** the backtrace to a stack hash (frame pcs folded to
   ``function+offset``, corrupt frames tolerated — see
   :mod:`.stackhash`);
4. **buckets** it with every other artifact that folded to the same
   hash.

The batch contract mirrors the session server's: every artifact is
*answered* — an :class:`~.report.ArtifactRecord` or a typed
:class:`~.report.ArtifactError` — and a malformed, truncated, or
actively hostile file never aborts the batch.  Artifacts are triaged
one after another, each through a fresh debugger stack; ``workers=N``
fans them out over a pool of N processes instead (symbolization is
interpreter-bound, so threads would only queue on the lock).
Everything observable lands in the shared registry under ``triage.*``.
"""

from __future__ import annotations

import io
import json
import os
import time
from typing import Dict, List, Optional

from ..machines.core import MAGIC as CORE_MAGIC
from ..trace.format import TRACE_MAGIC
from .report import (
    ERROR_CORRUPT_CORE,
    ERROR_CORRUPT_RECORDING,
    ERROR_DIVERGED,
    ERROR_NOT_ARTIFACT,
    ERROR_SYMBOLIZE,
    ERROR_UNREADABLE,
    ArtifactError,
    ArtifactRecord,
    CrashGroup,
    TriageReport,
)
from .stackhash import hash_backtrace

#: artifact kinds (ArtifactRecord.kind)
KIND_CORE = "core"
KIND_RECORDING = "recording"

#: how many frames the exemplar backtrace keeps (the hash uses fewer;
#: see stackhash.MAX_HASH_FRAMES)
FRAME_LIMIT = 32


class TriageError(Exception):
    """A *batch*-level failure: nothing to triage, unreadable manifest,
    bad engine arguments.  Per-artifact failures never raise this —
    they land in the report's error ledger."""


def classify(path: str) -> str:
    """``core`` / ``recording`` by magic, or a typed error kind."""
    try:
        with open(path, "rb") as handle:
            magic = handle.read(4)
    except OSError:
        return ERROR_UNREADABLE
    if magic == CORE_MAGIC:
        return KIND_CORE
    if magic == TRACE_MAGIC:
        return KIND_RECORDING
    return ERROR_NOT_ARTIFACT


def triage_artifact(path: str) -> dict:
    """Triage one artifact; always returns a JSON-able dict — either
    ``{"ok": True, ...record fields...}`` or ``{"ok": False, "kind":
    <error kind>, "message": ...}``.

    This is the unit of work the pool fans out (a plain function over
    a path, so a process pool can run it unchanged), and the promise
    the corruption matrix tests: *whatever* is behind ``path``, this
    returns a dict — it never raises.
    """
    started = time.perf_counter()
    kind = classify(path)
    if kind == ERROR_UNREADABLE:
        return {"ok": False, "path": path, "kind": kind,
                "message": "cannot read %s" % path}
    if kind == ERROR_NOT_ARTIFACT:
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        return {"ok": False, "path": path, "kind": kind,
                "message": "%s is neither a core (LDBC) nor a recording "
                           "(LDBT); %d bytes" % (path, size)}
    try:
        return _symbolize(path, kind, started)
    except Exception as err:  # the batch contract: a dict, whatever broke
        return {"ok": False, "path": path, "kind": ERROR_SYMBOLIZE,
                "message": "%s: %s" % (type(err).__name__, err)}


def _symbolize(path: str, kind: str, started: float) -> dict:
    # deferred imports: a process-pool worker pays them once, and the
    # triage package stays importable without dragging the whole stack
    import warnings

    from ..ldb import Ldb
    from ..ldb.api import ApiError, DebugAPI
    from ..ldb.target import TargetError
    from ..machines.atomicio import SalvagedArtifact
    from ..trace import DivergenceError

    ldb = Ldb(stdout=io.StringIO())
    salvaged = False
    try:
        # a truncated artifact (a machine that died mid-write without
        # the atomic path, say) still triages: it opens salvaged on
        # its valid prefix, and the row says so
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", SalvagedArtifact)
            if kind == KIND_CORE:
                ldb.open_core(path)
            else:
                target = ldb.open_recording(path)
                # a recording restores its final spill without
                # re-executing, which is exactly the window a tampered
                # event log would slip through — check the landing
                # digest before trusting it
                target.transport.verify_here()
        salvaged = any(issubclass(entry.category, SalvagedArtifact)
                       for entry in caught)
    except DivergenceError as err:
        return {"ok": False, "path": path, "kind": ERROR_DIVERGED,
                "message": str(err)}
    except TargetError as err:
        bad = (ERROR_CORRUPT_CORE if kind == KIND_CORE
               else ERROR_CORRUPT_RECORDING)
        return {"ok": False, "path": path, "kind": bad,
                "message": str(err)}

    api = DebugAPI(ldb)
    fault = api.execute("fault")
    bt = api.execute("backtrace", {"limit": FRAME_LIMIT})
    try:
        where = api.execute("where")
    except ApiError:
        where = None  # an unlocatable fault is still a triagable fault
    stack_hash, tokens = hash_backtrace(fault["arch"], fault["signo"],
                                        fault["code"], bt["frames"])
    return {
        "ok": True,
        "path": path,
        "artifact": kind,
        "arch": fault["arch"],
        "signo": fault["signo"],
        "code": fault["code"],
        "fault_pc": fault["fault_pc"],
        "icount": fault["icount"],
        "stack_hash": stack_hash,
        "tokens": tokens,
        "frames": bt["frames"],
        "where": where,
        "corrupt_stack": any(f.get("corrupt") for f in bt["frames"]),
        "seconds": time.perf_counter() - started,
        "salvaged": salvaged,
    }


class TriageEngine:
    """Fan a corpus of crash artifacts through the post-mortem stack
    and bucket the results into ranked crash groups."""

    def __init__(self, *, workers: int = 1, obs=None):
        if workers < 1:
            raise TriageError("workers must be >= 1, not %r" % workers)
        if obs is None:
            from ..obs import Observability
            obs = Observability()
        self.obs = obs
        self.workers = workers

    # -- ingestion ----------------------------------------------------------

    def triage(self, path: str) -> TriageReport:
        """Triage whatever ``path`` is: a directory of artifacts, a
        JSON manifest, or a single artifact file."""
        if os.path.isdir(path):
            return self.triage_dir(path)
        if not os.path.exists(path):
            # a mistyped corpus path is a batch error, loudly — only a
            # *member* of a real corpus degrades to a typed record
            raise TriageError("no such corpus: %s" % path)
        if path.endswith(".json"):
            return self.triage_manifest(path)
        return self.triage_paths([path])

    def triage_dir(self, directory: str) -> TriageReport:
        """Every artifact under ``directory`` (recursive, sorted).
        Hidden files and ``*.json`` sidecars (manifests, reports) are
        skipped; everything else is an artifact candidate — corrupt or
        alien files become typed error records, not crashes."""
        return self.triage_paths(scan_dir(directory))

    def triage_manifest(self, manifest_path: str) -> TriageReport:
        """The paths named by a JSON manifest — either a plain list or
        ``{"artifacts": [{"path": ...}, ...]}`` (the shape
        ``tools/make_crash_corpus.py`` writes).  Relative paths resolve
        against the manifest's own directory."""
        try:
            with open(manifest_path) as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as err:
            raise TriageError("cannot read manifest %s: %s"
                              % (manifest_path, err))
        if isinstance(manifest, dict):
            entries = manifest.get("artifacts", [])
        else:
            entries = manifest
        base = os.path.dirname(os.path.abspath(manifest_path))
        paths = []
        for entry in entries:
            path = entry.get("path") if isinstance(entry, dict) else entry
            if not isinstance(path, str):
                raise TriageError("manifest entry %r names no path" % entry)
            paths.append(path if os.path.isabs(path)
                         else os.path.join(base, path))
        return self.triage_paths(paths)

    # -- the batch ----------------------------------------------------------

    def triage_paths(self, paths: List[str]) -> TriageReport:
        paths = list(paths)
        if not paths:
            raise TriageError("nothing to triage: no artifact paths")
        started = time.perf_counter()
        self.obs.tracer.event("triage.batch", artifacts=len(paths),
                              workers=self.workers)
        results = self._map(paths)
        report = self._collect(results, len(paths),
                               time.perf_counter() - started)
        self.obs.metrics.inc("triage.batches")
        self.obs.metrics.observe("triage.batch_seconds",
                                 report.elapsed_seconds)
        return report

    def _map(self, paths: List[str]) -> List[dict]:
        if self.workers == 1:
            return [triage_artifact(path) for path in paths]
        # one artifact = one worker-owned debugger stack; futures keep
        # submission order so reports (and exemplar choice) are
        # deterministic regardless of scheduling
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = [pool.submit(triage_artifact, path)
                       for path in paths]
            return [future.result() for future in futures]

    def _collect(self, results: List[dict], scanned: int,
                 elapsed: float) -> TriageReport:
        metrics = self.obs.metrics
        groups: Dict[str, CrashGroup] = {}
        errors: List[ArtifactError] = []
        for row in results:
            metrics.inc("triage.artifacts")
            if not row["ok"]:
                error = ArtifactError(row["path"], row["kind"],
                                      row["message"])
                errors.append(error)
                metrics.inc("triage.errors")
                metrics.inc("triage.errors.%s" % error.kind)
                continue
            record = ArtifactRecord(
                row["path"], row["artifact"], row["arch"], row["signo"],
                row["code"], row["fault_pc"], row["icount"],
                row["stack_hash"], row["tokens"], row["frames"],
                row["where"], row["corrupt_stack"], row["seconds"],
                salvaged=row.get("salvaged", False))
            metrics.inc("triage.cores" if record.kind == KIND_CORE
                        else "triage.recordings")
            if record.corrupt_stack:
                metrics.inc("triage.corrupt_stacks")
            if record.salvaged:
                metrics.inc("triage.salvaged")
            metrics.observe("triage.artifact_seconds", record.seconds)
            groups.setdefault(record.stack_hash,
                              CrashGroup(record.stack_hash)
                              ).members.append(record)
        report = TriageReport(list(groups.values()), errors, scanned,
                              elapsed, self.workers)
        metrics.set_gauge("triage.groups", len(report.groups))
        self.obs.tracer.event("triage.report", groups=len(report.groups),
                              triaged=report.triaged, errors=len(errors))
        return report


def scan_dir(directory: str) -> List[str]:
    """The artifact candidates under ``directory``, sorted for
    deterministic reports: regular files, minus dotfiles and ``.json``
    sidecars."""
    if not os.path.isdir(directory):
        raise TriageError("%s is not a directory" % directory)
    found: List[str] = []
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            if name.startswith(".") or name.endswith(".json"):
                continue
            found.append(os.path.join(root, name))
    if not found:
        raise TriageError("no artifact files under %s" % directory)
    return found
