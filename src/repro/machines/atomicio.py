"""Crash-consistent artifact writes, and the filesystem fault harness.

Every durable artifact the debugger produces — core files, ``.ldbrec``
recordings, triage reports — used to be written with one plain
``open()/write()``.  A crash, SIGKILL, or full disk mid-write then
leaves a *torn* file: half an artifact wearing a valid magic, which
later opens as an opaque CRC error.  rr's deployability work
("Engineering Record And Replay For Deployability", PAPERS.md) treats
recordings as fleet artifacts that must survive ungraceful death; this
module is that discipline for our persistence surface.

:func:`atomic_write_bytes` is the only write path artifacts use:

1. stale temporaries from earlier crashed writers are swept;
2. the payload is written to a *sibling temporary*
   (``.<name>.ldbtmp.<pid>``), flushed, and fsync'd;
3. the temporary is atomically renamed over the destination
   (``os.replace``), and the directory entry is fsync'd best-effort.

The destination therefore always holds either the complete old
artifact or the complete new one — never a prefix of either.  A failed
write (ENOSPC, EIO) removes its temporary and re-raises the OSError
for the caller's typed wrapper; a *power cut* (the writing process
dies) leaves the temporary behind, where the next writer's sweep — or
a salvage-minded reader — finds it.

Every filesystem touch goes through a swappable :class:`RealFS`
object, which is the injection seam for :class:`FaultyFS` — the
fs-side sibling of :mod:`repro.nub.faults`: a seeded
:class:`FsFaultSchedule` of ENOSPC / torn-write / power-cut /
EIO faults, deterministic per seed, driving the durability property
tests and BENCH_durability.
"""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager
from typing import List, Optional

from .faultschedule import SeededSchedule

__all__ = ["SalvagedArtifact", "PowerCut", "RealFS", "FaultyFS",
           "FsFaultSchedule", "FS_FAULT_KINDS", "atomic_write_bytes",
           "atomic_write_text", "stale_temps", "cleanup_stale_temps",
           "current_fs", "use_fs"]

#: sibling-temporary naming: ``.<name>.ldbtmp.<pid>`` in the same
#: directory (same filesystem, so the final rename is atomic)
_TEMP_MARK = ".ldbtmp"

#: payloads are written in chunks so mid-artifact faults (a disk that
#: fills while writing, a torn page) are a reachable schedule point
_WRITE_CHUNK = 1 << 18


class SalvagedArtifact(UserWarning):
    """A damaged artifact opened on its longest valid prefix.

    Issued (never raised) by the salvage-on-open paths of
    :mod:`repro.machines.core` and :mod:`repro.trace.format` when a
    truncated or tail-corrupt file still holds enough of a valid
    prefix to serve read-only.  The message names the file, what was
    lost, and the salvage horizon."""


class PowerCut(Exception):
    """Injected power loss: the writing process died mid-write.

    Raised by :class:`FaultyFS` at the scheduled operation; everything
    the "machine" had not yet fsync'd is truncated away first, so the
    on-disk state is exactly what a real power cut leaves.  The harness
    (not production code) catches this where a real process would
    simply be gone."""


# -- the real filesystem (and the seam) -----------------------------------

class RealFS:
    """The operations :func:`atomic_write_bytes` performs, as a
    swappable object — the seam :class:`FaultyFS` wraps."""

    def open(self, path: str):
        return open(path, "wb")

    def write(self, handle, data: bytes) -> None:
        handle.write(data)

    def flush_and_sync(self, handle) -> None:
        handle.flush()
        os.fsync(handle.fileno())

    def close(self, handle) -> None:
        handle.close()

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass

    def listdir(self, directory: str) -> List[str]:
        return os.listdir(directory)

    def sync_dir(self, directory: str) -> None:
        """Make the rename itself durable (best effort: not every
        platform lets a directory be opened for fsync)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


_DEFAULT_FS = RealFS()
_current_fs: List[object] = [_DEFAULT_FS]


def current_fs():
    """The filesystem object artifact writes go through right now."""
    return _current_fs[-1]


@contextmanager
def use_fs(fs):
    """Route every :func:`atomic_write_bytes` in the dynamic extent
    through ``fs`` — how the fault harness reaches write sites buried
    under the nub or the session server without threading a parameter
    through every layer."""
    _current_fs.append(fs)
    try:
        yield fs
    finally:
        _current_fs.pop()


# -- atomic writes --------------------------------------------------------

def _temp_name(path: str) -> str:
    directory, name = os.path.split(os.path.abspath(path))
    return os.path.join(directory, ".%s%s.%d" % (name, _TEMP_MARK,
                                                 os.getpid()))


def stale_temps(path: str) -> List[str]:
    """Leftover temporaries of ``path`` from writers that died
    mid-write (any pid)."""
    fs = current_fs()
    directory, name = os.path.split(os.path.abspath(path))
    prefix = ".%s%s." % (name, _TEMP_MARK)
    try:
        entries = fs.listdir(directory)
    except OSError:
        return []
    return [os.path.join(directory, entry) for entry in sorted(entries)
            if entry.startswith(prefix)]


def cleanup_stale_temps(path: str) -> int:
    """Sweep dead writers' temporaries for ``path``; returns the count
    removed.  Best effort: an unremovable temp is not an error."""
    fs = current_fs()
    removed = 0
    for temp in stale_temps(path):
        try:
            fs.remove(temp)
            removed += 1
        except OSError:
            pass
    return removed


def atomic_write_bytes(path: str, data: bytes) -> int:
    """Write ``data`` to ``path`` crash-consistently; returns the byte
    count.  After this returns, ``path`` holds exactly ``data``; if it
    raises (or the process dies), ``path`` holds whatever it held
    before — never a torn mixture.  OSErrors propagate for the
    caller's typed wrapper.  The write goes through :func:`current_fs`
    (:func:`use_fs` swaps in the fault harness)."""
    fs = current_fs()
    cleanup_stale_temps(path)
    temp = _temp_name(path)
    handle = fs.open(temp)
    try:
        view = memoryview(data)
        for offset in range(0, len(view), _WRITE_CHUNK):
            fs.write(handle, view[offset:offset + _WRITE_CHUNK].tobytes())
        fs.flush_and_sync(handle)
    except PowerCut:
        raise  # the "process" is gone: no cleanup runs, the temp stays
    except BaseException:
        try:
            fs.close(handle)
        except OSError:
            pass
        try:
            fs.remove(temp)
        except OSError:
            pass
        raise
    fs.close(handle)
    try:
        fs.replace(temp, path)
    except PowerCut:
        raise
    except BaseException:
        try:
            fs.remove(temp)
        except OSError:
            pass
        raise
    fs.sync_dir(os.path.dirname(os.path.abspath(path)))
    return len(data)


def atomic_write_text(path: str, text: str) -> int:
    """:func:`atomic_write_bytes` for text artifacts (triage reports,
    JSONL trace dumps)."""
    return atomic_write_bytes(path, text.encode("utf-8"))


# -- the fault harness ----------------------------------------------------

#: every injectable filesystem fault kind
FS_FAULT_KINDS = ("enospc", "torn", "powercut", "eio")


class FsFaultSchedule(SeededSchedule):
    """A deterministic, seeded schedule of filesystem faults — the
    sibling of :class:`repro.nub.faults.FaultSchedule`, aimed at disks
    instead of wires (see :class:`SeededSchedule` for the modes).

    Fault meanings, applied by :class:`FaultyFS` at the scheduled
    write/flush/rename:

    * ``enospc``   — the disk fills: a prefix of the chunk lands, then
      ``OSError(ENOSPC)``;
    * ``torn``     — a partial write persists, then ``OSError(EIO)``
      (a dying disk controller);
    * ``powercut`` — the machine loses power: unsynced bytes are
      truncated away and :class:`PowerCut` raises — the writing
      process never runs another instruction;
    * ``eio``      — the operation fails outright with
      ``OSError(EIO)``, nothing lands.
    """

    KINDS = FS_FAULT_KINDS
    SPEC_KEYS = ("seed", "enospc", "torn", "powercut", "eio", "limit",
                 "script", "after")
    SPEC_NAME = "fs fault"

    def __init__(self, seed: int = 0, enospc: float = 0.0,
                 torn: float = 0.0, powercut: float = 0.0,
                 eio: float = 0.0, limit: Optional[int] = None,
                 script: Optional[List[str]] = None, after: int = 0):
        super().__init__(seed, {"enospc": enospc, "torn": torn,
                                "powercut": powercut, "eio": eio},
                         limit, script, after)


class _FaultyHandle:
    """Per-file bookkeeping: what has actually been written, and what
    has survived an fsync — the distinction a power cut exposes."""

    __slots__ = ("inner", "path", "written", "synced")

    def __init__(self, inner, path: str):
        self.inner = inner
        self.path = path
        self.written = 0
        self.synced = 0


class FaultyFS:
    """A :class:`RealFS` look-alike that injects scheduled faults into
    the operations it performs — the disk the durability tests run on.

    The same seed always yields the same fault sequence.  After an
    injected power cut the "machine" is off: every further operation
    raises :class:`PowerCut`, and any bytes written since the last
    fsync were truncated away (lost page cache)."""

    def __init__(self, schedule: FsFaultSchedule, inner=None):
        self.schedule = schedule
        self.inner = inner or RealFS()
        self.dead = False
        self.ops = 0

    # -- the seam -----------------------------------------------------------

    def open(self, path: str):
        self._check_alive()
        self.ops += 1
        return _FaultyHandle(self.inner.open(path), path)

    def write(self, handle: _FaultyHandle, data: bytes) -> None:
        self._check_alive()
        self.ops += 1
        action = self.schedule.next_action()
        if action == "ok":
            self.inner.write(handle.inner, data)
            handle.written += len(data)
            return
        if action == "eio":
            raise OSError(errno.EIO, "injected I/O error")
        # enospc / torn / powercut: a seeded prefix of this chunk lands
        keep = self.schedule._rng.randrange(len(data) + 1) if data else 0
        self.inner.write(handle.inner, data[:keep])
        handle.written += keep
        if action == "enospc":
            raise OSError(errno.ENOSPC, "injected disk full")
        if action == "torn":
            raise OSError(errno.EIO, "injected torn write")
        self._power_cut(handle)

    def flush_and_sync(self, handle: _FaultyHandle) -> None:
        self._check_alive()
        self.ops += 1
        action = self.schedule.next_action()
        if action == "powercut":
            self._power_cut(handle)
        if action in ("eio", "torn"):
            raise OSError(errno.EIO, "injected I/O error at fsync")
        if action == "enospc":
            raise OSError(errno.ENOSPC, "injected disk full at fsync")
        self.inner.flush_and_sync(handle.inner)
        handle.synced = handle.written

    def close(self, handle: _FaultyHandle) -> None:
        self.inner.close(handle.inner)

    def replace(self, src: str, dst: str) -> None:
        self._check_alive()
        self.ops += 1
        action = self.schedule.next_action()
        if action == "powercut":
            # rename is journaled: it either happened or it did not —
            # power dies *before* the rename here, leaving the temp
            self._power_cut(None)
        if action != "ok":
            raise OSError(errno.EIO, "injected rename failure")
        self.inner.replace(src, dst)

    def remove(self, path: str) -> None:
        self._check_alive()
        self.inner.remove(path)

    def listdir(self, directory: str) -> List[str]:
        self._check_alive()
        return self.inner.listdir(directory)

    def sync_dir(self, directory: str) -> None:
        self._check_alive()
        self.inner.sync_dir(directory)

    # -- power-cut mechanics -------------------------------------------------

    def _check_alive(self) -> None:
        if self.dead:
            raise PowerCut("the machine is off")

    def _power_cut(self, handle: Optional[_FaultyHandle]) -> None:
        """Lights out: unsynced bytes (beyond a seeded survivor prefix
        — the partially flushed page) are truncated away."""
        self.dead = True
        if handle is not None:
            unsynced = handle.written - handle.synced
            survive = (handle.synced
                       + self.schedule._rng.randrange(unsynced + 1))
            try:
                self.inner.close(handle.inner)
                with open(handle.path, "rb+") as raw:
                    raw.truncate(survive)
            except OSError:
                pass
        raise PowerCut("injected power cut")

    def revive(self) -> "FaultyFS":
        """The machine reboots: subsequent operations reach the real
        filesystem again (the schedule keeps advancing from where it
        was)."""
        self.dead = False
        return self
