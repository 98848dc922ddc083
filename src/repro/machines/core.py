"""A versioned core-file format for post-mortem debugging.

When a target dies — a fatal fault, or an explicit ``dumpcore`` — the
nub serializes everything the debugger's machine-independent core needs
to keep working without a live target: the machine name and byte order,
the saved context address, the retired-instruction count, the fault
record, the planted-breakpoint table, and the memory image itself.

The memory image is stored *sparsely* (all-zero runs are skipped) and
the whole body is zlib-compressed, so a core comfortably fits in one
DUMPCORE reply under the protocol's 1 MiB payload cap.  A CRC32 over
the compressed body catches truncation and bit rot; loading a damaged,
truncated, or future-versioned core raises :class:`CoreError` with a
reason rather than a struct error.

A core may optionally embed the program's loader symbol table (the
PostScript table ``ldb`` reads), which is what lets ``ldb core <file>``
open a core standalone — no executable, no nub, no target.
"""

from __future__ import annotations

import struct
import warnings
from typing import List, Optional, Tuple

from .atomicio import SalvagedArtifact, atomic_write_bytes
from .chunkio import (pack_container, salvage_container, sparse_segments,
                      unpack_container)
from .process import Process

__all__ = ["MAGIC", "CORE_VERSION", "CoreError", "CoreFile",
           "SalvagedArtifact", "sparse_segments", "core_from_process"]

MAGIC = b"LDBC"
CORE_VERSION = 1


class CoreError(Exception):
    """A core file that cannot be loaded (damaged, truncated, or from a
    future format version)."""


class CoreFile:
    """One serialized dead (or stopped) target."""

    #: True when this core was recovered from a damaged file by
    #: :meth:`from_bytes`'s salvage mode: the fault record and every
    #: segment that survived are served; lost tail segments read as
    #: zero, and a lost symbol table means ``table_ps`` must be passed
    salvaged = False
    #: why the strict parse refused the file (salvaged only)
    salvage_reason: Optional[str] = None

    def __init__(self, arch_name: str, byteorder: str, memsize: int,
                 context_addr: int, icount: int, signo: int, code: int,
                 fault_pc: int,
                 segments: List[Tuple[int, bytes]],
                 planted: Optional[List[Tuple[int, bytes]]] = None,
                 loader_ps: Optional[str] = None):
        self.arch_name = arch_name
        self.byteorder = byteorder
        self.memsize = memsize
        #: where the nub saved the context (registers live here)
        self.context_addr = context_addr
        self.icount = icount
        #: the fault record: why the target stopped for the last time
        self.signo = signo
        self.code = code
        self.fault_pc = fault_pc
        #: sparse memory image: (start address, raw target-order bytes)
        self.segments = segments
        #: planted breakpoints: (address, original little-endian bytes)
        self.planted = list(planted or [])
        #: optional embedded loader symbol table (PostScript text)
        self.loader_ps = loader_ps

    # -- serialization ----------------------------------------------------

    def to_bytes(self) -> bytes:
        body = bytearray()
        name = self.arch_name.encode("ascii")
        body += struct.pack("<B", len(name)) + name
        body += struct.pack("<B", 1 if self.byteorder == "big" else 0)
        body += struct.pack("<IIQ", self.memsize, self.context_addr,
                            self.icount)
        body += struct.pack("<iII", self.signo, self.code, self.fault_pc)
        body += struct.pack("<I", len(self.planted))
        for address, original in self.planted:
            body += struct.pack("<IB", address, len(original)) + original
        body += struct.pack("<I", len(self.segments))
        for start, raw in self.segments:
            body += struct.pack("<II", start, len(raw)) + raw
        table = (self.loader_ps or "").encode("utf-8")
        body += struct.pack("<I", len(table)) + table
        return pack_container(MAGIC, CORE_VERSION, bytes(body))

    @classmethod
    def from_bytes(cls, raw: bytes, salvage: bool = False) -> "CoreFile":
        """Parse a serialized core.

        Strict by default: any damage raises :class:`CoreError`.  With
        ``salvage=True``, a truncated or tail-corrupt core is
        recovered on its longest valid prefix — the header, fault
        record, and every memory segment that fully decompressed and
        parsed — with a :class:`SalvagedArtifact` warning naming what
        was lost.  A core damaged before its fault record (or an alien
        or future-format file) still raises."""
        try:
            body = unpack_container(raw, MAGIC, CORE_VERSION, CoreError,
                                    "core")
            try:
                return cls._unpack_body(body)
            except (struct.error, IndexError, UnicodeDecodeError) as exc:
                raise CoreError("malformed core body: %s" % exc)
        except CoreError as err:
            if not salvage:
                raise
            return cls._salvage(raw, err)

    @classmethod
    def _salvage(cls, raw: bytes, err: CoreError) -> "CoreFile":
        body = salvage_container(raw, MAGIC, CORE_VERSION, CoreError, "core")
        try:
            core, _complete = cls._unpack_body(body, tolerate=True)
        except (struct.error, IndexError, UnicodeDecodeError,
                CoreError):
            raise err  # not even the fault record survived
        if not core.arch_name.isidentifier() or core.memsize > (1 << 28):
            # salvage skips the CRC, so rot can decode to nonsense;
            # refuse a header no real target could have produced
            raise err
        core.salvaged = True
        core.salvage_reason = str(err)
        warnings.warn(SalvagedArtifact(
            "core salvaged on its valid prefix: %d segment(s)%s (%s)"
            % (len(core.segments),
               "" if core.loader_ps else ", symbol table lost", err)),
            stacklevel=3)
        return core

    @classmethod
    def _unpack_body(cls, body: bytes, tolerate: bool = False):
        """Parse a core body.  With ``tolerate=True`` (the salvage
        path) the parse commits progressively: damage after the fault
        record keeps every planted entry and segment already parsed
        and answers ``(core, False)``; the strict path answers the
        core alone, raising on any shortfall."""
        offset = 0

        def take(fmt: str):
            nonlocal offset
            values = struct.unpack_from(fmt, body, offset)
            offset += struct.calcsize(fmt)
            return values

        (name_len,) = take("<B")
        arch_name = body[offset:offset + name_len].decode("ascii")
        if len(arch_name) != name_len:
            raise CoreError("truncated core header")
        offset += name_len
        (big,) = take("<B")
        memsize, context_addr, icount = take("<IIQ")
        signo, code, fault_pc = take("<iII")
        # everything below the fault record is salvageable piecemeal
        planted: List[Tuple[int, bytes]] = []
        segments: List[Tuple[int, bytes]] = []
        table = ""
        complete = False
        try:
            (nplanted,) = take("<I")
            for _ in range(nplanted):
                address, size = take("<IB")
                original = body[offset:offset + size]
                if len(original) != size:
                    raise CoreError("truncated planted entry at 0x%x"
                                    % address)
                planted.append((address, original))
                offset += size
            (nsegments,) = take("<I")
            for _ in range(nsegments):
                start, size = take("<II")
                raw = body[offset:offset + size]
                if len(raw) != size:
                    raise CoreError("truncated segment at 0x%x" % start)
                segments.append((start, raw))
                offset += size
            (table_len,) = take("<I")
            table_bytes = body[offset:offset + table_len]
            if len(table_bytes) != table_len:
                raise CoreError("truncated core symbol table")
            table = table_bytes.decode("utf-8")
            complete = True
        except (CoreError, struct.error, IndexError, UnicodeDecodeError):
            if not tolerate:
                raise
        core = cls(arch_name, "big" if big else "little", memsize,
                   context_addr, icount, signo, code, fault_pc, segments,
                   planted=planted, loader_ps=table or None)
        return (core, complete) if tolerate else core

    def dump(self, path: str) -> None:
        """Write the core crash-consistently: after this returns (or
        fails, or the process dies) ``path`` is never torn."""
        atomic_write_bytes(path, self.to_bytes())

    @classmethod
    def load(cls, path: str, salvage: bool = False) -> "CoreFile":
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise CoreError("cannot read core file %s: %s" % (path, exc))
        return cls.from_bytes(raw, salvage=salvage)

    # -- reconstruction ---------------------------------------------------

    def process(self) -> Process:
        """Rebuild the dead target as a stopped process: the memory
        image (unstored runs are zero, exactly as they were when skipped
        by the sparse scan) and the retired-instruction count."""
        from . import get_arch  # deferred: the package imports this module
        try:
            arch = get_arch(self.arch_name)
        except KeyError:
            raise CoreError("core names unknown architecture %r"
                            % self.arch_name)
        process = Process.blank(arch, self.memsize)
        for start, raw in self.segments:
            if start < 0 or start + len(raw) > self.memsize:
                raise CoreError("segment [0x%x, 0x%x) outside the %d-byte "
                                "image" % (start, start + len(raw),
                                           self.memsize))
            process.mem.write_bytes(start, raw)
        process.cpu.icount = self.icount
        return process


def core_from_process(process, signo: int, code: int, fault_pc: int,
                      context_addr: int,
                      planted=None, loader_ps: Optional[str] = None,
                      ) -> CoreFile:
    """Serialize a stopped process (context already saved by the nub at
    ``context_addr``) into a :class:`CoreFile`."""
    mem = process.mem
    if loader_ps is None:
        loader_ps = getattr(process.exe, "loader_ps", None)
    return CoreFile(
        arch_name=process.arch.name,
        byteorder=mem.byteorder,
        memsize=mem.size,
        context_addr=context_addr,
        icount=process.cpu.icount,
        signo=signo, code=code, fault_pc=fault_pc,
        segments=sparse_segments(mem.bytes),
        planted=sorted((planted or {}).items()) if isinstance(planted, dict)
        else list(planted or []),
        loader_ps=loader_ps,
    )
