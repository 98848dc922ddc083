"""Full-fidelity machine state: the unit a recording spills.

A :class:`~repro.machines.core.CoreFile` carries what a *dead* target
needs — registers via the saved context, memory, the fault record.  A
recording checkpoint must carry more: a restored state is *resumed*, so
every bit of simulator state that affects the next instruction matters,
including the rmips load-delay slot (``Cpu._pending_load``) that a
context block has no field for.  :class:`MachineState` is that complete
state — registers, condition codes, icount, the delay-slot bookkeeping,
a sparse memory image, the planted-breakpoint table, and the output
written so far — serialized with the same sparse/zlib/CRC32 armor as
cores (:mod:`repro.machines.chunkio`).

It also computes the **divergence digest**: a CRC32 over the state,
*normalized* so a faithful replay matches the recording even where the
two legitimately differ in representation:

* the **pc is excluded** — at the same icount a recorded breakpoint
  stop sits on the trap while a replay passing through has already
  stepped the trap-site no-op, and both are the same timeline position;
* **planted trap bytes are patched back** to the original instructions
  before hashing, so breakpoints planted at record time don't have to
  exist at replay time (and vice versa);
* the **nub context area is zeroed** — it holds a saved pc and
  scratch state that differs between a stop and a pass-through.

The digest reads only the pages that hold a non-zero byte (copies of
the few that normalization patches); each run of zero pages between
them is folded into the CRC arithmetically
(:func:`~repro.machines.chunkio.crc32_zeros`).  The result is
``zlib.crc32`` over the normalized dense image.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, Optional, Tuple

from .chunkio import (crc32_zeros, nonzero_pages, pack_container,
                      sparse_segments, unpack_container)
from .memory import PAGE

MAGIC = b"LDBS"
STATE_VERSION = 1


class StateError(Exception):
    """A machine-state blob that cannot be decoded."""


def _pack_planted(planted) -> List[Tuple[int, bytes]]:
    if isinstance(planted, dict):
        return sorted(planted.items())
    return sorted(planted or [])


class MachineState:
    """One resumable simulator state (registers + memory + bookkeeping)."""

    __slots__ = ("arch_name", "byteorder", "memsize", "regs", "fregs",
                 "pc", "cc_lt", "cc_eq", "cc_ltu", "icount",
                 "pending_load", "wrote_reg", "segments", "planted",
                 "out_text")

    def __init__(self, arch_name: str, byteorder: str, memsize: int,
                 regs: List[int], fregs: List[float], pc: int,
                 cc_lt: bool, cc_eq: bool, cc_ltu: bool, icount: int,
                 pending_load: Optional[Tuple[int, int]],
                 wrote_reg: Optional[int],
                 segments: List[Tuple[int, bytes]],
                 planted: List[Tuple[int, bytes]],
                 out_text: str = ""):
        self.arch_name = arch_name
        self.byteorder = byteorder
        self.memsize = memsize
        self.regs = list(regs)
        self.fregs = list(fregs)
        self.pc = pc
        self.cc_lt = cc_lt
        self.cc_eq = cc_eq
        self.cc_ltu = cc_ltu
        self.icount = icount
        #: rmips load-delay slot: a (reg, value) commit still in flight
        self.pending_load = pending_load
        self.wrote_reg = wrote_reg
        #: sparse memory image: (start, raw target-order bytes)
        self.segments = segments
        #: planted breakpoints: (address, original little-endian bytes)
        self.planted = list(planted)
        #: target stdout written so far (restored with the state, so a
        #: resumed replay appends exactly where the recording did)
        self.out_text = out_text

    # -- capture / restore -------------------------------------------------

    @classmethod
    def capture(cls, process, planted=None) -> "MachineState":
        """Snapshot a stopped process (and its planted table)."""
        cpu = process.cpu
        mem = process.mem
        try:
            out_text = process.stdout.getvalue()
        except Exception:
            out_text = ""
        return cls(
            arch_name=process.arch.name,
            byteorder=mem.byteorder,
            memsize=mem.size,
            regs=list(cpu.regs),
            fregs=list(cpu.fregs),
            pc=cpu.pc,
            cc_lt=cpu.cc_lt, cc_eq=cpu.cc_eq, cc_ltu=cpu.cc_ltu,
            icount=cpu.icount,
            pending_load=cpu._pending_load,
            wrote_reg=cpu._wrote_reg,
            segments=sparse_segments(mem.bytes),
            planted=_pack_planted(planted),
            out_text=out_text,
        )

    def _checked_segments(self) -> List[Tuple[int, bytes]]:
        for start, raw in self.segments:
            if start < 0 or start + len(raw) > self.memsize:
                raise StateError("segment [0x%x, 0x%x) outside the %d-byte "
                                 "image" % (start, start + len(raw),
                                            self.memsize))
        return self.segments

    def image(self) -> bytearray:
        """The full (dense) memory image this state describes."""
        image = bytearray(self.memsize)
        for start, raw in self._checked_segments():
            image[start:start + len(raw)] = raw
        return image

    def restore_into(self, process) -> None:
        """Make ``process`` this state.  Memory goes through
        ``write_bytes`` so engine write hooks see the change."""
        if process.mem.size != self.memsize:
            raise StateError("state is for a %d-byte image, process has %d"
                             % (self.memsize, process.mem.size))
        if process.arch.name != self.arch_name:
            raise StateError("state is for %s, process is %s"
                             % (self.arch_name, process.arch.name))
        cpu = process.cpu
        cpu.regs = list(self.regs)
        cpu.fregs = list(self.fregs)
        cpu.pc = self.pc
        cpu.cc_lt = self.cc_lt
        cpu.cc_eq = self.cc_eq
        cpu.cc_ltu = self.cc_ltu
        cpu.icount = self.icount
        cpu._pending_load = self.pending_load
        cpu._wrote_reg = self.wrote_reg
        process.mem.write_bytes(0, bytes(self.image()))
        process.exited = None
        try:
            process.stdout.seek(0)
            process.stdout.truncate(0)
            process.stdout.write(self.out_text)
        except Exception:
            pass  # a non-seekable sink keeps its history; state is intact

    # -- serialization -----------------------------------------------------

    def to_body(self) -> bytes:
        body = bytearray()
        name = self.arch_name.encode("ascii")
        body += struct.pack("<B", len(name)) + name
        body += struct.pack("<B", 1 if self.byteorder == "big" else 0)
        body += struct.pack("<II", self.memsize, self.pc)
        body += struct.pack("<B", (1 if self.cc_lt else 0)
                            | (2 if self.cc_eq else 0)
                            | (4 if self.cc_ltu else 0))
        body += struct.pack("<Q", self.icount)
        if self.pending_load is None:
            body += struct.pack("<iI", -1, 0)
        else:
            body += struct.pack("<iI", self.pending_load[0],
                                self.pending_load[1] & 0xFFFFFFFF)
        body += struct.pack("<i", -1 if self.wrote_reg is None
                            else self.wrote_reg)
        body += struct.pack("<H", len(self.regs))
        body += struct.pack("<%dI" % len(self.regs),
                            *[r & 0xFFFFFFFF for r in self.regs])
        body += struct.pack("<H", len(self.fregs))
        body += struct.pack("<%dd" % len(self.fregs), *self.fregs)
        body += struct.pack("<I", len(self.planted))
        for address, original in self.planted:
            body += struct.pack("<IB", address, len(original)) + original
        body += struct.pack("<I", len(self.segments))
        for start, raw in self.segments:
            body += struct.pack("<II", start, len(raw)) + raw
        out = self.out_text.encode("utf-8")
        body += struct.pack("<I", len(out)) + out
        return bytes(body)

    @classmethod
    def from_body(cls, body: bytes) -> "MachineState":
        try:
            return cls._unpack_body(body)
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            raise StateError("malformed machine state: %s" % exc)

    @classmethod
    def _unpack_body(cls, body: bytes) -> "MachineState":
        offset = 0

        def take(fmt: str):
            nonlocal offset
            values = struct.unpack_from(fmt, body, offset)
            offset += struct.calcsize(fmt)
            return values

        (name_len,) = take("<B")
        arch_name = body[offset:offset + name_len].decode("ascii")
        offset += name_len
        (big,) = take("<B")
        memsize, pc = take("<II")
        (cc,) = take("<B")
        (icount,) = take("<Q")
        pending_reg, pending_val = take("<iI")
        pending = None if pending_reg < 0 else (pending_reg, pending_val)
        (wrote,) = take("<i")
        (nregs,) = take("<H")
        regs = list(take("<%dI" % nregs))
        (nfregs,) = take("<H")
        fregs = list(take("<%dd" % nfregs))
        (nplanted,) = take("<I")
        planted = []
        for _ in range(nplanted):
            address, size = take("<IB")
            planted.append((address, body[offset:offset + size]))
            offset += size
        (nsegments,) = take("<I")
        segments = []
        for _ in range(nsegments):
            start, size = take("<II")
            raw = body[offset:offset + size]
            if len(raw) != size:
                raise StateError("truncated segment at 0x%x" % start)
            segments.append((start, raw))
            offset += size
        (out_len,) = take("<I")
        out_text = body[offset:offset + out_len].decode("utf-8")
        return cls(arch_name, "big" if big else "little", memsize,
                   regs, fregs, pc, bool(cc & 1), bool(cc & 2), bool(cc & 4),
                   icount, pending, None if wrote < 0 else wrote,
                   segments, planted, out_text)

    def to_bytes(self) -> bytes:
        """The wire/container form (what a SPILL reply carries)."""
        return pack_container(MAGIC, STATE_VERSION, self.to_body())

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MachineState":
        body = unpack_container(raw, MAGIC, STATE_VERSION, StateError,
                                "machine state")
        return cls.from_body(body)

    # -- the divergence digest ---------------------------------------------

    def digest(self, context_addr: int, context_size: int) -> int:
        """The normalized CRC32 the event log records (see module doc)."""
        pages: Dict[int, bytearray] = {}
        for start, raw in self._checked_segments():
            _put(pages, self.memsize, start, raw)
        return _digest(self.regs, self.fregs, self.cc_lt, self.cc_eq,
                       self.cc_ltu, self.icount, self.pending_load,
                       self.wrote_reg, self.memsize, pages,
                       dict(self.planted), self.byteorder, context_addr,
                       context_size)


def live_digest(process, planted, context_addr: int,
                context_size: int) -> int:
    """The same normalized digest, computed from a live process (the
    replay side, without a serialization round trip)."""
    cpu = process.cpu
    image = process.mem.bytes
    view = memoryview(image)
    pages = {page: view[page:page + PAGE] for page in nonzero_pages(image)}
    return _digest(cpu.regs, cpu.fregs, cpu.cc_lt, cpu.cc_eq, cpu.cc_ltu,
                   cpu.icount, cpu._pending_load, cpu._wrote_reg,
                   len(image), pages, dict(planted or {}),
                   process.mem.byteorder, context_addr, context_size)


def _put(pages: Dict[int, bytes], memsize: int, address: int,
         data: bytes) -> None:
    """Write ``data`` at ``address`` into copies of the pages it
    covers (a page absent from ``pages`` is zero)."""
    end = address + len(data)
    for base in range(address - address % PAGE, end, PAGE):
        page = pages.get(base)
        page = bytearray(page if page is not None
                         else min(PAGE, memsize - base))
        lo, hi = max(address, base), min(end, base + PAGE)
        page[lo - base:hi - base] = data[lo - address:hi - address]
        pages[base] = page


def _digest(regs, fregs, cc_lt, cc_eq, cc_ltu, icount, pending_load,
            wrote_reg, memsize: int, pages: Dict[int, bytes],
            planted: Dict[int, bytes], byteorder: str, context_addr: int,
            context_size: int) -> int:
    """The digest of a ``memsize``-byte image that is zero outside
    ``pages`` (page offset -> content)."""
    head = bytearray()
    head += struct.pack("<%dI" % len(regs),
                        *[r & 0xFFFFFFFF for r in regs])
    head += struct.pack("<%dd" % len(fregs), *fregs)
    head += struct.pack("<B", (1 if cc_lt else 0) | (2 if cc_eq else 0)
                        | (4 if cc_ltu else 0))
    head += struct.pack("<Q", icount)
    if pending_load is None:
        head += struct.pack("<iI", -1, 0)
    else:
        head += struct.pack("<iI", pending_load[0],
                            pending_load[1] & 0xFFFFFFFF)
    head += struct.pack("<i", -1 if wrote_reg is None else wrote_reg)
    # normalize the image: original instructions where traps are
    # planted, zeroes over the nub's context scratch area
    for address, original in planted.items():
        raw = original if byteorder == "little" else original[::-1]
        if 0 <= address and address + len(raw) <= memsize:
            _put(pages, memsize, address, raw)
    lo = max(0, context_addr)
    hi = min(memsize, context_addr + context_size)
    if lo < hi:
        _put(pages, memsize, lo, bytes(hi - lo))
    crc = zlib.crc32(head)
    done = 0  # the image bytes the CRC covers so far
    for base in sorted(pages):
        crc = zlib.crc32(pages[base], crc32_zeros(crc, base - done))
        done = base + len(pages[base])
    return crc32_zeros(crc, memsize - done)
