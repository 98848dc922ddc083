"""Byte-addressable target memory with typed, endian-aware access.

Every simulated target owns one flat :class:`TargetMemory`; the code and
data spaces refer to the same locations on all four targets (the paper
permits either, Sec. 4.1).  Accesses outside the configured size raise
:class:`MemoryFault`, which the CPU converts into a SIGSEGV-analog that
the nub catches.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Set, Tuple, Union

from . import float80


class MemoryFault(Exception):
    """An access outside the target's memory (the SIGSEGV analog)."""

    def __init__(self, address: int, size: int = 1):
        self.address = address
        self.size = size
        super().__init__("bad address 0x%x (size %d)" % (address, size))


#: copy-on-write granularity for memory snapshots
PAGE = 4096
_PAGE_SHIFT = 12

#: the integer codecs block code reads and writes with, per byte order:
#: unpack 16/32 unsigned/signed, pack 16/32
_CODECS = {
    order: tuple(getattr(struct.Struct(prefix + code), method)
                 for code, method in (("H", "unpack_from"),
                                      ("h", "unpack_from"),
                                      ("I", "unpack_from"),
                                      ("i", "unpack_from"),
                                      ("H", "pack_into"),
                                      ("I", "pack_into")))
    for order, prefix in (("big", ">"), ("little", "<"))}


class MemorySnapshot:
    """A copy-on-write snapshot of a :class:`TargetMemory`.

    Taking one copies nothing; the memory captures a page into every
    live snapshot that has not seen it yet on the *first write* after
    the snapshot was taken.  ``pages`` therefore holds exactly the pages
    that changed since the snapshot — restoring writes them back, which
    in turn COW-captures the pre-restore content into other live
    snapshots, so snapshots can be taken and restored in any order.

    Because every write captures into *all* live snapshots, holding a
    page is monotone in age: if a snapshot holds it, every older live
    snapshot does too.
    """

    __slots__ = ("pages",)

    def __init__(self):
        self.pages: Dict[int, bytes] = {}

    def cost_pages(self) -> int:
        """How many pages this snapshot has had to copy so far."""
        return len(self.pages)


class TargetMemory:
    """A flat byte-addressable memory of a simulated target.

    ``byteorder`` is ``"big"`` or ``"little"`` and governs every
    multi-byte access — this is where target byte order lives, and the
    nub (not the debugger) is the only debug component that reads memory
    through it, matching the paper's division of labor (Sec. 4.1).
    """

    def __init__(self, size: int = 1 << 20, byteorder: str = "little"):
        if byteorder not in ("big", "little"):
            raise ValueError("byteorder must be 'big' or 'little'")
        # ``bytes``, ``size``, ``_snapshots`` and ``_write_hooks`` are
        # never rebound: a block factory binds them once
        # (:data:`FRAGMENT_BINDINGS`)
        self.size = size
        self.byteorder = byteorder
        self.bytes = bytearray(size)
        self._codecs = _CODECS[byteorder]
        #: live snapshots still owed copy-on-write page captures,
        #: oldest first
        self._snapshots: List[MemorySnapshot] = []
        #: pages every live snapshot already holds: a write to one
        #: owes no capture (emptied by :meth:`snapshot`, whose new
        #: snapshot holds nothing)
        self._held: Set[int] = set()
        #: write observers ``hook(address, size)``, called after every
        #: mutation (typed writes, raw writes, and snapshot restores).
        #: The block-dispatching execution engine registers one to
        #: invalidate decoded code on writes into it.
        self._write_hooks: List = []

    # -- write observation -------------------------------------------------

    def add_write_hook(self, hook) -> None:
        """Register ``hook(address, size)``, called after every write.

        Every mutation path notifies — :meth:`write_bytes`,
        :meth:`write_int` (and everything layered on them), and
        :meth:`restore` — so an observer sees all content changes,
        including checkpoint rewinds."""
        self._write_hooks.append(hook)

    def _check(self, address: int, size: int) -> None:
        if address < 0 or address + size > self.size:
            raise MemoryFault(address, size)

    # -- snapshot/restore (copy-on-write pages) ---------------------------

    def snapshot(self) -> MemorySnapshot:
        """Take a snapshot without copying anything; pages are captured
        lazily by the write paths (copy-on-write)."""
        snap = MemorySnapshot()
        self._snapshots.append(snap)
        self._held = set()
        return snap

    def restore(self, snap: MemorySnapshot) -> None:
        """Rewind memory to the snapshot's state.

        Only the captured (i.e. since-modified) pages are written; the
        writes COW-capture pre-restore content into *other* live
        snapshots, and the snapshot stays valid for further restores.
        """
        if snap not in self._snapshots:
            raise ValueError("snapshot was released or belongs elsewhere")
        for page, raw in snap.pages.items():
            start = page << _PAGE_SHIFT
            self._capture(start, len(raw))
            self.bytes[start:start + len(raw)] = raw
            if self._write_hooks:
                for hook in self._write_hooks:
                    hook(start, len(raw))

    def release(self, snap: MemorySnapshot) -> None:
        """Forget a snapshot: its pages stop being COW-captured."""
        try:
            self._snapshots.remove(snap)
        except ValueError:
            pass  # released twice, or never taken here

    def _capture(self, address: int, size: int) -> None:
        """Before mutating ``[address, address+size)``: save the pages'
        current content into every live snapshot that lacks them.

        The snapshots lacking a page are the newest ones (see
        :class:`MemorySnapshot`), so the walk goes newest-first and
        stops at the first that holds it."""
        held = self._held
        first = address >> _PAGE_SHIFT
        last = (address + size - 1) >> _PAGE_SHIFT
        for page in range(first, last + 1):
            if page in held:
                continue
            start = page << _PAGE_SHIFT
            raw = None
            for snap in reversed(self._snapshots):
                if page in snap.pages:
                    break
                if raw is None:
                    raw = bytes(self.bytes[start:start + PAGE])
                snap.pages[page] = raw
            held.add(page)

    # -- raw bytes -------------------------------------------------------

    def read_bytes(self, address: int, size: int) -> bytes:
        self._check(address, size)
        return bytes(self.bytes[address : address + size])

    def write_bytes(self, address: int, data: bytes) -> None:
        self._check(address, len(data))
        if self._snapshots and data:
            self._capture(address, len(data))
        self.bytes[address : address + len(data)] = data
        if self._write_hooks and data:
            for hook in self._write_hooks:
                hook(address, len(data))

    # -- integers --------------------------------------------------------

    def read_uint(self, address: int, size: int) -> int:
        self._check(address, size)
        return int.from_bytes(self.bytes[address : address + size], self.byteorder)

    def read_int(self, address: int, size: int) -> int:
        value = self.read_uint(address, size)
        half = 1 << (size * 8 - 1)
        return value - (half << 1) if value >= half else value

    def write_int(self, address: int, size: int, value: int) -> None:
        self._check(address, size)
        # an integer spans at most two pages: held ones owe no capture
        if self._snapshots and not (
                address >> _PAGE_SHIFT in self._held
                and (address + size - 1) >> _PAGE_SHIFT in self._held):
            self._capture(address, size)
        value &= (1 << (size * 8)) - 1
        self.bytes[address : address + size] = value.to_bytes(size, self.byteorder)
        if self._write_hooks:
            for hook in self._write_hooks:
                hook(address, size)

    def read_u8(self, address: int) -> int:
        return self.read_uint(address, 1)

    def read_u16(self, address: int) -> int:
        return self.read_uint(address, 2)

    def read_u32(self, address: int) -> int:
        return self.read_uint(address, 4)

    def read_i8(self, address: int) -> int:
        return self.read_int(address, 1)

    def read_i16(self, address: int) -> int:
        return self.read_int(address, 2)

    def read_i32(self, address: int) -> int:
        return self.read_int(address, 4)

    def write_u8(self, address: int, value: int) -> None:
        self.write_int(address, 1, value)

    def write_u16(self, address: int, value: int) -> None:
        self.write_int(address, 2, value)

    def write_u32(self, address: int, value: int) -> None:
        self.write_int(address, 4, value)

    # -- floats ----------------------------------------------------------

    def read_f32(self, address: int) -> float:
        raw = self.read_bytes(address, 4)
        fmt = ">f" if self.byteorder == "big" else "<f"
        return struct.unpack(fmt, raw)[0]

    def write_f32(self, address: int, value: float) -> None:
        fmt = ">f" if self.byteorder == "big" else "<f"
        self.write_bytes(address, struct.pack(fmt, value))

    def read_f64(self, address: int) -> float:
        raw = self.read_bytes(address, 8)
        fmt = ">d" if self.byteorder == "big" else "<d"
        return struct.unpack(fmt, raw)[0]

    def write_f64(self, address: int, value: float) -> None:
        fmt = ">d" if self.byteorder == "big" else "<d"
        self.write_bytes(address, struct.pack(fmt, value))

    def read_f80(self, address: int) -> float:
        raw = self.read_bytes(address, float80.SIZE)
        if self.byteorder == "big":
            return float80.decode_be(raw)
        return float80.decode(raw)

    def write_f80(self, address: int, value: float) -> None:
        raw = float80.encode_be(value) if self.byteorder == "big" else float80.encode(value)
        self.write_bytes(address, raw)

    # -- strings ---------------------------------------------------------

    def read_cstring(self, address: int, limit: int = 1 << 16) -> str:
        """Read a NUL-terminated latin-1 string (used by the syscall layer)."""
        chars = []
        for i in range(limit):
            byte = self.read_u8(address + i)
            if byte == 0:
                break
            chars.append(chr(byte))
        return "".join(chars)

    def write_cstring(self, address: int, text: str) -> None:
        self.write_bytes(address, text.encode("latin-1") + b"\0")

    # -- kinds (abstract-memory vocabulary) -------------------------------

    def read_kind(self, address: int, kind: str) -> Union[int, float]:
        """Read by abstract-memory kind name (i8/i16/i32/f32/f64/f80)."""
        if kind == "i8":
            return self.read_i8(address)
        if kind == "i16":
            return self.read_i16(address)
        if kind == "i32":
            return self.read_i32(address)
        if kind == "f32":
            return self.read_f32(address)
        if kind == "f64":
            return self.read_f64(address)
        if kind == "f80":
            return self.read_f80(address)
        raise ValueError("unknown kind %r" % kind)

    def write_kind(self, address: int, kind: str, value: Union[int, float]) -> None:
        if kind == "i8":
            self.write_int(address, 1, int(value))
        elif kind == "i16":
            self.write_int(address, 2, int(value))
        elif kind == "i32":
            self.write_int(address, 4, int(value))
        elif kind == "f32":
            self.write_f32(address, float(value))
        elif kind == "f64":
            self.write_f64(address, float(value))
        elif kind == "f80":
            self.write_f80(address, float(value))
        else:
            raise ValueError("unknown kind %r" % kind)


# -- the same rules as block-engine source ----------------------------------
#
# The block engine (engine.py) runs a basic block as one generated function
# whose body is its instructions' own source, and the loads and stores in
# it come from the two builders below.  So ``_check``'s bounds rule and
# ``write_int``'s copy-on-write capture and write hooks are stated here
# twice, as code and as source, and nowhere else.  The lines use the names
# a block factory binds from its memory ``mem``; ``addr`` must name an
# unsigned 32-bit address (every ISA masks its effective addresses), for
# which ``address < 0`` cannot hold.

#: the bindings the lines below rely on, run once per block factory
FRAGMENT_BINDINGS = (
    "data = mem.bytes",
    "size = mem.size",
    "snapshots = mem._snapshots",
    "hooks = mem._write_hooks",
    "u16, s16, u32, s32, p16, p32 = mem._codecs",
)


#: a line every store below holds, and no other source does
STORE_MARK = "for hook in hooks:"


def _check_source(addr: str, size: int) -> str:
    return "if %s + %d > size: raise MemoryFault(%s, %d)" % (
        addr, size, addr, size)


def load_source(addr: str, size: int, signed: bool = False
                ) -> Tuple[str, str]:
    """``(check, value)``: a statement that faults as ``_check`` would,
    and the expression ``read_uint`` (``read_int`` if ``signed``) then
    reads, for a ``size`` of 1, 2 or 4."""
    if size == 1:
        value = "((data[%s] ^ 128) - 128)" if signed else "data[%s]"
        value %= addr
    else:
        codec = "%s%d" % ("s" if signed else "u", size * 8)
        value = "%s(data, %s)[0]" % (codec, addr)
    return _check_source(addr, size), value


def store_source(addr: str, size: int, value: str) -> List[str]:
    """The statements of ``write_int(addr, size, value)`` for a
    ``size`` of 1, 2 or 4; ``value`` is evaluated last, so it must not
    fault or change state."""
    # an integer spans at most two pages: held ones owe no capture
    held = "%s >> %d in mem._held" % (addr, _PAGE_SHIFT)
    if size > 1:
        held += " and (%s + %d) >> %d in mem._held" % (
            addr, size - 1, _PAGE_SHIFT)
    mask = (1 << (size * 8)) - 1
    if size == 1:
        put = "data[%s] = (%s) & 0xFF" % (addr, value)
    else:
        put = "p%d(data, %s, (%s) & 0x%X)" % (size * 8, addr, value, mask)
    return [_check_source(addr, size),
            "if snapshots and not (%s):" % held,
            "    mem._capture(%s, %d)" % (addr, size),
            put,
            STORE_MARK,
            "    hook(%s, %d)" % (addr, size)]
