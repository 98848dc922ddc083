"""Abstract memories: the DAG of Fig. 4 (paper Sec. 4.1).

An abstract memory represents the registers and memory of a target
process as a collection of spaces.  ldb combines several instances to
represent the state during one procedure activation:

* the **wire** holds the transport to the nub — a connection, or the
  nub itself when it runs on the debugger's thread — and forwards
  fetch/store requests for the code and data spaces;
* the **alias** memory translates register-space locations into code or
  data locations (the saved context) or immediate locations;
* the **register** memory turns sub-word register accesses into
  full-word operations, making target byte order irrelevant — the same
  debugger code runs against little- and big-endian targets;
* the **joined** memory routes each space to the right underlying
  memory and is the instance the rest of the debugger sees.

Machine-independent code manipulates machine-dependent *data* (the alias
table), so cross-architecture debugging comes for free.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Optional, Tuple, Union

from ..machines import float80
from ..nub import protocol
from ..nub.session import DeadlineExceeded, NubError, Transport, TransportError
from ..postscript import AbstractMemory, KIND_BYTES, Location, PSError


class MemoryStats:
    """Fetch/store counters, shared down a DAG.

    Keys are ``memory.operation``; the ``wire.*`` family counts actual
    nub round-trips while every other family counts logical accesses at
    one DAG node.  Consumers use :meth:`snapshot` to freeze the
    counters, :meth:`diff` to get the increments since a snapshot, and
    :meth:`round_trips` for the wire-message total — the number the
    block-transfer protocol exists to shrink.

    When constructed with a ``metrics`` registry
    (:class:`repro.obs.Metrics`), every count is mirrored into it under
    the same dotted name, folding the DAG's counters into the unified
    observability registry — :class:`~repro.ldb.target.Target` passes
    its hub's registry, which is what ``ldb stats`` and the benchmarks
    read.  The local snapshot/diff API is unchanged either way.
    """

    def __init__(self, metrics=None):
        self.counts: Dict[str, int] = {}
        #: optional repro.obs.Metrics registry mirroring these counts
        self.metrics = metrics

    def note(self, memory_name: str, what: str) -> None:
        key = "%s.%s" % (memory_name, what)
        self.counts[key] = self.counts.get(key, 0) + 1
        if self.metrics is not None:
            self.metrics.inc(key)

    def of(self, memory_name: str, what: str) -> int:
        return self.counts.get("%s.%s" % (memory_name, what), 0)

    def snapshot(self) -> Dict[str, int]:
        """An immutable copy of the counters, for :meth:`diff` later."""
        return dict(self.counts)

    def diff(self, earlier: Union["MemoryStats", Dict[str, int]]) -> Dict[str, int]:
        """The counter increments since ``earlier`` (a snapshot or
        another stats object); zero deltas are omitted."""
        base = earlier.counts if isinstance(earlier, MemoryStats) else earlier
        out: Dict[str, int] = {}
        for key, value in self.counts.items():
            delta = value - base.get(key, 0)
            if delta:
                out[key] = delta
        return out

    def round_trips(self) -> int:
        """Total nub round-trips: every ``wire.*`` message counts one."""
        return sum(v for k, v in self.counts.items() if k.startswith("wire."))


class WireMemory(AbstractMemory):
    """Forwards fetches and stores to the nub through a
    :class:`~repro.nub.session.Transport`.

    Values travel little-endian on the wire whatever the target's byte
    order; the nub does the target-order memory access.  Blocks travel
    as raw memory images (ascending address order) and are interpreted
    by :class:`CachingMemory` above.

    The transport is explicit: a :class:`~repro.nub.session.NubSession`
    for retry/backoff and crash-reconnect over a wire, a
    :class:`~repro.nub.session.LocalTransport` for a nub on the
    debugger's own thread, or a core's or a recording's transport.  All
    surface nub errors the same way, so the PSError behaviour here is
    transport-independent.
    """

    spaces = "cd"

    def __init__(self, transport: Transport, stats: Optional[MemoryStats] = None):
        if not isinstance(transport, Transport):
            raise TypeError("WireMemory needs a Transport, not %r"
                            % (transport,))
        self.transport = transport
        self.stats = stats if stats is not None else MemoryStats()

    def _transact(self, msg, expect, what: str):
        try:
            return self.transport.transact(msg, expect=expect)
        except NubError as err:
            raise PSError("invalidaccess", "nub error %d %s" % (err.code, what))
        except DeadlineExceeded:
            raise  # the supervisor's time bound: never masked as an ioerror
        except TransportError as err:
            ps = PSError("ioerror", "nub request failed: %s" % err)
            # tag the wrapped cause: callers that can answer typed (the
            # command API) map this to "target died", not "bad expression"
            ps.transport_error = err
            raise ps

    def fetch_absolute(self, loc: Location, kind: str):
        self.stats.note("wire", "fetch")
        size = KIND_BYTES[kind]
        reply = self._transact(protocol.fetch(loc.space, loc.offset, size),
                               expect=(protocol.MSG_DATA,),
                               what="at %s+%d" % (loc.space, loc.offset))
        return decode_value(reply.payload, kind)

    def store_absolute(self, loc: Location, kind: str, value) -> None:
        self.stats.note("wire", "store")
        raw = encode_value(value, kind)
        self._transact(protocol.store(loc.space, loc.offset, raw),
                       expect=(protocol.MSG_OK,),
                       what="storing %s+%d" % (loc.space, loc.offset))

    # -- block transfers ---------------------------------------------------

    def fetch_block(self, space: str, address: int, length: int) -> bytes:
        """Raw memory-image bytes for ``[address, address+length)``.

        The nub may answer with a shorter readable prefix when the span
        runs off mapped memory."""
        self.stats.note("wire", "blockfetch")
        reply = self._transact(protocol.blockfetch(space, address, length),
                               expect=(protocol.MSG_DATA,),
                               what="for block %s+%d" % (space, address))
        return reply.payload


def decode_value(raw_le: bytes, kind: str):
    """Decode a little-endian wire value into a host value.

    Kinds use the abstract-memory vocabulary (``i8 i16 i32 f32 f64 f80``).
    """
    if kind == "f32":
        return struct.unpack("<f", raw_le)[0]
    if kind == "f64":
        return struct.unpack("<d", raw_le)[0]
    if kind == "f80":
        return float80.decode(raw_le)
    return int.from_bytes(raw_le, "little", signed=True)


def encode_value(value, kind: str) -> bytes:
    """Encode a host value as little-endian wire bytes."""
    if kind == "f32":
        return struct.pack("<f", float(value))
    if kind == "f64":
        return struct.pack("<d", float(value))
    if kind == "f80":
        return float80.encode(float(value))
    size = KIND_BYTES[kind]
    return (int(value) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")


class CachingMemory(AbstractMemory):
    """A write-through, block-filling cache in front of a WireMemory.

    Fetches are served from cached blocks filled by BLOCKFETCH, turning
    the stack walker's and expression server's sprays of tiny FETCH
    messages into a handful of block transfers.  The semantics are
    byte-identical to the uncached path:

    * a block is the raw memory image, so a value is the slice at its
      address, reversed for big-endian targets — exactly what the nub's
      per-value FETCH computes;
    * targets whose saved contexts need fixing (the rmips saved-float
      word swap, paper footnote 3) supply a ``fixup`` hook that
      replicates the nub's ``fix_fetched`` on the debugger side;
    * stores write through per-word (so the nub's ``fix_stored`` hook
      still applies) and invalidate the stored span.

    The cache must be dropped whenever the target can have run:
    :class:`~repro.ldb.target.Target` calls :meth:`invalidate` on every
    resume, stop, and reconnect.
    """

    spaces = "cd"

    #: cache line size; spans are block-aligned on the wire
    BLOCK = 128

    def __init__(self, wire: WireMemory, byteorder: str = "little",
                 fixup: Optional[Callable[[str, int, bytes], bytes]] = None,
                 stats: Optional[MemoryStats] = None):
        if byteorder not in ("big", "little"):
            raise ValueError("byteorder must be 'big' or 'little'")
        self.wire = wire
        self.byteorder = byteorder
        self.fixup = fixup
        self.stats = stats if stats is not None else wire.stats
        #: (space, block_start) -> raw bytes; short when the block runs
        #: off mapped memory
        self.blocks: Dict[Tuple[str, int], bytes] = {}

    # -- invalidation ------------------------------------------------------

    def invalidate(self) -> None:
        """Drop everything: the target may have run."""
        if self.blocks:
            self.stats.note("cache", "invalidate")
            self.blocks.clear()

    def invalidate_range(self, space: str, start: int, length: int) -> None:
        """Drop the blocks covering ``[start, start+length)``."""
        if length <= 0:
            return
        first = start // self.BLOCK
        last = (start + length - 1) // self.BLOCK
        for n in range(first, last + 1):
            self.blocks.pop((space, n * self.BLOCK), None)

    # -- prefetch ----------------------------------------------------------

    def prefetch(self, space: str, start: int, length: int) -> None:
        """Warm the cache for a span in one round-trip (best effort).

        The stack walker uses this to pull a frame's whole saved
        context, or the cluster of saved-register slots, in a single
        BLOCKFETCH before the per-register fetches hit the cache.
        """
        if length <= 0:
            return
        first = (start // self.BLOCK) * self.BLOCK
        end = start + length
        span = ((end - first + self.BLOCK - 1) // self.BLOCK) * self.BLOCK
        span = min(span, protocol.MAX_BLOCK)
        if all((space, first + off) in self.blocks
               for off in range(0, span, self.BLOCK)):
            return
        try:
            raw = self.wire.fetch_block(space, first, span)
        except PSError:
            return  # unmapped start etc.; the demand path will surface it
        self.stats.note("cache", "prefetch")
        self._install(space, first, raw)

    # -- the cache proper --------------------------------------------------

    def _install(self, space: str, start: int, raw: bytes) -> None:
        # ``start`` is block-aligned; the tail piece may be short when
        # the nub answered a readable prefix
        for off in range(0, len(raw), self.BLOCK):
            self.blocks[(space, start + off)] = raw[off:off + self.BLOCK]

    def _ensure_block(self, space: str, bstart: int) -> bytes:
        blk = self.blocks.get((space, bstart))
        if blk is None:
            self.stats.note("cache", "miss")
            raw = self.wire.fetch_block(space, bstart, self.BLOCK)
            self._install(space, bstart, raw)
            blk = self.blocks[(space, bstart)]
        return blk

    def _read_span(self, space: str, start: int, size: int) -> Optional[bytes]:
        """The raw memory image for a span, or None when the span is not
        fully coverable by (possibly short) blocks."""
        out = []
        addr, need = start, size
        while need > 0:
            bstart = (addr // self.BLOCK) * self.BLOCK
            blk = self._ensure_block(space, bstart)
            avail = len(blk) - (addr - bstart)
            if avail <= 0:
                return None
            take = min(avail, need)
            lo = addr - bstart
            out.append(blk[lo:lo + take])
            addr += take
            need -= take
            if need > 0 and len(blk) < self.BLOCK:
                return None  # a short block: the rest is unmapped
        return b"".join(out)

    def _image_to_value(self, space: str, offset: int, raw_img: bytes, kind: str):
        # the same interpretation the nub applies per value: reverse for
        # big-endian targets, then the machine's saved-context fixup
        raw_le = raw_img[::-1] if self.byteorder == "big" else raw_img
        if self.fixup is not None:
            raw_le = self.fixup(space, offset, raw_le)
        return decode_value(raw_le, kind)

    def fetch_absolute(self, loc: Location, kind: str):
        self.stats.note("cache", "fetch")
        size = KIND_BYTES[kind]
        misses = self.stats.of("cache", "miss")
        try:
            raw_img = self._read_span(loc.space, loc.offset, size)
        except PSError:
            raw_img = None  # block start unmapped; retry per-word
        else:
            if raw_img is not None and self.stats.of("cache", "miss") == misses:
                self.stats.note("cache", "hit")
        if raw_img is None:
            self.stats.note("cache", "fallback")
            return self.wire.fetch_absolute(loc, kind)
        return self._image_to_value(loc.space, loc.offset, raw_img, kind)

    def store_absolute(self, loc: Location, kind: str, value) -> None:
        # write through per-word — the nub's fix_stored hook must see the
        # store exactly as on the uncached path — then drop the span
        self.stats.note("cache", "store")
        self.wire.store_absolute(loc, kind, value)
        # the nub's c and d spaces address one memory: drop both names
        for space in self.spaces:
            self.invalidate_range(space, loc.offset, KIND_BYTES[kind])


class AliasMemory(AbstractMemory):
    """Records where each register lives: a context or stack location in
    the data space, or an immediate location.  The aliases are
    machine-dependent data; this code is machine-independent."""

    def __init__(self, underlying: AbstractMemory,
                 aliases: Optional[Dict[Tuple[str, int], Location]] = None,
                 stats: Optional[MemoryStats] = None):
        self.underlying = underlying
        self.aliases = aliases if aliases is not None else {}
        self.stats = stats if stats is not None else getattr(
            underlying, "stats", MemoryStats())

    def alias(self, space: str, offset: int, target: Location) -> "AliasMemory":
        self.aliases[(space, offset)] = target
        return self

    def target_of(self, loc: Location) -> Location:
        key = (loc.space, loc.offset)
        if key not in self.aliases:
            raise PSError("invalidaccess",
                          "no alias for %s+%d" % (loc.space, loc.offset))
        return self.aliases[key]

    def fetch_absolute(self, loc: Location, kind: str):
        self.stats.note("alias", "fetch")
        return self.underlying.fetch(self.target_of(loc), kind)

    def store_absolute(self, loc: Location, kind: str, value) -> None:
        self.stats.note("alias", "store")
        self.underlying.store(self.target_of(loc), kind, value)


class RegisterMemory(AbstractMemory):
    """Solves the byte-order problem for sub-word register access.

    Fetching the least significant byte of a register would need the
    target's byte order; instead, sub-word fetches and stores become
    full-word operations here, and only the low-order *bits* of the word
    value are used — byte order becomes irrelevant (paper Sec. 4.1).

    ``widths`` maps each register space to its full-register kind
    (``r -> i32``, ``f -> f64`` — or ``f80`` on the 68020 analog).
    """

    def __init__(self, underlying: AbstractMemory, widths: Dict[str, str],
                 stats: Optional[MemoryStats] = None):
        self.underlying = underlying
        self.widths = widths
        self.stats = stats if stats is not None else getattr(
            underlying, "stats", MemoryStats())

    def fetch_absolute(self, loc: Location, kind: str):
        self.stats.note("register", "fetch")
        full = self.widths.get(loc.space, "i32")
        if kind in ("i8", "i16") and full.startswith("i"):
            word = self.underlying.fetch(loc, full)
            bits = 8 * KIND_BYTES[kind]
            value = word & ((1 << bits) - 1)
            if value >= 1 << (bits - 1):
                value -= 1 << bits
            return value
        return self.underlying.fetch(loc, full if kind.startswith(full[0]) else kind)

    def store_absolute(self, loc: Location, kind: str, value) -> None:
        self.stats.note("register", "store")
        full = self.widths.get(loc.space, "i32")
        if kind in ("i8", "i16") and full.startswith("i"):
            word = self.underlying.fetch(loc, full)
            bits = 8 * KIND_BYTES[kind]
            mask = (1 << bits) - 1
            merged = (word & ~mask) | (int(value) & mask)
            self.underlying.store(loc, full, merged)
            return
        self.underlying.store(loc, full if kind.startswith(full[0]) else kind, value)


class JoinedMemory(AbstractMemory):
    """Routes fetch and store requests by space: the instance presented
    to the rest of the debugger as the frame's abstract memory."""

    def __init__(self, routes: Dict[str, AbstractMemory],
                 stats: Optional[MemoryStats] = None):
        self.routes = routes
        self.stats = stats if stats is not None else MemoryStats()

    def route(self, loc: Location) -> AbstractMemory:
        memory = self.routes.get(loc.space)
        if memory is None:
            raise PSError("invalidaccess", "no memory serves space %r" % loc.space)
        return memory

    def fetch_absolute(self, loc: Location, kind: str):
        self.stats.note("joined", "fetch")
        return self.route(loc).fetch(loc, kind)

    def store_absolute(self, loc: Location, kind: str, value) -> None:
        self.stats.note("joined", "store")
        self.route(loc).store(loc, kind, value)


class LocalMemory(AbstractMemory):
    """A concrete in-host memory for tests and the expression server's
    immediate values; stores one value per (space, offset)."""

    def __init__(self):
        self.slots: Dict[Tuple[str, int], Union[int, float]] = {}

    def fetch_absolute(self, loc: Location, kind: str):
        key = (loc.space, loc.offset)
        if key not in self.slots:
            raise PSError("invalidaccess", "nothing at %s+%d" % key)
        return self.slots[key]

    def store_absolute(self, loc: Location, kind: str, value) -> None:
        self.slots[(loc.space, loc.offset)] = value
