"""The versioned on-disk recording format (``.ldbrec``).

A recording is a durable, shareable debugging session: enough state to
reopen a program's timeline later — on another machine, with no nub and
no executable — and debug it with the unchanged stack, forward *and*
backward.  Following rr's shape ("Engineering Record and Replay for
Deployability", PAPERS.md), a recording is:

* **checkpoint spills**: complete resumable machine states
  (:class:`~repro.machines.machstate.MachineState`) captured at the
  stops the live session checkpointed — the seeds replay re-executes
  from;
* an **event log**: every surfaced stop with its icount and a
  normalized state digest — what replay verifies against, so a
  divergent re-execution is *detected*, never silently served;
* an **input log**: debugger-injected writes (``set x = 5``) with the
  icount position they happened at, so replay re-applies them on the
  way past and the re-executed timeline matches the recorded one.

On disk: the ``LDBT`` magic and a ``<HH`` version/flags header, then a
sequence of independently zlib-compressed, CRC32-checksummed blocks
(:mod:`repro.machines.chunkio`), ending with an END sentinel whose
absence marks a truncated file.  Block order is META, SPILL*, LOG, END.
Every damage path — bad magic, cut-short block, flipped bit, future
version, malformed body — raises :class:`TraceError` with a reason,
never a struct error.
"""

from __future__ import annotations

import struct
import warnings
from typing import List, Optional

from ..machines.atomicio import SalvagedArtifact, atomic_write_bytes
from ..machines.chunkio import pack_block, unpack_block
from ..machines.machstate import MachineState, StateError
from ..nub.protocol import MAX_BLOCK, VALUE_SIZES

TRACE_MAGIC = b"LDBT"
TRACE_VERSION = 1

#: block kinds
BLOCK_META = 1
BLOCK_SPILL = 2
BLOCK_LOG = 3
BLOCK_END = 4

#: spill kinds (why the live session checkpointed there)
SPILL_STOP = 0
SPILL_AUTO = 1

#: input-log operations
OP_STORE = 1
OP_BLOCKSTORE = 2

_HEAD = struct.Struct("<HH")
_STOP = struct.Struct("<QIiII")
_INPUT_HEAD = struct.Struct("<QBBIH")


class TraceError(Exception):
    """A recording that cannot be loaded (damaged, truncated, or from a
    future format version)."""


class TraceMeta:
    """The recording's identity: what machine, how big, where the nub
    keeps its context, and the checkpoint interval it was made with."""

    __slots__ = ("arch_name", "byteorder", "memsize", "context_addr",
                 "interval", "base_icount", "loader_ps")

    def __init__(self, arch_name: str, byteorder: str, memsize: int,
                 context_addr: int, interval: int, base_icount: int,
                 loader_ps: Optional[str] = None):
        self.arch_name = arch_name
        self.byteorder = byteorder
        self.memsize = memsize
        self.context_addr = context_addr
        self.interval = interval
        #: icount of the earliest spill: the floor of the timeline
        self.base_icount = base_icount
        #: the embedded loader symbol table (PostScript text)
        self.loader_ps = loader_ps

    def to_body(self) -> bytes:
        body = bytearray()
        name = self.arch_name.encode("ascii")
        body += struct.pack("<B", len(name)) + name
        body += struct.pack("<B", 1 if self.byteorder == "big" else 0)
        body += struct.pack("<III", self.memsize, self.context_addr,
                            self.interval)
        body += struct.pack("<Q", self.base_icount)
        table = (self.loader_ps or "").encode("utf-8")
        body += struct.pack("<I", len(table)) + table
        return bytes(body)

    @classmethod
    def from_body(cls, body: bytes) -> "TraceMeta":
        offset = 0
        (name_len,) = struct.unpack_from("<B", body, offset)
        offset += 1
        arch_name = body[offset:offset + name_len].decode("ascii")
        offset += name_len
        (big,) = struct.unpack_from("<B", body, offset)
        offset += 1
        memsize, context_addr, interval = struct.unpack_from(
            "<III", body, offset)
        offset += 12
        (base_icount,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        (table_len,) = struct.unpack_from("<I", body, offset)
        offset += 4
        table = body[offset:offset + table_len]
        if len(table) != table_len:
            raise TraceError("truncated META loader table")
        return cls(arch_name, "big" if big else "little", memsize,
                   context_addr, interval, base_icount,
                   loader_ps=table.decode("utf-8") or None)


class SpillRecord:
    """One spilled checkpoint: a resumable state at a recorded stop."""

    __slots__ = ("cid", "icount", "pc", "signo", "code", "kind", "state")

    def __init__(self, cid: int, icount: int, pc: int, signo: int,
                 code: int, kind: int, state: MachineState):
        self.cid = cid
        self.icount = icount
        self.pc = pc
        self.signo = signo
        self.code = code
        self.kind = kind
        self.state = state

    def to_body(self) -> bytes:
        state_body = self.state.to_body()
        return (struct.pack("<IQIiIBI", self.cid, self.icount, self.pc,
                            self.signo, self.code, self.kind,
                            len(state_body)) + state_body)

    @classmethod
    def from_body(cls, body: bytes) -> "SpillRecord":
        cid, icount, pc, signo, code, kind, state_len = struct.unpack_from(
            "<IQIiIBI", body, 0)
        head = struct.calcsize("<IQIiIBI")
        state_body = body[head:head + state_len]
        if len(state_body) != state_len:
            raise TraceError("truncated SPILL state body")
        try:
            state = MachineState.from_body(state_body)
        except StateError as exc:
            raise TraceError("bad SPILL state: %s" % exc)
        return cls(cid, icount, pc, signo, code, kind, state)


class StopRecord:
    """One surfaced stop in the event log: position + verification
    digest (see :meth:`repro.machines.machstate.MachineState.digest`)."""

    __slots__ = ("icount", "pc", "signo", "code", "digest")

    def __init__(self, icount: int, pc: int, signo: int, code: int,
                 digest: int):
        self.icount = icount
        self.pc = pc
        self.signo = signo
        self.code = code
        self.digest = digest


class InputRecord:
    """One debugger-injected write, applied on departure from
    ``position`` during replay.  ``data`` is exactly the wire payload
    (little-endian for STORE, raw memory order for BLOCKSTORE)."""

    __slots__ = ("position", "op", "space", "address", "data")

    def __init__(self, position: int, op: int, space: str, address: int,
                 data: bytes):
        self.position = position
        self.op = op
        self.space = space
        self.address = address
        self.data = data


class Recording:
    """One loaded (or under-construction) recording."""

    #: True when this recording was recovered from a damaged file by
    #: :meth:`from_bytes`'s salvage mode — everything past
    #: :attr:`final_icount` (the salvage horizon) was lost
    salvaged = False
    #: why the strict parse refused the file (salvaged only)
    salvage_reason: Optional[str] = None
    #: True when this recording was written by a partial save — the
    #: writer could not pull every pending checkpoint state (dead nub)
    partial = False

    def __init__(self, meta: TraceMeta,
                 spills: Optional[List[SpillRecord]] = None,
                 stops: Optional[List[StopRecord]] = None,
                 inputs: Optional[List[InputRecord]] = None):
        self.meta = meta
        #: spilled checkpoints, ascending icount, cids 1..N in that order
        self.spills = sorted(spills or [], key=lambda s: s.icount)
        #: surfaced stops, ascending icount
        self.stops = sorted(stops or [], key=lambda s: s.icount)
        #: injected writes, ascending position
        self.inputs = sorted(inputs or [], key=lambda i: i.position)

    @property
    def final_icount(self) -> int:
        """The latest recorded position: where a reopened session sits."""
        return self.spills[-1].icount if self.spills else 0

    def stop_at(self, icount: int) -> Optional[StopRecord]:
        for stop in self.stops:
            if stop.icount == icount:
                return stop
        return None

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += TRACE_MAGIC + _HEAD.pack(TRACE_VERSION, 0)
        out += pack_block(BLOCK_META, self.meta.to_body())
        for spill in self.spills:
            out += pack_block(BLOCK_SPILL, spill.to_body())
        log = bytearray()
        log += struct.pack("<I", len(self.stops))
        for stop in self.stops:
            log += _STOP.pack(stop.icount, stop.pc, stop.signo, stop.code,
                              stop.digest)
        log += struct.pack("<I", len(self.inputs))
        for entry in self.inputs:
            log += _INPUT_HEAD.pack(entry.position, entry.op,
                                    ord(entry.space), entry.address,
                                    len(entry.data))
            log += entry.data
        out += pack_block(BLOCK_LOG, bytes(log))
        out += pack_block(BLOCK_END, b"")
        return bytes(out)

    @classmethod
    def from_bytes(cls, raw: bytes, salvage: bool = False) -> "Recording":
        """Parse a serialized recording.

        Strict by default: any damage raises :class:`TraceError`.
        With ``salvage=True``, a truncated or tail-corrupt file is
        recovered on its longest valid block prefix instead — the
        spills, stops, and inputs before the first damage the strict
        read would raise on — and a :class:`SalvagedArtifact` warning
        names what was lost.  The salvage horizon is the last intact
        spill's icount; stops and inputs past it are dropped so replay
        never claims a timeline the file no longer proves.  A file
        damaged before its first checkpoint spill (or one that is
        simply not a recording) still raises."""
        if raw[:4] != TRACE_MAGIC:
            raise TraceError("not a trace file (bad magic)")
        if len(raw) < 8:
            raise TraceError("truncated trace: header cut short (%d bytes)"
                             % len(raw))
        version, _flags = _HEAD.unpack_from(raw, 4)
        if version > TRACE_VERSION:
            raise TraceError("trace format version %d is newer than this "
                             "debugger understands (max %d)"
                             % (version, TRACE_VERSION))
        offset = 8
        meta: Optional[TraceMeta] = None
        spills: List[SpillRecord] = []
        stops: List[StopRecord] = []
        inputs: List[InputRecord] = []
        saw_log = False
        blocks = 0  # intact blocks before END or the damage
        damage: Optional[TraceError] = None
        try:
            while True:
                if offset >= len(raw):
                    raise TraceError("truncated trace: no END block")
                kind, body, offset = unpack_block(raw, offset, TraceError,
                                                  "trace")
                if kind == BLOCK_END:
                    if offset != len(raw):
                        raise TraceError("%d trailing bytes after END block"
                                         % (len(raw) - offset))
                    break
                if kind == BLOCK_META:
                    if meta is not None:
                        raise TraceError("duplicate META block")
                    meta = TraceMeta.from_body(body)
                elif kind == BLOCK_SPILL:
                    spills.append(SpillRecord.from_body(body))
                elif kind == BLOCK_LOG:
                    if saw_log:
                        raise TraceError("duplicate LOG block")
                    saw_log = True
                    stops, inputs = cls._unpack_log(body)
                else:
                    raise TraceError("unknown block kind %d at offset %d"
                                     % (kind, offset))
                blocks += 1
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            damage = TraceError("malformed trace block: %s" % exc)
        except TraceError as exc:
            damage = exc
        if damage is None:
            if meta is None:
                raise TraceError("trace has no META block")
            if not spills:
                raise TraceError("trace has no checkpoint spills")
            return cls(meta, spills, stops, inputs)
        if not salvage or meta is None or not spills:
            raise damage  # damage before the first spill: nothing to serve
        horizon = max(spill.icount for spill in spills)
        recording = cls(meta, spills,
                        [stop for stop in stops if stop.icount <= horizon],
                        [entry for entry in inputs
                         if entry.position <= horizon])
        recording.salvaged = True
        recording.salvage_reason = str(damage)
        warnings.warn(SalvagedArtifact(
            "recording salvaged on its valid prefix: %d block(s), %d "
            "checkpoint spill(s), horizon icount %d (%s)"
            % (blocks, len(spills), horizon, damage)), stacklevel=2)
        return recording

    @staticmethod
    def _unpack_log(body: bytes):
        offset = 0
        (nstops,) = struct.unpack_from("<I", body, offset)
        offset += 4
        stops = []
        for _ in range(nstops):
            icount, pc, signo, code, digest = _STOP.unpack_from(body, offset)
            offset += _STOP.size
            stops.append(StopRecord(icount, pc, signo, code, digest))
        (ninputs,) = struct.unpack_from("<I", body, offset)
        offset += 4
        inputs = []
        for _ in range(ninputs):
            position, op, space, address, size = _INPUT_HEAD.unpack_from(
                body, offset)
            offset += _INPUT_HEAD.size
            data = body[offset:offset + size]
            if len(data) != size:
                raise TraceError("truncated input-log entry at icount %d"
                                 % position)
            # only what the debugger could have sent: a STORE of one
            # value, a BLOCKSTORE of one block
            if not (op == OP_STORE and size in VALUE_SIZES
                    or op == OP_BLOCKSTORE and 1 <= size <= MAX_BLOCK):
                raise TraceError("malformed input-log entry at icount %d "
                                 "(op %d, %d bytes)" % (position, op, size))
            offset += size
            inputs.append(InputRecord(position, op, chr(space), address,
                                      data))
        if offset != len(body):
            raise TraceError("%d trailing bytes in LOG block"
                             % (len(body) - offset))
        return stops, inputs

    def dump(self, path: str, fs=None) -> None:
        """Write the recording crash-consistently: after this returns
        (or fails, or the process dies) ``path`` is never torn."""
        atomic_write_bytes(path, self.to_bytes(), fs=fs)

    @classmethod
    def load(cls, path: str, salvage: bool = False) -> "Recording":
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise TraceError("cannot read recording %s: %s" % (path, exc))
        return cls.from_bytes(raw, salvage=salvage)
