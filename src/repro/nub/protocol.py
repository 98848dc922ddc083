"""The little-endian nub wire protocol (paper Sec. 4.2).

The protocol between ldb and the nub is little-endian regardless of host
and target byte order; the paper notes it "has been used on all
combinations of host and target byte orders and has been validated".

Message frame, in both directions and from a connection's first byte:
a type byte, a 4-byte little-endian payload length, a 4-byte sequence
id, the payload, and a CRC32 trailer over everything before it.  The
important property inherited from the paper: the protocol does **not**
mention single-stepping, and a breakpoint is a store — ldb picks the
site and the trap (Sec. 6), and PLANT, the paper's Sec. 7.1
enrichment, is a store the nub remembers.

Messages from the debugger::

    FETCH  space(1) addr(4) size(4)      -> DATA value bytes (little-endian)
    STORE  space(1) addr(4) bytes        -> OK / ERROR
    BLOCKFETCH space(1) addr(4) len(4)   -> DATA raw memory bytes / ERROR
    BLOCKSTORE space(1) addr(4) bytes    -> OK / ERROR
    CONTINUE                             -> OK (restore context, resume)
    DETACH                               -> OK (break connection, keep target)
    KILL                                 -> OK (terminate the target)
    HELLO  version(1)                    -> HELLO the nub's version(1)

Messages from the nub::

    SIGNAL signo(4) code(4) context(4)   (target stopped)
    EXITED status(4)
    DATA   bytes
    OK
    ERROR  code(4)

The nub answers FETCH/STORE only for the code ('c') and data ('d')
spaces; register values live in the context, which is in the data space.
Values travel in little-endian byte order — the nub does the target-
byte-order access (Sec. 4.1).

Block transfers (the MSR-TR-99-4 lesson: a compact block-oriented
protocol is what makes the nub fast) move a *span* of raw memory in one
round-trip.  Unlike FETCH, whose DATA reply is a little-endian **value**,
a BLOCKFETCH DATA reply is the **memory image**: bytes in ascending
address order, exactly as the target stores them.  Interpreting values
out of a block — byte-order reversal, the rmips saved-float word swap —
is the debugger's job, which is what lets the cached path reproduce the
per-value path byte for byte.  BLOCKSTORE writes raw memory-order bytes
verbatim.

Time travel: four messages give a debugger checkpoint/replay control
over the deterministic simulated targets.  Checkpoint images stay
nub-side — only small ids and instruction counts cross the wire::

    CHECKPOINT                           -> CKPT id(4) icount(8)
    RESTORE  id(4)                       -> CKPT id(4) icount(8) / ERROR
    DROPCKPT id(4)                       -> OK / ERROR
    ICOUNT                               -> CKPT NO_CKPT icount(8)
    RUNTO    icount(8)                   -> OK (resume; stop when the
                                          retired-instruction count
                                          reaches the target: SIGNAL
                                          with code=CODE_ICOUNT)

``RUNTO`` is a control message like CONTINUE: acknowledged with OK,
deduplicated by sequence id, and followed by the usual unsolicited
SIGNAL/EXITED when the target stops.

Post-mortem: one request message asks the nub to serialize the stopped
target — registers, memory, icount, and the fault record — into a
versioned core image (see ``repro.machines.core``)::

    DUMPCORE                             -> DATA core bytes / ERROR

Every message is base protocol: every nub answers it, and nothing is
negotiated.  The framing is what makes the wire fault-tolerant:

* the CRC32 trailer: a frame that fails it raises :class:`CrcError`
  (the frame is consumed, the stream stays framed);
* the sequence id: replies echo the request's id, so a retrying
  debugger can discard stale replies (duplicated or late frames);
  unsolicited frames (SIGNAL, EXITED) carry :data:`NO_SEQ`;
* CONTINUE, DETACH, KILL and RUNTO are acknowledged with OK before
  taking effect, which makes the controls retryable.

HELLO checks the version: the debugger sends its own and the nub
answers with its own.

Every payload reader validates its length and raises
:class:`ProtocolError` naming the message — wire input can never surface
a raw ``struct.error``.  ``decode`` rejects frames whose declared length
exceeds :data:`MAX_PAYLOAD` with :class:`FrameError` (the connection
cannot be resynchronized past a hostile length field).
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional, Tuple

MSG_FETCH = 1
MSG_STORE = 2
MSG_CONTINUE = 3
MSG_DETACH = 4
MSG_KILL = 5
# -- the Sec. 7.1 breakpoint-aware stores, so a new debugger can learn
# -- what a crashed one planted
MSG_PLANT = 6
MSG_UNPLANT = 7
MSG_BREAKS = 8
# -- the version check a debugger makes on every new connection
MSG_HELLO = 9
# -- block transfers: a span of raw memory bytes per message
MSG_BLOCKFETCH = 10
MSG_BLOCKSTORE = 11
# -- time travel: checkpoint ids are allocated and held nub-side, so
# -- memory images never cross the wire
MSG_CHECKPOINT = 12
MSG_RESTORE = 13
MSG_ICOUNT = 14
MSG_RUNTO = 15
MSG_SIGNAL = 16
MSG_EXITED = 17
MSG_DATA = 18
MSG_OK = 19
MSG_ERROR = 20
MSG_BREAKLIST = 21
MSG_CKPT = 22
MSG_DROPCKPT = 23
# -- post-mortem: ask the nub to serialize the stopped target into a
# -- core image; the DATA reply carries the core bytes
MSG_DUMPCORE = 24
# -- recording: ask the nub to serialize the complete resumable
# -- machine state (registers, delay slots, memory,
# -- planted table) of the stopped target; the DATA reply carries a
# -- MachineState container (repro.machines.machstate)
MSG_SPILL = 25

_NAMES = {
    MSG_FETCH: "FETCH", MSG_STORE: "STORE", MSG_CONTINUE: "CONTINUE",
    MSG_DETACH: "DETACH", MSG_KILL: "KILL", MSG_SIGNAL: "SIGNAL",
    MSG_EXITED: "EXITED", MSG_DATA: "DATA", MSG_OK: "OK", MSG_ERROR: "ERROR",
    MSG_PLANT: "PLANT", MSG_UNPLANT: "UNPLANT", MSG_BREAKS: "BREAKS",
    MSG_BREAKLIST: "BREAKLIST", MSG_HELLO: "HELLO",
    MSG_BLOCKFETCH: "BLOCKFETCH", MSG_BLOCKSTORE: "BLOCKSTORE",
    MSG_CHECKPOINT: "CHECKPOINT", MSG_RESTORE: "RESTORE",
    MSG_ICOUNT: "ICOUNT", MSG_RUNTO: "RUNTO", MSG_CKPT: "CKPT",
    MSG_DROPCKPT: "DROPCKPT", MSG_DUMPCORE: "DUMPCORE",
    MSG_SPILL: "SPILL",
}


def type_name(mtype: int) -> str:
    """The opcode's name, for error messages and traces."""
    return _NAMES.get(mtype, "opcode %d" % mtype)

ERR_BAD_SPACE = 1
ERR_BAD_ADDRESS = 2
ERR_BAD_MESSAGE = 3
ERR_UNSUPPORTED = 4
ERR_BAD_CHECKPOINT = 5

#: value sizes the protocol carries (the abstract-memory sizes)
VALUE_SIZES = (1, 2, 4, 8, 10)

#: the version HELLO carries (3: one framing, every frame sequenced
#: and CRC-checked, every control acknowledged)
PROTOCOL_VERSION = 3

#: the frame header, type(1) length(4) seq(4), and the CRC32 trailer
HEADER_SIZE = 9
TRAILER_SIZE = 4
_HEADER = struct.Struct("<BII")
_TRAILER = struct.Struct("<I")

#: the largest span one BLOCKFETCH/BLOCKSTORE may move (well under
#: MAX_PAYLOAD, so block frames can never trip the framing cap)
MAX_BLOCK = 1024

#: sanity cap on a frame's declared payload length; anything larger is a
#: corrupt or hostile length field, and the stream cannot be reframed
MAX_PAYLOAD = 1 << 20

#: the sequence id carried by unsolicited frames (SIGNAL, EXITED) and
#: by any frame sent without one
NO_SEQ = 0xFFFFFFFF

#: the checkpoint id carried by a CKPT reply that answers ICOUNT (no
#: checkpoint was involved, only the retired-instruction count)
NO_CKPT = 0xFFFFFFFF


class ProtocolError(Exception):
    """Malformed wire input (bad payload length, bad field value)."""


class FrameError(ProtocolError):
    """Framing is destroyed (hostile length field); the connection
    cannot be resynchronized and must be dropped."""


class CrcError(ProtocolError):
    """A frame failed its CRC32 check.  The frame was consumed — the
    stream is still framed and ``rest`` holds the bytes after it."""

    def __init__(self, message: str, rest: bytes = b""):
        super().__init__(message)
        self.rest = rest


class Message:
    __slots__ = ("mtype", "payload", "seq")

    def __init__(self, mtype: int, payload: bytes = b"",
                 seq: Optional[int] = None):
        self.mtype = mtype
        self.payload = payload
        #: sequence id; None until the sender stamps one (sent as NO_SEQ)
        self.seq = seq

    def __eq__(self, other) -> bool:
        return (isinstance(other, Message) and other.mtype == self.mtype
                and other.payload == self.payload)

    def __repr__(self) -> str:
        return "<msg %s %r>" % (_NAMES.get(self.mtype, self.mtype), self.payload)


def encode(msg: Message) -> bytes:
    seq = NO_SEQ if msg.seq is None else msg.seq
    frame = _HEADER.pack(msg.mtype, len(msg.payload), seq) + msg.payload
    return frame + _TRAILER.pack(zlib.crc32(frame))


def decode(data: bytes) -> Tuple[Optional[Message], bytes]:
    """Decode one message from ``data``; returns (message, rest).

    Returns (None, data) when the buffer holds an incomplete frame.
    Raises :class:`FrameError` on an insane declared length and
    :class:`CrcError` (carrying the remaining bytes) on a bad trailer.
    """
    if len(data) < HEADER_SIZE:
        return None, data
    mtype, length, seq = _HEADER.unpack_from(data)
    if length > MAX_PAYLOAD:
        raise FrameError("declared payload length %d exceeds the %d-byte cap"
                         % (length, MAX_PAYLOAD))
    end = HEADER_SIZE + length
    total = end + TRAILER_SIZE
    if len(data) < total:
        return None, data
    if _TRAILER.unpack_from(data, end)[0] != zlib.crc32(data[:end]):
        raise CrcError("CRC mismatch on %s frame" % type_name(mtype),
                       rest=data[total:])
    return Message(mtype, data[HEADER_SIZE:end], seq), data[total:]


def frame_size(msg: Message) -> int:
    """The encoded size of a frame in bytes, without encoding it."""
    return HEADER_SIZE + len(msg.payload) + TRAILER_SIZE


def _payload(msg: Message, size: int, name: str, exact: bool = True) -> bytes:
    """The message's payload, validated to ``size`` bytes (or at least
    ``size`` when not exact); short payloads raise ProtocolError."""
    have = len(msg.payload)
    if (have != size) if exact else (have < size):
        raise ProtocolError(
            "truncated %s payload: %d bytes, need %s%d"
            % (name, have, "" if exact else ">= ", size))
    return msg.payload


# -- constructors -----------------------------------------------------------

def fetch(space: str, address: int, size: int) -> Message:
    if size not in VALUE_SIZES:
        raise ProtocolError("bad fetch size %d" % size)
    return Message(MSG_FETCH, struct.pack("<BII", ord(space), address, size))


def store(space: str, address: int, data: bytes) -> Message:
    if len(data) not in VALUE_SIZES:
        raise ProtocolError("bad store size %d" % len(data))
    return Message(MSG_STORE, struct.pack("<BI", ord(space), address) + data)


def blockfetch(space: str, address: int, length: int) -> Message:
    """Ask for ``length`` raw bytes of target memory at ``address``.

    The DATA reply carries the memory image in ascending address order
    (no byte-order normalization — that is the debugger's job)."""
    if not 1 <= length <= MAX_BLOCK:
        raise ProtocolError("bad blockfetch length %d" % length)
    return Message(MSG_BLOCKFETCH,
                   struct.pack("<BII", ord(space), address, length))


def blockstore(space: str, address: int, data_bytes: bytes) -> Message:
    """Write raw memory-order bytes verbatim at ``address``."""
    if not 1 <= len(data_bytes) <= MAX_BLOCK:
        raise ProtocolError("bad blockstore length %d" % len(data_bytes))
    return Message(MSG_BLOCKSTORE,
                   struct.pack("<BI", ord(space), address) + data_bytes)


def cont() -> Message:
    return Message(MSG_CONTINUE)


def detach() -> Message:
    return Message(MSG_DETACH)


def kill() -> Message:
    return Message(MSG_KILL)


def hello(version: int = PROTOCOL_VERSION) -> Message:
    """Ask for (or answer with) the peer's protocol version."""
    return Message(MSG_HELLO, struct.pack("<B", version))


# -- time travel -------------------------------------------------------------

def checkpoint() -> Message:
    """Ask the nub to snapshot the stopped target; answered with CKPT."""
    return Message(MSG_CHECKPOINT)


def restore(checkpoint_id: int) -> Message:
    """Rewind the stopped target to a previously taken checkpoint."""
    return Message(MSG_RESTORE, struct.pack("<I", checkpoint_id))


def drop_checkpoint(checkpoint_id: int) -> Message:
    """Release a checkpoint the debugger no longer needs."""
    return Message(MSG_DROPCKPT, struct.pack("<I", checkpoint_id))


def icount() -> Message:
    """Ask for the target's retired-instruction count."""
    return Message(MSG_ICOUNT)


def runto(target_icount: int) -> Message:
    """Resume, stopping when the retired-instruction count reaches
    ``target_icount`` (or earlier, on any trap/fault/exit)."""
    if target_icount < 0:
        raise ProtocolError("bad RUNTO icount %d" % target_icount)
    return Message(MSG_RUNTO, struct.pack("<Q", target_icount))


def ckpt(checkpoint_id: int, current_icount: int) -> Message:
    """The nub's answer to CHECKPOINT/RESTORE/ICOUNT."""
    return Message(MSG_CKPT, struct.pack("<IQ", checkpoint_id, current_icount))


def dumpcore() -> Message:
    """Ask the nub to serialize the stopped target into a core image;
    the DATA reply carries the serialized bytes."""
    return Message(MSG_DUMPCORE)


def spill() -> Message:
    """Ask the nub for the complete resumable machine state of the
    stopped target; the DATA reply carries a serialized MachineState
    container."""
    return Message(MSG_SPILL)


def signal(signo: int, code: int, context_addr: int) -> Message:
    return Message(MSG_SIGNAL, struct.pack("<III", signo, code, context_addr))


def exited(status: int) -> Message:
    return Message(MSG_EXITED, struct.pack("<i", status))


def data(value_bytes: bytes) -> Message:
    return Message(MSG_DATA, value_bytes)


def ok() -> Message:
    return Message(MSG_OK)


def error(code: int) -> Message:
    return Message(MSG_ERROR, struct.pack("<I", code))


# -- payload readers ---------------------------------------------------------

def parse_fetch(msg: Message) -> Tuple[str, int, int]:
    space, address, size = struct.unpack("<BII", _payload(msg, 9, "FETCH"))
    if size not in VALUE_SIZES:
        raise ProtocolError("bad FETCH size %d" % size)
    return chr(space), address, size


def parse_store(msg: Message) -> Tuple[str, int, bytes]:
    raw = _payload(msg, 6, "STORE", exact=False)
    space, address = struct.unpack("<BI", raw[:5])
    if len(raw) - 5 not in VALUE_SIZES:
        raise ProtocolError("bad STORE data size %d" % (len(raw) - 5))
    return chr(space), address, raw[5:]


def parse_blockfetch(msg: Message) -> Tuple[str, int, int]:
    space, address, length = struct.unpack(
        "<BII", _payload(msg, 9, "BLOCKFETCH"))
    if not 1 <= length <= MAX_BLOCK:
        raise ProtocolError("bad BLOCKFETCH length %d" % length)
    return chr(space), address, length


def parse_blockstore(msg: Message) -> Tuple[str, int, bytes]:
    raw = _payload(msg, 6, "BLOCKSTORE", exact=False)
    space, address = struct.unpack("<BI", raw[:5])
    if len(raw) - 5 > MAX_BLOCK:
        raise ProtocolError("bad BLOCKSTORE length %d" % (len(raw) - 5))
    return chr(space), address, raw[5:]


def parse_signal(msg: Message) -> Tuple[int, int, int]:
    return struct.unpack("<III", _payload(msg, 12, "SIGNAL"))


def parse_exited(msg: Message) -> int:
    return struct.unpack("<i", _payload(msg, 4, "EXITED"))[0]


def parse_error(msg: Message) -> int:
    return struct.unpack("<I", _payload(msg, 4, "ERROR"))[0]


def parse_hello(msg: Message) -> int:
    return _payload(msg, 1, "HELLO")[0]


def parse_restore(msg: Message) -> int:
    return struct.unpack("<I", _payload(msg, 4, "RESTORE"))[0]


def parse_drop_checkpoint(msg: Message) -> int:
    return struct.unpack("<I", _payload(msg, 4, "DROPCKPT"))[0]


def parse_runto(msg: Message) -> int:
    return struct.unpack("<Q", _payload(msg, 8, "RUNTO"))[0]


def parse_ckpt(msg: Message) -> Tuple[int, int]:
    """(checkpoint id, retired-instruction count)."""
    return struct.unpack("<IQ", _payload(msg, 12, "CKPT"))


# -- breakpoint-aware stores (paper Sec. 7.1) ---------------------------------

def plant(address: int, trap_bytes: bytes) -> Message:
    """A store used only for planting breakpoints: the nub records the
    overwritten instruction so a later debugger can recover it."""
    if len(trap_bytes) not in VALUE_SIZES:
        raise ProtocolError("bad trap size %d" % len(trap_bytes))
    return Message(MSG_PLANT, struct.pack("<I", address) + trap_bytes)


def unplant(address: int) -> Message:
    return Message(MSG_UNPLANT, struct.pack("<I", address))


def breaks() -> Message:
    """Ask the nub for the breakpoints currently planted."""
    return Message(MSG_BREAKS)


def breaklist(entries) -> Message:
    """entries: iterable of (address, original little-endian bytes)."""
    payload = bytearray()
    for address, original in entries:
        payload += struct.pack("<IB", address, len(original)) + original
    return Message(MSG_BREAKLIST, bytes(payload))


def parse_plant(msg: Message):
    raw = _payload(msg, 5, "PLANT", exact=False)
    address = struct.unpack("<I", raw[:4])[0]
    if len(raw) - 4 not in VALUE_SIZES:
        raise ProtocolError("bad PLANT trap size %d" % (len(raw) - 4))
    return address, raw[4:]


def parse_unplant(msg: Message) -> int:
    return struct.unpack("<I", _payload(msg, 4, "UNPLANT"))[0]


def parse_breaklist(msg: Message):
    entries = []
    data_bytes = msg.payload
    offset = 0
    while offset < len(data_bytes):
        if offset + 5 > len(data_bytes):
            raise ProtocolError("truncated BREAKLIST entry header at "
                                "offset %d" % offset)
        address, size = struct.unpack_from("<IB", data_bytes, offset)
        offset += 5
        if offset + size > len(data_bytes):
            raise ProtocolError("truncated BREAKLIST entry for 0x%x: "
                                "%d of %d instruction bytes"
                                % (address, len(data_bytes) - offset, size))
        entries.append((address, data_bytes[offset: offset + size]))
        offset += size
    return entries
