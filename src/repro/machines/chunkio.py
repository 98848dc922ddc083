"""Shared container plumbing for on-disk machine-state formats.

Both the core-file format (:mod:`repro.machines.core`) and the recording
format (:mod:`repro.trace.format`) store a compact binary body wrapped in
the same armor: a magic tag, a little-endian version header, zlib
compression, and a CRC32 over the compressed payload so truncation and
bit rot are caught before a struct error can escape.  This module is
that armor, factored out once so the two formats cannot drift.

Two framings live here:

* **containers** (:func:`pack_container`/:func:`unpack_container`): one
  magic-tagged, versioned, compressed, checksummed body — the whole of a
  core file, and each spilled machine state;
* **blocks** (:func:`pack_block`/:func:`unpack_block`): a tagged record
  inside a larger stream — the recording file is a magic header followed
  by a sequence of blocks, each independently compressed and
  checksummed so one flipped bit names the damaged block.

Every error raises the *caller's* exception class with the caller's
noun (``core``, ``trace``...), so ``CoreError`` messages are unchanged
from when this code lived in ``core.py`` — and core bytes are
byte-identical: same zlib level, same header layout, same CRC.
"""

from __future__ import annotations

import re
import struct
import zlib
from typing import List, Tuple, Type

#: granularity of the sparse scan: a run of memory is kept when any of
#: its bytes is non-zero; adjacent kept runs merge into one segment
_CHUNK = 256
#: a zero run long enough to hold a whole chunk, or one that ends the
#: image (it may cover the short last chunk)
_ZERO_RUN = re.compile(rb"\0{%d,}|\0+\Z" % _CHUNK)

#: zlib level shared by every container/block (part of the format: core
#: bytes must stay stable across refactors)
_ZLIB_LEVEL = 6

#: container framing after the 4-byte magic: version u16, flags u16,
#: compressed length u32, then CRC32 u32 of the compressed body
_CONTAINER_HEAD = struct.Struct("<HHI")
_CRC = struct.Struct("<I")

#: block framing: kind u8, compressed length u32, CRC32 u32
_BLOCK_HEAD = struct.Struct("<BII")


def sparse_segments(image: bytes) -> List[Tuple[int, bytes]]:
    """The non-zero runs of ``image``, chunk-aligned and merged.

    A chunk (the last one may be short) is kept when any of its bytes is
    non-zero.  One C-level search finds the zero runs that can hold a
    whole chunk; each is snapped inwards to chunk boundaries, and what
    lies between them is kept.
    """
    size = len(image)
    segments: List[Tuple[int, bytes]] = []
    kept = 0  # start of the run being kept
    for zeros in _ZERO_RUN.finditer(image):
        lo = -(-zeros.start() // _CHUNK) * _CHUNK
        hi = zeros.end()
        if hi < size:
            hi -= hi % _CHUNK
        if lo < hi:
            if kept < lo:
                segments.append((kept, bytes(image[kept:lo])))
            kept = hi
    if kept < size:
        segments.append((kept, bytes(image[kept:])))
    return segments


def pack_container(magic: bytes, version: int, body: bytes) -> bytes:
    """Wrap ``body`` in the magic/version/CRC/zlib container."""
    packed = zlib.compress(bytes(body), _ZLIB_LEVEL)
    header = magic + _CONTAINER_HEAD.pack(version, 0, len(packed))
    return header + _CRC.pack(zlib.crc32(packed) & 0xFFFFFFFF) + packed


def unpack_container(raw: bytes, magic: bytes, max_version: int,
                     error: Type[Exception], what: str) -> bytes:
    """Check and unwrap a container, answering the decompressed body.

    Raises ``error`` (with ``what`` naming the format in the message)
    for bad magic, future versions, truncation, CRC mismatch, and
    undecompressable bodies — never a bare struct/zlib error.
    """
    if raw[:len(magic)] != magic:
        raise error("not a %s file (bad magic)" % what)
    if len(raw) < len(magic) + 12:
        # right magic, no room for the header: a file cut mid-write,
        # not an alien one — say so (triage rows depend on the nuance)
        raise error("truncated %s: header cut short (%d bytes)"
                    % (what, len(raw)))
    base = len(magic)
    version, _flags, length = _CONTAINER_HEAD.unpack_from(raw, base)
    if version > max_version:
        raise error("%s format version %d is newer than this "
                    "debugger understands (max %d)"
                    % (what, version, max_version))
    (declared_crc,) = _CRC.unpack_from(raw, base + 8)
    packed = raw[base + 12:base + 12 + length]
    if len(packed) != length:
        raise error("truncated %s: %d of %d body bytes"
                    % (what, len(packed), length))
    if zlib.crc32(packed) & 0xFFFFFFFF != declared_crc:
        raise error("%s body fails its CRC check (corrupt file)" % what)
    try:
        return zlib.decompress(packed)
    except zlib.error as exc:
        raise error("%s body does not decompress: %s" % (what, exc))


def salvage_container(raw: bytes, magic: bytes, max_version: int,
                      error: Type[Exception], what: str) -> bytes:
    """Best-effort unwrap of a *damaged* container: the longest body
    prefix the surviving bytes still decompress to.

    Magic and version are still enforced (an alien or future-format
    file is not salvageable, it is simply not ours); the CRC and the
    declared length are not — truncation and tail rot are exactly what
    salvage exists for.  Raises ``error`` when nothing decompresses at
    all; the caller decides whether the recovered prefix parses into
    enough of an artifact to serve."""
    if raw[:len(magic)] != magic:
        raise error("not a %s file (bad magic)" % what)
    if len(raw) < len(magic) + 4:
        raise error("truncated %s: header cut short (%d bytes)"
                    % (what, len(raw)))
    base = len(magic)
    version, _flags = struct.unpack_from("<HH", raw, base)
    if version > max_version:
        raise error("%s format version %d is newer than this "
                    "debugger understands (max %d)"
                    % (what, version, max_version))
    packed = raw[base + 12:]
    # feed the stream in small pieces so everything decoded *before*
    # the damage survives the zlib error the damage raises
    decompressor = zlib.decompressobj()
    body = bytearray()
    try:
        for start in range(0, len(packed), 512):
            body += decompressor.decompress(packed[start:start + 512])
        body += decompressor.flush()
    except zlib.error:
        pass  # truncation/rot: keep the prefix already decoded
    if not body:
        raise error("%s body yields nothing salvageable" % what)
    return bytes(body)


def pack_block(kind: int, body: bytes) -> bytes:
    """Frame one tagged record of a block stream."""
    packed = zlib.compress(bytes(body), _ZLIB_LEVEL)
    return _BLOCK_HEAD.pack(kind, len(packed),
                            zlib.crc32(packed) & 0xFFFFFFFF) + packed


def unpack_block(raw: bytes, offset: int, error: Type[Exception],
                 what: str) -> Tuple[int, bytes, int]:
    """Read the block at ``offset``; answer (kind, body, next offset).

    Raises ``error`` for truncated headers/bodies, CRC mismatches, and
    undecompressable payloads.
    """
    if offset + _BLOCK_HEAD.size > len(raw):
        raise error("truncated %s: block header cut short at offset %d"
                    % (what, offset))
    kind, length, declared_crc = _BLOCK_HEAD.unpack_from(raw, offset)
    start = offset + _BLOCK_HEAD.size
    packed = raw[start:start + length]
    if len(packed) != length:
        raise error("truncated %s: %d of %d block bytes at offset %d"
                    % (what, len(packed), length, offset))
    if zlib.crc32(packed) & 0xFFFFFFFF != declared_crc:
        raise error("%s block at offset %d fails its CRC check "
                    "(corrupt file)" % (what, offset))
    try:
        body = zlib.decompress(packed)
    except zlib.error as exc:
        raise error("%s block at offset %d does not decompress: %s"
                    % (what, offset, exc))
    return kind, body, start + length
