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

The passes over a whole memory image work page by page (the 4 KB page
of the copy-on-write snapshots), because a target writes few of its
pages and the rest stay zero:

* :func:`nonzero_pages` compares each page against a zero page, one
  C-level comparison per page;
* :func:`sparse_segments` inspects chunks only inside those pages;
* :func:`crc32_zeros` continues a CRC32 over a run of zero bytes
  without reading them, so a digest reads only the non-zero pages.
"""

from __future__ import annotations

import struct
import threading
import zlib
from array import array
from typing import List, Tuple, Type

from .memory import PAGE

#: granularity of the sparse scan: a run of memory is kept when any of
#: its bytes is non-zero; adjacent kept runs merge into one segment
_CHUNK = 256
_ZERO_CHUNK = bytes(_CHUNK)
_ZERO_PAGE = bytes(PAGE)

#: zlib level shared by every container/block (part of the format: core
#: bytes must stay stable across refactors)
_ZLIB_LEVEL = 6

#: container framing after the 4-byte magic: version u16, flags u16,
#: compressed length u32, then CRC32 u32 of the compressed body
_CONTAINER_HEAD = struct.Struct("<HHI")
_CRC = struct.Struct("<I")

#: block framing: kind u8, compressed length u32, CRC32 u32
_BLOCK_HEAD = struct.Struct("<BII")


def nonzero_pages(image: bytes) -> List[int]:
    """The offsets of the pages of ``image`` (the last may be short)
    that hold a non-zero byte."""
    size = len(image)
    return [page for page in range(0, size, PAGE)
            if not image.startswith(_ZERO_PAGE[:size - page], page)]


def sparse_segments(image: bytes) -> List[Tuple[int, bytes]]:
    """The non-zero runs of ``image``, chunk-aligned and merged.

    A chunk (the last one may be short) is kept when any of its bytes is
    non-zero.  Chunks are inspected only inside the pages
    :func:`nonzero_pages` names; a page is a whole number of chunks.
    """
    size = len(image)
    segments: List[Tuple[int, bytes]] = []
    lo = hi = 0  # the run being kept, [lo, hi)
    for page in nonzero_pages(image):
        for chunk in range(page, min(page + PAGE, size), _CHUNK):
            end = min(chunk + _CHUNK, size)
            if image.startswith(_ZERO_CHUNK[:end - chunk], chunk):
                continue
            if chunk != hi:
                if lo < hi:
                    segments.append((lo, bytes(image[lo:hi])))
                lo = chunk
            hi = end
    if lo < hi:
        segments.append((lo, bytes(image[lo:hi])))
    return segments


#: the zero-page maps, one per power of two: ``_zero_maps[k]`` is the
#: linear map a CRC register goes through while it reads 2**k zero
#: pages, as four 256-entry byte tables (one per register byte) in one
#: array.  The same maps zlib's crc32_combine squares its way up to.
_zero_maps: List[array] = []
_zero_maps_lock = threading.Lock()


def _apply(table: array, register: int) -> int:
    return (table[register & 0xFF] ^ table[256 | register >> 8 & 0xFF]
            ^ table[512 | register >> 16 & 0xFF] ^ table[768 | register >> 24])


def _byte_tables(columns: List[int]) -> array:
    """The byte tables of the linear map whose image of bit ``i`` is
    ``columns[i]``."""
    table = array("I", [0]) * 1024
    for index in range(1024):
        low = index & 0xFF & -index
        if low:  # the entry for the byte without its lowest bit, plus it
            table[index] = (table[index ^ low]
                            ^ columns[8 * (index >> 8) + low.bit_length() - 1])
    return table


def _zero_map(power: int) -> array:
    """``_zero_maps[power]``, building it and the ones below on first
    use: the one-page map from zlib itself, each next one by squaring."""
    if power >= len(_zero_maps):
        with _zero_maps_lock:
            while power >= len(_zero_maps):
                if _zero_maps:
                    half = _zero_maps[-1]
                    columns = [_apply(half, _apply(half, 1 << bit))
                               for bit in range(32)]
                else:
                    # zlib inverts the register on entry and exit
                    columns = [zlib.crc32(_ZERO_PAGE, ~(1 << bit) & 0xFFFFFFFF)
                               ^ 0xFFFFFFFF for bit in range(32)]
                _zero_maps.append(_byte_tables(columns))
    return _zero_maps[power]


def crc32_zeros(crc: int, length: int) -> int:
    """``zlib.crc32(bytes(length), crc)``, in time logarithmic in
    ``length``: the whole pages go through the zero-page maps and only
    the rest is read."""
    pages, rest = divmod(length, PAGE)
    if rest:
        crc = zlib.crc32(_ZERO_PAGE[:rest], crc)
    register = ~crc & 0xFFFFFFFF
    power = 0
    while pages:
        if pages & 1:
            register = _apply(_zero_map(power), register)
        pages >>= 1
        power += 1
    return ~register & 0xFFFFFFFF


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
