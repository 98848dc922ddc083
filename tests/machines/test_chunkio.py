"""The shared chunked-container codec (repro.machines.chunkio).

The CoreFile container code moved here verbatim; these tests pin the
byte layout (expected bytes are rebuilt with the runtime's zlib, so
they stay valid across zlib versions) and the sparse-segment scan, and
prove CoreFile round-trips are unchanged by the extraction.  The
page-level scan and the zero-run CRC are held to the regular-expression
scan they replaced and to ``zlib.crc32`` over dense bytes.
"""

import pathlib
import re
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines.chunkio import (
    crc32_zeros,
    nonzero_pages,
    pack_block,
    pack_container,
    sparse_segments,
    unpack_block,
    unpack_container,
)
from repro.machines.memory import PAGE
from repro.trace import Recording

GOLDEN = (pathlib.Path(__file__).resolve().parent.parent / "data"
          / "golden_boom_rmips.ldbrec")
CHUNK = 256


def reference_segments(image):
    """The format's rule chunk by chunk: a chunk (the last may be short)
    is kept when any byte is non-zero, and kept neighbours merge."""
    spans = []
    for start in range(0, len(image), CHUNK):
        stop = min(start + CHUNK, len(image))
        if any(image[start:stop]):
            if spans and spans[-1][1] == start:
                spans[-1][1] = stop
            else:
                spans.append([start, stop])
    return [(lo, image[lo:hi]) for lo, hi in spans]


#: the scan sparse_segments made before it went page by page: a zero
#: run long enough to hold a whole chunk, or one that ends the image
_ZERO_RUN = re.compile(rb"\0{%d,}|\0+\Z" % CHUNK)


def regex_segments(image):
    """The regular-expression scan: each zero run snapped inwards to
    chunk boundaries, and what lies between the runs kept."""
    size = len(image)
    segments = []
    kept = 0
    for zeros in _ZERO_RUN.finditer(image):
        lo = -(-zeros.start() // CHUNK) * CHUNK
        hi = zeros.end()
        if hi < size:
            hi -= hi % CHUNK
        if lo < hi:
            if kept < lo:
                segments.append((kept, bytes(image[kept:lo])))
            kept = hi
    if kept < size:
        segments.append((kept, bytes(image[kept:])))
    return segments


@st.composite
def paged_images(draw):
    """Images of a few pages whose size need not be a multiple of the
    page or the chunk, all zero, all non-zero, or zero but for bytes
    drawn mostly at page and chunk edges and in the short last chunk."""
    length = draw(st.one_of(
        st.integers(0, 5).map(lambda pages: pages * PAGE),
        st.integers(0, 5 * PAGE + 300),
        st.sampled_from([1, CHUNK - 1, CHUNK + 1, PAGE - 1, PAGE + 1,
                         2 * PAGE + CHUNK, 3 * PAGE - 7])))
    fill = draw(st.sampled_from(["sparse", "sparse", "zero", "full"]))
    if fill == "full":
        first = draw(st.integers(0, 254))
        return bytes((first + i) % 255 + 1 for i in range(length))
    image = bytearray(length)
    if fill == "zero" or not length:
        return bytes(image)
    edges = st.one_of(
        st.integers(0, length // PAGE).map(lambda k: k * PAGE),
        st.integers(1, length // PAGE + 1).map(lambda k: k * PAGE - 1),
        st.integers(0, length // CHUNK).map(lambda k: k * CHUNK),
        st.integers(1, length // CHUNK + 1).map(lambda k: k * CHUNK - 1),
        st.integers(length - (length % CHUNK or CHUNK), length - 1),
        st.integers(0, length - 1))
    for spot in draw(st.lists(edges, max_size=10)):
        if 0 <= spot < length:
            image[spot] = draw(st.integers(1, 255))
    return bytes(image)


@st.composite
def edgy_images(draw):
    """Images of n chunks and a short last one, with non-zero bytes
    drawn mostly at chunk edges and in the short chunk."""
    length = draw(st.integers(0, 12)) * CHUNK + draw(st.integers(1, 255))
    last = length - length % CHUNK
    spots = st.one_of(
        st.integers(0, length // CHUNK).map(lambda k: k * CHUNK),
        st.integers(1, length // CHUNK + 1).map(lambda k: k * CHUNK - 1),
        st.integers(last, length - 1),
        st.integers(0, length - 1))
    image = bytearray(length)
    for spot in draw(st.lists(spots, max_size=8)):
        if spot < length:
            image[spot] = draw(st.integers(1, 255))
    return bytes(image)


class CodecError(Exception):
    pass


class TestContainerLayout:
    def test_container_bytes_are_exactly_the_core_layout(self):
        body = b"hello container" * 10
        raw = pack_container(b"LDBC", 3, body)
        packed = zlib.compress(body, 6)
        expected = (b"LDBC" + struct.pack("<HHI", 3, 0, len(packed))
                    + struct.pack("<I", zlib.crc32(packed) & 0xFFFFFFFF)
                    + packed)
        assert raw == expected

    def test_round_trip(self):
        body = bytes(range(256)) * 7
        raw = pack_container(b"XYZW", 1, body)
        assert unpack_container(raw, b"XYZW", 1, CodecError, "thing") == body

    def test_older_version_still_loads(self):
        raw = pack_container(b"XYZW", 1, b"old")
        assert unpack_container(raw, b"XYZW", 5, CodecError, "thing") == b"old"

    def test_bad_magic(self):
        raw = pack_container(b"XYZW", 1, b"data")
        with pytest.raises(CodecError, match="bad magic"):
            unpack_container(b"ABCD" + raw[4:], b"XYZW", 1, CodecError, "t")

    def test_future_version_refused(self):
        raw = pack_container(b"XYZW", 9, b"data")
        with pytest.raises(CodecError, match="newer"):
            unpack_container(raw, b"XYZW", 1, CodecError, "t")

    def test_truncated_body(self):
        raw = pack_container(b"XYZW", 1, b"data" * 100)
        with pytest.raises(CodecError, match="truncated"):
            unpack_container(raw[:-3], b"XYZW", 1, CodecError, "t")

    def test_flipped_bit_fails_crc(self):
        raw = bytearray(pack_container(b"XYZW", 1, b"data" * 100))
        raw[-1] ^= 0x40
        with pytest.raises(CodecError, match="CRC"):
            unpack_container(bytes(raw), b"XYZW", 1, CodecError, "t")

    def test_crc_ok_but_undecompressable(self):
        # valid CRC over a body that is not a zlib stream
        packed = b"this is not zlib"
        raw = (b"XYZW" + struct.pack("<HHI", 1, 0, len(packed))
               + struct.pack("<I", zlib.crc32(packed) & 0xFFFFFFFF) + packed)
        with pytest.raises(CodecError, match="decompress"):
            unpack_container(raw, b"XYZW", 1, CodecError, "t")

    def test_too_short_for_header(self):
        with pytest.raises(CodecError, match="bad magic"):
            unpack_container(b"XY", b"XYZW", 1, CodecError, "t")


class TestBlocks:
    def test_round_trip_and_chaining(self):
        raw = pack_block(1, b"first") + pack_block(2, b"second" * 50)
        kind, body, offset = unpack_block(raw, 0, CodecError, "t")
        assert (kind, body) == (1, b"first")
        kind, body, offset = unpack_block(raw, offset, CodecError, "t")
        assert (kind, body) == (2, b"second" * 50)
        assert offset == len(raw)

    def test_truncated_header(self):
        raw = pack_block(1, b"data")
        with pytest.raises(CodecError, match="truncated"):
            unpack_block(raw[:4], 0, CodecError, "t")

    def test_truncated_block_body(self):
        raw = pack_block(1, b"data" * 100)
        with pytest.raises(CodecError, match="truncated"):
            unpack_block(raw[:-5], 0, CodecError, "t")

    def test_corrupt_block_crc(self):
        raw = bytearray(pack_block(1, b"data" * 100))
        raw[-1] ^= 0x01
        with pytest.raises(CodecError, match="CRC"):
            unpack_block(bytes(raw), 0, CodecError, "t")

    @given(st.integers(0, 255), st.binary(max_size=512))
    def test_any_kind_any_body_round_trips(self, kind, body):
        raw = pack_block(kind, body)
        got_kind, got_body, offset = unpack_block(raw, 0, CodecError, "t")
        assert (got_kind, got_body, offset) == (kind, body, len(raw))


class TestSparseSegments:
    def test_all_zero_image_has_no_segments(self):
        assert sparse_segments(bytes(4096)) == []

    def test_single_byte_lands_in_one_chunk(self):
        image = bytearray(1024)
        image[300] = 7
        segments = sparse_segments(bytes(image))
        assert len(segments) == 1
        base, data = segments[0]
        assert base <= 300 < base + len(data)
        assert data[300 - base] == 7

    def test_adjacent_chunks_coalesce(self):
        image = bytearray(4096)
        image[0:600] = b"\x01" * 600  # spans chunks 0,1,2
        segments = sparse_segments(bytes(image))
        assert len(segments) == 1

    def test_separated_runs_stay_separate(self):
        image = bytearray(8192)
        image[10] = 1
        image[5000] = 2
        segments = sparse_segments(bytes(image))
        assert len(segments) == 2

    @given(edgy_images())
    def test_segments_follow_the_chunk_rule(self, image):
        assert sparse_segments(image) == reference_segments(image)

    def test_golden_spills_rescan_to_their_segments(self):
        spills = Recording.load(str(GOLDEN)).spills
        assert spills
        for spill in spills:
            state = spill.state
            assert sparse_segments(bytes(state.image())) == state.segments

    @given(st.binary(max_size=2048))
    def test_segments_reconstruct_the_image(self, image):
        rebuilt = bytearray(len(image))
        for base, data in sparse_segments(image):
            rebuilt[base:base + len(data)] = data
        assert bytes(rebuilt) == image

    @settings(max_examples=300, deadline=None)
    @given(paged_images())
    def test_page_scan_equals_the_regex_scan(self, image):
        assert sparse_segments(image) == regex_segments(image)
        # memory hands its bytearray over without a copy
        assert sparse_segments(bytearray(image)) == regex_segments(image)

    @given(paged_images())
    def test_nonzero_pages_are_the_pages_holding_a_nonzero_byte(self, image):
        assert nonzero_pages(image) == [
            page for page in range(0, len(image), PAGE)
            if any(image[page:page + PAGE])]

    def test_golden_spills_scan_as_the_regex_did(self):
        for spill in Recording.load(str(GOLDEN)).spills:
            image = bytes(spill.state.image())
            assert sparse_segments(image) == regex_segments(image)


class TestZeroRunCrc:
    """crc32_zeros(crc, n) is zlib.crc32 over n zero bytes from crc."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.integers(0, 3 * PAGE),
                     st.integers(0, 64).map(lambda pages: pages * PAGE),
                     st.integers((1 << 20) - PAGE, (1 << 20) + 3 * PAGE)),
           st.integers(0, 0xFFFFFFFF))
    def test_equals_zlib_over_dense_zeros(self, length, crc):
        assert crc32_zeros(crc, length) == zlib.crc32(bytes(length), crc)

    def test_lengths_around_every_power_of_two_pages(self):
        for power in range(0, 10):
            for length in ((PAGE << power) - 1, PAGE << power,
                           (PAGE << power) + 1):
                for crc in (0, 1, 0xDEADBEEF, 0xFFFFFFFF):
                    assert crc32_zeros(crc, length) == \
                        zlib.crc32(bytes(length), crc), (length, crc)

    def test_zero_length_is_the_identity(self):
        assert crc32_zeros(0x12345678, 0) == 0x12345678


class TestCoreFileUnchanged:
    """The extraction must not have changed CoreFile's wire format."""

    def test_core_round_trip_after_extraction(self):
        from repro.machines.core import MAGIC, CoreFile

        core = CoreFile(
            arch_name="rmips", byteorder="big", memsize=1 << 16,
            context_addr=0x100, icount=1234, signo=11, code=0,
            fault_pc=0x2040,
            segments=[(0x2000, b"\x01\x02\x03"), (0x8000, b"stack")],
            planted=[(0x2010, b"\x0d\x00\x00\x00")],
            loader_ps="/LoaderTable 1 dict def")
        raw = core.to_bytes()
        assert raw[:4] == MAGIC
        back = CoreFile.from_bytes(raw)
        assert back.arch_name == core.arch_name
        assert back.icount == core.icount
        assert back.segments == core.segments
        assert back.planted == core.planted
        assert back.loader_ps == core.loader_ps
        assert back.to_bytes() == raw
