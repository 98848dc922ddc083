"""The on-disk recording format: round-trips and the corruption matrix.

Every way a file can be damaged — bad magic, future version, cut-short
block, flipped bit, undecompressable body, missing END, trailing
garbage, malformed record bodies — must raise :class:`TraceError` with
a reason, never a struct error or a silent wrong answer.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines.chunkio import pack_block
from repro.machines.machstate import MachineState
from repro.nub.protocol import MAX_BLOCK, VALUE_SIZES
from repro.trace.format import (
    BLOCK_END,
    BLOCK_LOG,
    BLOCK_META,
    BLOCK_SPILL,
    OP_BLOCKSTORE,
    OP_STORE,
    SPILL_AUTO,
    SPILL_STOP,
    InputRecord,
    Recording,
    SpillRecord,
    StopRecord,
    TRACE_MAGIC,
    TRACE_VERSION,
    TraceError,
    TraceMeta,
)


def tiny_state(icount=40, pc=0x2000):
    return MachineState(
        arch_name="rmips", byteorder="big", memsize=1 << 16,
        regs=[0] * 32, fregs=[0.0] * 32, pc=pc, cc_lt=False, cc_eq=False,
        cc_ltu=False, icount=icount, pending_load=None, wrote_reg=None,
        segments=[(0x2000, b"\x01\x02\x03\x04")],
        planted=[(0x2004, b"\x0d\x00\x00\x00")], out_text="hi\n")


def tiny_recording(inputs=(), loader_ps="/T 1 dict def"):
    meta = TraceMeta(arch_name="rmips", byteorder="big", memsize=1 << 16,
                     context_addr=0x100, interval=37, base_icount=3,
                     loader_ps=loader_ps)
    spills = [
        SpillRecord(1, 3, 0x2000, 5, 0, SPILL_STOP, tiny_state(icount=3)),
        SpillRecord(2, 40, 0x2010, 5, 3, SPILL_AUTO, tiny_state(icount=40)),
    ]
    stops = [StopRecord(3, 0x2000, 5, 0, 0xAABBCCDD),
             StopRecord(40, 0x2010, 5, 3, 0x11223344)]
    return Recording(meta, spills, stops, list(inputs))


class TestRoundTrip:
    def test_full_round_trip(self):
        inputs = [InputRecord(3, OP_STORE, "d", 0x8000, b"\x2a\x00\x00\x00"),
                  InputRecord(40, OP_BLOCKSTORE, "d", 0x9000, b"blob")]
        rec = tiny_recording(inputs=inputs)
        back = Recording.from_bytes(rec.to_bytes())
        assert back.meta.arch_name == "rmips"
        assert back.meta.byteorder == "big"
        assert back.meta.interval == 37
        assert back.meta.base_icount == 3
        assert back.meta.loader_ps == "/T 1 dict def"
        assert [s.icount for s in back.spills] == [3, 40]
        assert [s.cid for s in back.spills] == [1, 2]
        assert back.spills[0].state.segments == [(0x2000, b"\x01\x02\x03\x04")]
        assert back.spills[0].state.planted == [(0x2004, b"\x0d\x00\x00\x00")]
        assert [(s.icount, s.digest) for s in back.stops] == \
            [(3, 0xAABBCCDD), (40, 0x11223344)]
        assert [(i.position, i.op, i.address, i.data) for i in back.inputs] \
            == [(3, OP_STORE, 0x8000, b"\x2a\x00\x00\x00"),
                (40, OP_BLOCKSTORE, 0x9000, b"blob")]
        assert back.final_icount == 40
        assert back.stop_at(40).digest == 0x11223344
        assert back.stop_at(99) is None

    def test_no_loader_table_round_trips_as_none(self):
        rec = tiny_recording(loader_ps=None)
        assert Recording.from_bytes(rec.to_bytes()).meta.loader_ps is None

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "t.ldbrec")
        tiny_recording().dump(path)
        assert Recording.load(path).final_icount == 40

    def test_missing_file_is_a_trace_error(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            Recording.load(str(tmp_path / "nope.ldbrec"))


class TestCorruptionMatrix:
    def raw(self, **kw):
        return tiny_recording(**kw).to_bytes()

    def test_bad_magic(self):
        raw = self.raw()
        with pytest.raises(TraceError, match="bad magic"):
            Recording.from_bytes(b"NOPE" + raw[4:])

    def test_too_short_for_header(self):
        # right magic, cut mid-header: a torn *trace* file, not an
        # alien one — the message says "truncated", so triage rows
        # classify it as corrupt-recording rather than not-an-artifact
        with pytest.raises(TraceError, match="truncated"):
            Recording.from_bytes(TRACE_MAGIC + b"\x00")

    def test_future_version_refused(self):
        raw = bytearray(self.raw())
        struct.pack_into("<H", raw, 4, TRACE_VERSION + 1)
        with pytest.raises(TraceError, match="newer"):
            Recording.from_bytes(bytes(raw))

    def test_truncated_no_end_block(self):
        raw = self.raw()
        end = pack_block(BLOCK_END, b"")
        with pytest.raises(TraceError, match="no END"):
            Recording.from_bytes(raw[:-len(end)])

    def test_truncated_mid_block(self):
        raw = self.raw()
        with pytest.raises(TraceError, match="truncated"):
            Recording.from_bytes(raw[:len(raw) // 2])

    def test_flipped_bit_fails_block_crc(self):
        raw = bytearray(self.raw())
        raw[30] ^= 0x10  # inside the META block body
        with pytest.raises(TraceError, match="CRC"):
            Recording.from_bytes(bytes(raw))

    def test_trailing_garbage_after_end(self):
        with pytest.raises(TraceError, match="trailing"):
            Recording.from_bytes(self.raw() + b"junk")

    def test_unknown_block_kind(self):
        head = TRACE_MAGIC + struct.pack("<HH", TRACE_VERSION, 0)
        raw = (head + pack_block(99, b"?")
               + pack_block(BLOCK_END, b""))
        with pytest.raises(TraceError, match="unknown block kind"):
            Recording.from_bytes(raw)

    def test_duplicate_meta(self):
        meta = tiny_recording().meta.to_body()
        head = TRACE_MAGIC + struct.pack("<HH", TRACE_VERSION, 0)
        raw = (head + pack_block(BLOCK_META, meta)
               + pack_block(BLOCK_META, meta) + pack_block(BLOCK_END, b""))
        with pytest.raises(TraceError, match="duplicate META"):
            Recording.from_bytes(raw)

    def test_missing_meta(self):
        head = TRACE_MAGIC + struct.pack("<HH", TRACE_VERSION, 0)
        spill = tiny_recording().spills[0].to_body()
        raw = (head + pack_block(BLOCK_SPILL, spill)
               + pack_block(BLOCK_END, b""))
        with pytest.raises(TraceError, match="no META"):
            Recording.from_bytes(raw)

    def test_no_spills(self):
        head = TRACE_MAGIC + struct.pack("<HH", TRACE_VERSION, 0)
        meta = tiny_recording().meta.to_body()
        raw = (head + pack_block(BLOCK_META, meta)
               + pack_block(BLOCK_END, b""))
        with pytest.raises(TraceError, match="no checkpoint spills"):
            Recording.from_bytes(raw)

    def test_malformed_spill_body(self):
        head = TRACE_MAGIC + struct.pack("<HH", TRACE_VERSION, 0)
        meta = tiny_recording().meta.to_body()
        raw = (head + pack_block(BLOCK_META, meta)
               + pack_block(BLOCK_SPILL, b"\x01\x02\x03")
               + pack_block(BLOCK_END, b""))
        with pytest.raises(TraceError):
            Recording.from_bytes(raw)

    def test_malformed_log_body(self):
        rec = tiny_recording()
        head = TRACE_MAGIC + struct.pack("<HH", TRACE_VERSION, 0)
        raw = (head + pack_block(BLOCK_META, rec.meta.to_body())
               + pack_block(BLOCK_SPILL, rec.spills[0].to_body())
               + pack_block(BLOCK_LOG, struct.pack("<I", 5))  # claims 5 stops
               + pack_block(BLOCK_END, b""))
        with pytest.raises(TraceError):
            Recording.from_bytes(raw)

    def test_truncated_spill_state(self):
        rec = tiny_recording()
        body = rec.spills[0].to_body()
        head = TRACE_MAGIC + struct.pack("<HH", TRACE_VERSION, 0)
        raw = (head + pack_block(BLOCK_META, rec.meta.to_body())
               + pack_block(BLOCK_SPILL, body[:-4])
               + pack_block(BLOCK_END, b""))
        with pytest.raises(TraceError, match="truncated SPILL"):
            Recording.from_bytes(raw)


#: an input the debugger could have logged: a STORE of one value, or
#: a BLOCKSTORE of one block
INPUTS = st.one_of(
    st.tuples(st.integers(0, 2**40), st.just(OP_STORE),
              st.integers(0, 2**32 - 1),
              st.sampled_from(VALUE_SIZES).flatmap(
                  lambda n: st.binary(min_size=n, max_size=n))),
    st.tuples(st.integers(0, 2**40), st.just(OP_BLOCKSTORE),
              st.integers(0, 2**32 - 1), st.binary(min_size=1, max_size=32)))


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(INPUTS, max_size=8))
    def test_input_log_round_trips(self, entries):
        inputs = [InputRecord(pos, op, "d", addr, data)
                  for pos, op, addr, data in entries]
        rec = tiny_recording(inputs=inputs)
        back = Recording.from_bytes(rec.to_bytes())
        want = sorted(entries, key=lambda e: e[0])
        got = [(i.position, i.op, i.address, i.data) for i in back.inputs]
        assert got == want

    @pytest.mark.parametrize("op, size", [
        (OP_STORE, 0), (OP_STORE, 3), (OP_STORE, 7), (OP_STORE, 16),
        (OP_BLOCKSTORE, 0), (OP_BLOCKSTORE, MAX_BLOCK + 1), (9, 4)])
    def test_malformed_input_entry_is_a_trace_error(self, op, size):
        # nothing the debugger sends: replay could not rebuild it
        rec = tiny_recording(inputs=[InputRecord(3, op, "d", 0x8000,
                                                 b"\0" * size)])
        with pytest.raises(TraceError, match="malformed input-log entry"):
            Recording.from_bytes(rec.to_bytes())

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_any_slice_raises_trace_error_never_struct_error(self, data):
        raw = tiny_recording().to_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1))
        try:
            Recording.from_bytes(raw[:cut])
        except TraceError:
            pass  # typed: that's the contract

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_any_single_byte_flip_is_detected_or_equivalent(self, data):
        raw = bytearray(tiny_recording().to_bytes())
        index = data.draw(st.integers(0, len(raw) - 1))
        bit = data.draw(st.integers(0, 7))
        raw[index] ^= 1 << bit
        try:
            back = Recording.from_bytes(bytes(raw))
        except TraceError:
            return  # detected: good
        # a flip in a compressed stream that still inflates to the
        # same bytes is impossible; one the CRC catches is TraceError;
        # the only survivable flips are in the 2 header flag bytes or
        # a version *decrease* — all preserve the decoded content
        reference = Recording.from_bytes(tiny_recording().to_bytes())
        assert back.final_icount == reference.final_icount
        assert [s.icount for s in back.spills] == \
            [s.icount for s in reference.spills]
