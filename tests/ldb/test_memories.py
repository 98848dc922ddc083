"""Abstract-memory DAG tests (paper Fig. 4, Sec. 4.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ldb.memories import (
    AliasMemory,
    CachingMemory,
    JoinedMemory,
    LocalMemory,
    MemoryStats,
    RegisterMemory,
    WireMemory,
    decode_value,
    encode_value,
)
from repro.nub import protocol
from repro.nub.session import NubError, Transport, TransportError
from repro.postscript import Location, PSError


def loc(space, offset):
    return Location.absolute(space, offset)


class FakeNubTransport(Transport):
    """A Transport served straight out of a bytearray, mimicking the
    nub's value semantics: FETCH replies little-endian values, BLOCK
    messages move raw memory images."""

    def __init__(self, size=512, byteorder="little"):
        self.mem = bytearray(size)
        self.byteorder = byteorder
        self.dead = False
        self.log = []

    def poke(self, address, raw):
        """Plant a raw memory image (what the target would hold)."""
        self.mem[address:address + len(raw)] = raw

    def transact(self, msg, expect=(protocol.MSG_OK,), timeout=None):
        if self.dead:
            raise TransportError("connection lost")
        if msg.mtype == protocol.MSG_FETCH:
            space, address, size = protocol.parse_fetch(msg)
            self.log.append(("fetch", space, address, size))
            if address + size > len(self.mem):
                raise NubError(protocol.ERR_BAD_ADDRESS, msg)
            raw = bytes(self.mem[address:address + size])
            return protocol.data(raw[::-1] if self.byteorder == "big"
                                 else raw)
        if msg.mtype == protocol.MSG_STORE:
            space, address, raw_le = protocol.parse_store(msg)
            self.log.append(("store", space, address, len(raw_le)))
            if address + len(raw_le) > len(self.mem):
                raise NubError(protocol.ERR_BAD_ADDRESS, msg)
            self.poke(address, raw_le[::-1] if self.byteorder == "big"
                      else raw_le)
            return protocol.ok()
        if msg.mtype == protocol.MSG_BLOCKFETCH:
            space, address, length = protocol.parse_blockfetch(msg)
            self.log.append(("blockfetch", space, address, length))
            if address >= len(self.mem):
                raise NubError(protocol.ERR_BAD_ADDRESS, msg)
            return protocol.data(
                bytes(self.mem[address:address + length]))  # short at end
        raise NubError(protocol.ERR_BAD_MESSAGE, msg)

    def control(self, msg):
        pass

    def recv_event(self, timeout=None):
        raise TransportError("no events on a fake")

    def close(self):
        self.dead = True

    def sent(self, what):
        return [entry for entry in self.log if entry[0] == what]


class TestWireCoding:
    @pytest.mark.parametrize("value,kind", [
        (0, "i32"), (1, "i32"), (-1, "i32"), (2**31 - 1, "i32"),
        (-(2**31), "i32"), (127, "i8"), (-128, "i8"), (-1, "i16"),
        (1.5, "f32"), (-2.25, "f64"), (3.75, "f80"),
    ])
    def test_round_trip(self, value, kind):
        assert decode_value(encode_value(value, kind), kind) == value

    @given(st.integers(-(2**31), 2**31 - 1))
    def test_i32_round_trip_property(self, value):
        assert decode_value(encode_value(value, "i32"), "i32") == value

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_f64_round_trip_property(self, value):
        assert decode_value(encode_value(value, "f64"), "f64") == value

    def test_wire_values_are_little_endian(self):
        assert encode_value(0x01020304, "i32") == b"\x04\x03\x02\x01"


class TestAliasMemory:
    def test_register_alias_to_context(self):
        """Register 30 aliased to a data-space slot (the paper's i)."""
        backing = LocalMemory()
        backing.store(loc("d", 0x192), "i32", 7)   # context + 92 words in
        alias = AliasMemory(backing)
        alias.alias("r", 30, loc("d", 0x192))
        assert alias.fetch(loc("r", 30), "i32") == 7

    def test_alias_to_immediate(self):
        """The extra registers (pc, vfp) alias immediate locations."""
        alias = AliasMemory(LocalMemory())
        alias.alias("x", 0, Location.immediate(0x2270))
        assert alias.fetch(loc("x", 0), "i32") == 0x2270

    def test_store_through_alias(self):
        backing = LocalMemory()
        alias = AliasMemory(backing).alias("r", 2, loc("d", 0x10))
        alias.store(loc("r", 2), "i32", 99)
        assert backing.fetch(loc("d", 0x10), "i32") == 99

    def test_missing_alias_raises(self):
        alias = AliasMemory(LocalMemory())
        with pytest.raises(PSError):
            alias.fetch(loc("r", 5), "i32")


class TestRegisterMemory:
    """The byte-order fix: sub-word register accesses become full-word
    operations, so the same debugger code serves both byte orders."""

    def make(self, word_value):
        backing = LocalMemory()
        backing.store(loc("r", 30), "i32", word_value)
        return backing, RegisterMemory(backing, {"r": "i32", "f": "f64"})

    def test_byte_fetch_returns_low_bits(self):
        _backing, regmem = self.make(0x11223341)
        assert regmem.fetch(loc("r", 30), "i8") == 0x41

    def test_byte_fetch_sign_extends(self):
        _backing, regmem = self.make(0x112233F0)
        assert regmem.fetch(loc("r", 30), "i8") == -16

    def test_half_fetch(self):
        _backing, regmem = self.make(0x1122ABCD)
        assert regmem.fetch(loc("r", 30), "i16") == -21555  # 0xABCD signed

    def test_byte_store_merges(self):
        backing, regmem = self.make(0x11223344)
        regmem.store(loc("r", 30), "i8", 0x7F)
        assert backing.fetch(loc("r", 30), "i32") == 0x1122337F

    def test_full_word_passthrough(self):
        _backing, regmem = self.make(123456)
        assert regmem.fetch(loc("r", 30), "i32") == 123456

    def test_float_space_width(self):
        backing = LocalMemory()
        backing.store(loc("f", 2), "f64", 2.5)
        regmem = RegisterMemory(backing, {"r": "i32", "f": "f64"})
        assert regmem.fetch(loc("f", 2), "f64") == 2.5

    @given(st.integers(0, 2**32 - 1))
    def test_byte_extraction_is_order_independent(self, word):
        """The property the paper claims: identical results regardless
        of target byte order, because only word values are exchanged."""
        signed = word - (1 << 32) if word >= 1 << 31 else word
        backing = LocalMemory()
        backing.store(loc("r", 1), "i32", signed)
        regmem = RegisterMemory(backing, {"r": "i32"})
        low = regmem.fetch(loc("r", 1), "i8")
        expected = word & 0xFF
        assert low & 0xFF == expected


class TestJoinedMemory:
    def make_dag(self):
        """wire(c,d) <- alias <- register <- joined: Fig. 4."""
        stats = MemoryStats()
        wire = LocalMemory()
        alias = AliasMemory(wire, stats=stats)
        register = RegisterMemory(alias, {"r": "i32"}, stats=stats)
        joined = JoinedMemory({"c": wire, "d": wire, "r": register},
                              stats=stats)
        return wire, alias, joined, stats

    def test_data_requests_route_to_wire(self):
        wire, _alias, joined, stats = self.make_dag()
        wire.store(loc("d", 100), "i32", 5)
        assert joined.fetch(loc("d", 100), "i32") == 5
        assert stats.of("alias", "fetch") == 0

    def test_register_requests_route_through_alias(self):
        wire, alias, joined, stats = self.make_dag()
        wire.store(loc("d", 0x192), "i32", 7)
        alias.alias("r", 30, loc("d", 0x192))
        assert joined.fetch(loc("r", 30), "i32") == 7
        assert stats.of("register", "fetch") == 1
        assert stats.of("alias", "fetch") == 1

    def test_unserved_space_raises(self):
        _wire, _alias, joined, _stats = self.make_dag()
        with pytest.raises(PSError):
            joined.fetch(loc("q", 0), "i32")

    def test_paper_example_i_in_register_30(self):
        """The full Sec. 4.1 walk-through: i is at register 30; the
        alias notes register 30 lives 92 bytes into the context; the
        fetch lands on the wire as a data request."""
        wire, alias, joined, stats = self.make_dag()
        context = 0x100
        wire.store(loc("d", context + 92), "i32", 4)     # i == 4
        alias.alias("r", 30, loc("d", context + 92))
        value = joined.fetch(loc("r", 30), "i32")
        assert value == 4
        assert stats.of("joined", "fetch") == 1
        assert stats.of("register", "fetch") == 1
        assert stats.of("alias", "fetch") == 1


class TestMemoryStats:
    def test_snapshot_is_frozen(self):
        stats = MemoryStats()
        stats.note("wire", "fetch")
        before = stats.snapshot()
        stats.note("wire", "fetch")
        assert before == {"wire.fetch": 1}
        assert stats.of("wire", "fetch") == 2

    def test_diff_against_snapshot_and_stats(self):
        stats = MemoryStats()
        stats.note("wire", "fetch")
        other = MemoryStats()
        assert stats.diff(other) == {"wire.fetch": 1}
        assert stats.diff(stats.snapshot()) == {}   # zero deltas omitted

    def test_diff_omits_unchanged_keys(self):
        stats = MemoryStats()
        stats.note("wire", "fetch")
        stats.note("cache", "hit")
        before = stats.snapshot()
        stats.note("cache", "hit")
        assert stats.diff(before) == {"cache.hit": 1}

    def test_round_trips_counts_only_wire_messages(self):
        stats = MemoryStats()
        for name, what in (("wire", "fetch"), ("wire", "store"),
                           ("wire", "blockfetch"), ("cache", "hit"),
                           ("joined", "fetch"), ("cache", "fetch")):
            stats.note(name, what)
        assert stats.round_trips() == 3


class TestWireMemoryTransport:
    """Satellite: WireMemory takes an explicit Transport and surfaces
    nub errors identically whatever the transport implementation."""

    def test_rejects_non_transport(self):
        with pytest.raises(TypeError):
            WireMemory(object())

    def test_fetch_and_store_through_fake(self):
        for order in ("little", "big"):
            fake = FakeNubTransport(byteorder=order)
            wire = WireMemory(fake)
            wire.store(loc("d", 16), "i32", 0x01020304)
            assert wire.fetch(loc("d", 16), "i32") == 0x01020304, order

    def test_nub_error_is_invalidaccess(self):
        wire = WireMemory(FakeNubTransport(size=64))
        with pytest.raises(PSError) as err:
            wire.fetch(loc("d", 4096), "i32")
        assert err.value.errname == "invalidaccess"

    def test_dead_transport_is_ioerror(self):
        fake = FakeNubTransport()
        wire = WireMemory(fake)
        fake.close()
        with pytest.raises(PSError) as err:
            wire.fetch(loc("d", 0), "i32")
        assert err.value.errname == "ioerror"

    def test_fetch_block_maps_unsupported_answer(self):
        # blocks are base protocol: ERR_UNSUPPORTED is a nub error like
        # any other, not a cue to fall back per-word
        fake = FakeNubTransport()

        def refuse(msg, expect=(), timeout=None):
            raise NubError(protocol.ERR_UNSUPPORTED, msg)

        fake.transact = refuse
        with pytest.raises(PSError) as err:
            WireMemory(fake).fetch_block("d", 0, 64)
        assert err.value.errname == "invalidaccess"


class TestCachingMemory:
    def make(self, byteorder="little", fixup=None, size=512):
        fake = FakeNubTransport(size=size, byteorder=byteorder)
        stats = MemoryStats()
        wire = WireMemory(fake, stats=stats)
        cache = CachingMemory(wire, byteorder=byteorder, fixup=fixup,
                              stats=stats)
        return fake, cache, stats

    def test_second_fetch_is_a_hit(self):
        fake, cache, stats = self.make()
        fake.poke(8, (1234).to_bytes(4, "little"))
        assert cache.fetch(loc("d", 8), "i32") == 1234
        assert cache.fetch(loc("d", 12), "i32") == 0   # same block
        assert len(fake.sent("blockfetch")) == 1
        assert fake.sent("fetch") == []
        assert stats.of("cache", "miss") == 1
        assert stats.of("cache", "hit") == 1

    def test_big_endian_interpretation_matches_fetch(self):
        fake, cache, stats = self.make(byteorder="big")
        fake.poke(8, (1234).to_bytes(4, "big"))       # raw target image
        uncached = WireMemory(fake).fetch(loc("d", 8), "i32")
        assert cache.fetch(loc("d", 8), "i32") == uncached == 1234

    def test_fixup_replicates_nub_fix_fetched(self):
        """The rmips saved-float word swap (footnote 3), on the cached
        path: fixup sees the little-endian image and restores it."""
        import struct

        def swap_at_16(space, address, raw_le):
            if address == 16 and len(raw_le) == 8:
                return raw_le[4:] + raw_le[:4]
            return raw_le

        fake, cache, stats = self.make(byteorder="big", fixup=swap_at_16)
        good_le = struct.pack("<d", 1.5)
        swapped_le = good_le[4:] + good_le[:4]        # as the kernel saved it
        fake.poke(16, swapped_le[::-1])               # big-endian image
        assert cache.fetch(loc("d", 16), "f64") == 1.5

    def test_span_crossing_block_boundary(self):
        fake, cache, stats = self.make()
        edge = CachingMemory.BLOCK - 2
        fake.poke(edge, (77).to_bytes(4, "little"))
        assert cache.fetch(loc("d", edge), "i32") == 77
        assert len(fake.sent("blockfetch")) == 2      # both blocks filled

    def test_short_block_serves_prefix_and_falls_back_past_it(self):
        fake, cache, stats = self.make(size=CachingMemory.BLOCK + 8)
        fake.poke(CachingMemory.BLOCK, (9).to_bytes(4, "little"))
        assert cache.fetch(loc("d", CachingMemory.BLOCK), "i32") == 9
        # past the mapped prefix: the per-word fallback surfaces the
        # same invalidaccess the uncached path would
        with pytest.raises(PSError) as err:
            cache.fetch(loc("d", CachingMemory.BLOCK + 6), "i32")
        assert err.value.errname == "invalidaccess"
        assert stats.of("cache", "fallback") == 1

    def test_store_writes_through_and_invalidates(self):
        fake, cache, stats = self.make()
        cache.fetch(loc("d", 8), "i32")               # warm the block
        cache.store(loc("d", 8), "i32", 4242)
        assert fake.sent("store") != []               # write-through
        assert cache.fetch(loc("d", 8), "i32") == 4242
        assert len(fake.sent("blockfetch")) == 2      # span was dropped

    def test_invalidate_drops_everything(self):
        fake, cache, stats = self.make()
        cache.fetch(loc("d", 8), "i32")
        cache.invalidate()
        assert cache.blocks == {}
        cache.fetch(loc("d", 8), "i32")
        assert len(fake.sent("blockfetch")) == 2

    def test_invalidate_range_is_surgical(self):
        fake, cache, stats = self.make()
        cache.fetch(loc("d", 8), "i32")               # block 0
        cache.fetch(loc("d", CachingMemory.BLOCK + 8), "i32")   # block 1
        cache.invalidate_range("d", 4, 8)
        assert ("d", 0) not in cache.blocks
        assert ("d", CachingMemory.BLOCK) in cache.blocks

    def test_prefetch_warms_a_span_in_one_message(self):
        fake, cache, stats = self.make()
        cache.prefetch("d", 8, 200)                   # spans two blocks
        assert len(fake.sent("blockfetch")) == 1
        cache.fetch(loc("d", 8), "i32")
        cache.fetch(loc("d", 180), "i32")
        assert len(fake.sent("blockfetch")) == 1      # all hits
        assert stats.of("cache", "prefetch") == 1

    def test_rejects_bad_byteorder(self):
        fake = FakeNubTransport()
        with pytest.raises(ValueError):
            CachingMemory(WireMemory(fake), byteorder="middle")


class TestTimeTravelStats:
    """The time-travel verbs are wire traffic too: each one notes
    itself so `info stats`-style tooling can account for it."""

    def make_target(self):
        from .helpers import session
        ldb, target = session()
        return ldb, target

    def test_checkpoint_restore_and_drop_are_counted(self):
        ldb, target = self.make_target()
        before = target.stats.snapshot()
        cid, _ = target.take_checkpoint()
        target.restore_checkpoint(cid)
        target.drop_checkpoint(cid)
        delta = target.stats.diff(before)
        assert delta.get("wire.checkpoint") == 1
        assert delta.get("wire.restore") == 1
        assert delta.get("wire.dropckpt") == 1

    def test_runto_is_counted_per_chunk(self):
        ldb, target = self.make_target()
        before = target.stats.snapshot()
        here = target.current_icount()
        # resume past the entry-pause no-op, like any resume from a trap
        target.run_to_icount(here + 5,
                             at_pc=target.breakpoints.resume_pc(
                                 target.stop_pc()))
        target.wait_for_stop()
        assert target.at_icount_stop()
        delta = target.stats.diff(before)
        assert delta.get("wire.runto") == 1
