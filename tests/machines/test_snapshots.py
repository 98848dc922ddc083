"""Snapshot/restore at the machines layer: CPU register images,
copy-on-write memory pages, whole-process checkpoints, and the
``stop_at_icount`` run bound the RUNTO protocol message rides on."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.driver import compile_and_link
from repro.machines import (
    ARCH_NAMES,
    CODE_ICOUNT,
    ExitEvent,
    FaultEvent,
    IcountStopEvent,
    Process,
    SIGTRAP,
)
from repro.machines.memory import PAGE, TargetMemory

COUNT = """int total;
int main(void) {
    int i;
    for (i = 1; i <= 12; i++)
        total = total + i;
    printf("total=%d\\n", total);
    return 3;
}
"""


def _fresh(arch):
    exe = compile_and_link({"count.c": COUNT}, arch, debug=True)
    return Process(exe, stdout=io.StringIO())


def _skip_entry_pause(p):
    """Without a nub attached, hop over the __nub_pause trap."""
    event = p.run_until_event()
    assert isinstance(event, FaultEvent) and event.signo == SIGTRAP
    p.cpu.pc = event.pc + p.arch.noop_advance


def _machine_state(p):
    return (list(p.cpu.regs), list(p.cpu.fregs), p.cpu.pc, p.cpu.icount,
            bytes(p.mem.bytes), p.output())


class TestMemorySnapshots:
    def test_snapshot_copies_nothing_until_written(self):
        mem = TargetMemory(4 * PAGE)
        snap = mem.snapshot()
        assert snap.cost_pages() == 0
        mem.write_u32(0, 0xDEAD)
        assert snap.cost_pages() == 1  # only the touched page

    def test_restore_rewinds_only_captured_pages(self):
        mem = TargetMemory(4 * PAGE)
        mem.write_u32(PAGE, 1)
        snap = mem.snapshot()
        mem.write_u32(PAGE, 2)
        mem.write_u32(3 * PAGE, 7)
        mem.restore(snap)
        assert mem.read_u32(PAGE) == 1
        assert mem.read_u32(3 * PAGE) == 0
        assert snap.cost_pages() == 2

    def test_snapshot_survives_restore(self):
        mem = TargetMemory(2 * PAGE)
        snap = mem.snapshot()
        mem.write_u32(0, 5)
        mem.restore(snap)
        mem.write_u32(0, 9)
        mem.restore(snap)  # restorable again and again
        assert mem.read_u32(0) == 0

    def test_two_snapshots_restore_in_any_order(self):
        mem = TargetMemory(2 * PAGE)
        mem.write_u32(0, 1)
        early = mem.snapshot()
        mem.write_u32(0, 2)
        late = mem.snapshot()
        mem.write_u32(0, 3)
        mem.restore(early)
        assert mem.read_u32(0) == 1
        mem.restore(late)
        assert mem.read_u32(0) == 2
        mem.restore(early)
        assert mem.read_u32(0) == 1

    def test_write_spanning_pages_captures_both(self):
        mem = TargetMemory(4 * PAGE)
        snap = mem.snapshot()
        mem.write_bytes(PAGE - 2, b"\x01\x02\x03\x04")
        assert snap.cost_pages() == 2

    def test_word_from_a_held_page_into_a_fresh_one(self):
        mem = TargetMemory(4 * PAGE)
        snap = mem.snapshot()
        mem.write_u32(0, 1)                  # page 0 is captured
        mem.write_u32(PAGE - 2, 0xFFFFFFFF)  # straddles into page 1
        assert snap.cost_pages() == 2
        mem.restore(snap)
        assert mem.read_bytes(0, PAGE + 4) == bytes(PAGE + 4)

    def test_released_snapshot_rejected(self):
        mem = TargetMemory(2 * PAGE)
        snap = mem.snapshot()
        mem.release(snap)
        with pytest.raises(ValueError):
            mem.restore(snap)
        mem.release(snap)  # double release is harmless


# -- copy-on-write against a model that copies everything -------------------

_PAGES = 3
_PATTERN = bytes(range(256)) * (3 * PAGE // 256 + 2)

#: addresses anywhere, and addresses hugging a page boundary (a word
#: written there straddles it)
_ADDRESS = st.one_of(
    st.integers(0, _PAGES * PAGE - 1),
    st.integers(1, _PAGES - 1).flatmap(
        lambda p: st.integers(p * PAGE - 4, p * PAGE + 1)))

_INT = st.tuples(st.just("int"), _ADDRESS, st.sampled_from([1, 2, 4]),
                 st.integers(0, 0xFFFFFFFF))

_OPS = st.lists(st.one_of(
    st.just(("snapshot",)),
    _INT,
    _INT,
    # short writes, and writes spanning up to three pages
    st.tuples(st.just("bytes"), _ADDRESS,
              st.one_of(st.integers(1, 8), st.integers(1, 2 * PAGE + 8)),
              st.integers(0, 255)),
    st.tuples(st.just("restore"), st.integers(0, 7)),
    st.tuples(st.just("release"), st.integers(0, 7)),
), max_size=40)


def _rewinds_to(mem, snap):
    """What restoring ``snap`` would leave, read without restoring:
    its captured pages over the current memory."""
    image = bytearray(mem.bytes)
    for page, raw in snap.pages.items():
        image[page * PAGE:page * PAGE + len(raw)] = raw
    return image


class TestCopyOnWriteModel:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_matches_whole_copy_model(self, ops):
        """Any interleaving of snapshot/write/restore/release leaves the
        memory, and every live snapshot, where full copies would."""
        size = _PAGES * PAGE
        mem = TargetMemory(size)
        model = bytearray(size)
        snaps, copies = [], []  # taken so far; a copy is None once released
        for op in ops:
            kind = op[0]
            if kind == "snapshot":
                snaps.append(mem.snapshot())
                copies.append(bytes(model))
            elif kind == "int":
                _, address, width, value = op
                address = min(address, size - width)
                mem.write_int(address, width, value)
                model[address:address + width] = (
                    value & ((1 << 8 * width) - 1)).to_bytes(width, "little")
            elif kind == "bytes":
                _, address, length, skew = op
                length = min(length, size - address)
                data = _PATTERN[skew:skew + length]
                mem.write_bytes(address, data)
                model[address:address + length] = data
            elif snaps:
                index = op[1] % len(snaps)
                if kind == "release":
                    mem.release(snaps[index])
                    copies[index] = None
                elif copies[index] is None:
                    with pytest.raises(ValueError):
                        mem.restore(snaps[index])
                else:
                    mem.restore(snaps[index])
                    model[:] = copies[index]
            assert mem.bytes == model
            for snap, copy in zip(snaps, copies):
                if copy is not None:
                    assert _rewinds_to(mem, snap) == copy
        # every live snapshot still rewinds to its full copy
        for snap, copy in zip(snaps, copies):
            if copy is not None:
                mem.restore(snap)
                assert mem.bytes == copy


class TestStopAtIcount:
    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_icount_stop_between_instructions(self, arch):
        p = _fresh(arch)
        _skip_entry_pause(p)
        event = p.run_until_event(stop_at_icount=p.cpu.icount + 10)
        assert isinstance(event, IcountStopEvent)
        assert event.signo == SIGTRAP and event.code == CODE_ICOUNT
        assert p.cpu.icount == event.icount

    def test_exit_event_reports_icount(self):
        p = _fresh("rmips")
        _skip_entry_pause(p)
        event = p.run_until_event()
        assert isinstance(event, ExitEvent)
        assert event.status == 3
        assert event.icount == p.cpu.icount
        assert "icount=%d" % event.icount in repr(event)

    def test_fault_event_reports_icount(self):
        p = _fresh("rmips")
        event = p.run_until_event()  # the entry-pause trap
        assert isinstance(event, FaultEvent)
        assert event.icount == p.cpu.icount
        assert "icount=%d" % event.icount in repr(event)


class TestProcessSnapshots:
    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_snapshot_restore_replays_identically(self, arch):
        p = _fresh(arch)
        _skip_entry_pause(p)
        p.run_until_event(stop_at_icount=p.cpu.icount + 25)
        snap = p.snapshot()
        first = p.run_until_event()
        assert isinstance(first, ExitEvent)
        state_a = _machine_state(p)
        p.restore(snap)
        assert p.cpu.icount == snap.icount
        second = p.run_until_event()
        assert isinstance(second, ExitEvent)
        assert second.status == first.status
        assert _machine_state(p) == state_a

    def test_restore_truncates_output(self):
        p = _fresh("rmips")
        _skip_entry_pause(p)
        snap = p.snapshot()
        p.run_until_event()
        assert "total=78" in p.output()
        p.restore(snap)
        assert p.output() == ""

    def test_restore_rewinds_exit_state(self):
        p = _fresh("rmips")
        _skip_entry_pause(p)
        snap = p.snapshot()
        p.run_until_event()
        assert p.exited == 3
        p.restore(snap)
        assert p.exited is None

    def test_release_snapshot_stops_cow(self):
        p = _fresh("rmips")
        snap = p.snapshot()
        p.release_snapshot(snap)
        _skip_entry_pause(p)
        p.run_until_event(stop_at_icount=p.cpu.icount + 10)
        assert snap.mem.cost_pages() == 0
