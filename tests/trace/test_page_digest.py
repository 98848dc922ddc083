"""The divergence digest reads only the pages that hold data.

``MachineState.digest`` and ``live_digest`` fold each run of zero pages
into the CRC arithmetically instead of reading it.  Both are held here
to the dense digest they replaced: a CRC32 over the registers, then
over the whole image with the planted originals patched back and the
nub's context area zeroed.  Cores and recordings written through the
page-level scan and digest are byte-identical to those written with the
dense reference patched in, on all five targets.
"""

import io
import struct
import zlib
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.machines import ARCH_NAMES, SIGSEGV, core, machstate
from repro.machines.chunkio import sparse_segments
from repro.machines.machstate import MachineState, StateError, live_digest
from repro.machines.memory import PAGE, TargetMemory

from ..machines.test_chunkio import paged_images, regex_segments


def dense_digest(regs, fregs, cc_lt, cc_eq, cc_ltu, icount, pending_load,
                 wrote_reg, image, planted, byteorder, context_addr,
                 context_size):
    """The digest as it was computed over a dense copy of the image."""
    image = bytearray(image)
    head = bytearray()
    head += struct.pack("<%dI" % len(regs),
                        *[r & 0xFFFFFFFF for r in regs])
    head += struct.pack("<%dd" % len(fregs), *fregs)
    head += struct.pack("<B", (1 if cc_lt else 0) | (2 if cc_eq else 0)
                        | (4 if cc_ltu else 0))
    head += struct.pack("<Q", icount)
    if pending_load is None:
        head += struct.pack("<iI", -1, 0)
    else:
        head += struct.pack("<iI", pending_load[0],
                            pending_load[1] & 0xFFFFFFFF)
    head += struct.pack("<i", -1 if wrote_reg is None else wrote_reg)
    for address, original in planted.items():
        raw = original if byteorder == "little" else original[::-1]
        if 0 <= address and address + len(raw) <= len(image):
            image[address:address + len(raw)] = raw
    lo = max(0, context_addr)
    hi = min(len(image), context_addr + context_size)
    if lo < hi:
        image[lo:hi] = b"\0" * (hi - lo)
    return zlib.crc32(bytes(image), zlib.crc32(bytes(head))) & 0xFFFFFFFF


def dense_state_digest(state, context_addr, context_size):
    return dense_digest(state.regs, state.fregs, state.cc_lt, state.cc_eq,
                        state.cc_ltu, state.icount, state.pending_load,
                        state.wrote_reg, state.image(), dict(state.planted),
                        state.byteorder, context_addr, context_size)


@st.composite
def normalized_states(draw):
    """An image, the registers, planted traps inside and outside its
    data (some across a page edge, some out of range), and a context
    area that may straddle a page edge or hang off either end, often
    over data the digest must not see."""
    image = bytearray(draw(paged_images()))
    size = len(image)
    spot = st.integers(-8, size + 8)
    edge = st.integers(0, size // PAGE + 1).map(lambda k: k * PAGE - 2)
    data = [i for i in range(0, size, 97) if image[i]]
    if data:
        spot = st.one_of(spot, st.sampled_from(data))
    # in address order, the order a state keeps them in
    planted = dict(sorted(draw(st.dictionaries(
        st.one_of(spot, edge),
        st.binary(min_size=1, max_size=4), max_size=4)).items()))
    context_addr = draw(st.one_of(
        spot, edge, st.integers(0, size // PAGE).map(lambda k: k * PAGE - 40)))
    context_size = draw(st.integers(0, 300))
    if draw(st.booleans()):
        for address in range(max(0, context_addr),
                             min(size, context_addr + context_size)):
            image[address] = address % 251 + 1
    fields = dict(
        regs=draw(st.lists(st.integers(0, 0xFFFFFFFF), min_size=1,
                           max_size=32)),
        fregs=draw(st.lists(st.floats(allow_nan=False), max_size=4)),
        cc_lt=draw(st.booleans()), cc_eq=draw(st.booleans()),
        cc_ltu=draw(st.booleans()),
        icount=draw(st.integers(0, 1 << 40)),
        pending_load=draw(st.none() | st.tuples(st.integers(0, 31),
                                                st.integers(0, 0xFFFFFFFF))),
        wrote_reg=draw(st.none() | st.integers(0, 31)))
    return (bytes(image), fields, planted,
            draw(st.sampled_from(["big", "little"])), context_addr,
            context_size)


class TestDigestEqualsTheDenseDigest:
    @settings(max_examples=150, deadline=None)
    @given(normalized_states())
    def test_state_digest(self, case):
        image, fields, planted, byteorder, context_addr, context_size = case
        state = MachineState("rmips", byteorder, len(image), pc=0,
                             segments=sparse_segments(image),
                             planted=sorted(planted.items()), **fields)
        assert state.digest(context_addr, context_size) == dense_digest(
            image=image, planted=planted, byteorder=byteorder,
            context_addr=context_addr, context_size=context_size, **fields)

    @settings(max_examples=150, deadline=None)
    @given(normalized_states())
    def test_live_digest(self, case):
        image, fields, planted, byteorder, context_addr, context_size = case
        mem = TargetMemory(len(image), byteorder)
        mem.bytes[:] = image
        cpu = SimpleNamespace(
            regs=fields["regs"], fregs=fields["fregs"],
            cc_lt=fields["cc_lt"], cc_eq=fields["cc_eq"],
            cc_ltu=fields["cc_ltu"], icount=fields["icount"],
            _pending_load=fields["pending_load"],
            _wrote_reg=fields["wrote_reg"])
        process = SimpleNamespace(cpu=cpu, mem=mem)
        assert live_digest(process, planted, context_addr, context_size) \
            == dense_digest(image=image, planted=planted,
                            byteorder=byteorder, context_addr=context_addr,
                            context_size=context_size, **fields)
        assert bytes(mem.bytes) == image  # the live image is only read

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3 * PAGE), st.data())
    def test_unordered_overlapping_segments(self, memsize, data):
        """Segments a file may hold in any order, overlapping: the
        later one wins, as when the image is rebuilt."""
        segments = data.draw(st.lists(
            st.integers(0, memsize - 1).flatmap(lambda start: st.tuples(
                st.just(start),
                st.binary(max_size=min(PAGE + 9, memsize - start)))),
            max_size=6))
        state = MachineState("rvax", "little", memsize, [1, 2], [], 0,
                             False, True, False, 7, None, None, segments, [])
        assert state.digest(100, 64) == dense_state_digest(state, 100, 64)

    def test_a_one_megabyte_image(self):
        image = bytearray(1 << 20)
        image[0x2000:0x2400] = bytes(range(256)) * 4
        image[0xFFF00:0xFFF10] = b"\xff" * 16
        state = MachineState("rmips", "big", len(image), [5] * 32, [1.5],
                             0x2000, False, False, True, 99, (3, 4), 2,
                             sparse_segments(image),
                             [(0x2010, b"\x0d\x00\x00\x00"),
                              (0x80000, b"\x01\x02")])
        context = (0x3000 - 20, 200)
        assert state.digest(*context) == dense_state_digest(state, *context)

    @pytest.mark.parametrize("byteorder", ["big", "little"])
    def test_context_and_traps_across_page_edges(self, byteorder):
        """Data on both sides of two page edges, a context area and a
        trap across the first, a trap across the second into a page
        that is otherwise zero."""
        image = bytearray(3 * PAGE + 100)
        image[PAGE - 300:PAGE + 300] = bytes(range(1, 201)) * 3
        image[2 * PAGE - 64:2 * PAGE] = b"\x07" * 64
        planted = {PAGE - 2: b"\x01\x02\x03\x04",
                   2 * PAGE - 1: b"\x09\x08", 3 * PAGE + 99: b"\x05\x06"}
        state = MachineState("rm68k", byteorder, len(image), [1] * 16,
                             [0.5] * 8, 0, True, False, False, 1234, None,
                             None, sparse_segments(image),
                             sorted(planted.items()))
        for context in ((PAGE - 40, 200), (PAGE - 400, 1000),
                        (2 * PAGE - 10, 20), (3 * PAGE + 50, 200)):
            assert state.digest(*context) == \
                dense_state_digest(state, *context), context

    def test_a_segment_outside_the_image_is_refused(self):
        state = MachineState("rmips", "big", PAGE, [0], [], 0, False, False,
                             False, 0, None, None, [(PAGE - 2, b"abc")], [])
        with pytest.raises(StateError, match="outside"):
            state.digest(0, 0)


BOOM = """int g;
int buf[64];
void poke(int *p) { *p = 42; }
int main(void) {
    int i;
    for (i = 0; i < 400; i++)
        buf[i & 63] = buf[i & 63] + i;
    g = buf[7];
    poke((int *)0x7fffffff);
    return 0;
}
"""

_EXES = {}


def boom_exe(arch):
    if arch not in _EXES:
        _EXES[arch] = compile_and_link({"boom.c": BOOM}, arch, debug=True)
    return _EXES[arch]


def write_artifacts(arch, directory):
    """Record a crash, save the recording and dump a core; the bytes of
    both files."""
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(boom_exe(arch))
    ldb.start_recording(target, interval=1_000)
    assert ldb.run_to_stop(target) == "stopped"
    assert target.signo == SIGSEGV
    recording = directory / "boom.ldbrec"
    ldb.record_save(str(recording), target)
    target.dump_core(str(directory / "boom.core"))
    ldb.close()
    return recording.read_bytes(), (directory / "boom.core").read_bytes()


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_artifacts_equal_those_of_the_dense_reference(arch, tmp_path,
                                                      monkeypatch):
    (tmp_path / "page").mkdir()
    (tmp_path / "dense").mkdir()
    written = write_artifacts(arch, tmp_path / "page")
    monkeypatch.setattr(machstate, "sparse_segments", regex_segments)
    monkeypatch.setattr(core, "sparse_segments", regex_segments)
    monkeypatch.setattr(MachineState, "digest", dense_state_digest)
    assert write_artifacts(arch, tmp_path / "dense") == written
    monkeypatch.undo()
    # the page-level live digest agrees with every stop the file holds
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.open_recording(str(tmp_path / "page" / "boom.ldbrec"))
    assert len(target.recording.spills) >= 3
    ldb.goto_icount(target.recording.meta.base_icount, target)
    assert ldb.run_to_stop(target) == "stopped"
    assert target.signo == SIGSEGV
    metrics = ldb.obs.metrics.snapshot()
    assert metrics.get("trace.replay.checks", 0) >= 2
    assert metrics.get("trace.replay.divergences", 0) == 0
    ldb.close()
