"""The ExecutionEngine API and the block/step equivalence property.

The block engine's whole contract is that its architectural state is
byte-identical to the reference step engine: same stops, same
registers, same memory, same faults, same icount — including across
mid-run icount stops, breakpoint plants into decoded code, and
self-modifying stores.  These tests enforce that contract on every
target architecture.
"""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cc.driver import compile_and_link
from repro.machines import (
    BlockEngine,
    ENGINE_ENV,
    ExitEvent,
    FaultEvent,
    IcountStopEvent,
    Process,
    SIGTRAP,
    StepEngine,
    StopSpec,
    engine_names,
    get_arch,
    make_engine,
)
from repro.machines.isa import Insn, Label

from ..cc.helpers import ALL_ARCHES
from .helpers import build

# -- the equivalence harness --------------------------------------------------


def _snap(process, event):
    """Everything architecturally observable after one stop."""
    cpu = process.cpu
    return {
        "event": type(event).__name__,
        "signo": getattr(event, "signo", None),
        "code": getattr(event, "code", None),
        "event_pc": getattr(event, "pc", None),
        "status": getattr(event, "status", None),
        "pc": cpu.pc,
        "icount": cpu.icount,
        "regs": list(cpu.regs),
        "fregs": list(cpu.fregs),
        "cc": (cpu.cc_lt, cpu.cc_eq, cpu.cc_ltu),
        "pending_load": cpu._pending_load,
        "wrote_reg": cpu._wrote_reg,
        "mem": bytes(process.mem.bytes),
    }


def _run_trace(exe, engine, splits=(), hook=None, snapshot_at=()):
    """Run to completion under one engine, stopping at each icount in
    ``splits`` and snapshotting; returns the list of snapshots.

    At each icount in ``snapshot_at`` it takes a live
    ``Process.snapshot()`` as well, and the list then ends with what
    each of those captured and the memory after restoring each one,
    newest first."""
    process = Process(exe, engine=engine)
    event = process.run_until_event()
    assert isinstance(event, FaultEvent) and event.signo == SIGTRAP
    process.cpu.pc = event.pc + exe.arch.noop_advance
    snaps = []
    live = []
    for at in sorted(set(splits) | set(snapshot_at)):
        event = process.run_until_event(stop_at_icount=at)
        if at in snapshot_at:
            live.append(process.snapshot())
        if at in splits:
            if hook is not None:
                hook(process, event)
            snaps.append(_snap(process, event))
        if isinstance(event, ExitEvent):
            break
    else:
        event = process.run_until_event()
        snaps.append(_snap(process, event))
    if live:
        captured = [dict(snap.mem.pages) for snap in live]
        restored = []
        for snap in reversed(live):
            process.restore(snap)
            restored.append(bytes(process.mem.bytes))
        snaps.append({"pages": captured, "restored": restored})
    return snaps


def assert_equivalent(exe, splits=(), hook=None, snapshot_at=()):
    stepped = _run_trace(exe, "step", splits, hook, snapshot_at)
    blocked = _run_trace(exe, "block", splits, hook, snapshot_at)
    assert len(stepped) == len(blocked)
    for index, (a, b) in enumerate(zip(stepped, blocked)):
        for key in a:
            assert a[key] == b[key], \
                "stop %d: %s differs between engines" % (index, key)
    return stepped


# -- deterministic equivalence on every ISA ----------------------------------

_WORKLOAD = """
int buf[16];
int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int main(void) {
    int i, s = 0;
    for (i = 0; i < 40; i++) {
        s += i * 3 - (s >> 2);
        buf[i & 15] = s;
    }
    s += fib(8);
    printf("%d\\n", s);
    return s & 0xff;
}
"""


class TestEquivalenceAllArches:
    @pytest.mark.parametrize("arch", ALL_ARCHES)
    def test_full_run_and_mid_run_stops(self, arch):
        exe = compile_and_link({"t.c": _WORKLOAD}, arch, debug=True)
        # split points land mid-loop and mid-recursion
        assert_equivalent(exe, splits=(50, 137, 800))

    @pytest.mark.parametrize("arch", ALL_ARCHES)
    def test_fault_is_identical(self, arch):
        source = "int main(void) { return *(int *)0xEE0000; }\n"
        exe = compile_and_link({"t.c": source}, arch, debug=True)
        snaps = assert_equivalent(exe)
        assert snaps[-1]["event"] == "FaultEvent"

    @pytest.mark.parametrize("arch", ALL_ARCHES)
    def test_breakpoint_plant_and_unplant_mid_run(self, arch):
        exe = compile_and_link({"t.c": _WORKLOAD}, arch, debug=True)
        target = exe.symbols["_fib"]
        machine = get_arch(arch)

        def make_hook():
            state = {"phase": 0}

            def hook(process, event):
                if state["phase"] == 0:
                    # mid-loop stop: plant a breakpoint on fib — a
                    # write into code the block engine may already
                    # have decoded
                    state["saved"] = bytes(process.mem.read_bytes(
                        target, len(machine.break_bytes)))
                    process.mem.write_bytes(target, machine.break_bytes)
                    state["phase"] = 1
                elif state["phase"] == 1:
                    # the trap fired: unplant and re-run the original
                    # instruction, exactly like the nub's CONT path
                    assert getattr(event, "signo", None) == SIGTRAP
                    process.mem.write_bytes(target, state["saved"])
                    process.cpu.pc = target
                    state["phase"] = 2

            return hook

        splits = (60, 10_000_000)
        stepped = _run_trace(exe, "step", splits, make_hook())
        blocked = _run_trace(exe, "block", splits, make_hook())
        assert len(stepped) == len(blocked)
        assert stepped[1]["signo"] == SIGTRAP  # the plant was actually hit
        for index, (a, b) in enumerate(zip(stepped, blocked)):
            for key in a:
                assert a[key] == b[key], \
                    "stop %d: %s differs between engines" % (index, key)


# -- the fused block: bookkeeping inside one generated function ---------------

# twelve lines of branch-free arithmetic: main's body decodes into blocks
# of MAX_BLOCK instructions and more on every ISA
_STRAIGHT = """int g;
int main(void) {
    int a = 11, b = 40000;
%s
    g = a + b;
    return g & 0xff;
}
""" % "\n".join("    a = (a + %d) ^ (b >> %d); b = b - (a & %d);"
                % (i * 7 + 1, i % 5 + 1, 255 - i) for i in range(12))


def _run_hand_built(exe, engine):
    """Run a hand-assembled program (no entry pause) to its first event."""
    process = Process(exe, engine=engine)
    event = process.run_until_event()
    return process, _snap(process, event)


class TestFusedBlocks:
    @pytest.mark.parametrize("between,r8", [
        ([], 1234),                             # the store is the delay slot
        ([Insn("addi", rd=11, rs=0, imm=0),     # the delay slot lands r8,
          Insn("addi", rd=8, rs=8, imm=1)],     # which then moves on
         1235),
    ])
    def test_load_then_faulting_store_matches_step(self, between, r8):
        """A fault inside a block still retires the faulting store and
        lands the load in its delay slot, as Cpu.step's finally does —
        and only that load."""
        text = [
            Label("__start"),
            Insn("addi", rd=9, rs=0, imm=1234),
            Insn("sw", rd=9, rs=29, imm=-8),
            Insn("lui", rd=10, imm=0x7FFF),         # far outside memory
            Insn("lw", rd=8, rs=29, imm=-8),
        ] + between + [
            Insn("sw", rd=8, rs=10, imm=0),         # faults
            Insn("addi", rd=4, rs=0, imm=0),
            Insn("syscall", imm=1),
        ]
        exe = build("rmips", text)
        _, step_state = _run_hand_built(exe, "step")
        blocked, block_state = _run_hand_built(exe, "block")
        assert block_state == step_state
        assert block_state["event"] == "FaultEvent"
        assert block_state["icount"] == 5 + len(between)  # the store retired
        assert block_state["regs"][8] == r8
        assert block_state["pending_load"] is None
        assert blocked.cpu.engine.stats.compiled == 1  # one fused block

    def test_load_before_the_block_end_commits_after_it(self):
        """The last instruction of a block lands the load before it,
        whether the load shares its block or a stop split them."""
        text = [
            Label("__start"),
            Insn("addi", rd=9, rs=0, imm=55),
            Insn("sw", rd=9, rs=29, imm=-4),
            Insn("lw", rd=4, rs=29, imm=-4),
            Insn("beq", rd=0, rs=0, imm=0),         # taken: the next insn
            Insn("syscall", imm=1),                 # exit(r4)
        ]
        exe = build("rmips", text)
        for split in (None, 3):
            states = []
            for engine in ("step", "block"):
                process = Process(exe, engine=engine)
                if split is not None:
                    process.run_until_event(stop_at_icount=split)
                states.append(_snap(process, process.run_until_event()))
            assert states[1] == states[0]
            assert states[1]["status"] == 55

    def test_max_block_with_a_load_in_its_last_slot(self):
        """A block of exactly MAX_BLOCK instructions whose last one is a
        load: the commit lands inside the next block, after its first
        instruction has read the old register value."""
        fill = BlockEngine.MAX_BLOCK - 3
        text = [
            Label("__start"),
            Insn("addi", rd=9, rs=0, imm=77),
            Insn("sw", rd=9, rs=29, imm=-4),
        ] + [Insn("addi", rd=8, rs=8, imm=1)] * fill + [
            Insn("lw", rd=10, rs=29, imm=-4),       # the block's last slot
            Insn("add", rd=4, rs=10, rt=0),         # delay slot: old r10
            Insn("add", rd=4, rs=4, rt=10),         # now 0 + 77
            Insn("syscall", imm=1),
        ]
        exe = build("rmips", text)
        _, step_state = _run_hand_built(exe, "step")
        blocked, block_state = _run_hand_built(exe, "block")
        assert block_state == step_state
        assert block_state["status"] == 77
        assert block_state["regs"][8] == fill
        first = blocked.cpu.engine._blocks[exe.entry]
        assert first.length == BlockEngine.MAX_BLOCK

    @pytest.mark.parametrize("arch", ALL_ARCHES)
    def test_stop_inside_a_long_block(self, arch):
        exe = compile_and_link({"t.c": _STRAIGHT}, arch, debug=True)
        process = Process(exe, engine="block")
        event = process.run_until_event()
        process.cpu.pc = event.pc + exe.arch.noop_advance
        process.run_until_event()
        start, block = max(process.cpu.engine._blocks.items(),
                           key=lambda item: item[1].length)
        assert block.length >= 64
        # the icount at which that block begins, by the reference
        probe = Process(exe, engine="step")
        event = probe.run_until_event()
        probe.cpu.pc = event.pc + exe.arch.noop_advance
        while probe.cpu.pc != start:
            probe.cpu.step()
        begin = probe.cpu.icount
        splits = (begin + 1, begin + 2, begin + block.length // 2,
                  begin + block.length - 1)
        snaps = assert_equivalent(exe, splits=splits)
        assert [s["icount"] for s in snaps[:-1]] == list(splits)
        assert snaps[-1]["event"] == "ExitEvent"


# -- hypothesis: random programs, random split points ------------------------


def _expr(depth):
    if depth <= 0:
        return st.one_of(st.integers(-50, 50).map(str),
                         st.sampled_from(["i", "s"]))
    smaller = _expr(depth - 1)
    return st.one_of(
        smaller,
        st.tuples(st.sampled_from(["+", "-", "*", "&", "|", "^"]),
                  smaller, smaller).map(
                      lambda t: "(%s %s %s)" % (t[1], t[0], t[2])),
        st.tuples(smaller, st.integers(1, 30)).map(
            lambda t: "(%s / %d)" % t),
        st.tuples(smaller, st.integers(0, 7)).map(
            lambda t: "(%s >> %d)" % t),
    )


def _program(expression, iterations):
    return """
    int buf[8];
    int main(void) {
        int i, s = 7;
        for (i = 0; i < %d; i++) {
            s += %s;
            buf[i & 7] = s;
        }
        printf("%%d\\n", s);
        return s & 0xff;
    }
    """ % (iterations, expression)


class TestEquivalenceProperty:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(arch=st.sampled_from(ALL_ARCHES),
           expression=_expr(2),
           iterations=st.integers(1, 30),
           split=st.integers(1, 2000),
           snapshot_at=st.lists(st.integers(1, 2000), max_size=3))
    def test_block_equals_step(self, arch, expression, iterations, split,
                               snapshot_at):
        """Live snapshots make every store capture its page first: the
        pages each one captured, and the memory each restores, match
        too."""
        exe = compile_and_link({"t.c": _program(expression, iterations)},
                               arch, debug=True)
        assert_equivalent(exe, splits=(split,), snapshot_at=snapshot_at)


# -- self-modifying code: a guest store into decoded code --------------------


class TestSelfModifyingCode:
    def _program(self):
        """rmips: a store overwrites an instruction *later in the same
        basic block*, so the block engine has already decoded (and is
        mid-dispatch through) the stale bytes when the store retires."""
        arch = get_arch("rmips")
        replacement = arch.encode(Insn("addi", rd=4, rs=0, imm=99))
        word = int.from_bytes(replacement, arch.byteorder)
        text = [
            Label("__start"),
            Insn("lui", rd=8, imm=0),               # r8 = patchee (pass 2)
            Insn("ori", rd=8, rs=8, imm=0),
            Insn("lui", rd=9, imm=(word >> 16) & 0xFFFF),
            Insn("ori", rd=9, rs=9, imm=word & 0xFFFF),
            Insn("sw", rd=9, rs=8, imm=0),          # patch the code
            Label("patchee"),
            Insn("addi", rd=4, rs=0, imm=1),        # stale: exit(1)
            Insn("syscall", imm=1),
        ]
        exe = build("rmips", text)
        # second pass: now that the layout is known, point r8 at patchee
        patchee = exe.entry + 5 * 4
        text[1] = Insn("lui", rd=8, imm=(patchee >> 16) & 0xFFFF)
        text[2] = Insn("ori", rd=8, rs=8, imm=patchee & 0xFFFF)
        return build("rmips", text)

    def _run(self, engine):
        process = Process(self._program(), engine=engine)
        event = process.run_until_event()
        if isinstance(event, FaultEvent) and event.signo == SIGTRAP:
            process.cpu.pc = event.pc + process.exe.arch.noop_advance
            event = process.run_until_event()
        return process, event

    def test_patched_instruction_takes_effect(self):
        process, event = self._run("block")
        assert isinstance(event, ExitEvent)
        assert event.status == 99  # stale bytes would exit(1)

    def test_matches_step_engine(self):
        _, blocked = self._run("block")
        _, stepped = self._run("step")
        assert isinstance(blocked, ExitEvent) and isinstance(stepped, ExitEvent)
        assert blocked.status == stepped.status == 99

    def test_invalidation_is_counted(self):
        process, _ = self._run("block")
        engine = process.cpu.engine
        assert engine.stats.invalidated >= 1
        assert engine.generation >= 1


class TestHostWriteInvalidation:
    def test_poke_into_code_drops_blocks(self):
        exe = compile_and_link({"t.c": _WORKLOAD}, "rmips", debug=True)
        process = Process(exe, engine="block")
        event = process.run_until_event()
        process.cpu.pc = event.pc + exe.arch.noop_advance
        process.run_until_event(stop_at_icount=process.cpu.icount + 40)
        engine = process.cpu.engine
        assert engine.stats.compiled > 0
        before = engine.generation
        # a debugger POKE into decoded code must drop the cache (the
        # current pc is certainly inside a decoded block) ...
        target = process.cpu.pc
        original = bytes(process.mem.read_bytes(target, 4))
        process.mem.write_bytes(target, original)  # same bytes still count
        assert engine.generation == before + 1
        assert engine.stats.invalidated >= 1
        # ... and a write nowhere near code must not
        after = engine.generation
        process.mem.write_bytes(process.cpu.regs[29] - 64, b"\x00" * 4)
        assert engine.generation == after


class TestCodeMarks:
    """The code-mark map grows only up to the highest decoded byte."""

    def _started(self, arch):
        exe = compile_and_link({"t.c": _WORKLOAD}, arch, debug=True)
        process = Process(exe, engine="block")
        event = process.run_until_event()
        process.cpu.pc = event.pc + exe.arch.noop_advance
        process.run_until_event(stop_at_icount=process.cpu.icount + 200)
        return process, process.cpu.engine

    @pytest.mark.parametrize("arch", ALL_ARCHES)
    def test_map_ends_at_the_decoded_code(self, arch):
        process, engine = self._started(arch)
        marks = engine._code_marks
        assert engine.generation == 0 and engine.stats.compiled > 0
        assert len(marks) == engine._marks_hi < process.mem.size
        assert marks[-1] == 1
        # a store just past the map invalidates nothing
        end = len(marks)
        process.mem.write_bytes(end, bytes(process.mem.read_bytes(end, 4)))
        assert engine.generation == 0 and len(engine._code_marks) == end

    @pytest.mark.parametrize("arch", ALL_ARCHES)
    def test_store_and_restore_over_code_invalidate(self, arch):
        process, engine = self._started(arch)
        mem = process.mem
        pc = process.cpu.pc
        snap = mem.snapshot()
        mem.write_bytes(pc, bytes(mem.read_bytes(pc, 1)))
        assert engine.generation == 1
        # decode the block at pc again, then rewind its page: the
        # restore's write lands on decoded code
        process.run_until_event(stop_at_icount=process.cpu.icount + 1)
        assert engine._code_marks[pc] == 1
        mem.restore(snap)
        assert engine.generation == 2
        mem.release(snap)


# -- the engine-selection API -------------------------------------------------


class TestEngineSelection:
    def _cpu(self, engine=None):
        exe = build("rmips", [Label("__start"), Insn("syscall", imm=1)])
        return Process(exe, engine=engine).cpu

    def test_names(self):
        assert sorted(engine_names()) == ["block", "step"]

    def test_default_is_block(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert self._cpu().engine.name == "block"

    def test_by_name(self):
        assert isinstance(self._cpu("step").engine, StepEngine)
        assert isinstance(self._cpu("block").engine, BlockEngine)

    def test_by_class_and_instance(self):
        assert isinstance(self._cpu(StepEngine).engine, StepEngine)
        assert isinstance(self._cpu(BlockEngine).engine, BlockEngine)
        engine = StepEngine()
        assert self._cpu(engine).engine is engine

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "step")
        assert isinstance(self._cpu().engine, StepEngine)
        monkeypatch.setenv(ENGINE_ENV, "block")
        assert isinstance(self._cpu().engine, BlockEngine)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "step")
        assert isinstance(self._cpu("block").engine, BlockEngine)

    def test_unknown_name_is_an_error(self):
        with pytest.raises(ValueError):
            make_engine("jit", None)
        with pytest.raises(TypeError):
            make_engine(42, None)

    def test_describe_identifies_engine(self):
        cpu = self._cpu("block")
        info = cpu.engine.describe()
        assert "blocks_compiled" in info and "generation" in info
        assert "blocks_cached" not in self._cpu("step").engine.describe()


class TestStopSpec:
    def test_defaults(self):
        spec = StopSpec()
        assert spec.max_steps > 0 and spec.stop_at_icount is None

    def test_keywords(self):
        spec = StopSpec(max_steps=10, stop_at_icount=99)
        assert spec.max_steps == 10 and spec.stop_at_icount == 99

    def test_validation(self):
        with pytest.raises(ValueError):
            StopSpec(max_steps=-1)
        with pytest.raises(ValueError):
            StopSpec(stop_at_icount=-1)

    def test_run_is_keyword_only(self):
        exe = build("rmips", [Label("__start"), Insn("syscall", imm=1)])
        cpu = Process(exe).cpu
        with pytest.raises(TypeError):
            cpu.run(100)  # positional max_steps retired with the redesign
