"""Stack-frame tests: walking, register restore, scope resolution."""

import pytest

from .helpers import session

RECURSIVE = """int depth_reached = 0;
int dig(int level) {
    int here = level * 10;
    if (level == 3) {
        depth_reached = 1;
        return here;       /* break here: 4 dig frames + main */
    }
    return dig(level + 1) + here;
}
int main(void) { return dig(0) & 0xff; }
"""

ALL_ARCHES = ["rmips", "rmipsel", "rsparc", "rm68k", "rvax"]


@pytest.fixture(params=ALL_ARCHES)
def arch(request):
    return request.param


class TestWalking:
    def stopped_deep(self, arch):
        ldb, target = session(RECURSIVE, arch, filename="dig.c")
        ldb.break_at_line("dig.c", 5)   # depth_reached = 1
        ldb.run_to_stop()
        return ldb, target

    def test_backtrace_depth(self, arch):
        ldb, target = self.stopped_deep(arch)
        frames = target.frames()
        names = [f.proc_name() for f in frames]
        assert names == ["dig", "dig", "dig", "dig", "main"]

    def test_walk_terminates(self, arch):
        ldb, target = self.stopped_deep(arch)
        frames = target.frames(limit=64)
        assert len(frames) == 5  # never walks into startup code

    def test_params_per_frame(self, arch):
        """Each activation sees its own `level` — frame memories differ."""
        ldb, target = self.stopped_deep(arch)
        frames = target.frames()
        levels = []
        for frame in frames[:4]:
            entry = frame.resolve("level")
            levels.append(ldb.evaluate("level", frame=frame))
        assert levels == [3, 2, 1, 0]

    def test_locals_per_frame(self, arch):
        ldb, target = self.stopped_deep(arch)
        frames = target.frames()
        heres = [ldb.evaluate("here", frame=f) for f in frames[:4]]
        assert heres == [30, 20, 10, 0]

    def test_globals_visible_from_any_frame(self, arch):
        ldb, target = self.stopped_deep(arch)
        frames = target.frames()
        for frame in frames:
            assert frame.resolve("depth_reached") is not None

    def test_frame_levels(self, arch):
        ldb, target = self.stopped_deep(arch)
        assert [f.level for f in target.frames()] == [0, 1, 2, 3, 4]


class TestScopeResolution:
    def test_stopping_point_context(self, arch):
        """Name resolution is determined by the stopping point (Sec. 2)."""
        ldb, target = session(arch=arch)
        ldb.break_at_stop("fib", 9)    # inside the j loop
        ldb.run_to_stop()
        frame = target.top_frame()
        assert frame.resolve("j") is not None
        assert frame.resolve("a") is not None
        assert frame.resolve("n") is not None
        assert frame.resolve("i") is None     # the other block's local
        assert frame.resolve("fib") is not None  # via externs

    def test_visible_names(self, arch):
        ldb, target = session(arch=arch)
        ldb.break_at_stop("fib", 9)
        ldb.run_to_stop()
        names = target.top_frame().visible_names()
        assert names[:3] == ["j", "a", "n"]

    def test_entry_scope_has_only_params(self, arch):
        ldb, target = session(arch=arch)
        ldb.break_at_function("fib")
        ldb.run_to_stop()
        frame = target.top_frame()
        assert frame.resolve("n") is not None
        assert frame.resolve("j") is None


class TestRegisterAccess:
    def test_read_sp_register(self, arch):
        ldb, target = session(arch=arch)
        ldb.break_at_function("fib")
        ldb.run_to_stop()
        frame = target.top_frame()
        sp = frame.read_reg(target.machdep.sp_reg)
        assert 0 < sp <= target.process.exe.stack_top

    def test_write_register_via_frame(self, arch):
        """Stores flow through alias to the context (Sec. 4.1)."""
        ldb, target = session(arch=arch)
        ldb.break_at_function("fib")
        ldb.run_to_stop()
        frame = target.top_frame()
        frame.write_reg(2, 0x1234)
        assert frame.read_reg(2) == 0x1234
        # and the value really lives in target memory (the context)
        ctx = target.context_addr
        raw = target.process.mem.read_u32(ctx + 4 + 4 * 2)
        assert raw == 0x1234


class TestCalleeSavedRestore:
    def test_register_variable_read_from_caller_frame(self):
        """Walking restores callee-saved registers from the stack: a
        register variable in a calling frame must show its saved value,
        not the callee's current register contents (Sec. 4.1)."""
        source = """
        int leaf(int x) {
            int burn1 = x + 1, burn2 = x + 2, burn3 = x + 3;
            int burn4 = x + 4, burn5 = x + 5, burn6 = x + 6;
            return burn1 * burn2 * burn3 * burn4 * burn5 * burn6;  /* stop */
        }
        int main(void) {
            int keep = 777;
            int r = leaf(1);
            return (keep + r) & 0xff;
        }
        """
        for arch in ("rmips", "rm68k"):   # the register-variable targets
            ldb, target = session(source, arch, filename="leaf.c")
            ldb.break_at_line("leaf.c", 5)
            ldb.run_to_stop()
            frames = target.frames()
            assert frames[1].proc_name() == "main"
            assert ldb.evaluate("keep", frame=frames[1]) == 777, arch
