"""Full debug-session integration tests across the whole stack."""

import io

import pytest

from repro.cc.driver import compile_and_link, loader_table_ps
from repro.ldb import Ldb
from repro.ldb.exprserver import EvalError

from ..ldb.helpers import FIB, run_to_exit, session

ALL_ARCHES = ["rmips", "rmipsel", "rsparc", "rm68k", "rvax"]


@pytest.fixture(params=ALL_ARCHES)
def arch(request):
    return request.param


class TestFullSession:
    """The paper's user workflow: breakpoints, inspection, assignment,
    resumption — identical code on all five targets."""

    def test_complete_workflow(self, arch):
        ldb, target = session(arch=arch)
        ldb.break_at_stop("fib", 9)
        ldb.run_to_stop()
        # print i (wait: j loop) and the array through the DAG
        assert ldb.evaluate("j") == 0
        assert ldb.print_variable("a").startswith("{1, 1, 2, 3, 5")
        assert ldb.evaluate("n") == 10
        # backtrace
        names = [f.proc_name() for f in target.frames()]
        assert names == ["fib", "main"]
        # assignment changes behavior: shorten the print loop
        ldb.evaluate("n = 4")
        target.breakpoints.remove_all()
        assert run_to_exit(ldb, target) == "exited"
        assert target.process.output() == "1 1 2 3 \n"

    def test_two_line_program(self, arch):
        """The one-line hello world of the paper's timing table."""
        source = 'int main(void) { printf("hello, world\\n"); return 0; }'
        ldb, target = session(source, arch, filename="hello.c")
        assert run_to_exit(ldb, target) == "exited"
        assert target.process.output() == "hello, world\n"

    def test_fault_reported_with_position(self, arch):
        source = """
        int crash(int d) { return 10 / d; }
        int main(void) { return crash(0); }
        """
        ldb, target = session(source, arch, filename="crash.c")
        state = ldb.run_to_stop()
        assert state == "stopped"
        from repro.machines import SIGFPE
        assert target.signo == SIGFPE
        frame = target.top_frame()
        assert frame.proc_name() == "crash"
        # the caller is visible in the backtrace even after a fault
        assert [f.proc_name() for f in target.frames()] == ["crash", "main"]


class TestCrossArchitecture:
    """Sec. 1: cross-architecture debugging is identical to
    single-architecture debugging, and ldb can change architectures
    dynamically."""

    def test_two_targets_different_architectures(self):
        out = io.StringIO()
        ldb = Ldb(stdout=out)
        exe_big = compile_and_link({"fib.c": FIB}, "rmips", debug=True)
        exe_cisc = compile_and_link({"fib.c": FIB}, "rvax", debug=True)
        t_big = ldb.load_program(exe_big)
        t_cisc = ldb.load_program(exe_cisc)
        assert t_big.arch_name == "rmips"
        assert t_cisc.arch_name == "rvax"
        # drive both with the same client code
        for target in (t_big, t_cisc):
            ldb.switch_target(target.name)
            ldb.break_at_stop("fib", 9, target=target)
            ldb.run_to_stop(target=target)
            assert ldb.evaluate("a[4]", target=target,
                                frame=target.top_frame()) == 5
            assert ldb.print_variable("n", target=target).strip() == "10"

    def test_same_debugger_both_byte_orders(self):
        """The register memory makes byte order irrelevant (Sec. 4.1)."""
        out = io.StringIO()
        ldb = Ldb(stdout=out)
        values = {}
        for arch in ("rmips", "rmipsel"):
            exe = compile_and_link({"fib.c": FIB}, arch, debug=True)
            target = ldb.load_program(exe)
            ldb.break_at_stop("fib", 7, target=target)
            ldb.run_to_stop(target=target)
            values[arch] = (
                ldb.evaluate("i", target=target, frame=target.top_frame()),
                ldb.print_variable("a", target=target))
        assert values["rmips"] == values["rmipsel"]

    def test_same_architecture_tables_keep_their_own_names(self,
                                                           monkeypatch):
        """Symbol ids restart in every compilation (as they do in
        another compiler process), so each loader table's /S and /T
        names live in a dictionary of its own: reading a second
        same-architecture table must not rebind the first's."""
        from repro.cc.symtab import CSymbol

        first = "int main() {\n  int x = 3;\n  x = x + 1;\n  return x;\n}\n"
        second = ("int sq(int v) {\n  int w = v * v;\n  return w;\n}\n"
                  "int main() {\n  int q = 5;\n  q = sq(q);\n  return 0;\n}\n")
        exes = []
        for name, source in (("a.c", first), ("b.c", second)):
            monkeypatch.setattr(CSymbol, "_next_uid", [1])
            exes.append(compile_and_link({name: source}, "rmips"))
        ldb = Ldb(stdout=io.StringIO())
        target = ldb.load_program(exes[0])
        ldb.load_program(exes[1])
        ldb.break_at_line("a.c", 3, target)
        assert ldb.run_to_stop(target) == "stopped"
        assert ldb.print_variable("x", target=target).strip() == "3"
        assert ldb.evaluate("x", target=target,
                            frame=target.top_frame()) == 3
        ldb.close()

    def test_same_architecture_targets_keep_their_own_types(self):
        """The expression server learns struct layouts from the target
        it evaluates on; another target of the same machine, with its
        own ``struct S``, must not be answered with them."""
        sources = {
            "a.c": "struct S { int a; int b; };\nstruct S s;\n"
                   "int main() {\n  s.a = 1; s.b = 2;\n  return s.b;\n}\n",
            "b.c": "struct S { char c; int pad[3]; int b; };\nstruct S s;\n"
                   "int main() {\n  s.c = 1; s.b = 3;\n  return s.b;\n}\n",
        }
        ldb = Ldb(stdout=io.StringIO())
        targets = []
        for name, source in sources.items():
            target = ldb.load_program(
                compile_and_link({name: source}, "rmips", debug=True))
            ldb.break_at_line(name, 5, target)
            assert ldb.run_to_stop(target) == "stopped"
            targets.append(target)
        first, second = targets
        for target, b, size in ((first, 2, 8), (second, 3, 20),
                                (first, 2, 8)):
            frame = target.top_frame()
            assert ldb.evaluate("s.b", target=target, frame=frame) == b
            assert ldb.evaluate("sizeof(s)", target=target,
                                frame=frame) == size
        ldb.close()

    def test_interleaved_multi_target_session(self):
        """Multiple targets at once: no target state in globals (Sec. 7)."""
        out = io.StringIO()
        ldb = Ldb(stdout=out)
        targets = []
        for arch in ("rsparc", "rm68k"):
            exe = compile_and_link({"fib.c": FIB}, arch, debug=True)
            targets.append(ldb.load_program(exe))
        # advance them alternately to different stopping points
        ldb.break_at_stop("fib", 6, target=targets[0])
        ldb.break_at_stop("fib", 9, target=targets[1])
        ldb.run_to_stop(target=targets[0])
        ldb.run_to_stop(target=targets[1])
        assert ldb.evaluate("i", target=targets[0],
                            frame=targets[0].top_frame()) == 2
        assert ldb.evaluate("j", target=targets[1],
                            frame=targets[1].top_frame()) == 0
        # both continue to completion independently
        for target in targets:
            target.breakpoints.remove_all()
            assert run_to_exit(ldb, target) == "exited"
            assert target.process.output() == "1 1 2 3 5 8 13 21 34 55 \n"


class TestNetworkDebugging:
    """Sec. 4.2: debugging over the network, and surviving crashes."""

    def test_attach_over_tcp(self):
        from repro.machines import Process
        from repro.nub import Listener, Nub, NubRunner

        exe = compile_and_link({"fib.c": FIB}, "rmips", debug=True)
        table_ps = loader_table_ps(exe)
        listener = Listener()
        process = Process(exe)
        nub = Nub(process, listener=listener, accept_timeout=15.0)
        runner = NubRunner(nub).start()

        ldb = Ldb(stdout=io.StringIO())
        target = ldb.attach("127.0.0.1", listener.port, table_ps)
        assert target.state == "stopped"
        ldb.break_at_stop("fib", 9)
        ldb.run_to_stop()
        assert ldb.evaluate("a[5]") == 8
        target.breakpoints.remove_all()
        for _ in range(50):
            if ldb.run_to_stop() != "stopped":
                break
        assert target.state == "exited"
        runner.join()
        listener.close()

    def test_new_debugger_adopts_target_after_crash(self):
        """A second ldb instance picks up where a crashed one left off."""
        from repro.machines import Process
        from repro.nub import Listener, Nub, NubRunner

        exe = compile_and_link({"fib.c": FIB}, "rmips", debug=True)
        table_ps = loader_table_ps(exe)
        listener = Listener()
        process = Process(exe)
        nub = Nub(process, listener=listener, accept_timeout=15.0)
        runner = NubRunner(nub).start()

        first = Ldb(stdout=io.StringIO())
        t1 = first.attach("127.0.0.1", listener.port, table_ps)
        planted = first.break_at_stop("fib", 9, target=t1)
        # the first debugger "crashes": its socket just dies
        t1.channel.sock.close()

        second = Ldb(stdout=io.StringIO())
        t2 = second.attach("127.0.0.1", listener.port, table_ps)
        assert t2.state == "stopped"
        # attaching adopts the crashed debugger's trap from the nub's
        # table (Sec. 7.1), before anything runs
        adopted = t2.breakpoints.at(planted)
        assert adopted is not None and adopted.note == "adopted"
        second.run_to_stop(target=t2)          # proceeds to the breakpoint
        assert t2.stop_pc() == planted
        assert second.evaluate("a[4]", target=t2,
                               frame=t2.top_frame()) == 5
        # each continue resumes past the known trap: every later hit is
        # further along, and the run reaches its exit
        icounts = [t2.current_icount()]
        for _ in range(50):
            if second.run_to_stop(target=t2) != "stopped":
                break
            assert t2.stop_pc() == planted
            icounts.append(t2.current_icount())
        assert t2.state == "exited"
        assert icounts == sorted(set(icounts)) and len(icounts) > 2
        assert process.output() == "1 1 2 3 5 8 13 21 34 55 \n"
        runner.join()
        listener.close()

    def test_detach_then_reattach(self):
        from repro.machines import Process
        from repro.nub import Listener, Nub, NubRunner

        exe = compile_and_link({"fib.c": FIB}, "rsparc", debug=True)
        table_ps = loader_table_ps(exe)
        listener = Listener()
        process = Process(exe)
        nub = Nub(process, listener=listener, accept_timeout=15.0)
        runner = NubRunner(nub).start()

        ldb = Ldb(stdout=io.StringIO())
        t1 = ldb.attach("127.0.0.1", listener.port, table_ps)
        t1.detach()
        assert t1.state == "disconnected"
        t2 = ldb.attach("127.0.0.1", listener.port, table_ps)
        assert t2.state == "stopped"
        for _ in range(50):
            if ldb.run_to_stop(target=t2) != "stopped":
                break
        assert t2.state == "exited"
        runner.join()
        listener.close()


class TestMultiUnit:
    def test_one_tag_two_definitions(self):
        """Two compilation units define ``struct S`` differently: each
        lookup puts its own unit's definition back in force, and one
        expression that needs both is refused, naming the tag."""
        sources = {
            "a.c": "struct S { int a; int b; };\nstruct S s1;\n"
                   "extern int touch(void);\n"
                   "int main() {\n  s1.a = 1; s1.b = 2;\n"
                   "  return touch();\n}\n",
            "b.c": "struct S { char c; int pad[3]; int b; };\n"
                   "struct S s2;\n"
                   "int touch() {\n  s2.c = 1; s2.b = 3;\n"
                   "  return s2.b;\n}\n",
        }
        ldb = Ldb(stdout=io.StringIO())
        target = ldb.load_program(
            compile_and_link(sources, "rmips", debug=True))
        ldb.break_at_line("b.c", 5, target)
        assert ldb.run_to_stop(target) == "stopped"

        def answer(text):
            return ldb.evaluate(text, target=target,
                                frame=target.top_frame())

        assert [answer(text) for text in (
            "s1.b", "s2.b", "s1.b", "sizeof(s1)", "sizeof(s2)")] \
            == [2, 3, 2, 8, 20]
        try:
            both = answer("s1.b + s2.b")
        except EvalError as err:
            assert "struct S" in str(err)
        else:
            assert both == 5
        assert answer("s2.b") == 3 and answer("s1.b") == 2
        ldb.close()

    def test_two_compilation_units(self, arch):
        main_src = """
        extern int helper(int x);
        int main(void) {
            printf("%d\\n", helper(5));
            return 0;
        }
        """
        helper_src = """
        int table[4] = {10, 20, 30, 40};
        int helper(int x) {
            return table[x & 3] + x;    /* line 3 */
        }
        """
        exe = compile_and_link({"main.c": main_src, "helper.c": helper_src},
                               arch, debug=True)
        ldb = Ldb(stdout=io.StringIO())
        target = ldb.load_program(exe)
        ldb.break_at_line("helper.c", 3)
        ldb.run_to_stop()
        assert ldb.evaluate("x") == 5
        assert ldb.evaluate("table[1]") == 20
        assert [f.proc_name() for f in target.frames()] == ["helper", "main"]
        target.breakpoints.remove_all()
        assert run_to_exit(ldb, target) == "exited"
        assert target.process.output() == "25\n"
