"""The Sec. 7.1 breakpoint messages, end to end.

The paper: "We can solve this problem by enriching the protocol with a
special store operation used only for planting breakpoints and by
making the nub capable of reporting to a new debugger the instructions
overwritten by such stores, in case the connection to the original
debugger is lost."  Every nub answers PLANT/UNPLANT/BREAKS, so ldb
plants through them and adopts a crashed debugger's table on attach.
"""

import io

import pytest

from repro.cc.driver import compile_and_link, loader_table_ps
from repro.ldb import Ldb
from repro.machines import Process
from repro.nub import Listener, Nub, NubRunner

from ..ldb.helpers import FIB


def start_listening_nub(arch="rmips"):
    exe = compile_and_link({"fib.c": FIB}, arch, debug=True)
    table_ps = loader_table_ps(exe)
    listener = Listener()
    process = Process(exe)
    nub = Nub(process, listener=listener, accept_timeout=15.0)
    runner = NubRunner(nub).start()
    nub.debug_process = process
    return exe, table_ps, listener, nub, runner


class TestExtension:
    def test_nub_records_planted_instructions(self):
        exe, table_ps, listener, nub, runner = start_listening_nub()
        ldb = Ldb(stdout=io.StringIO())
        target = ldb.attach("127.0.0.1", listener.port, table_ps)
        address = ldb.break_at_stop("fib", 6)
        assert address in nub.planted
        target.breakpoints.remove(address)
        assert address not in nub.planted
        target.kill()
        runner.join()
        listener.close()

    def test_new_debugger_recovers_breakpoints_after_crash(self):
        """The full Sec. 7.1 scenario, now working end to end."""
        exe, table_ps, listener, nub, runner = start_listening_nub()
        first = Ldb(stdout=io.StringIO())
        t1 = first.attach("127.0.0.1", listener.port, table_ps)
        planted = first.break_at_stop("fib", 9, target=t1)
        t1.channel.sock.close()      # the first debugger crashes

        second = Ldb(stdout=io.StringIO())
        t2 = second.attach("127.0.0.1", listener.port, table_ps)
        # attaching adopts the crashed debugger's breakpoint
        adopted = t2.breakpoints.at(planted)
        assert adopted is not None and adopted.note == "adopted"
        # the new debugger handles the hit and can REMOVE it cleanly
        second.run_to_stop(target=t2)
        assert second.evaluate("a[4]", target=t2, frame=t2.top_frame()) == 5
        t2.breakpoints.remove_all()
        for _ in range(50):
            if second.run_to_stop(target=t2) != "stopped":
                break
        assert t2.state == "exited"
        assert nub.debug_process.output() == "1 1 2 3 5 8 13 21 34 55 \n"
        runner.join()
        listener.close()

    def test_extension_survives_byte_orders(self):
        """Planting through the extension respects target byte order."""
        for arch in ("rmips", "rmipsel", "rvax"):
            exe, table_ps, listener, nub, runner = start_listening_nub(arch=arch)
            ldb = Ldb(stdout=io.StringIO())
            target = ldb.attach("127.0.0.1", listener.port, table_ps)
            address = ldb.break_at_stop("fib", 6)
            # the planted trap reads back as the target's break pattern
            assert target.breakpoints.fetch_insn(address) == \
                target.breakpoints.break_pattern
            target.breakpoints.remove(address)
            assert target.breakpoints.fetch_insn(address) == \
                target.breakpoints.nop_pattern
            target.kill()
            runner.join()
            listener.close()
