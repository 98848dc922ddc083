#!/usr/bin/env python
"""Debugger crash-reconnect with breakpoint recovery (paper Sec. 7.1).

The nub's half of the robustness story is old news: it preserves the
target when a connection breaks.  This example shows the debugger's
half — the fault-tolerant session layer:

  1. a debugger attaches over TCP and plants breakpoints with PLANT,
     so the nub knows about them;
  2. the connection dies mid-session (the "debugger crash");
  3. the same Target calls ``reconnect()``: the session re-attaches
     through the nub's listener, the nub re-announces the preserved
     stop, HELLO checks the nub's protocol version again, and a
     BREAKS replay recovers the exact planted-breakpoint set;
  4. for good measure, a *fresh* debugger instance then adopts the
     target the classic way and runs it to a clean exit.

Run:  python examples/crash_recovery.py
"""

from repro.cc.driver import compile_and_link, loader_table_ps
from repro.ldb import Ldb
from repro.machines import Process
from repro.nub import Listener, Nub, NubRunner

FIB = """void fib(int n)
{
    static int a[20];
    if (n > 20) n = 20;
    a[0] = a[1] = 1;
    {   int i;
        for (i=2; i<n; i++)
            a[i] = a[i-1] + a[i-2];
    }
    {   int j;
        for (j=0; j<n; j++)
            printf("%d ", a[j]);
    }
    printf("\\n");
}
int main(void) { fib(10); return 0; }
"""


def main():
    exe = compile_and_link({"fib.c": FIB}, "rmips", debug=True)
    table_ps = loader_table_ps(exe)
    listener = Listener()
    process = Process(exe)
    nub = Nub(process, listener=listener, accept_timeout=30.0)
    runner = NubRunner(nub).start()

    print("=== attach and plant breakpoints ===")
    ldb = Ldb()
    target = ldb.attach("127.0.0.1", listener.port, table_ps)
    ldb.break_at_stop("fib", 9)
    ldb.break_at_stop("fib", 6)
    planted = sorted(target.breakpoints.planted)
    print("planted: %s" % [hex(a) for a in planted])

    print("\n=== the connection dies mid-session ===")
    target.channel.sock.close()
    # ...and the debugger's in-memory table is lost with it
    target.breakpoints.planted.clear()
    print("state after a failed wait: %s" % target.wait_for_stop(timeout=0.5))

    print("\n=== Target.reconnect(): re-attach and resynchronize ===")
    target.reconnect()
    recovered = sorted(target.breakpoints.planted)
    print("state: %s, reconnects: %d" % (target.state,
                                         target.session.reconnects))
    print("recovered by the BREAKS replay: %s"
          % [hex(a) for a in recovered])
    assert recovered == planted
    print("notes:", {hex(a): bp.note
                     for a, bp in target.breakpoints.planted.items()})

    print("\n=== the session works as if nothing happened ===")
    ldb.run_to_stop()
    print("stopped at 0x%x; n = %s" % (target.stop_pc(), ldb.evaluate("n")))
    target.breakpoints.remove_all()
    target.detach()
    print("detached; the nub preserves the target again")

    print("\n=== a fresh debugger adopts the target and finishes ===")
    second = Ldb()
    adopted = second.attach("127.0.0.1", listener.port, table_ps)
    print("adopted in state: %s" % adopted.state)
    while second.run_to_stop(target=adopted) == "stopped":
        pass
    print("exit status:", adopted.exit_status)
    print("program output:", process.output().strip())
    runner.join()
    listener.close()


if __name__ == "__main__":
    main()
