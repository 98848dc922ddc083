#!/usr/bin/env python
"""Block transfers and the Transport API.

The paper's Sec. 4.1 memory DAG turns every sub-word access into a nub
round-trip; Hanson's follow-up (MSR-TR-99-4) makes the nub fast with a
compact block-oriented protocol.  This example shows the reproduction's
version of that story:

  1. every target talks to its nub through an explicit Transport — a
     NubSession (retries, reconnect, hardened framing) or a
     ChannelTransport (one lockstep exchange over a bare channel);
  2. blocks are base protocol: with the cache on, a stack walk pulls
     the saved context with one BLOCKFETCH instead of dozens of
     FETCHes; with it off, every access is its own FETCH (the paper's
     Sec. 4.1 baseline).

Run:  python examples/block_transfers.py
"""

import io

from repro.cc.driver import compile_and_link, loader_table_ps
from repro.ldb import Ldb
from repro.ldb.target import Target
from repro.machines import Process
from repro.nub import ChannelTransport, Nub, NubRunner, pair

FIB_C = """void fib(int n)
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


def workload(ldb, target):
    """Breakpoint -> backtrace -> print: the hot inspection path."""
    ldb.break_at_stop("fib", 9)
    ldb.run_to_stop()
    ldb.backtrace_text()
    ldb.print_variable("a")
    ldb.registers_text()
    return target.stats.round_trips()


def run(label, cache):
    exe = compile_and_link({"fib.c": FIB_C}, "rsparc", debug=True)
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(exe, cache=cache)
    trips = workload(ldb, target)
    print("%-28s round-trips: %4d   (%d BLOCKFETCH)"
          % (label, trips, target.stats.of("wire", "blockfetch")))
    target.kill()


def bare_channel_target():
    """The ChannelTransport path: no session, still the same API."""
    exe = compile_and_link({"fib.c": FIB_C}, "rsparc", debug=True)
    debugger_end, nub_end = pair()
    process = Process(exe)
    NubRunner(Nub(process, channel=nub_end)).start()
    ldb = Ldb(stdout=io.StringIO())
    table = ldb.read_loader_table(loader_table_ps(exe))
    # a Target over an explicit bare-channel transport: one lockstep
    # exchange per request, no retries — and the identical Transport
    # interface, so the whole debugger works unchanged on top of it
    transport = ChannelTransport(debugger_end)
    target = Target(ldb.interp, None, table, transport=transport)
    ldb.targets[target.name] = target
    ldb.current = target
    target.wait_for_stop()
    trips = workload(ldb, target)
    print("%-28s round-trips: %4d   (%d BLOCKFETCH, plain frames)"
          % ("bare ChannelTransport", trips,
             target.stats.of("wire", "blockfetch")))
    target.kill()


def main():
    print("=== the same workload, three ways ===")
    run("uncached per-word FETCH", cache=False)
    run("cached BLOCKFETCH", cache=True)
    bare_channel_target()


if __name__ == "__main__":
    main()
