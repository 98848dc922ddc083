#!/usr/bin/env python
"""Block transfers and the Transport API.

The paper's Sec. 4.1 memory DAG turns every sub-word access into a nub
round-trip; Hanson's follow-up (MSR-TR-99-4) makes the nub fast with a
compact block-oriented protocol.  This example shows the reproduction's
version of that story:

  1. every target talks to its nub through an explicit Transport — a
     LocalTransport for a program started in the debugger's own
     process (the nub answers on the debugger's thread, no wire), or a
     NubSession over a wire (retries, reconnect, hardened framing);
  2. blocks are base protocol: with the cache on, a stack walk pulls
     the saved context with one BLOCKFETCH instead of dozens of
     FETCHes; with it off, every access is its own FETCH (the paper's
     Sec. 4.1 baseline).  The message counts are the same on either
     transport.

Run:  python examples/block_transfers.py
"""

import io

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.ldb.debugger import load_over_wire

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


def run(label, start, cache=True):
    exe = compile_and_link({"fib.c": FIB_C}, "rsparc", debug=True)
    ldb = Ldb(stdout=io.StringIO())
    target = start(ldb, exe, cache)
    trips = workload(ldb, target)
    print("%-34s round-trips: %4d   (%d BLOCKFETCH)"
          % (label, trips, target.stats.of("wire", "blockfetch")))
    target.kill()


def in_thread(ldb, exe, cache):
    return ldb.load_program(exe, cache=cache)


def over_the_wire(ldb, exe, cache):
    # a nub on its own thread behind a socketpair, spoken to with the
    # full byte protocol: the identical Transport interface, so the
    # whole debugger works unchanged on top of it
    return load_over_wire(ldb, exe, cache=cache)


def main():
    print("=== the same workload, three ways ===")
    run("uncached per-word FETCH", in_thread, cache=False)
    run("cached BLOCKFETCH", in_thread)
    run("cached BLOCKFETCH over a wire", over_the_wire)


if __name__ == "__main__":
    main()
