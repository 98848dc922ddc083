"""Shared helpers for the session-server tests."""

import contextlib

from repro.serve import DebugServer

#: counts breakpoint hits in a loop — the workhorse target: plant a
#: breakpoint on `tick` and every continue stops exactly once
COUNTER = """int counter;
int tick(int n) { counter = counter + n; return counter; }
int main(void)
{
    int i;
    for (i = 0; i < 100; i++)
        tick(1);
    return counter;
}
"""

#: takes hundreds of milliseconds to run to exit (a continue that
#: every quick request must overtake)
SLOW = """int counter;
int main(void)
{
    int i;
    for (i = 0; i < 100000; i++)
        counter = counter + i;
    return counter & 127;
}
"""

#: runs to exit immediately — for exit-event tests
QUICK = """int main(void) { return 42; }
"""


@contextlib.contextmanager
def server(**manager_kw):
    manager_kw.setdefault("token_seed", 1234)
    srv = DebugServer(**manager_kw)
    try:
        yield srv
    finally:
        srv.close()


def spawn(client, source=COUNTER, **extra):
    info = client.spawn(source=source, **extra)
    return info["session"], info["token"]
