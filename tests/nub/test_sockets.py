"""A wire session closes every socket it drops.

A killed target, a nub that loses its debugger, and a session that
ends with the target's exit each close their end of the connection
instead of leaving the socket to the garbage collector (which would
report it with a ``ResourceWarning``).
"""

import gc
import io
import warnings

import pytest

from repro.cc.driver import compile_and_link, loader_table_ps
from repro.ldb import Ldb
from repro.ldb.debugger import load_over_wire
from repro.machines import Process
from repro.nub import Listener, Nub, NubRunner

LOOP = """int g;
void tick(int i) { g = g + i; }
int main(void) {
    int i;
    for (i = 0; i < 4; i++)
        tick(i);
    return g;
}
"""


@pytest.fixture(scope="module")
def exe():
    return compile_and_link({"loop.c": LOOP}, "rmips", debug=True)


def unclosed_sockets(scenario, exe):
    """The unclosed-socket warnings the garbage collector reports for
    what ``scenario(exe)`` leaves behind."""
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        scenario(exe)
        gc.collect()
    return [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)
            and "socket" in str(w.message)]


def kill_a_wire_target(exe):
    ldb = Ldb(stdout=io.StringIO())
    target = load_over_wire(ldb, exe)
    ldb.break_at_function("tick")
    assert ldb.run_to_stop() == "stopped"
    target.kill()
    target.runner.join(10.0)
    assert target.nub.killed


def drop_a_listener_connection(exe):
    listener = Listener()
    nub = Nub(Process(exe), listener=listener, accept_timeout=10.0)
    runner = NubRunner(nub).start()
    try:
        ldb = Ldb(stdout=io.StringIO())
        target = ldb.attach("127.0.0.1", listener.port,
                            loader_table_ps(exe))
        # the debugger's connection dies: the nub keeps the target
        # stopped and takes the next one
        target.channel.sock.close()
        target.reconnect()
        assert target.state == "stopped"
        target.kill()
        runner.join(10.0)
    finally:
        listener.close()


def run_to_exit_over_a_wire(exe):
    ldb = Ldb(stdout=io.StringIO())
    target = load_over_wire(ldb, exe)
    assert ldb.run_to_stop() == "exited"
    target.runner.join(10.0)


@pytest.mark.parametrize("scenario", (kill_a_wire_target,
                                      drop_a_listener_connection,
                                      run_to_exit_over_a_wire))
def test_no_socket_is_left_to_the_collector(scenario, exe):
    assert unclosed_sockets(scenario, exe) == []
