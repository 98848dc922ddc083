"""The gateway's numeric fields answer typed errors, never a guess.

``queue_limit``, ``deadline`` and ``idle_ttl`` on spawn/attach/replay,
and ``deadline`` on ``command``, must each be a finite number above
zero (``queue_limit`` a whole one).  A string, a boolean, NaN, an
infinity, zero or a negative value is refused with a code and a
message that names the field: ``ERR_SPAWN_FAILED`` for a session
that was never started, ``ERR_BAD_REQUEST`` for a command that was
never queued.
"""

import math

import pytest

from repro.serve import RemoteError

from tests.serve.helpers import COUNTER, server, spawn

#: what no numeric field accepts
BAD = ("abc", True, None, [], math.nan, math.inf, -math.inf, 0, 0.0, -1,
       -0.5)

#: a spin with no exit: a command without a working deadline never ends
SPIN = """int spins;
int main(void)
{
    for (;;)
        spins = spins + 1;
    return 0;
}
"""


def refused(call, code, field):
    with pytest.raises(RemoteError) as info:
        call()
    assert info.value.code == code
    assert repr(field) in str(info.value)


@pytest.mark.parametrize("field", ("queue_limit", "deadline", "idle_ttl"))
def test_session_settings_are_refused_typed(field):
    with server() as srv:
        client = srv.client()
        for value in BAD:
            if value is None:
                continue  # an absent setting takes the server default
            refused(lambda: client.spawn(source=COUNTER, **{field: value}),
                    "ERR_SPAWN_FAILED", field)
            refused(lambda: client.replay(path="nowhere.ldbrec",
                                          **{field: value}),
                    "ERR_SPAWN_FAILED", field)
            refused(lambda: client.attach(port=1, table_ps="",
                                          **{field: value}),
                    "ERR_SPAWN_FAILED", field)
        assert client.sessions() == []
        client.close()


def test_a_fractional_queue_limit_is_refused():
    # int(0.5) would be 0: an unbounded queue that never answers ERR_BUSY
    with server() as srv:
        client = srv.client()
        refused(lambda: client.spawn(source=COUNTER, queue_limit=0.5),
                "ERR_SPAWN_FAILED", "queue_limit")
        client.close()


def test_good_session_settings_are_taken():
    with server() as srv:
        client = srv.client()
        info = client.spawn(source=COUNTER, queue_limit=3, deadline=2.5,
                            idle_ttl=60)
        assert info["queue_limit"] == 3
        client.close()


def test_command_deadline_is_refused_typed():
    """A NaN deadline used to answer ERR_DEADLINE at once and leave the
    worker spinning the target forever with the watchdog blind; every
    bad deadline is now refused before the command is queued."""
    with server(hang_grace=0.2) as srv:
        client = srv.client()
        sid, token = spawn(client, source=SPIN)
        for value in BAD:
            if value is None:
                continue  # an absent deadline takes the session default
            refused(lambda: client.command(sid, token, "continue",
                                           deadline=value),
                    "ERR_BAD_REQUEST", "deadline")
        status = client.command(sid, token, "status", deadline=5.0)
        assert status["target"]["state"] == "stopped"
        (row,) = client.sessions()
        assert row["busy"] is False and row["commands_done"] == 1
        client.close()
