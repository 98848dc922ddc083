"""The chaos suite: seeded fault schedules against hosted sessions.

The server's whole robustness contract, asserted across >= 20 seeded
schedules (ISSUE acceptance floor):

* every command sent is *answered* — a result or a typed error code,
  never a silent hang, never a raw traceback, never a dropped socket;
* a faulted session never perturbs an unrelated session sharing the
  server (no head-of-line blocking, no cross-session state);
* after detach, nothing leaks: zero sessions in the table, zero
  sessions in the gauges, whatever the schedule did;
* a killed nub leaves the session *inspectable* whenever it could
  write a core (read-only core mode), and cleanly dead otherwise.

Schedules are derived deterministically from the seed, so a failing
seed replays exactly.
"""

import time

import pytest

from repro.serve import DebugServer, RemoteError

from tests.serve.helpers import COUNTER

SEEDS = list(range(24))  # >= 20 seeded schedules

#: errors a chaos run may legitimately answer; anything else is a bug.
#: Every frame is CRC-checked from the first byte, so no damaged frame
#: leaves a session with garbage state: reads never fail as ERR_EVAL or
#: ERR_BAD_ARGS here
TYPED_CODES = {
    "ERR_TARGET_DIED", "ERR_DEADLINE", "ERR_SESSION_EXPIRED",
    "ERR_POST_MORTEM", "ERR_TARGET_STATE", "ERR_BUSY", "ERR_INTERNAL",
}


def schedule_for(seed):
    """A deterministic fault spec per seed: kills, hangs (drop-heavy),
    recoverable noise, and connection cuts, round-robin."""
    kind = seed % 4
    if kind == 0:
        return {"seed": seed, "kill_after": 10 + (seed % 25)}
    if kind == 1:
        return {"seed": seed, "drop": 0.9, "after": 3}
    if kind == 2:
        return {"seed": seed, "corrupt": 0.3, "duplicate": 0.2, "limit": 10}
    return {"seed": seed, "truncate": 0.2, "delay": 0.3,
            "latency": 0.002, "limit": 8, "after": 3}


@pytest.fixture(scope="module")
def srv():
    server = DebugServer(token_seed=7, default_deadline=0.8,
                         hang_grace=0.5, reap_interval=0.1, idle_ttl=60.0)
    yield server
    server.close()


def drive(client, sid, token, commands):
    """Run commands; every one must resolve to a result or a typed
    error.  Returns (results, error_codes)."""
    results, codes = [], []
    for cmd, args, deadline in commands:
        try:
            results.append(client.command(sid, token, cmd, args,
                                          deadline=deadline))
        except RemoteError as err:
            assert err.code in TYPED_CODES, \
                "untyped chaos answer: %s (%s)" % (err.code, err)
            codes.append(err.code)
    return results, codes


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_schedule(srv, seed):
    client = srv.client()
    spec = schedule_for(seed)
    victim = client.spawn(source=COUNTER, fault=spec)
    clean = client.spawn(source=COUNTER)
    vsid, vtok = victim["session"], victim["token"]
    csid, ctok = clean["session"], clean["token"]
    try:
        # the bystander sets up cleanly regardless of the victim
        assert client.command(csid, ctok, "ping") == {"pong": True}
        out = client.command(csid, ctok, "break", {"at": "tick"})
        assert out["addresses"]

        # drive the victim until the schedule bites (or it survives)
        _, codes = drive(client, vsid, vtok,
                         [("break", {"at": "tick"}, 2.0)])
        dead = False
        for _ in range(8):
            results, step_codes = drive(
                client, vsid, vtok, [("continue", None, None)])
            codes += step_codes
            if step_codes or (results and results[0].get("event")
                              in ("died", "disconnect", "exit")):
                dead = bool(step_codes) or results[0].get("event") != "exit"
                break
            # between victim steps, the bystander answers promptly:
            # a wedged or dying session never blocks an unrelated one
            started = time.monotonic()
            assert client.command(csid, ctok, "ping") == {"pong": True}
            assert time.monotonic() - started < 5.0

        # whatever happened, the victim session still *answers*
        status = client.command(vsid, vtok, "status", deadline=2.0)
        assert "target" in status
        rows = {r["session"]: r for r in client.sessions()}
        state = rows[vsid]["state"]
        assert state in ("live", "core", "dead", "expired"), state
        if state == "core":
            # graceful degradation: inspection works on the core...
            frames = client.command(vsid, vtok, "backtrace",
                                    deadline=2.0)["frames"]
            assert frames
            # ...and mutation refuses typed
            with pytest.raises(RemoteError) as err:
                client.command(vsid, vtok, "continue")
            assert err.value.code in ("ERR_POST_MORTEM",
                                      "ERR_SESSION_EXPIRED")
        if dead and spec.get("kill_after") is not None:
            # an injected kill must never leave the session "live"
            assert state in ("core", "dead", "expired"), state

        # the bystander ran the whole time without a single error
        event = client.command(csid, ctok, "continue", deadline=10.0)
        assert event["event"] == "breakpoint"
    finally:
        client.detach(vsid, vtok)
        client.detach(csid, ctok)
        client.close()

    # nothing leaks: the table and the gauges agree on zero
    rest = srv.client()
    try:
        assert rest.sessions() == []
        assert rest.stats().get("serve.sessions", 0) == 0
    finally:
        rest.close()
