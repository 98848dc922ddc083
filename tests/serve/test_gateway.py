"""The JSON-line gateway: envelope discipline, malformed input, and
the no-head-of-line-blocking guarantee across sessions."""

import json
import socket
import threading
import time

import pytest

from repro.serve import RemoteError

from tests.serve.helpers import COUNTER, SLOW, server, spawn


def raw_lines(srv, payloads, expect, timeout=30.0):
    """Pipeline raw request lines on one socket; collect `expect`
    reply lines in arrival order."""
    sock = socket.create_connection((srv.host, srv.port), timeout=timeout)
    sock.settimeout(timeout)
    f = sock.makefile("rb")
    for payload in payloads:
        sock.sendall(payload if isinstance(payload, bytes)
                     else json.dumps(payload).encode() + b"\n")
    replies = [json.loads(f.readline()) for _ in range(expect)]
    sock.close()
    return replies


def test_malformed_json_is_answered():
    with server() as srv:
        (reply,) = raw_lines(srv, [b"this is not json\n"], 1)
        assert reply["ok"] is False
        assert reply["id"] is None
        assert reply["error"]["code"] == "ERR_BAD_REQUEST"


def test_non_object_request_is_answered():
    with server() as srv:
        (reply,) = raw_lines(srv, [b"[1, 2, 3]\n"], 1)
        assert reply["error"]["code"] == "ERR_BAD_REQUEST"


def test_unknown_op_is_answered():
    with server() as srv:
        (reply,) = raw_lines(srv, [{"id": 9, "op": "launch_missiles"}], 1)
        assert reply["id"] == 9
        assert reply["error"]["code"] == "ERR_BAD_REQUEST"


def test_out_of_order_replies():
    """A fast request pipelined behind a slow one overtakes it — the
    connection never serializes unrelated work."""
    with server() as srv:
        client = srv.client()
        sid, token = spawn(client, source=SLOW)
        # no breakpoint: continue runs the whole loop program (slow);
        # sessions (no session work at all) must answer first
        slow = {"id": 1, "op": "command", "session": sid, "token": token,
                "cmd": "continue", "deadline": 30.0}
        fast = {"id": 2, "op": "sessions"}
        replies = raw_lines(srv, [slow, fast], 2, timeout=60.0)
        assert [r["id"] for r in replies] == [2, 1]
        assert replies[1]["result"]["event"] == "exit"


def test_slow_session_never_blocks_another():
    with server() as srv:
        client = srv.client()
        slow_sid, slow_token = spawn(client)
        fast_sid, fast_token = spawn(client)
        done = {}

        def run_slow():
            done["slow"] = client.command(slow_sid, slow_token, "continue",
                                          deadline=30.0)
        thread = threading.Thread(target=run_slow)
        thread.start()
        # while the slow session grinds through its loop, the fast one
        # answers pings promptly on the SAME client connection
        started = time.monotonic()
        assert client.command(fast_sid, fast_token, "ping") == {"pong": True}
        assert time.monotonic() - started < 5.0
        thread.join(60.0)
        assert done["slow"]["event"] == "exit"


def test_client_matches_out_of_order_replies():
    """GatewayClient.request on a shared socket stays id-correct."""
    with server() as srv:
        client = srv.client()
        sid, token = spawn(client)
        results = {}

        def call(name, **kw):
            results[name] = client.command(sid, token, **kw)
        # serialized here (GatewayClient is one-request-at-a-time per
        # caller), but exercises the pending-reply buffer path
        call("a", cmd="ping")
        call("b", cmd="status")
        assert results["a"] == {"pong": True}
        assert results["b"]["target"]["state"] == "stopped"
        client.detach(sid, token)


def test_shutdown_answers_inflight_typed():
    with server() as srv:
        client = srv.client()
        sid, token = spawn(client)
        failure = {}

        def run_slow():
            try:
                failure["result"] = client.command(sid, token, "continue",
                                                   deadline=30.0)
            except (RemoteError, ConnectionError, OSError) as err:
                failure["error"] = err
        thread = threading.Thread(target=run_slow)
        thread.start()
        time.sleep(0.3)
        srv.close()
        thread.join(30.0)
        assert not thread.is_alive()
        # the in-flight command resolved: a result (it finished first),
        # a typed error, or — the floor — an orderly connection close
        assert failure, "in-flight command never resolved"


def test_stats_surface():
    with server() as srv:
        client = srv.client()
        sid, token = spawn(client)
        client.command(sid, token, "ping")
        stats = client.stats()
        assert stats["serve.spawns"] == 1
        assert stats["serve.commands"] >= 1
        assert stats["serve.sessions"] == 1
        assert "serve.cmd_latency_us.count" in stats or any(
            k.startswith("serve.cmd_latency_us") for k in stats)
