"""The structured command layer: every verb answers a JSON-able dict,
every failure a typed ApiError — never a raw traceback."""

import pytest

from repro.ldb import Ldb
from repro.ldb.api import (
    ApiError,
    DebugAPI,
    ERR_BAD_ARGS,
    ERR_BAD_COMMAND,
    ERR_EVAL,
    ERR_NO_TARGET,
    ERR_POST_MORTEM,
    ERR_TARGET_STATE,
)

from tests.ldb.helpers import session


@pytest.fixture
def api():
    ldb, target = session()
    return DebugAPI(ldb)


def test_ping(api):
    assert api.execute("ping") == {"pong": True}


def test_unknown_verb_is_typed(api):
    with pytest.raises(ApiError) as err:
        api.execute("frobnicate")
    assert err.value.code == ERR_BAD_COMMAND
    assert "frobnicate" in str(err.value)


def test_bad_args_are_typed(api):
    with pytest.raises(ApiError) as err:
        api.execute("break", {})  # no "at"
    assert err.value.code == ERR_BAD_ARGS
    with pytest.raises(ApiError) as err:
        api.execute("break", {"at": "fib.c:notaline"})
    assert err.value.code == ERR_BAD_ARGS
    with pytest.raises(ApiError) as err:
        api.execute("print", ["not", "a", "dict"])
    assert err.value.code == ERR_BAD_ARGS
    # a condition that is not text, a limit or icount that is not a
    # whole number, an icount past the wire's 64 bits
    for cmd, args in (("break", {"at": "fib", "condition": 5}),
                      ("backtrace", {"limit": "x"}),
                      ("goto", {"icount": "abc"}),
                      ("goto", {"icount": True}),
                      ("goto", {"icount": 1 << 64})):
        with pytest.raises(ApiError) as err:
            api.execute(cmd, args)
        assert err.value.code == ERR_BAD_ARGS, (cmd, args)
    assert api.execute("breaks") == {"breakpoints": []}


def test_status_describes_target(api):
    out = api.execute("status")
    assert out["target"]["state"] == "stopped"
    assert out["target"]["post_mortem"] is False
    assert out["targets"][0]["name"] == out["target"]["name"]


def test_break_continue_print_roundtrip(api):
    out = api.execute("break", {"at": "fib"})
    assert out["addresses"]
    event = api.execute("continue")
    assert event["event"] == "breakpoint"
    assert event["where"]["proc"] == "fib"
    printed = api.execute("print", {"expr": "n"})
    assert printed["text"] == "10"
    value = api.execute("print", {"expr": "n + 1"})
    assert value["value"] == 11


def test_backtrace_where_registers(api):
    api.execute("break", {"at": "fib"})
    api.execute("continue")
    frames = api.execute("backtrace")["frames"]
    assert frames[0]["proc"] == "fib"
    assert frames[1]["proc"] == "main"
    where = api.execute("where")
    assert where["proc"] == "fib"
    registers = api.execute("registers")["registers"]
    assert registers  # every register named and 32-bit clean
    assert all(0 <= v <= 0xFFFFFFFF for v in registers.values())


def test_set_assigns(api):
    api.execute("break", {"at": "fib"})
    api.execute("continue")
    api.execute("set", {"expr": "n = 3"})
    assert api.execute("print", {"expr": "n"})["text"] == "3"


def test_continue_to_exit(api):
    event = api.execute("continue")
    assert event == {"event": "exit", "status": 0}


def test_eval_error_is_typed(api):
    api.execute("break", {"at": "fib"})
    api.execute("continue")
    with pytest.raises(ApiError) as err:
        api.execute("print", {"expr": "no_such_variable_here"})
    assert err.value.code == ERR_EVAL


def test_no_target_is_typed():
    import io
    api = DebugAPI(Ldb(stdout=io.StringIO()))
    with pytest.raises(ApiError) as err:
        api.execute("backtrace")
    assert err.value.code == ERR_NO_TARGET


def test_state_error_is_typed(api):
    # stepping an exited target is a state error, not a crash
    api.execute("continue")  # runs to exit
    with pytest.raises(ApiError) as err:
        api.execute("step")
    assert err.value.code == ERR_TARGET_STATE


def test_a_recording_continue_that_cannot_finish_is_typed(api):
    # the time-travel controller gives up after max_stops chunks with no
    # real stop: a state error like any other, not a raw ReplayError
    api.ldb.enable_time_travel(interval=13).max_stops = 2
    with pytest.raises(ApiError) as err:
        api.execute("continue")
    assert err.value.code == ERR_TARGET_STATE
    assert "without a real stop" in str(err.value)


def test_post_mortem_refuses_mutation(tmp_path):
    ldb, target = session()
    api = DebugAPI(ldb)
    api.execute("break", {"at": "fib"})
    api.execute("continue")
    core = str(tmp_path / "t.core")
    out = api.execute("dumpcore", {"path": core})
    assert out["segments"] > 0
    ldb.open_core(core)  # becomes the current target
    for verb in ("continue", "step", "set", "kill"):
        with pytest.raises(ApiError) as err:
            api.execute(verb, {"expr": "n = 1"} if verb == "set" else {})
        assert err.value.code == ERR_POST_MORTEM, verb
    # inspection still works on the core
    assert api.execute("backtrace")["frames"][0]["proc"] == "fib"
    assert api.execute("status")["target"]["post_mortem"] is True


def test_sim_stats_reports_engine_counters(api):
    out = api.execute("sim_stats")
    assert out["engine"] in ("block", "step")
    api.execute("break", {"at": "fib"})
    api.execute("continue")
    out = api.execute("sim_stats")
    if out["engine"] == "block":
        assert out["blocks_compiled"] > 0
        assert "generation" in out and "blocks_cached" in out


def test_sim_stats_typed_errors(tmp_path):
    import io
    # no target at all
    bare = DebugAPI(Ldb(stdout=io.StringIO()))
    with pytest.raises(ApiError) as err:
        bare.execute("sim_stats")
    assert err.value.code == ERR_NO_TARGET
    # a core target has no running simulator
    ldb, target = session()
    api = DebugAPI(ldb)
    api.execute("break", {"at": "fib"})
    api.execute("continue")
    core = str(tmp_path / "t.core")
    api.execute("dumpcore", {"path": core})
    ldb.open_core(core)
    with pytest.raises(ApiError) as err:
        api.execute("sim_stats")
    assert err.value.code == ERR_POST_MORTEM
