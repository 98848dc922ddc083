"""Block transfers end to end: byte identity, fallback, error parity.

Block transfers are base protocol, and their contract is that they are
*invisible*: a caching, batching debugger must produce byte-identical
results to the per-word baseline on every architecture, and surface nub
errors identically over the wire and on the in-thread host.
"""

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.ldb.debugger import load_over_wire
from repro.machines import Process
from repro.nub import LocalTransport, Nub, pair
from repro.nub.session import NubSession, RetryPolicy
from repro.postscript import Location, PSError

from ..ldb.helpers import FIB

ALL_ARCHES = ("rmips", "rmipsel", "rsparc", "rm68k", "rvax")
EXPRESSIONS = ("j", "n", "a[0]", "a[9]", "a[0]+a[9]")

_EXES = {}


def exe_for(arch):
    if arch not in _EXES:
        _EXES[arch] = compile_and_link({"fib.c": FIB}, arch, debug=True)
    return _EXES[arch]


def stopped_target(arch, cache=True, stop=9, wire=False):
    ldb = Ldb(stdout=io.StringIO())
    if wire:
        target = load_over_wire(ldb, exe_for(arch))
    else:
        target = ldb.load_program(exe_for(arch), cache=cache)
    ldb.break_at_stop("fib", stop)
    ldb.run_to_stop()
    return ldb, target


def conversation(ldb, target):
    """The full inspection conversation, as comparable strings."""
    out = [ldb.backtrace_text()]
    frame = target.top_frame()
    for expression in EXPRESSIONS:
        out.append(repr(ldb.evaluate(expression, frame=frame)))
    out.append(ldb.print_variable("a", frame=frame))
    out.append(ldb.registers_text())
    return out


def outcome(action):
    """(tag, value) for an action that may raise a PSError — lets two
    targets be compared on errors as well as values."""
    try:
        return ("ok", action())
    except PSError as err:
        return ("err", err.errname)


class TestWorkloadIdentity:
    @pytest.mark.parametrize("arch", ALL_ARCHES)
    def test_cached_run_is_byte_identical(self, arch):
        ldb_c, cached = stopped_target(arch, cache=True)
        ldb_u, uncached = stopped_target(arch, cache=False)
        try:
            assert conversation(ldb_c, cached) == conversation(ldb_u, uncached)
            assert cached.stats.round_trips() < uncached.stats.round_trips()
        finally:
            cached.kill()
            uncached.kill()

    def test_session_moves_blocks(self):
        # blocks are base protocol: a session over the wire moves them
        # with nothing negotiated
        ldb, target = stopped_target("rsparc", wire=True)
        try:
            assert target.session.hello_done
            assert target.stats.of("wire", "blockfetch") > 0
        finally:
            target.kill()


# one stopped cached/uncached pair per architecture, filled lazily and
# shared by the property tests below (the nub threads are daemons)
_PAIRS = {}


def pair_for(arch):
    if arch not in _PAIRS:
        _PAIRS[arch] = (stopped_target(arch, cache=True),
                        stopped_target(arch, cache=False))
    return _PAIRS[arch]


class TestByteIdentityProperty:
    """Hypothesis: any fetch answered by the cache equals the per-word
    answer, on every architecture and both byte orders."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(arch=st.sampled_from(ALL_ARCHES),
           offset=st.integers(0, 500),
           kind=st.sampled_from(["i8", "i16", "i32", "f32", "f64"]))
    def test_context_memory_identical(self, arch, offset, kind):
        """Raw data-space fetches across the saved context — the region
        with byte-order quirks (rmips saved floats, footnote 3)."""
        (_lc, cached), (_lu, uncached) = pair_for(arch)
        assert cached.context_addr == uncached.context_addr
        location = Location.absolute("d", cached.context_addr + offset)
        assert (outcome(lambda: cached.wire.fetch(location, kind))
                == outcome(lambda: uncached.wire.fetch(location, kind)))

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(arch=st.sampled_from(ALL_ARCHES),
           reg=st.integers(0, 31),
           kind=st.sampled_from(["i8", "i16", "i32"]))
    def test_subword_register_access_identical(self, arch, reg, kind):
        """Sub-word register fetches route through RegisterMemory and
        the alias table into the cached wire; value or error, the
        outcome must match the uncached DAG."""
        (_lc, cached), (_lu, uncached) = pair_for(arch)
        location = Location.absolute("r", reg)
        assert (outcome(lambda: cached.top_frame().memory.fetch(location, kind))
                == outcome(lambda: uncached.top_frame().memory.fetch(location, kind)))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(arch=st.sampled_from(("rmips", "rm68k")),
           offset=st.integers(0, 120),
           kind=st.sampled_from(["i8", "i16", "i32"]))
    def test_store_then_fetch_identical(self, arch, offset, kind):
        """Write-through stores leave both targets agreeing afterwards
        (the cache invalidates the stored span)."""
        (_lc, cached), (_lu, uncached) = pair_for(arch)
        base = cached.context_addr + 4  # clear of the saved pc
        location = Location.absolute("d", base + offset)
        old = outcome(lambda: uncached.wire.fetch(location, kind))
        if old[0] != "ok":
            return
        value = 1 if kind == "i8" else 0x1234
        try:
            cached.wire.store(location, kind, value)
            uncached.wire.store(location, kind, value)
            assert (outcome(lambda: cached.wire.fetch(location, kind))
                    == outcome(lambda: uncached.wire.fetch(location, kind)))
        finally:
            cached.wire.store(location, kind, old[1])
            uncached.wire.store(location, kind, old[1])


class TestCacheInvalidation:
    def test_cache_invalidated_across_continue(self):
        """Stale blocks must never survive a resume: the cached value
        of i advances in lockstep with the uncached target."""
        ldb_c, cached = stopped_target("rmips", stop=7)
        ldb_u, uncached = stopped_target("rmips", cache=False, stop=7)
        try:
            seen = []
            for _ in range(3):
                vc = ldb_c.evaluate("i", frame=cached.top_frame())
                vu = ldb_u.evaluate("i", frame=uncached.top_frame())
                assert vc == vu
                seen.append(vc)
                ldb_c.run_to_stop()
                ldb_u.run_to_stop()
            assert seen == sorted(set(seen))   # strictly advancing
        finally:
            cached.kill()
            uncached.kill()

    def test_store_visible_through_cache_immediately(self):
        ldb, target = stopped_target("rsparc", stop=9)
        try:
            frame = target.top_frame()
            ldb.evaluate("a[3]", frame=frame)          # warm the block
            entry = frame.resolve("a")
            base = target.location_of(entry, frame)
            spot = Location.absolute(base.space, base.offset + 12)
            target.wire.store(spot, "i32", 777)
            assert ldb.evaluate("a[3]", frame=frame) == 777
        finally:
            target.kill()


class TestTransportErrorParity:
    """Satellite: nub errors surface identically over the wire and on
    the in-thread host — same PSError name, same debuggability."""

    def test_bad_address_same_error_both_modes(self):
        _ls, session_target = stopped_target("rsparc", wire=True)
        _ll, local_target = stopped_target("rsparc")
        bad = Location.absolute("d", 0x0FFFFFF0)
        try:
            results = [outcome(lambda t=t: t.wiremem.fetch(bad, "i32"))
                       for t in (session_target, local_target)]
            assert results[0] == results[1] == ("err", "invalidaccess")
        finally:
            session_target.kill()
            local_target.kill()

    def test_bad_space_same_error_both_modes(self):
        _ls, session_target = stopped_target("rsparc", wire=True)
        _ll, local_target = stopped_target("rsparc")
        bad = Location.absolute("q", 0)
        try:
            results = [outcome(lambda t=t: t.wiremem.fetch(bad, "i32"))
                       for t in (session_target, local_target)]
            assert results[0] == results[1] == ("err", "invalidaccess")
        finally:
            session_target.kill()
            local_target.kill()

    def test_dead_transport_is_ioerror_both_modes(self):
        from repro.ldb.memories import WireMemory

        # an in-thread host whose target was closed
        closed = LocalTransport(Nub(Process(exe_for("rsparc"))))
        closed.close()
        local_wire = WireMemory(closed)
        # a session with no reconnect path and a tiny retry budget
        gone, other = pair()
        other.close()
        gone.close()
        session = NubSession(channel=gone,
                             policy=RetryPolicy(max_attempts=2,
                                                base_delay=0.001),
                             reply_timeout=0.2)
        session_wire = WireMemory(session)
        spot = Location.absolute("d", 0)
        for wire in (local_wire, session_wire):
            assert outcome(lambda: wire.fetch(spot, "i32")) \
                == ("err", "ioerror")

    def test_local_host_uses_blocks(self):
        """No wire and no HELLO: blocks from the first request all the
        same."""
        ldb, target = stopped_target("rsparc")
        try:
            assert target.channel is None and target.session is None
            assert ldb.evaluate("a[4]") == 5
            assert target.stats.of("wire", "blockfetch") > 0
        finally:
            target.kill()
