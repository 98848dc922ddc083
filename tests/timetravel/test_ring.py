"""CheckpointRing unit tests: ordering, base retention, FIFO eviction,
dedup lookup, and the forget-the-future policy."""

import pytest

from repro.timetravel import Checkpoint, CheckpointRing


def ck(cid, icount, kind="auto"):
    return Checkpoint(cid, icount, pc=0x1000 + icount, sp=None,
                      signo=5, sigcode=0, kind=kind)


class TestOrdering:
    def test_entries_stay_sorted_by_icount(self):
        ring = CheckpointRing(8)
        for cid, icount in ((1, 50), (2, 10), (3, 30)):
            ring.add(ck(cid, icount))
        assert [c.icount for c in ring.entries] == [10, 30, 50]

    def test_before_is_newest_first_and_strict(self):
        ring = CheckpointRing(8)
        for cid, icount in ((1, 10), (2, 20), (3, 30)):
            ring.add(ck(cid, icount))
        assert [c.icount for c in ring.before(30)] == [20, 10]
        assert ring.before(10) == []

    def test_at_or_before_is_inclusive(self):
        ring = CheckpointRing(8)
        ring.add(ck(1, 10))
        ring.add(ck(2, 20))
        assert ring.at_or_before(20).icount == 20
        assert ring.at_or_before(19).icount == 10
        assert ring.at_or_before(9) is None

    def test_find_exact(self):
        ring = CheckpointRing(8)
        ring.add(ck(1, 10))
        assert ring.find(10).cid == 1
        assert ring.find(11) is None


class TestEviction:
    def test_base_is_never_evicted(self):
        ring = CheckpointRing(3)
        ring.add(ck(0, 5, kind="stop"))  # the base
        evicted = []
        for cid in range(1, 6):
            evicted.extend(ring.add(ck(cid, cid * 100)))
        assert len(ring) == 3
        assert ring.entries[0].icount == 5  # still the base
        assert [c.cid for c in evicted] == [1, 2, 3]  # oldest non-base first

    def test_add_reports_what_it_evicted(self):
        ring = CheckpointRing(2)
        ring.add(ck(0, 5))
        assert ring.add(ck(1, 10)) == []
        evicted = ring.add(ck(2, 20))
        assert [c.cid for c in evicted] == [1]

    def test_capacity_must_fit_base_plus_one(self):
        with pytest.raises(ValueError):
            CheckpointRing(1)


class TestDropFuture:
    def test_removes_only_later_entries(self):
        ring = CheckpointRing(8)
        for cid, icount in ((1, 10), (2, 20), (3, 30)):
            ring.add(ck(cid, icount))
        stale = ring.drop_future(20)
        assert [c.icount for c in stale] == [30]
        assert [c.icount for c in ring.entries] == [10, 20]

    def test_noop_when_nothing_is_later(self):
        ring = CheckpointRing(8)
        ring.add(ck(1, 10))
        assert ring.drop_future(10) == []
        assert len(ring) == 1


class TestInsertionOrder:
    def test_travelling_back_never_evicts_the_new_entry(self):
        # a full ring, then a checkpoint below the others: the one
        # added first goes, not the newcomer with the lowest icount
        ring = CheckpointRing(3)
        ring.add(ck(0, 5, kind="stop"))
        ring.add(ck(1, 100))
        ring.add(ck(2, 200))
        evicted = ring.add(ck(3, 50))
        assert [c.cid for c in evicted] == [1]
        assert [c.icount for c in ring.entries] == [5, 50, 200]

    def test_eviction_follows_the_order_added(self):
        ring = CheckpointRing(3)
        ring.add(ck(0, 5, kind="stop"))
        ring.add(ck(1, 300))
        ring.add(ck(2, 100))
        assert [c.cid for c in ring.add(ck(3, 200))] == [1]
        assert [c.cid for c in ring.add(ck(4, 400))] == [2]
        assert [c.icount for c in ring.entries] == [5, 200, 400]

    def test_drop_future_forgets_the_order_too(self):
        ring = CheckpointRing(3)
        ring.add(ck(0, 5, kind="stop"))
        ring.add(ck(1, 300))
        ring.add(ck(2, 100))
        ring.drop_future(100)
        ring.add(ck(3, 200))
        assert [c.cid for c in ring.add(ck(4, 150))] == [2]
