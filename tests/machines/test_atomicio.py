"""The crash-consistent write layer and its fault-injecting disk.

The atomic writer's contract: after :func:`atomic_write_bytes` returns
the destination holds exactly the new payload; after it *fails* — or
the writing process dies mid-write — the destination holds whatever it
held before, never a torn mixture.  :class:`FaultyFS` is how the tests
(and BENCH_durability) reach every failure point deterministically.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines.atomicio import (
    FS_FAULT_KINDS,
    FaultyFS,
    FsFaultSchedule,
    PowerCut,
    atomic_write_bytes,
    atomic_write_text,
    cleanup_stale_temps,
    current_fs,
    stale_temps,
    use_fs,
)


class TestAtomicWrite:
    def test_plain_write_lands(self, tmp_path):
        path = str(tmp_path / "out.bin")
        assert atomic_write_bytes(path, b"hello" * 100) == 500
        with open(path, "rb") as handle:
            assert handle.read() == b"hello" * 100

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = str(tmp_path / "out.bin")
        atomic_write_bytes(path, b"A" * 1000)
        atomic_write_bytes(path, b"B" * 10)
        with open(path, "rb") as handle:
            assert handle.read() == b"B" * 10

    def test_empty_payload(self, tmp_path):
        path = str(tmp_path / "empty.bin")
        assert atomic_write_bytes(path, b"") == 0
        assert os.path.getsize(path) == 0

    def test_text_variant(self, tmp_path):
        path = str(tmp_path / "report.json")
        atomic_write_text(path, "{\"ok\": true}\n")
        with open(path) as handle:
            assert handle.read() == "{\"ok\": true}\n"

    def test_no_temp_left_after_success(self, tmp_path):
        path = str(tmp_path / "out.bin")
        atomic_write_bytes(path, b"payload")
        assert stale_temps(path) == []
        assert os.listdir(str(tmp_path)) == ["out.bin"]

    def test_large_payload_chunked(self, tmp_path):
        # > one write chunk, so the loop body runs more than once
        path = str(tmp_path / "big.bin")
        payload = bytes(range(256)) * 4096  # 1 MiB
        atomic_write_bytes(path, payload)
        with open(path, "rb") as handle:
            assert handle.read() == payload


class TestFailureAtomicity:
    def _fail_write(self, tmp_path, kind, old=b"OLD CONTENTS"):
        """Inject ``kind`` at the first write; the destination must
        keep ``old`` byte-for-byte."""
        path = str(tmp_path / "artifact.bin")
        atomic_write_bytes(path, old)
        fs = FaultyFS(FsFaultSchedule(seed=7, script=[kind]))
        exc = PowerCut if kind == "powercut" else OSError
        with pytest.raises(exc):
            with use_fs(fs):
                atomic_write_bytes(path, b"NEW" * 1000)
        with open(path, "rb") as handle:
            assert handle.read() == old
        return path, fs

    @pytest.mark.parametrize("kind", FS_FAULT_KINDS)
    def test_destination_never_torn(self, tmp_path, kind):
        self._fail_write(tmp_path, kind)

    @pytest.mark.parametrize("kind", ("enospc", "torn", "eio"))
    def test_clean_failure_removes_its_temp(self, tmp_path, kind):
        path, _fs = self._fail_write(tmp_path, kind)
        # the process survived the OSError, so it cleaned up after itself
        assert stale_temps(path) == []

    def test_power_cut_leaves_the_temp(self, tmp_path):
        # a dead process runs no cleanup: its temp stays for the sweep
        path, fs = self._fail_write(tmp_path, "powercut")
        fs.revive()
        with use_fs(fs):
            assert len(stale_temps(path)) == 1

    def test_next_writer_sweeps_stale_temps(self, tmp_path):
        path, fs = self._fail_write(tmp_path, "powercut")
        fs.revive()
        with use_fs(fs):
            atomic_write_bytes(path, b"second try")
        with open(path, "rb") as handle:
            assert handle.read() == b"second try"
        assert stale_temps(path) == []

    def test_cleanup_stale_temps_counts(self, tmp_path):
        path = str(tmp_path / "artifact.bin")
        for pid_tag in ("123", "456"):
            temp = str(tmp_path / (".artifact.bin.ldbtmp.%s" % pid_tag))
            with open(temp, "wb") as handle:
                handle.write(b"dead writer droppings")
        assert cleanup_stale_temps(path) == 2
        assert stale_temps(path) == []

    def test_rename_failure_keeps_old_contents(self, tmp_path):
        path = str(tmp_path / "artifact.bin")
        atomic_write_bytes(path, b"OLD")
        # scheduled ops: the write and fsync land; the rename faults
        fs = FaultyFS(FsFaultSchedule(script=["ok", "ok", "eio"]))
        with pytest.raises(OSError):
            with use_fs(fs):
                atomic_write_bytes(path, b"NEW")
        with open(path, "rb") as handle:
            assert handle.read() == b"OLD"


class TestUseFs:
    def test_nesting_and_restore(self, tmp_path):
        base = current_fs()
        fs = FaultyFS(FsFaultSchedule())
        with use_fs(fs):
            assert current_fs() is fs
            inner = FaultyFS(FsFaultSchedule())
            with use_fs(inner):
                assert current_fs() is inner
            assert current_fs() is fs
        assert current_fs() is base

    def test_deep_write_sites_see_injected_fs(self, tmp_path):
        path = str(tmp_path / "deep.bin")

        def buried_write():
            atomic_write_bytes(path, b"payload")  # no fs parameter

        fs = FaultyFS(FsFaultSchedule(script=["eio"]))
        with use_fs(fs):
            with pytest.raises(OSError):
                buried_write()
        assert not os.path.exists(path)


class TestSchedule:
    def test_spec_round_trip(self):
        schedule = FsFaultSchedule(seed=9, enospc=0.1, powercut=0.05,
                                   limit=3, after=2)
        rebuilt = FsFaultSchedule.from_spec(schedule.spec())
        assert rebuilt.spec() == schedule.spec()

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fs fault spec"):
            FsFaultSchedule.from_spec({"seed": 1, "tornado": 0.5})

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            FsFaultSchedule(enospc=1.5)

    def test_bad_script_action_rejected(self):
        with pytest.raises(ValueError):
            FsFaultSchedule(script=["ok", "explode"])

    def test_script_consumed_then_clean(self):
        schedule = FsFaultSchedule(script=["ok", "eio"])
        assert [schedule.next_action() for _ in range(4)] \
            == ["ok", "eio", "ok", "ok"]
        assert schedule.injected == 1
        assert schedule.counts == {"eio": 1}

    def test_after_spares_early_operations(self):
        schedule = FsFaultSchedule(seed=0, eio=1.0, after=3)
        actions = [schedule.next_action() for _ in range(5)]
        assert actions[:3] == ["ok", "ok", "ok"]
        assert actions[3:] == ["eio", "eio"]

    def test_limit_caps_injections(self):
        schedule = FsFaultSchedule(seed=0, eio=1.0, limit=2)
        actions = [schedule.next_action() for _ in range(10)]
        assert actions.count("eio") == 2

    def test_same_seed_same_sequence(self):
        seq = [FsFaultSchedule(seed=42, enospc=0.2, torn=0.2,
                               powercut=0.2, eio=0.2)
               for _ in range(2)]
        assert ([seq[0].next_action() for _ in range(50)]
                == [seq[1].next_action() for _ in range(50)])


class TestFaultyFS:
    def test_dead_machine_refuses_everything(self, tmp_path):
        path = str(tmp_path / "x.bin")
        fs = FaultyFS(FsFaultSchedule(script=["powercut"]))
        with pytest.raises(PowerCut):
            with use_fs(fs):
                atomic_write_bytes(path, b"doomed")
        with pytest.raises(PowerCut):
            fs.listdir(str(tmp_path))
        fs.revive()
        assert isinstance(fs.listdir(str(tmp_path)), list)

    def test_power_cut_truncates_unsynced_bytes(self, tmp_path):
        temp_dir = str(tmp_path)
        # cut power at the fsync: some seeded prefix of what was
        # written (nothing was synced yet) survives
        fs = FaultyFS(FsFaultSchedule(seed=3,
                                      script=["ok", "ok", "powercut"]))
        path = str(tmp_path / "y.bin")
        with pytest.raises(PowerCut):
            with use_fs(fs):
                atomic_write_bytes(path, b"Z" * 4096)
        fs.revive()
        (temp,) = [entry for entry in os.listdir(temp_dir)
                   if ".ldbtmp." in entry]
        survived = os.path.getsize(os.path.join(temp_dir, temp))
        assert 0 <= survived <= 4096

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_deterministic_per_seed(self, seed):
        import shutil
        import tempfile
        outcomes = []
        for _ in range(2):
            workdir = tempfile.mkdtemp(prefix="atomicio-det-")
            try:
                schedule = FsFaultSchedule(seed=seed, enospc=0.15,
                                           torn=0.15, powercut=0.15,
                                           eio=0.15)
                fs = FaultyFS(schedule)
                path = os.path.join(workdir, "d.bin")
                try:
                    with use_fs(fs):
                        atomic_write_bytes(path, b"Q" * 9000)
                    outcome = ("ok", os.path.getsize(path))
                except PowerCut:
                    outcome = ("powercut",)
                except OSError as err:
                    outcome = ("oserror", err.errno)
                outcomes.append((outcome, schedule.injected,
                                 dict(schedule.counts)))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        assert outcomes[0] == outcomes[1]
