"""Triage over damaged and salvaged artifacts: every degenerate file
yields a *typed* error — zero-length, mid-magic, magic-only — and a
truncated-but-salvageable artifact triages as a normal record that
says ``salvaged``.  The batch never aborts, whatever the bytes.
"""

import os
import shutil

from repro.machines.core import MAGIC as CORE_MAGIC
from repro.obs import Observability
from repro.trace.format import TRACE_MAGIC
from repro.triage import (ERROR_CORRUPT_CORE, ERROR_CORRUPT_RECORDING,
                          ERROR_NOT_ARTIFACT, ArtifactError, ArtifactRecord,
                          TriageEngine, classify, triage_artifact)


def _healthy(manifest, kind):
    return next(a["path"] for a in manifest["artifacts"]
                if a["family"] and a["kind"] == kind)


# -- degenerate files: typed errors, never an exception --------------------

def test_zero_length_file_is_not_an_artifact(tmp_path):
    for name in ("empty.core", "empty.ldbrec"):
        path = tmp_path / name
        path.write_bytes(b"")
        error = triage_artifact(str(path))
        assert isinstance(error, ArtifactError)
        assert error.kind == ERROR_NOT_ARTIFACT
        assert "0 bytes" in error.message


def test_mid_magic_truncation_is_not_an_artifact(tmp_path):
    # cut *inside* the magic: too short to identify, so it types as
    # alien rather than corrupt-<kind>
    for magic in (CORE_MAGIC, TRACE_MAGIC):
        path = tmp_path / ("half-%s.bin" % magic[:2].decode())
        path.write_bytes(magic[:2])
        assert classify(str(path)) == ERROR_NOT_ARTIFACT
        error = triage_artifact(str(path))
        assert isinstance(error, ArtifactError)
        assert error.kind == ERROR_NOT_ARTIFACT


def test_magic_only_file_is_corrupt_of_its_kind(tmp_path):
    # the full magic identifies the artifact kind; the missing header
    # makes it corrupt-<kind> with an honest "truncated" message — not
    # "bad magic", not not-an-artifact, and never a raw exception
    cases = [(CORE_MAGIC, ERROR_CORRUPT_CORE),
             (TRACE_MAGIC, ERROR_CORRUPT_RECORDING)]
    for magic, want in cases:
        path = tmp_path / ("just-magic-%s.bin" % want)
        path.write_bytes(magic)
        error = triage_artifact(str(path))
        assert isinstance(error, ArtifactError) and error.kind == want, error
        assert "truncated" in error.message


def test_magic_plus_partial_header_is_corrupt(tmp_path):
    for magic, want in [(CORE_MAGIC, ERROR_CORRUPT_CORE),
                        (TRACE_MAGIC, ERROR_CORRUPT_RECORDING)]:
        path = tmp_path / ("cut-header-%s.bin" % want)
        path.write_bytes(magic + b"\x01")
        error = triage_artifact(str(path))
        assert isinstance(error, ArtifactError) and error.kind == want, error


# -- salvaged artifacts triage as first-class records ----------------------

def test_truncated_recording_triages_salvaged(corpus, tmp_path):
    directory, manifest = corpus
    source = os.path.join(directory, _healthy(manifest, "recording"))
    raw = open(source, "rb").read()
    cut = tmp_path / "tail-torn.ldbrec"
    cut.write_bytes(raw[:-1])  # the END block is damaged: salvage path
    record = triage_artifact(str(cut))
    assert isinstance(record, ArtifactRecord), record
    assert record.salvaged is True
    assert record.kind == "recording"
    assert record.stack_hash


def test_pristine_rows_are_not_salvaged(corpus):
    directory, manifest = corpus
    record = triage_artifact(os.path.join(directory,
                                          _healthy(manifest, "recording")))
    assert isinstance(record, ArtifactRecord) and record.salvaged is False


def test_truncated_core_rows_stay_typed(corpus, tmp_path):
    # a core's symbol table serializes last, so tail truncation usually
    # costs the table and the salvaged open refuses without table_ps —
    # the answer must then be corrupt-core, never an unhandled exception
    directory, manifest = corpus
    raw = open(os.path.join(directory,
                            _healthy(manifest, "core")), "rb").read()
    for fraction in (0.95, 0.75, 0.5, 0.25, 0.05):
        path = tmp_path / ("core-%d.core" % (fraction * 100))
        path.write_bytes(raw[:int(len(raw) * fraction)])
        answer = triage_artifact(str(path))
        if isinstance(answer, ArtifactRecord):
            assert answer.salvaged is True
        else:
            assert answer.kind == ERROR_CORRUPT_CORE


def test_salvaged_member_dedups_into_its_crash_group(corpus, tmp_path):
    """A fleet where one node's disk tore the recording tail: the
    salvaged copy lands in the same crash group as its healthy twin,
    and the batch counts it in ``triage.salvaged``."""
    directory, manifest = corpus
    name = _healthy(manifest, "recording")
    batch = tmp_path / "batch"
    batch.mkdir()
    shutil.copy(os.path.join(directory, name), str(batch / name))
    raw = open(os.path.join(directory, name), "rb").read()
    (batch / ("torn-" + name)).write_bytes(raw[:-1])
    obs = Observability()
    report = TriageEngine(obs=obs).triage_dir(str(batch))
    assert report.scanned == 2 and report.triaged == 2
    group = report.group_of(str(batch / name))
    assert group is report.group_of(str(batch / ("torn-" + name)))
    flags = {os.path.basename(m.path): m.salvaged for m in group.members}
    assert flags == {name: False, "torn-" + name: True}
    assert obs.metrics.get("triage.salvaged") == 1


def test_degenerate_zoo_never_aborts_the_batch(corpus, tmp_path):
    directory, manifest = corpus
    zoo = tmp_path / "zoo"
    zoo.mkdir()
    (zoo / "empty.core").write_bytes(b"")
    (zoo / "magic-only.core").write_bytes(CORE_MAGIC)
    (zoo / "magic-only.ldbrec").write_bytes(TRACE_MAGIC)
    (zoo / "half-magic.bin").write_bytes(TRACE_MAGIC[:2])
    name = _healthy(manifest, "recording")
    shutil.copy(os.path.join(directory, name), str(zoo / name))
    raw = open(os.path.join(directory, name), "rb").read()
    (zoo / "torn.ldbrec").write_bytes(raw[:-1])
    report = TriageEngine().triage_dir(str(zoo))
    assert report.scanned == 6
    assert report.triaged == 2  # the healthy copy and the salvaged one
    kinds = sorted(e.kind for e in report.errors)
    assert kinds == sorted([ERROR_NOT_ARTIFACT, ERROR_NOT_ARTIFACT,
                            ERROR_CORRUPT_CORE, ERROR_CORRUPT_RECORDING])


# -- the report file itself is written atomically --------------------------

def test_dump_json_is_atomic_and_leaves_no_temp(corpus, tmp_path):
    directory, _ = corpus
    report = TriageEngine().triage_dir(directory)
    out = tmp_path / "report.json"
    report.dump_json(str(out))
    assert out.exists()
    leftovers = [n for n in os.listdir(str(tmp_path)) if ".ldbtmp." in n]
    assert leftovers == []
    # salvaged is part of the serialized row schema
    import json
    data = json.loads(out.read_text())
    assert "salvaged" in data["groups"][0]["exemplar"]
