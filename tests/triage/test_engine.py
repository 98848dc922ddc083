"""The triage engine: dedup quality, the corruption matrix, and the
never-abort batch contract."""

import json
import os

import pytest

from repro.ldb import debugger
from repro.obs import Observability
from repro.triage import (ERROR_CORRUPT_CORE, ERROR_CORRUPT_RECORDING,
                          ERROR_DIVERGED, ERROR_NOT_ARTIFACT,
                          ERROR_UNREADABLE, ArtifactError, TriageEngine,
                          TriageError, classify, triage_artifact)


def run_triage(directory):
    return TriageEngine().triage_dir(directory)


# -- dedup quality over the seeded corpus (3 ISAs) ------------------------

def test_seeded_duplicates_bucket_together(corpus):
    directory, manifest = corpus
    report = run_triage(directory)
    for family, members in manifest["families"].items():
        hashes = {report.group_of(os.path.join(directory, m)).stack_hash
                  for m in members}
        assert len(hashes) == 1, "family %s split: %s" % (family, hashes)


def test_distinct_families_never_merge(corpus):
    directory, manifest = corpus
    report = run_triage(directory)
    owner = {}
    for family, members in manifest["families"].items():
        for m in members:
            h = report.group_of(os.path.join(directory, m)).stack_hash
            assert owner.setdefault(h, family) == family, \
                "families %s and %s merged" % (owner[h], family)
    # 3 arches x 3 families, each its own group
    assert len(owner) == len(manifest["families"])


def test_cores_and_recordings_of_one_crash_share_a_group(corpus):
    directory, manifest = corpus
    report = run_triage(directory)
    mixed = 0
    for members in manifest["families"].values():
        kinds = {m.rsplit(".", 1)[1] for m in members}
        if kinds == {"core", "ldbrec"}:
            group = report.group_of(os.path.join(directory, members[0]))
            assert {m.kind for m in group.members} == {"core", "recording"}
            mixed += 1
    assert mixed  # the corpus really seeds both artifact kinds


def test_groups_rank_by_count_then_hash(corpus):
    directory, _ = corpus
    report = run_triage(directory)
    keys = [(-g.count, g.stack_hash) for g in report.groups]
    assert keys == sorted(keys)


# -- the corruption matrix ------------------------------------------------

def test_corrupt_artifacts_never_abort_the_batch(corpus):
    directory, manifest = corpus
    report = run_triage(directory)
    assert report.scanned == len(manifest["artifacts"])
    assert report.triaged + len(report.errors) == report.scanned
    expected = {a["path"]: a["expect_error"]
                for a in manifest["artifacts"] if a["family"] is None}
    got = {os.path.basename(e.path): e.kind for e in report.errors}
    assert got == expected


def test_corruption_matrix_kinds(corpus, monkeypatch):
    """Truncated core, bad-CRC core, truncated recording, tampered
    (diverging) recording, empty file, non-artifact text — each typed,
    the same when their loader tables are read for the first time in
    the process and when they are copies."""
    directory, manifest = corpus
    expected = {a["path"]: a["expect_error"]
                for a in manifest["artifacts"] if a["family"] is None}
    assert set(expected.values()) == {ERROR_CORRUPT_CORE,
                                      ERROR_CORRUPT_RECORDING,
                                      ERROR_DIVERGED, ERROR_NOT_ARTIFACT}
    monkeypatch.setattr(debugger, "_tables", debugger._LoaderTables())
    for _ in range(2):
        for name, want in expected.items():
            error = triage_artifact(os.path.join(directory, name))
            assert isinstance(error, ArtifactError), (name, error)
            assert error.kind == want and error.message, (name, error)


def test_unreadable_path_is_a_typed_error(tmp_path):
    # a directory where a file should be: open() raises, triage types it
    error = triage_artifact(str(tmp_path))
    assert isinstance(error, ArtifactError)
    assert error.kind == ERROR_UNREADABLE


def test_classify_by_magic(corpus, tmp_path):
    directory, manifest = corpus
    healthy = [a for a in manifest["artifacts"] if a["family"]]
    core = next(a["path"] for a in healthy if a["kind"] == "core")
    rec = next(a["path"] for a in healthy if a["kind"] == "recording")
    assert classify(os.path.join(directory, core)) == "core"
    assert classify(os.path.join(directory, rec)) == "recording"
    alien = tmp_path / "a.bin"
    alien.write_bytes(b"ELF\x7f not ours")
    assert classify(str(alien)) == ERROR_NOT_ARTIFACT


# -- batch-level errors and ingestion -------------------------------------

def test_empty_and_missing_directories_are_batch_errors(tmp_path):
    with pytest.raises(TriageError):
        TriageEngine().triage_dir(str(tmp_path))  # nothing to triage
    with pytest.raises(TriageError):
        TriageEngine().triage_dir(str(tmp_path / "nope"))


def test_manifest_ingestion_resolves_relative_paths(corpus):
    directory, manifest = corpus
    report = TriageEngine().triage(
        os.path.join(directory, "manifest.json"))
    assert report.scanned == len(manifest["artifacts"])
    assert report.triaged > 0


def test_single_artifact_triage(corpus):
    directory, manifest = corpus
    core = next(a["path"] for a in manifest["artifacts"]
                if a["kind"] == "core")
    report = TriageEngine().triage(os.path.join(directory, core))
    assert report.scanned == report.triaged == 1
    assert len(report.groups) == 1


# -- the report product ----------------------------------------------------

def test_report_json_and_render(corpus, tmp_path):
    directory, manifest = corpus
    report = run_triage(directory)
    out = tmp_path / "report.json"
    report.dump_json(str(out))
    data = json.loads(out.read_text())
    assert data["scanned"] == len(manifest["artifacts"])
    assert data["groups"][0]["count"] == max(g.count
                                             for g in report.groups)
    assert {e["kind"] for e in data["errors"]} \
        == {e.kind for e in report.errors}
    text = report.render(top=5)
    assert "crash groups" in text
    assert report.groups[0].stack_hash in text
    assert "could not be triaged" in text


def test_exemplar_carries_fault_record_and_backtrace(corpus):
    directory, _ = corpus
    report = run_triage(directory)
    ex = report.groups[0].exemplar
    assert ex.arch in ("rmips", "rsparc", "rvax")
    assert ex.signo in (8, 10, 11) and ex.fault_pc is not None
    assert ex.tokens and ex.frames
    assert {"level", "proc", "pc", "offset", "corrupt"} \
        <= set(ex.frames[0])


# -- observability ---------------------------------------------------------

def test_triage_metrics_family(corpus):
    directory, manifest = corpus
    obs = Observability()
    TriageEngine(obs=obs).triage_dir(directory)
    snap = obs.metrics.snapshot()
    assert snap["triage.batches"] == 1
    assert snap["triage.artifacts"] == len(manifest["artifacts"])
    assert snap["triage.cores"] > 0 and snap["triage.recordings"] > 0
    assert snap["triage.errors"] == len(
        [a for a in manifest["artifacts"] if a["family"] is None])
    assert snap["triage.errors.diverged"] == 1
    assert snap["triage.groups"] == len(manifest["families"])
