"""T1 — fleet triage: artifacts/second and dedup quality.

A triage pipeline earns its keep on three axes, measured here over the
deterministic seeded corpus from ``tools/make_crash_corpus.py`` (known
duplicate families across ISAs, mixed cores + recordings, plus the
corrupt-artifact matrix):

* **throughput** — artifacts/second through the full post-mortem
  symbolization stack, in the one serial pass every triage runs;
* **dedup quality** — *completeness* (every seeded family buckets into
  exactly one crash group) and *purity* (no crash group mixes two
  families), both asserted at 1.0;
* **robustness** — every corrupt seed answers with its expected typed
  error kind, and the batch always completes.

The batch runs ``REPS`` times and the throughput comes from the
median run, because one run on a shared 2-vCPU host swings with the
host's own load.

Emits ``BENCH_triage.json`` at the repository root.  ``BENCH_QUICK=1``
shrinks the corpus (3 ISAs, 3 dupes) for the CI smoke job.
"""

from __future__ import annotations

import importlib.util
import json
import os
import statistics
import time
from pathlib import Path

from .conftest import report

_ROOT = Path(__file__).resolve().parent.parent
_OUT = _ROOT / "BENCH_triage.json"

#: repetitions of the batch; throughput comes from the median
REPS = 5


def _corpus_tool():
    spec = importlib.util.spec_from_file_location(
        "make_crash_corpus", _ROOT / "tools" / "make_crash_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_corpus(scratch: str, quick: bool) -> dict:
    tool = _corpus_tool()
    if quick:
        return tool.build_corpus(scratch, arches=["rmips", "rsparc",
                                                  "rvax"],
                                 dupes=3, corrupt=True)
    return tool.build_corpus(scratch, arches=tool.ALL_ARCHES, dupes=5,
                             corrupt=True)


def dedup_quality(reporting, manifest: dict, scratch: str) -> dict:
    """Completeness and purity of the grouping against ground truth."""
    group_of = {}  # artifact filename -> stack hash
    for group in reporting.groups:
        for member in group.members:
            group_of[os.path.relpath(member.path, scratch)] = \
                group.stack_hash
    split = merged = 0
    family_of_hash: dict = {}
    for family, members in manifest["families"].items():
        hashes = {group_of.get(m) for m in members}
        if len(hashes) != 1 or None in hashes:
            split += 1  # one bug scattered over several groups
        for h in hashes:
            if h is None:
                continue
            if family_of_hash.setdefault(h, family) != family:
                merged += 1  # two distinct bugs share a group
    families = len(manifest["families"])
    return {
        "families": families,
        "split_families": split,
        "merged_families": merged,
        "completeness": (families - split) / families,
        "purity": (families - merged) / families,
    }


def error_quality(reporting, manifest: dict) -> dict:
    """Did every corrupt seed answer with its expected typed error?"""
    by_name = {os.path.basename(e.path): e.kind for e in reporting.errors}
    expected = {a["path"]: a["expect_error"]
                for a in manifest["artifacts"] if a["family"] is None}
    mismatched = {name: (want, by_name.get(name))
                  for name, want in expected.items()
                  if by_name.get(name) != want}
    return {"corrupt_seeds": len(expected),
            "typed_as_expected": len(expected) - len(mismatched),
            "mismatched": mismatched,
            "unexpected_errors": len(reporting.errors) - len(expected)}


def _run(scratch: str):
    from repro.triage import TriageEngine
    started = time.perf_counter()
    reporting = TriageEngine().triage_dir(scratch)
    return reporting, time.perf_counter() - started


def measure(scratch: str, quick: bool) -> dict:
    manifest = build_corpus(scratch, quick)
    artifacts = len(manifest["artifacts"])
    runs = []
    for _ in range(REPS):
        reporting, seconds = _run(scratch)
        runs.append(seconds)
    seconds = statistics.median(runs)
    return {
        "benchmark": "triage",
        "workload": ("seeded duplicate crash families (%d arches x 3 "
                     "families x %d dupes, cores + recordings) + %d "
                     "corrupt seeds" % (len(manifest["arches"]),
                                        manifest["dupes"],
                                        artifacts - reporting.triaged)),
        "artifacts": artifacts,
        "triaged": reporting.triaged,
        "groups": len(reporting.groups),
        "cpu_count": os.cpu_count(),
        "reps": REPS,
        "serial": {"seconds": seconds,
                   "runs": runs,
                   "artifacts_per_second": artifacts / seconds},
        "dedup": dedup_quality(reporting, manifest, scratch),
        "errors": error_quality(reporting, manifest),
    }


def _check(data: dict) -> None:
    assert data["dedup"]["completeness"] == 1.0, data["dedup"]
    assert data["dedup"]["purity"] == 1.0, data["dedup"]
    assert data["errors"]["mismatched"] == {}, data["errors"]
    assert data["errors"]["unexpected_errors"] == 0, data["errors"]


def emit(data: dict) -> None:
    _OUT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _report(data: dict) -> None:
    report("", "T1. Fleet triage: throughput and dedup quality",
           "  workload: %s" % data["workload"],
           "  serial      %6.1f artifacts/s"
           % data["serial"]["artifacts_per_second"],
           "  dedup: completeness %.2f purity %.2f over %d families"
           % (data["dedup"]["completeness"], data["dedup"]["purity"],
              data["dedup"]["families"]),
           "  corrupt seeds typed as expected: %d/%d"
           % (data["errors"]["typed_as_expected"],
              data["errors"]["corrupt_seeds"]))


def test_triage_fleet(tmp_path):
    data = measure(str(tmp_path), quick=bool(os.environ.get("BENCH_QUICK")))
    emit(data)
    _report(data)
    _check(data)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        data = measure(scratch,
                       quick=bool(os.environ.get("BENCH_QUICK")))
    emit(data)
    _check(data)
    print(json.dumps({"artifacts": data["artifacts"],
                      "groups": data["groups"],
                      "artifacts_per_second":
                          data["serial"]["artifacts_per_second"]},
                     indent=2))
    print("dedup", data["dedup"])
    print("wrote %s" % _OUT)
