"""Fleet-scale crash triage over the post-mortem debugging stack.

`ROADMAP item 4 <../../ROADMAP.md>`_: cores and recordings made crashes
durable; this package makes them *countable*.  See ``docs/artifacts.md``
for the user-facing story and DESIGN.md Sec. 14 for the architecture.
"""

from .engine import (FRAME_LIMIT, KIND_CORE, KIND_RECORDING,
                     TriageEngine, TriageError, classify, scan_dir,
                     triage_artifact)
from .report import (ERROR_CORRUPT_CORE, ERROR_CORRUPT_RECORDING,
                     ERROR_DIVERGED, ERROR_KINDS, ERROR_NOT_ARTIFACT,
                     ERROR_SYMBOLIZE, ERROR_UNREADABLE, ArtifactError,
                     ArtifactRecord, CrashGroup, TriageReport)
from .stackhash import (CORRUPT_TOKEN, MAX_HASH_FRAMES, fold_api_frames,
                        fold_frame, hash_backtrace, stack_hash)

__all__ = [
    "TriageEngine", "TriageError", "TriageReport", "CrashGroup",
    "ArtifactRecord", "ArtifactError", "classify", "scan_dir",
    "triage_artifact", "hash_backtrace", "stack_hash", "fold_frame",
    "fold_api_frames", "KIND_CORE", "KIND_RECORDING", "ERROR_KINDS",
    "ERROR_UNREADABLE", "ERROR_NOT_ARTIFACT", "ERROR_CORRUPT_CORE",
    "ERROR_CORRUPT_RECORDING", "ERROR_DIVERGED", "ERROR_SYMBOLIZE",
    "MAX_HASH_FRAMES", "CORRUPT_TOKEN", "FRAME_LIMIT",
]
