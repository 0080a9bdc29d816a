"""repro.snap — serializable mid-run checkpoints for O(tail) fault
injection.

The subsystem in three layers (docs/CHECKPOINT.md has the full story):

* :mod:`repro.cpu.resumable` (in the cpu package, beside the engine it
  extends) — explicit-frame trampoline execution of decoded functions,
  mid-run capture into :class:`~repro.cpu.resumable.ResumeState`, and
  bit-identical resume with mid-run fault arming;
* :mod:`repro.snap.format` / :mod:`repro.snap.store` — version-tagged
  binary serialization, the checkpoint-set key and framing of the
  ``.snapset`` entries the toolchain cache stores;
* :mod:`repro.snap.placement` / :mod:`repro.snap.build` — the
  vulnerability-density placement policy and the builder that turns
  one golden capture run into a shared :class:`CheckpointSet`.

Campaigns pick checkpoints up transparently: ``run_plans`` /
``InjectionSession`` resolve each plan to the nearest checkpoint at or
before its fault site and execute only the tail; a plan before every
checkpoint resumes the start state.
"""

from .build import MIN_ELIGIBLE, CheckpointSet, build_checkpoints
from .format import (
    SNAP_VERSION,
    SnapFormatError,
    deserialize_state,
    serialize_state,
)
from .placement import CapturePolicy, PlacementConfig, make_policy
from .store import checkpoint_key, machine_key

__all__ = [
    "MIN_ELIGIBLE",
    "CheckpointSet",
    "build_checkpoints",
    "SNAP_VERSION",
    "SnapFormatError",
    "serialize_state",
    "deserialize_state",
    "CapturePolicy",
    "PlacementConfig",
    "make_policy",
    "checkpoint_key",
    "machine_key",
]
