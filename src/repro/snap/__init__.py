"""repro.snap — serializable mid-run checkpoints for O(tail) fault
injection.

The subsystem in three layers (docs/CHECKPOINT.md has the full story):

* :mod:`repro.cpu.resumable` (in the cpu package, beside the engine it
  extends) — explicit-frame trampoline execution of decoded functions,
  mid-run capture into :class:`~repro.cpu.resumable.ResumeState`, and
  bit-identical resume with mid-run fault arming;
* :mod:`repro.snap.format` / :mod:`repro.snap.store` — one value
  encoding (plain trees written by ``marshal``, pinned to version 2,
  objects rebuilt only from an allowlist) under state blobs, golden
  bodies and set bodies, and the keys of the ``.snapset`` and
  ``.golden`` entries the toolchain cache stores;
* :mod:`repro.snap.build` — the builder that turns one golden capture
  run, with checkpoints spaced uniformly along the eligible stream,
  into the :class:`CheckpointSet` every fault model of a cell shares.

Campaigns pick checkpoints up transparently: ``run_plans`` /
``InjectionSession`` resolve each plan to the nearest checkpoint at or
before its fault site and execute only the tail; a plan before every
checkpoint resumes the start state.
"""

from .._lazy import lazy_exports

__all__ = [
    "MIN_ELIGIBLE",
    "CheckpointSet",
    "build_checkpoints",
    "SNAP_VERSION",
    "SnapFormatError",
    "serialize_state",
    "deserialize_state",
    "CapturePolicy",
    "checkpoint_key",
    "machine_key",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".build": (
        "MIN_ELIGIBLE", "CapturePolicy", "CheckpointSet", "build_checkpoints",
    ),
    ".format": (
        "SNAP_VERSION", "SnapFormatError", "deserialize_state",
        "serialize_state",
    ),
    ".store": ("checkpoint_key", "machine_key"),
})
