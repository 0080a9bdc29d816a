"""Re-export of the explicit-frame (trampoline) executor's public
surface, which lives in :mod:`repro.cpu.compiled`.

The trampoline is the compiled engine's only executor: it runs compiled
block segments and, wherever those cannot run, one emitted function per
decoded record. This module keeps the checkpoint-facing names (start
state, capture, restore, resume, stream marks) importable from one
stable place. The frame/cursor format is unchanged: checkpoints written
by :mod:`repro.snap.format` still load and resume bit-identically.
"""

from __future__ import annotations

from .compiled import (  # noqa: F401
    Frame,
    FrameState,
    ResumeState,
    capture_state,
    push_frame,
    rebuild_frames,
    restore_payload,
    resume_run,
    run_resumable,
    run_stack,
    start_state,
    stream_mark,
)

__all__ = [
    "Frame",
    "FrameState",
    "ResumeState",
    "capture_state",
    "push_frame",
    "rebuild_frames",
    "restore_payload",
    "resume_run",
    "run_resumable",
    "run_stack",
    "start_state",
    "stream_mark",
]
