"""Adaptive checkpoint placement.

Checkpoints are spaced along the eligible-instruction stream of the
golden run. Uniform spacing wastes density on protected regions where
few fault plans ever land; the placement policy here leans on the
static window-of-vulnerability analysis
(:func:`repro.analysis.vulnerability.exposed_sites_for_model`):
functions whose sites are mostly exposed under the campaign's fault
model get intervals up to ``density_boost`` times denser than the
base, fully-protected functions get the sparse base interval. The
policy is a pure function of (module, fault model, config) — every
process derives the identical checkpoint set, which is what lets the
content-addressed store share one set across lab shards, cluster
workers and the service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.vulnerability import (
    CHECKER_EXPOSED,
    PROTECTED,
    SYNC_EXPOSED,
    VulnerabilityReport,
    analyze_module,
)
from ..cpu.resumable import capture_state


@dataclass(frozen=True)
class PlacementConfig:
    """Deterministic placement knobs (part of the store key: changing
    any of them produces a different checkpoint set)."""

    #: Target number of checkpoints across the whole run.
    budget: int = 24
    #: Never place checkpoints closer than this many eligible
    #: instructions, no matter how exposed the region.
    min_interval: int = 256
    #: Interval divisor in fully-exposed functions (1.0 = uniform).
    density_boost: float = 4.0
    #: Hard cap on captured checkpoints (runaway guard for workloads
    #: whose eligible count dwarfs the profile estimate).
    max_checkpoints: int = 96

    def cache_key(self) -> tuple:
        return ("placement", 1, self.budget, self.min_interval,
                self.density_boost, self.max_checkpoints)


def _exposed_fraction(fv, model: str) -> float:
    """The share of a function's sites the model's stream can corrupt —
    the per-function analogue of ``exposed_sites_for_model``."""
    total = len(fv.sites)
    if not total:
        return 0.0
    if model == "address-bitflip":
        exposed = fv.count(SYNC_EXPOSED)
    elif model == "branch-flip":
        exposed = sum(1 for s in fv.sites
                      if s.category == SYNC_EXPOSED
                      and s.label.startswith("br.cond"))
    elif model == "checker-fault":
        exposed = fv.count(CHECKER_EXPOSED) + sum(
            1 for s in fv.sites
            if s.category == SYNC_EXPOSED
            and s.label.startswith("extractelement"))
    elif model == "instruction-skip":
        exposed = (fv.count(PROTECTED) + fv.count(SYNC_EXPOSED)
                   + fv.count(CHECKER_EXPOSED))
    elif model == "memory-bitflip":
        return 0.0  # outside the register-site analysis: uniform
    else:  # register-bitflip, multi-bitflip, and future reg-stream models
        exposed = fv.exposed
    return exposed / total


def function_intervals(module, eligible: int, model: str,
                       config: Optional[PlacementConfig] = None,
                       report: Optional[VulnerabilityReport] = None,
                       ) -> Dict[str, int]:
    """Per-function capture interval (eligible instructions between
    checkpoints while that function is on top of the stack), plus the
    ``""`` key holding the base interval."""
    config = config or PlacementConfig()
    base = max(config.min_interval, eligible // max(1, config.budget))
    if report is None:
        report = analyze_module(module)
    intervals = {"": base}
    for name, fv in report.functions.items():
        frac = _exposed_fraction(fv, model)
        divisor = 1.0 + (config.density_boost - 1.0) * frac
        intervals[name] = max(config.min_interval, int(base / divisor))
    return intervals


class CapturePolicy:
    """The live capture hook :func:`repro.cpu.resumable.run_stack`
    drives: ``next_index`` is the eligible index at which to take the
    next checkpoint, ``take`` copies the state and re-arms using the
    current function's interval."""

    __slots__ = ("intervals", "base", "limit", "next_index", "states")

    def __init__(self, intervals: Dict[str, int], limit: int):
        self.intervals = intervals
        self.base = intervals.get("", 256)
        self.limit = limit
        # Skip index 0: a checkpoint at the very start is just the
        # start state (repro.cpu.resumable.start_state) the injection
        # session already holds.
        self.next_index = min(intervals.values()) if intervals else 256
        self.states: List = []

    def take(self, M, stack, executed) -> None:
        if len(self.states) >= self.limit:
            self.next_index = 1 << 62
            return
        self.states.append(capture_state(M, stack, executed))
        fn = stack[-1].dfn.fn.name if stack else ""
        step = self.intervals.get(fn, self.base)
        self.next_index = M.eligible_executed + step


def make_policy(module, eligible: int, model: str,
                config: Optional[PlacementConfig] = None) -> CapturePolicy:
    config = config or PlacementConfig()
    intervals = function_intervals(module, eligible, model, config)
    return CapturePolicy(intervals, config.max_checkpoints)
