"""perf-stat-style hardware counters collected during simulation.

These feed Tables II and III of the paper directly: instruction counts
by class, AVX instruction counts, cache and branch-predictor miss
ratios, and the hardening schemes' correction/detection events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class PerfCounters:
    instructions: int = 0
    #: x86-equivalent instruction count: IR instructions weighted by the
    #: machine-instruction sequences they lower to (extract/broadcast
    #: wrappers, check sequences, ...). This is what the paper's
    #: perf-stat "number of executed instructions" corresponds to
    #: (Table III), and what ILP is computed against.
    uops: int = 0
    avx_instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    cond_branches: int = 0
    branch_misses: int = 0
    calls: int = 0
    l1_accesses: int = 0
    l1_misses: int = 0
    l2_misses: int = 0
    l3_misses: int = 0
    fp_instructions: int = 0
    int_div_instructions: int = 0
    corrections: int = 0        # ELZAR/SWIFT-R majority-vote fixes
    detections: int = 0         # DMR fail-stop detections
    recoveries_failed: int = 0  # no-majority program stops
    by_opcode: Dict[str, int] = field(default_factory=dict)

    collect_by_opcode: bool = False

    def copy(self) -> "PerfCounters":
        """Independent copy (resume states)."""
        new = object.__new__(PerfCounters)
        new.__dict__.update(self.__dict__)
        new.by_opcode = dict(self.by_opcode)
        return new

    def count(self, opcode: str) -> None:
        if self.collect_by_opcode:
            self.by_opcode[opcode] = self.by_opcode.get(opcode, 0) + 1

    _INT_FIELDS = (
        "instructions", "uops", "avx_instructions", "loads", "stores",
        "branches", "cond_branches", "branch_misses", "calls",
        "l1_accesses", "l1_misses", "l2_misses", "l3_misses",
        "fp_instructions", "int_div_instructions", "corrections",
        "detections", "recoveries_failed",
    )

    def as_dict(self) -> Dict:
        """Plain-data snapshot of every counter (benchmark baselines,
        differential tests, cross-process campaign aggregation)."""
        out = {name: getattr(self, name) for name in self._INT_FIELDS}
        out["by_opcode"] = dict(self.by_opcode)
        return out

    # Derived ratios (all in percent, matching Table II) ----------------------

    @property
    def l1_miss_ratio(self) -> float:
        if self.l1_accesses == 0:
            return 0.0
        return 100.0 * self.l1_misses / self.l1_accesses

    @property
    def branch_miss_ratio(self) -> float:
        if self.cond_branches == 0:
            return 0.0
        return 100.0 * self.branch_misses / self.cond_branches

    # Instruction-class fractions are reported over the x86-equivalent
    # instruction count (uops), matching what perf-stat divides by in
    # Table II — address arithmetic folded into addressing modes does
    # not inflate the denominator.

    @property
    def _denominator(self) -> int:
        return self.uops if self.uops else self.instructions

    @property
    def load_fraction(self) -> float:
        if self._denominator == 0:
            return 0.0
        return 100.0 * self.loads / self._denominator

    @property
    def store_fraction(self) -> float:
        if self._denominator == 0:
            return 0.0
        return 100.0 * self.stores / self._denominator

    @property
    def branch_fraction(self) -> float:
        if self._denominator == 0:
            return 0.0
        return 100.0 * self.branches / self._denominator

    @property
    def fp_fraction(self) -> float:
        if self._denominator == 0:
            return 0.0
        return 100.0 * self.fp_instructions / self._denominator

    def merge(self, other: "PerfCounters") -> None:
        self.instructions += other.instructions
        self.uops += other.uops
        self.avx_instructions += other.avx_instructions
        self.loads += other.loads
        self.stores += other.stores
        self.branches += other.branches
        self.cond_branches += other.cond_branches
        self.branch_misses += other.branch_misses
        self.calls += other.calls
        self.l1_accesses += other.l1_accesses
        self.l1_misses += other.l1_misses
        self.l2_misses += other.l2_misses
        self.l3_misses += other.l3_misses
        self.fp_instructions += other.fp_instructions
        self.int_div_instructions += other.int_div_instructions
        self.corrections += other.corrections
        self.detections += other.detections
        self.recoveries_failed += other.recoveries_failed
        for op, n in other.by_opcode.items():
            self.by_opcode[op] = self.by_opcode.get(op, 0) + n
