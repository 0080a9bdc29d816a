"""Dynamic instruction tracing and fault-region demarcation.

The paper's campaign begins by collecting an instruction trace with
Intel SDE's debugtrace tool "to automatically find and demarcate the
boundaries of the hardened part of the program" so faults are only
injected there (§IV-B — they do not inject into unhardened external
libraries). This module is that step for the simulator: collect a
per-function dynamic profile of *fault-eligible* (value-producing)
instructions and build eligibility predicates for restricted
campaigns.

The predicates are small classes rather than lambdas so they (a)
survive ``fork``/pickle into campaign worker processes and (b) carry a
``cache_key`` the golden-run cache can key on (see
:func:`repro.faults.campaign.golden_profile`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Sequence

from ..cpu.interpreter import Machine, MachineConfig
from ..ir.function import Function
from ..ir.module import Module


@dataclass
class TraceSummary:
    """Dynamic profile of one fault-free run."""

    #: Eligible (value-producing, non-intrinsic) instructions per function.
    per_function: Dict[str, int] = field(default_factory=dict)
    #: Dynamic opcode histogram over eligible instructions.
    opcodes: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return sum(self.per_function.values())

    def fraction(self, fn_name: str) -> float:
        if self.total == 0:
            return 0.0
        return self.per_function.get(fn_name, 0) / self.total

    def hottest(self, n: int = 5):
        return sorted(
            self.per_function.items(), key=lambda kv: -kv[1]
        )[:n]


def collect_trace(module: Module, entry: str, args: Sequence) -> TraceSummary:
    """Run once, fault-free, recording where eligible instructions
    execute (the paper's preparatory debugtrace run)."""
    summary = TraceSummary()

    def record(inst, fn):
        summary.per_function[fn.name] = summary.per_function.get(fn.name, 0) + 1
        summary.opcodes[inst.opcode] += 1

    machine = Machine(module, MachineConfig(collect_timing=False))
    machine.count_only = True
    machine.trace_eligible = record
    machine.run(entry, args)
    return summary


class HardenedOnly:
    """Eligibility predicate: inject only into functions a hardening
    pass transformed (the paper's default region)."""

    cache_key = ("hardened_only",)

    def __call__(self, fn: Function) -> bool:
        return bool(fn.hardened) and not fn.is_intrinsic

    def __eq__(self, other) -> bool:
        return isinstance(other, HardenedOnly)

    def __hash__(self) -> int:
        return hash(self.cache_key)


class FunctionsOnly:
    """Eligibility predicate restricted to the named functions."""

    def __init__(self, names: FrozenSet[str]):
        self.names = frozenset(names)
        self.cache_key = ("functions_only", self.names)

    def __call__(self, fn: Function) -> bool:
        return fn.name in self.names and not fn.is_intrinsic

    def __eq__(self, other) -> bool:
        return isinstance(other, FunctionsOnly) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.cache_key)


def hardened_only(module: Module) -> HardenedOnly:
    """Eligibility predicate: inject only into functions a hardening
    pass transformed (the paper's default region)."""
    return HardenedOnly()


def functions_only(names: FrozenSet[str]) -> FunctionsOnly:
    """Eligibility predicate restricted to the named functions."""
    return FunctionsOnly(names)
