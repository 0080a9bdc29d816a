"""Static inspection of (hardened) modules.

Answers "what did the transformation actually do" without running
anything: instruction histograms, wrapper/check densities, replication
coverage. Used by tests and the inspection example, and handy when
tuning the cost model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from ..cpu.intrinsics import is_checker_intrinsic
from ..ir.function import Function
from ..ir.instructions import CallInst
from ..ir.module import Module

_WRAPPER_OPS = ("extractelement", "insertelement", "broadcast")


@dataclass
class FunctionReport:
    name: str
    hardened: str  # "" for native
    instructions: int = 0
    blocks: int = 0
    vector_instructions: int = 0
    wrapper_instructions: int = 0
    check_calls: int = 0
    calls: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    opcode_histogram: Counter = field(default_factory=Counter)

    @property
    def replication_coverage(self) -> float:
        """Fraction of value-producing instructions whose result is
        replicated (vector-typed)."""
        producing = sum(
            n for op, n in self.opcode_histogram.items()
            if op not in ("store", "br", "ret", "unreachable")
        )
        if producing == 0:
            return 0.0
        return self.vector_instructions / producing


@dataclass
class ModuleReport:
    name: str
    functions: Dict[str, FunctionReport] = field(default_factory=dict)

    @property
    def instructions(self) -> int:
        return sum(f.instructions for f in self.functions.values())

    @property
    def check_calls(self) -> int:
        return sum(f.check_calls for f in self.functions.values())

    @property
    def wrapper_instructions(self) -> int:
        return sum(f.wrapper_instructions for f in self.functions.values())

    def summary_rows(self) -> List[tuple]:
        rows = []
        for fr in self.functions.values():
            rows.append(
                (
                    fr.name,
                    fr.hardened or "-",
                    fr.instructions,
                    f"{100 * fr.replication_coverage:.0f}%",
                    fr.wrapper_instructions,
                    fr.check_calls,
                )
            )
        return rows


def inspect_function(fn: Function) -> FunctionReport:
    report = FunctionReport(name=fn.name, hardened=fn.hardened or "")
    report.blocks = len(fn.blocks)
    for inst in fn.instructions():
        report.instructions += 1
        opcode = inst.opcode
        report.opcode_histogram[opcode] += 1
        if inst.type.is_vector:
            report.vector_instructions += 1
        if opcode in _WRAPPER_OPS:
            report.wrapper_instructions += 1
        elif opcode == "load":
            report.loads += 1
        elif opcode == "store":
            report.stores += 1
        elif opcode == "br":
            report.branches += 1
        elif isinstance(inst, CallInst):
            if is_checker_intrinsic(inst.callee.name):
                report.check_calls += 1
            else:
                report.calls += 1
    return report


def inspect_module(module: Module) -> ModuleReport:
    report = ModuleReport(name=module.name)
    for fn in module.defined_functions():
        report.functions[fn.name] = inspect_function(fn)
    return report


def diff_reports(before: ModuleReport, after: ModuleReport) -> List[tuple]:
    """Per-function static instruction growth (the static analogue of
    Table III's dynamic increase factors)."""
    rows = []
    for name, fb in before.functions.items():
        fa = after.functions.get(name)
        if fa is None or fb.instructions == 0:
            continue
        rows.append(
            (
                name,
                fb.instructions,
                fa.instructions,
                fa.instructions / fb.instructions,
                fa.check_calls,
                fa.wrapper_instructions,
            )
        )
    return rows
