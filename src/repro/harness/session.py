"""Shared experiment plumbing.

A :class:`Session` memoizes runs so that experiments sharing
measurements (e.g. Figures 11, 12 and 14 all need native and ELZAR
runs) do not repeat work. Module construction is delegated to the
unified toolchain (:mod:`repro.toolchain`): the variant vocabulary is
the registry's (``repro.toolchain.VARIANTS``), the build recipe is the
canonical §IV-A pipeline, and results rehydrate from the shared
on-disk artifact cache when a previous process already built the cell.

See :mod:`repro.toolchain.registry` for the variant vocabulary
(``native``, ``noavx``, ``elzar``, the Figure 12 ablations,
``elzar_float``, ``elzar_proposed``, ``elzar_detect``, ``swiftr``,
``swift``).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..cpu.interpreter import Machine, MachineConfig, RunResult
from ..ir.module import Module
from ..toolchain.build import Toolchain
from ..toolchain.registry import VARIANTS, get_variant  # noqa: F401
from ..workloads.common import BuiltWorkload, outputs_match


class Session:
    def __init__(self, scale: str = "perf", check_outputs: bool = True):
        self.scale = scale
        self.check_outputs = check_outputs
        self.toolchain = Toolchain()
        self._results: Dict[Tuple[str, str], RunResult] = {}

    # Workload/module plumbing -------------------------------------------------

    def built(self, name: str) -> BuiltWorkload:
        """The workload's O3 base (= the ``noavx`` variant's module)."""
        return self.toolchain.base(name, self.scale)

    def module(self, name: str, variant: str) -> Module:
        return self.toolchain.module(name, self.scale, variant)

    # Measurement -----------------------------------------------------------------

    def run(self, name: str, variant: str) -> RunResult:
        key = (name, variant)
        cached = self._results.get(key)
        if cached is not None:
            return cached
        built = self.toolchain.build(name, self.scale, variant)
        machine = Machine(
            built.module, MachineConfig(cost_model=built.spec.cost_model)
        )
        result = machine.run(built.entry, built.args)
        if self.check_outputs and built.expected is not None:
            if not outputs_match(result.output, built.expected, built.rtol):
                raise AssertionError(
                    f"{name}/{variant} produced wrong output: "
                    f"{result.output} != {built.expected}"
                )
        self._results[key] = result
        return result

    def cycles(self, name: str, variant: str) -> float:
        return self.run(name, variant).cycles

    def overhead(self, name: str, variant: str, baseline: str = "native") -> float:
        """Single-thread normalized runtime of ``variant`` over
        ``baseline``."""
        return self.cycles(name, variant) / self.cycles(name, baseline)
