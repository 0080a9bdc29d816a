"""Ablation experiments beyond the paper's figures.

DESIGN.md calls out the design choices these probe:

- **Scheme ablation**: the full detection/recovery design space on one
  axis — the scalar O3 base (registry ``noavx``: every scheme hardens
  scalar code, so it is the overhead baseline), SWIFT (DMR
  duplication-style detection), SWIFT-R (TMR), ELZAR fail-stop (lane
  detection), ELZAR (lane TMR) — both performance and fault outcomes.
  This quantifies what each step of the paper's §II-A taxonomy buys.
- **Lane-count ablation**: ELZAR replicates each value 4x because a
  256-bit YMM register holds four 64-bit lanes; 2 lanes (half a
  register, detection-only — majority needs ≥3) and 8 lanes (a
  hypothetical AVX-512 ZMM register) bracket that choice.
"""

from __future__ import annotations

from typing import Sequence

from ..cpu.interpreter import Machine, MachineConfig
from ..faults.campaign import CampaignConfig
from ..faults.outcomes import Outcome
from ..lab.durable import run_durable_campaign
from ..passes.elzar import elzar_transform
from ..passes.options import ElzarOptions
from ..toolchain.build import default_toolchain
from ..workloads.registry import SHORT_NAMES
from .base import Experiment

DEFAULT_BENCHMARKS = ("histogram", "blackscholes")


def _prepared(name: str, scale: str):
    """The workload's O3 base via the unified toolchain (= the
    ``noavx`` variant's module)."""
    return default_toolchain().base(name, scale)


#: Registry variant per scheme, taxonomy order. ``noavx`` (the scalar
#: O3 base every scheme transforms) is first: it is the overhead
#: baseline. ``elzar-failstop`` is a registry alias of ``elzar_detect``.
_SCHEMES = ("noavx", "swift", "swiftr", "elzar-failstop", "elzar")


def scheme_ablation(
    benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
    scale: str = "test",
    injections: int = 80,
    seed: int = 77,
) -> Experiment:
    """Performance overhead and fault outcomes for every hardening
    scheme in the repository. Campaigns run through :mod:`repro.lab`,
    so re-running the ablation replays stored shards instead of
    re-injecting."""
    exp = Experiment(
        id="ablation-scheme",
        title="Hardening schemes: overhead and fault outcomes",
        headers=(
            "benchmark", "scheme", "overhead", "sdc_pct", "crashed_pct",
            "corrected_pct", "detected_pct",
        ),
    )
    cfg = CampaignConfig(injections=injections, seed=seed)
    toolchain = default_toolchain()
    for name in benchmarks:
        base_cycles = None
        for label in _SCHEMES:
            built = toolchain.build(name, scale, label)
            cycles = Machine(built.module, MachineConfig()).run(
                built.entry, built.args
            ).cycles
            if base_cycles is None:
                base_cycles = cycles
            outcomes = run_durable_campaign(
                built.module, built.entry, built.args, name, label, cfg
            ).result
            exp.rows.append(
                (
                    SHORT_NAMES.get(name, name),
                    label,
                    cycles / base_cycles,
                    outcomes.sdc_rate,
                    outcomes.crash_rate,
                    outcomes.rate(Outcome.CORRECTED),
                    outcomes.rate(Outcome.DETECTED),
                )
            )
    return exp


def lane_ablation(
    benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
    scale: str = "test",
) -> Experiment:
    """ELZAR at 2 (detection-only), 4 (the paper's YMM), and 8
    (AVX-512 ZMM) lanes: fault-free overhead per configuration.

    Under this cost model the three run at the same speed — vector ops
    cost one issue slot regardless of width — which is exactly the
    paper's §III-D argument for filling the register: extra copies are
    free, so take the most redundancy the register offers.
    """
    exp = Experiment(
        id="ablation-lanes",
        title="ELZAR lane-count ablation (overhead over native)",
        headers=("benchmark", "lanes2_failstop", "lanes4", "lanes8"),
    )
    configs = (
        ElzarOptions(lanes=2, fail_stop=True),
        ElzarOptions(lanes=4),
        ElzarOptions(lanes=8),
    )
    for name in benchmarks:
        built = _prepared(name, scale)
        native = Machine(built.module, MachineConfig()).run(
            built.entry, built.args
        ).cycles
        row = [SHORT_NAMES.get(name, name)]
        for options in configs:
            module = elzar_transform(built.module, options)
            cycles = Machine(module, MachineConfig()).run(
                built.entry, built.args
            ).cycles
            row.append(cycles / native)
        exp.rows.append(tuple(row))
    return exp
