"""Checkpointed fault-injection benchmark: ``repro.snap`` vs scratch.

Late-site injections are the checkpoint subsystem's target case. A
fault plan whose site lands in the last quartile of the eligible
stream makes a from-scratch run replay >= 75% of the golden prefix
before the fault even arms; a checkpointed run restores the nearest
mid-run state at or before the site and executes only the tail —
O(tail) instead of O(run). This benchmark draws all plans from the
last quartile, times the sequential from-scratch loop (a fresh
:class:`~repro.faults.campaign.InjectionSession` with no checkpoint set
attached, built inside the timed region as ``run_plans`` builds it)
against the checkpointed ``run_plans`` path, and reports two
checkpointed timings per cell:

* ``first`` — includes acquiring the checkpoint set (a capture run on
  the resumable trampoline, or a content-addressed store load when a
  previous process built it);
* ``warm`` — the steady state every later shard of a campaign sees,
  with the set already in the module cache. The headline ``speedup``
  is scalar/warm.

Correctness is asserted, not assumed: the outcome *list* of every
checkpointed run must be bit-identical to the from-scratch baseline,
or the benchmark fails instead of reporting a speedup for a different
campaign.

``benchmarks/bench_checkpoint_injection.py`` drives this module and
persists the numbers to ``BENCH_snap.json``.
"""

from __future__ import annotations

import json
import random
import time
from typing import Dict, List, Optional, Sequence

from .cpu.interpreter import FaultPlan
from .faults.campaign import (
    CampaignConfig,
    InjectionSession,
    golden_profile,
    hang_budget,
    run_plans,
)
from .faults.models import DEFAULT_MODEL
from .toolchain.build import default_toolchain
from .workloads.registry import FI_BENCHMARKS

#: Fault sites are drawn uniformly from the last (1 - this) of the
#: eligible stream — the late-site regime checkpointing exists for.
LATE_FRACTION = 0.75

#: Injections per cell.
DEFAULT_INJECTIONS = 64


def _reset_campaign_state(module) -> None:
    """Forget cached sessions/goldens/checkpoint sets so a timed run
    pays the same one-time costs a fresh campaign cell pays."""
    from .faults import campaign as _campaign
    _campaign._SESSION_TLS.slot = None
    module._golden_cache.clear()


def draw_late_plans(profile, injections: int, seed: int) -> List[FaultPlan]:
    """Register bit flips whose dynamic sites all land in the last
    quartile of the eligible stream."""
    rng = random.Random(seed)
    lo = min(int(profile.eligible * LATE_FRACTION), profile.eligible - 1)
    return [
        FaultPlan(
            target_index=rng.randrange(lo, profile.eligible),
            bit=rng.randrange(64),
            lane=rng.randrange(4),
        )
        for _ in range(injections)
    ]


def bench_cell(name: str, version: str, scale: str = "fi",
               injections: int = DEFAULT_INJECTIONS,
               seed: int = 7) -> Dict:
    """One workload x version cell: from-scratch baseline, then the
    checkpointed path first-run and warm."""
    built = default_toolchain().build(name, scale, version)
    module, entry, args = built.module, built.entry, built.args
    reference, profile = golden_profile(module, entry, args)
    budget = hang_budget(profile.executed, CampaignConfig.hang_factor)
    plans = draw_late_plans(profile, injections, seed)

    _reset_campaign_state(module)
    start = time.perf_counter()
    session = InjectionSession(module, entry, args, reference, budget)
    baseline = [session.inject(plan) for plan in plans]
    scalar_seconds = time.perf_counter() - start

    # First checkpointed run: pays for the set (capture run or store
    # load) plus the tails.
    _reset_campaign_state(module)
    start = time.perf_counter()
    first = run_plans(module, entry, args, plans, reference, budget)
    first_seconds = time.perf_counter() - start
    if first != baseline:
        raise AssertionError(
            f"{name}/{version}: checkpointed outcomes diverge from "
            f"scratch — checkpointing must be bit-identical")

    # Warm: the set is in the module cache — every later shard of the
    # campaign runs at this rate.
    start = time.perf_counter()
    warm = run_plans(module, entry, args, plans, reference, budget)
    warm_seconds = time.perf_counter() - start
    if warm != baseline:
        raise AssertionError(
            f"{name}/{version}: warm checkpointed outcomes diverge from "
            f"scratch")

    return {
        "workload": name,
        "version": version,
        "scale": scale,
        "injections": injections,
        "fault_model": DEFAULT_MODEL,
        "late_fraction": LATE_FRACTION,
        "eligible": profile.eligible,
        "scalar_seconds": scalar_seconds,
        "scalar_ips": injections / scalar_seconds,
        "first_seconds": first_seconds,
        "first_speedup": scalar_seconds / first_seconds,
        "warm_seconds": warm_seconds,
        "warm_ips": injections / warm_seconds,
        "speedup": scalar_seconds / warm_seconds,
    }


def bench_checkpoint_injection(scale: str = "fi",
                               injections: int = DEFAULT_INJECTIONS,
                               workloads: Optional[Sequence[str]] = None,
                               verbose: bool = True) -> List[Dict]:
    """The Figure-13 grid (both versions of every FI benchmark)."""
    names = list(workloads) if workloads else [w.name for w in FI_BENCHMARKS]
    rows = []
    for name in names:
        for version in ("native", "elzar"):
            row = bench_cell(name, version, scale, injections)
            rows.append(row)
            if verbose:
                print(f"{name:<18} {version:<7} "
                      f"scalar {row['scalar_ips']:6.1f} inj/s  "
                      f"first {row['first_speedup']:5.2f}x  "
                      f"warm {row['speedup']:5.2f}x")
    if verbose and rows:
        print(f"{'geomean warm speedup':<26} {geomean_speedup(rows):.2f}x "
              f"(late-{int((1 - LATE_FRACTION) * 100)}% sites)")
    return rows


def geomean_speedup(rows: List[Dict]) -> Optional[float]:
    if not rows:
        return None
    product = 1.0
    for row in rows:
        product *= row["speedup"]
    return product ** (1.0 / len(rows))


def write_report(rows: List[Dict], path: str = "BENCH_snap.json") -> None:
    report = {
        "benchmark": "checkpoint_injection",
        "unit": "injections per second",
        "late_fraction": LATE_FRACTION,
        "geomean_speedup": geomean_speedup(rows),
        "rows": rows,
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
