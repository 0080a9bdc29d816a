"""Engine throughput benchmark: compiled vs record path vs reference.

Measures simulated instructions per wall-clock second for every kernel
on three tiers — the reference interpreter, the compiled engine's
record path on its own (:func:`repro.cpu.compiled.run_records`), and
the compiled engine — and reports the speedup of each accelerated tier
over the reference interpreter. ``python -m repro bench --suite
engine`` and ``benchmarks/bench_engine_throughput.py`` both drive this
module; the numbers land in ``BENCH_engine.json``.

The accelerated tiers must be pure performance changes: outputs,
counters, and cycles are asserted equal across all three tiers for
every workload measured (any drift fails the benchmark rather than
silently reporting a speedup for a different simulation).

:func:`run_suites` is the ``--suite engine|snap|all`` entry point that
also fans out to :mod:`repro.bench_snap` (checkpoint-resumed injection,
``BENCH_snap.json``).
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence

from .cpu.compiled import run_records
from .cpu.interpreter import Machine, MachineConfig
from .workloads.registry import ALL

DEFAULT_WORKLOADS = (
    "histogram", "kmeans", "linear_regression", "matrix_multiply",
    "blackscholes", "streamcluster", "swaptions",
)

#: Measurement order: the reference tier is the denominator of every
#: speedup; "records" is the compiled engine's trampoline with every
#: frame on the record functions, and "compiled" adds the compiled
#: block segments on the same trampoline.
TIERS = ("reference", "records", "compiled")

#: Benchmark suites ``run_suites`` knows how to drive.
SUITES = ("engine", "snap")


def _run(module, entry, args, tier: str, collect_timing: bool):
    engine = "reference" if tier == "reference" else "compiled"
    machine = Machine(
        module, MachineConfig(engine=engine, collect_timing=collect_timing)
    )
    start = time.perf_counter()
    if tier == "records":
        result = run_records(machine, entry, args)
    else:
        result = machine.run(entry, args)
    elapsed = time.perf_counter() - start
    return result, elapsed


def bench_workload(name: str, scale: str = "fi", repeats: int = 3,
                   collect_timing: bool = True) -> Dict:
    """Best-of-``repeats`` throughput for one kernel on every tier."""
    built = ALL[name].build_at(scale)
    module, entry, args = built.module, built.entry, built.args

    # Warm the decode, segment and record compile caches so the
    # one-time translation cost is not billed to the first timed repeat
    # (it is amortised across campaign runs either way).
    for tier in ("records", "compiled"):
        _run(module, entry, args, tier, collect_timing)

    times: Dict[str, List[float]] = {tier: [] for tier in TIERS}
    results = {}
    for _ in range(repeats):
        for tier in TIERS:
            result, elapsed = _run(module, entry, args, tier, collect_timing)
            times[tier].append(elapsed)
            results[tier] = result

    ref = results["reference"]
    for tier in ("records", "compiled"):
        res = results[tier]
        if res.output != ref.output:
            raise AssertionError(f"{name}: {tier} tier outputs differ")
        if res.counters.as_dict() != ref.counters.as_dict():
            raise AssertionError(f"{name}: {tier} tier counters differ")
        if collect_timing and res.cycles != ref.cycles:
            raise AssertionError(f"{name}: {tier} tier cycles differ")

    instructions = ref.counters.instructions
    best = {tier: min(ts) for tier, ts in times.items()}
    row = {"workload": name, "scale": scale, "instructions": instructions}
    for tier in TIERS:
        row[f"{tier}_seconds"] = best[tier]
        row[f"{tier}_ips"] = instructions / best[tier]
    row["records_speedup"] = best["reference"] / best["records"]
    row["compiled_speedup"] = best["reference"] / best["compiled"]
    # Headline number: the fastest tier over the reference interpreter.
    row["speedup"] = row["compiled_speedup"]
    return row


def _geomean(rows: List[Dict], key: str) -> Optional[float]:
    if not rows:
        return None
    product = 1.0
    for row in rows:
        product *= row[key]
    return product ** (1.0 / len(rows))


def bench_engine_throughput(scale: str = "fi", repeats: int = 3,
                            workloads: Optional[Sequence[str]] = None,
                            collect_timing: bool = True,
                            verbose: bool = True) -> List[Dict]:
    names = list(workloads) if workloads else list(DEFAULT_WORKLOADS)
    rows = []
    for name in names:
        row = bench_workload(name, scale, repeats, collect_timing)
        rows.append(row)
        if verbose:
            print(
                f"{name:<18} {row['instructions']:>10} instrs  "
                f"records {row['records_speedup']:>5.2f}x  "
                f"compiled {row['compiled_speedup']:>5.2f}x  "
                f"({row['compiled_ips'] / 1e3:.0f}k ips)"
            )
    if verbose and rows:
        print(f"{'geomean speedup':<18} "
              f"records {_geomean(rows, 'records_speedup'):>16.2f}x  "
              f"compiled {_geomean(rows, 'compiled_speedup'):>5.2f}x")
    return rows


def write_report(rows: List[Dict], path: str = "BENCH_engine.json") -> None:
    report = {
        "benchmark": "engine_throughput",
        "unit": "simulated instructions per second",
        "tiers": list(TIERS),
        "geomean_speedup": _geomean(rows, "compiled_speedup"),
        "geomean_records_speedup": _geomean(rows, "records_speedup"),
        "geomean_compiled_speedup": _geomean(rows, "compiled_speedup"),
        "rows": rows,
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def run_suites(suite: str = "engine", scale: str = "fi",
               json_path: Optional[str] = None) -> int:
    """``python -m repro bench --suite ...``: run one benchmark suite
    (or ``all``) and persist its ``BENCH_*.json`` report.

    ``json_path`` overrides the output path when a single suite runs;
    with ``all`` each suite writes its default file name.
    """
    suites = list(SUITES) if suite == "all" else [suite]
    if json_path is not None and len(suites) > 1:
        raise ValueError("--json applies to a single --suite only")
    for name in suites:
        if name not in SUITES:
            raise ValueError(f"unknown bench suite {name!r}")
        if len(suites) > 1:
            print(f"== suite: {name}")
        if name == "engine":
            rows = bench_engine_throughput(scale=scale)
            out = json_path or "BENCH_engine.json"
            write_report(rows, out)
        else:
            from .bench_snap import bench_checkpoint_injection
            from .bench_snap import write_report as write_snap

            rows = bench_checkpoint_injection(scale=scale)
            out = json_path or "BENCH_snap.json"
            write_snap(rows, out)
        print(f"-- wrote {out}")
    return 0
