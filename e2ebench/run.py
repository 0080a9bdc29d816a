#!/usr/bin/env python3
"""End-to-end benchmark of the ELZAR reproduction: fault-injection
campaigns and figure regeneration, with a traced per-layer run.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload fig13 --seed 1 --seconds 24 --trace 0

Workloads: ``fig13``, ``perf-figures`` and ``fault-matrix`` (see
e2ebench/README.md). ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is the separate traced run that reports per-layer metrics.
The gated times are calibrated against the host's drifting speed
(``hostclock.py``); their raw wall times are printed beside them.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A report of
every metric with its unit and sample count, the correctness checks,
and the (ungated) model outputs is printed above it. The exit code is
non-zero when any correctness check fails.

All caches and result stores live in a temporary directory under
``.e2ebench-out/`` in the checkout, removed when the run ends; the
traced run leaves its spans in ``.e2ebench-out/spans-*.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".e2ebench-out"

WORKLOAD_NAMES = ("fig13", "perf-figures", "fault-matrix")
#: Rounds of the measuring phase, at least; more follow while the next
#: one is expected to end within ``--seconds``, so a slow host gives
#: fewer rounds rather than a longer run. A round is one warm set-up in
#: a fresh process, ``PASSES_PER_ROUND`` timed passes and one cold set-up
#: in a fresh process. The set-ups are spread over the whole run between
#: the passes, so every median covers the same stretch of host time.
MIN_ROUNDS = 2
#: A pass costs about what a set-up does, and run_s varies more from
#: run to run than the set-up times, so it gets the most samples.
PASSES_PER_ROUND = 2
#: Timed passes of the traced run's untraced half, at least.
MIN_PASSES = 3
#: Store replays per fig13 run.
REPLAYS = 3
#: A set-up probe that takes longer than this is a failure.
PROBE_TIMEOUT_S = 120

READY = "E2EBENCH-READY"

#: name -> (unit, better); the ``end_to_end`` list of BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cold_setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _isolate(cache_dir: Path, tmp: Path) -> dict:
    """Environment that keeps every cache and store inside ``tmp``."""
    return {
        "REPRO_TOOLCHAIN_CACHE": str(cache_dir),
        "REPRO_LAB_STORE": str(tmp / "default-store.sqlite"),
        "XDG_CACHE_HOME": str(tmp / "xdg"),
    }


def _import_workloads():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


# --- Set-up probes ---------------------------------------------------------------


def probe_main(args) -> int:
    """Child side: set up, report the monotonic time and the
    calibration samples, exit."""
    clock = HostClock()
    clock.tick()
    wl = _import_workloads()
    from spans import NullRecorder

    # Set-up writes no result store, so the workload needs no directory.
    workload = wl.WORKLOADS[args.workload](args.seed, "")
    tally = wl.Tally()
    workload.setup(NullRecorder(), tally, clock.tick)
    clock.tick()
    if tally.failures:
        return 1
    samples = " ".join(f"{s:.9f}" for s in clock.samples)
    print(f"{READY} {time.monotonic():.9f} {samples}", flush=True)
    return 0


def probe_setup(args, cache_dir: Path, tmp: Path):
    """Seconds from spawning a fresh process to the end of its set-up,
    raw and normalized."""
    # A fixed hash seed gives every probe the same set iteration order.
    env = dict(os.environ, PYTHONHASHSEED="0", **_isolate(cache_dir, tmp))
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    # This sample covers the child's start-up, before its first one.
    clock = HostClock()
    clock.tick()
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    ready = [line for line in out.splitlines() if line.startswith(READY)]
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    fields = [float(f) for f in ready[-1].split()[1:]]
    clock.samples += fields[1:]
    raw = fields[0] - start - sum(fields[1:])
    return raw, clock.normalize(raw)


def cold_probe(args, tmp: Path, index: int):
    """A set-up from empty caches of its own, removed afterwards."""
    cache = tmp / f"cache-cold-{index}"
    try:
        return probe_setup(args, cache, tmp)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


# --- Timed phase -----------------------------------------------------------------


def timed_pass(workload, state, index: int, rec, tally, clock=None):
    """One pass; with a ``clock``, calibrated (:mod:`hostclock`)."""
    start = time.perf_counter()
    with rec.span("pass"):
        if clock is None:
            result = workload.run_pass(state, index, rec, tally)
        else:
            result = workload.run_pass(state, index, rec, tally, clock.tick)
            clock.tick()
    result.seconds = time.perf_counter() - start
    result.normalized_s = result.seconds
    if clock is not None:
        result.seconds -= clock.spent
        result.normalized_s = clock.normalize(result.seconds)
    return result


def timed_passes(workload, state, seconds: float, rec, tally, count=None):
    """Repeat passes for about ``seconds`` (at least ``MIN_PASSES``);
    ``count`` fixes the number instead."""
    passes = []
    while True:
        passes.append(timed_pass(workload, state, len(passes), rec, tally))
        if count is None:
            count = max(MIN_PASSES,
                        round(seconds / max(passes[0].seconds, 1e-9)))
        if len(passes) >= count:
            return passes


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(name: str, values, unit: str, note: str = "") -> None:
    med = statistics.median(values)
    q1, q3 = _quartiles(values)
    print(f"metric {name:<22} {med:12.6g} {unit:<6} n={len(values):<3} "
          f"q1={q1:.6g} q3={q3:.6g} min={min(values):.6g}"
          f"{('  ' + note) if note else ''}")


# --- Runs ------------------------------------------------------------------------


def measure(args, tmp: Path) -> dict:
    """``--trace 0``: the end-to-end metrics."""
    # The first cold set-up fills its caches: they are the warm cache.
    warm_cache = tmp / "cache-warm"
    cold = [probe_setup(args, warm_cache, tmp)]

    os.environ.update(_isolate(warm_cache, tmp))
    wl = _import_workloads()
    from spans import NullRecorder

    rec = NullRecorder()
    tally = wl.Tally()
    workload = wl.WORKLOADS[args.workload](args.seed, str(tmp))
    # Untimed warm-up: the measuring process's own set-up.
    state = workload.setup(rec, tally)

    warm, passes = [], []
    start = time.monotonic()
    while True:
        warm.append(probe_setup(args, warm_cache, tmp))
        for _ in range(PASSES_PER_ROUND):
            passes.append(timed_pass(workload, state, len(passes), rec,
                                     tally, HostClock()))
        rounds = len(warm)
        if (rounds >= MIN_ROUNDS and (time.monotonic() - start)
                * (rounds + 1) / rounds > args.seconds):
            break
        cold.append(cold_probe(args, tmp, len(cold)))

    replays = []
    if hasattr(workload, "replay"):
        for r in range(REPLAYS):
            start = time.perf_counter()
            workload.replay(state, r, rec, tally)
            replays.append(time.perf_counter() - start)
    workload.verify(state, passes, tally)

    def normalized(samples):
        return [n for _, n in samples]

    pass_s = [p.normalized_s for p in passes]
    metrics = {
        "setup_s": statistics.median(normalized(warm)),
        "cold_setup_s": statistics.median(normalized(cold)),
        "run_s": statistics.median(pass_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"[e2ebench] workload={args.workload} seed={args.seed} trace=0 "
          f"rounds={len(warm)}")
    raw = "raw median {:.6g} s".format
    report("setup_s", normalized(warm), "s",
           "fresh process, full disk caches; "
           + raw(statistics.median(r for r, _ in warm)))
    report("cold_setup_s", normalized(cold), "s",
           "fresh process, empty caches; "
           + raw(statistics.median(r for r, _ in cold)))
    report("run_s", pass_s, "s", "one pass of the grid; "
           + raw(statistics.median(p.seconds for p in passes)))
    report("peak_rss_mb", [metrics["peak_rss_mb"]], "MB", "driver and children")
    total_s = sum(pass_s)
    injections = sum(p.injections for p in passes)
    if injections:
        report("inject_per_s", [injections / total_s], "1/s",
               f"{injections} injections")
    if replays:
        report("replay_s", replays, "s",
               "0 injections, all shards from store; raw")
    instructions = sum(p.instructions for p in passes)
    if instructions:
        report("sim_mips", [instructions / total_s / 1e6], "M/s",
               f"{instructions} simulated instructions, timing on")
    report("failed_frac", [len(tally.failures) / max(1, tally.attempted)],
           "ratio", f"{len(tally.failures)} of {tally.attempted} cell units")
    for line in workload.model_report(state, passes):
        print(line)
    return _result(tally, metrics, END_TO_END)


def measure_traced(args, tmp: Path) -> dict:
    """``--trace 1``: per-layer metrics from spans around public calls."""
    os.environ.update(_isolate(tmp / "cache", tmp))
    wl = _import_workloads()
    import layers
    from repro.cpu import compiled as cpu_compiled
    from spans import NullRecorder, Recorder, instrument

    rec = Recorder()
    tally = wl.Tally()
    workload = wl.WORKLOADS[args.workload](args.seed, str(tmp))
    restore = instrument(rec)
    try:
        with rec.span("setup.cold"):
            workload.setup(rec, tally)
        cpu_compiled.code_cache_clear()
        before = cpu_compiled.COMPILE_STATS.as_dict()
        with rec.span("setup.warm"):
            state = workload.setup(rec, tally)
        after = cpu_compiled.COMPILE_STATS.as_dict()
    finally:
        restore()
    compile_delta = {k: after[k] - before[k] for k in after}

    # The untraced and the traced half share the run's time.
    untraced = timed_passes(workload, state, args.seconds / 2,
                            NullRecorder(), tally)
    restore = instrument(rec)
    try:
        traced = timed_passes(workload, state, args.seconds, rec, tally,
                              count=len(untraced))
        if hasattr(workload, "replay"):
            with rec.span("replay"):
                workload.replay(state, 0, rec, tally)
        with rec.span("differential"):
            wl.differential(workload, state, rec)
    finally:
        restore()
    workload.verify(state, untraced + traced, tally)

    metrics = layers.layer_metrics(
        rec, workload=args.workload, workers=workload.workers,
        compile_delta=compile_delta,
        untraced_run_s=statistics.median(p.seconds for p in untraced),
        traced_run_s=statistics.median(p.seconds for p in traced))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    rec.write_jsonl(str(spans_path))
    print(f"[e2ebench] workload={args.workload} seed={args.seed} trace=1 "
          f"passes={len(traced)} spans={len(rec.spans)} -> {spans_path}")
    for name, value in metrics.items():
        print(f"layer {name:<28} {value:12.6g} {layers.PER_LAYER[name][0]}")
    return _result(tally, metrics, layers.PER_LAYER)


def _result(tally, metrics: dict, table: dict) -> dict:
    return {
        "correct": not tally.failures,
        "attempted": max(1, tally.attempted),
        "failed": len(tally.failures),
        "metrics": {name: {"value": float(value), "unit": table[name][0]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program sources at {SRC}; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2
    if args.probe_setup:
        return probe_main(args)

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=str(OUT)))
    try:
        result = (measure_traced if args.trace else measure)(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
