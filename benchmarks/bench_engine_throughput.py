#!/usr/bin/env python
"""Engine throughput: the compiled engine and its record path vs
the reference interpreter.

Not a paper figure — this measures the simulator itself: simulated
instructions per wall-clock second for each kernel on three tiers
(reference, the record path alone, compiled), asserting bit-identical
outputs, counters, and cycles along the way, and writes the numbers to
``BENCH_engine.json``. Target: compiled >=10x geomean, and never below
the record path.

Run:  PYTHONPATH=src python benchmarks/bench_engine_throughput.py
Env:  REPRO_SCALE ("perf" default -> fi-scale inputs, "test" for smoke)
"""

import os
import sys

from repro.bench import bench_engine_throughput, write_report


def main() -> int:
    scale = os.environ.get("REPRO_SCALE", "perf")
    rows = bench_engine_throughput(scale="fi" if scale == "perf" else "test")
    out = os.path.join(os.path.dirname(__file__), os.pardir,
                       "BENCH_engine.json")
    out = os.path.normpath(out)
    write_report(rows, out)
    print(f"-- wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
