"""Ablations beyond the paper (DESIGN.md design choices):

- scheme ablation: native / SWIFT / SWIFT-R / ELZAR-failstop / ELZAR,
  overhead + fault outcomes on one memory-bound and one FP-bound
  benchmark;
- lane-count ablation: 2 (detection-only), 4 (YMM), 8 (ZMM) lanes.
"""

from repro.harness import lane_ablation, scheme_ablation

from conftest import FI_INJECTIONS, SCALE, run_once, show


def test_scheme_ablation(benchmark, capsys):
    scale = "fi" if SCALE == "perf" else "test"
    exp = run_once(
        benchmark,
        lambda: scheme_ablation(scale=scale, injections=min(FI_INJECTIONS, 100)),
    )
    show(capsys, exp)
    rows = {(r[0], r[1]): r for r in exp.rows}
    for bench in ("hist", "black"):
        # The scalar baseline row: harness/ablations.py names it noavx.
        native = rows[(bench, "noavx")]
        elzar = rows[(bench, "elzar")]
        failstop = rows[(bench, "elzar-failstop")]
        swiftr = rows[(bench, "swiftr")]
        # Every scheme beats native on SDC.
        for scheme in ("swift", "swiftr", "elzar-failstop", "elzar"):
            assert rows[(bench, scheme)][3] <= native[3]
        # Only the TMR schemes correct; fail-stop and SWIFT detect.
        assert elzar[5] > 0 and swiftr[5] > 0
        assert failstop[5] == 0 and failstop[6] > 0


def test_lane_ablation(benchmark, capsys):
    exp = run_once(benchmark, lambda: lane_ablation(scale="test"))
    show(capsys, exp)
    for row in exp.rows:
        # Lane count is performance-neutral under the AVX cost model —
        # the paper's argument for filling the register (§III-D).
        assert abs(row[1] - row[2]) / row[2] < 0.05
        assert abs(row[3] - row[2]) / row[2] < 0.05
