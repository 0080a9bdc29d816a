"""repro.harness — one entry point per paper table/figure.

See DESIGN.md's experiment index. Each function returns an
:class:`Experiment` whose ``render()`` prints the same rows the paper
reports.
"""

from .._lazy import lazy_exports

__all__ = [
    "AppSession",
    "Experiment",
    "FIG15_THREADS",
    "PAPER_THREADS",
    "Claim",
    "Scorecard",
    "Session",
    "VARIANTS",
    "build_app",
    "compute_scorecard",
    "fault_model_matrix",
    "fig01_simd_speedup",
    "fig11_overhead",
    "fig12_checks_breakdown",
    "fig13_fault_injection",
    "fig14_swiftr_comparison",
    "fig15_case_studies",
    "fig17_proposed_avx",
    "lane_ablation",
    "scheme_ablation",
    "fp_only_overhead",
    "relative_throughput",
    "table2_native_stats",
    "table3_ilp",
    "table4_micro",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".ablations": ("lane_ablation", "scheme_ablation"),
    ".apps_runner": ("AppSession", "build_app"),
    ".base": ("Experiment",),
    ".case_studies": (
        "FIG15_THREADS", "fig15_case_studies", "relative_throughput",
    ),
    ".fault_experiments": ("fault_model_matrix", "fig13_fault_injection"),
    ".figures": (
        "PAPER_THREADS", "fig01_simd_speedup", "fig11_overhead",
        "fig12_checks_breakdown", "fig14_swiftr_comparison",
        "fig17_proposed_avx", "fp_only_overhead",
    ),
    ".scorecard": ("Claim", "Scorecard", "compute_scorecard"),
    ".session": ("Session", "VARIANTS"),
    ".tables": ("table2_native_stats", "table3_ilp", "table4_micro"),
})
