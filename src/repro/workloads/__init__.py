"""repro.workloads — Phoenix/PARSEC-like benchmark kernels, the IR
libc/libm they share, and the Table IV microbenchmarks."""

from .._lazy import lazy_exports

__all__ = [
    "ALL",
    "BENCHMARKS",
    "BuiltWorkload",
    "FI_BENCHMARKS",
    "FP_ONLY_BENCHMARKS",
    "MICRO_WORKLOADS",
    "PARSEC",
    "PHOENIX",
    "SHORT_NAMES",
    "Workload",
    "get",
    "outputs_match",
    "pick",
    "rng",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".common": ("BuiltWorkload", "Workload", "outputs_match", "pick", "rng"),
    ".registry": (
        "ALL", "BENCHMARKS", "FI_BENCHMARKS", "FP_ONLY_BENCHMARKS",
        "MICRO_WORKLOADS", "PARSEC", "PHOENIX", "SHORT_NAMES", "get",
    ),
})
