"""repro — a reproduction of "ELZAR: Triple Modular Redundancy Using
Intel AVX" (Kuvaiskii et al., DSN 2016).

Public surface:

- :mod:`repro.ir` — the typed SSA IR and builder;
- :mod:`repro.passes` — optimizations, the auto-vectorizer, and the
  ELZAR / SWIFT-R / SWIFT hardening transformations;
- :mod:`repro.cpu` — the simulated machine (interpreter, caches,
  branch predictor, Haswell-like timing, thread-scalability model);
- :mod:`repro.avx` — AVX lane semantics and cost tables;
- :mod:`repro.faults` — single-event-upset injection campaigns;
- :mod:`repro.workloads` — Phoenix/PARSEC-like kernels + IR libc/libm;
- :mod:`repro.apps` — the Memcached/SQLite3/Apache case studies;
- :mod:`repro.harness` — one entry point per paper table/figure;
- :mod:`repro.toolchain` — the unified variant registry and the
  content-addressed build/artifact cache every subsystem builds
  through (see ``python -m repro variants``).

Quick start::

    from repro import harden, Machine
    from repro.workloads import get

    built = get("histogram").build_at("test")
    hardened = harden(built.module)          # ELZAR TMR
    result = Machine(hardened).run(built.entry, built.args)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"


def harden(module, scheme: str = "elzar", **options):
    """Harden every defined function of ``module``.

    ``scheme`` is one of ``"elzar"`` (AVX-style TMR, the paper's
    contribution), ``"swiftr"`` (instruction-triplication TMR baseline),
    or ``"swift"`` (DMR detection only). Keyword options are forwarded
    to the scheme's options dataclass (e.g. ``check_loads=False``,
    ``float_only=True``, ``exclude=frozenset({...})``).

    Returns a new module; the input is left untouched. Run ``mem2reg``
    (and ideally ``inline_module``) first so data lives in registers,
    where replication can protect it.
    """
    from .passes.elzar import elzar_transform
    from .passes.options import ElzarOptions, SwiftOptions
    from .passes.swiftr import swift_transform, swiftr_transform

    if scheme == "elzar":
        return elzar_transform(module, ElzarOptions(**options))
    if scheme == "swiftr":
        return swiftr_transform(module, SwiftOptions(copies=3, **options))
    if scheme == "swift":
        return swift_transform(module, SwiftOptions(copies=2, **options))
    raise ValueError(
        f"unknown scheme {scheme!r}; expected elzar, swiftr, or swift"
    )


__all__ = [
    "CampaignConfig",
    "ElzarOptions",
    "FaultPlan",
    "HASWELL",
    "IRBuilder",
    "Machine",
    "MachineConfig",
    "Module",
    "Outcome",
    "PROPOSED_AVX",
    "RunResult",
    "SwiftOptions",
    "elzar_transform",
    "format_module",
    "harden",
    "inline_module",
    "mem2reg",
    "parse_module",
    "run_campaign",
    "swift_transform",
    "swiftr_transform",
    "vectorize",
    "verify_module",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".avx.costs": ("HASWELL", "PROPOSED_AVX"),
    ".cpu.interpreter": ("FaultPlan", "Machine", "MachineConfig", "RunResult"),
    ".faults.campaign": ("CampaignConfig", "run_campaign"),
    ".faults.outcomes": ("Outcome",),
    ".ir.builder": ("IRBuilder",),
    ".ir.module": ("Module",),
    ".ir.parser": ("parse_module",),
    ".ir.printer": ("format_module",),
    ".ir.verifier": ("verify_module",),
    ".passes.elzar": ("elzar_transform",),
    ".passes.inline": ("inline_module",),
    ".passes.mem2reg": ("mem2reg",),
    ".passes.options": ("ElzarOptions", "SwiftOptions"),
    ".passes.swiftr": ("swift_transform", "swiftr_transform"),
    ".passes.vectorize": ("vectorize",),
})
