"""The variant registry: every hardening configuration, declaratively.

One :class:`VariantSpec` per variant — name, hardening kind, transform
options, cost profile — in the paper's presentation order. This table
is the *single* source of truth: ``harness.Session``, the campaign CLI
(``python -m repro campaign --versions``), lab cells and cluster
workers all resolve variant names here, so the same name always means
the same transform in every subsystem.

Variant vocabulary (docstrings quote the paper):

- ``native``      — mem2reg + auto-vectorization (the paper's baseline:
  "native version with all AVX optimizations enabled", §V-A);
- ``noavx``       — the O3 base, no SIMD (Figure 1, smatch-na);
- ``elzar``       — full ELZAR (vectorization disabled first, §IV-A);
- ``elzar_noload`` / ``elzar_nostore`` / ``elzar_nobranch`` /
  ``elzar_nochecks`` — Figure 12's cumulative check ablation;
- ``elzar_float`` — float-only protection (§V-B);
- ``elzar_proposed`` — ELZAR costed with the proposed-AVX ISA (Fig 17);
- ``elzar_detect`` — detection-only ELZAR (fail-stop checks; the
  campaign matrix's ``elzar-detect``);
- ``swiftr``      — SWIFT-R instruction triplication (Figure 14);
- ``swift``       — SWIFT DMR (ablation extra).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..avx.costs import HASWELL, PROPOSED_AVX, CostModel
from ..ir.module import Module
from ..passes.options import ElzarOptions, SwiftOptions

#: Cost-profile name -> cost model (the registry stores the name so a
#: spec stays a plain, digestable value).
COST_PROFILES: Dict[str, CostModel] = {
    "HASWELL": HASWELL,
    "PROPOSED_AVX": PROPOSED_AVX,
}


@dataclass(frozen=True)
class VariantSpec:
    """One variant of the paper's evaluation matrix, declaratively.

    ``kind`` selects the hardening transform applied to the O3 base
    module (see :data:`_KINDS`); ``options`` parameterizes it
    (``ElzarOptions`` for ``elzar``, ``SwiftOptions`` or None for the
    SWIFT kinds, unused otherwise). ``cost_profile`` names the cost
    model runs are priced under (Figure 17's proposed-AVX variant is
    the full ELZAR transform under a different cost model).
    """

    name: str
    kind: str  # "identity" | "vectorize" | "elzar" | "swiftr" | "swift"
    options: Optional[object] = None
    cost_profile: str = "HASWELL"
    aliases: Tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown variant kind {self.kind!r}; have {sorted(_KINDS)}"
            )
        if self.cost_profile not in COST_PROFILES:
            raise ValueError(
                f"unknown cost profile {self.cost_profile!r}; "
                f"have {sorted(COST_PROFILES)}"
            )

    # Behaviour ---------------------------------------------------------------

    @property
    def cost_model(self) -> CostModel:
        return COST_PROFILES[self.cost_profile]

    def transform(self, base: Module,
                  exclude: frozenset = frozenset()) -> Module:
        """Apply this variant's hardening to an O3 base module.

        ``exclude`` names functions copied verbatim instead of
        hardened/vectorized (third-party code, §IV-A/§VI); the base
        module is never mutated except for ``identity``, which returns
        it unchanged.
        """
        return _KINDS[self.kind](self, base, exclude)

    # Content addressing ------------------------------------------------------

    def cache_key(self) -> list:
        """Canonical value form of everything that determines this
        variant's transform output and pricing — the artifact-cache and
        handshake salt. Equal specs must produce equal keys in every
        process."""
        options = self.options
        if dataclasses.is_dataclass(options):
            encoded = {
                f.name: _canonical_field(getattr(options, f.name))
                for f in dataclasses.fields(options)
            }
            options_key = [type(options).__name__, encoded]
        else:
            options_key = _canonical_field(options)
        return ["variant", self.name, self.kind, options_key,
                self.cost_profile]


def _canonical_field(value):
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    if isinstance(value, tuple):
        return list(value)
    return value


# Hardening kinds -------------------------------------------------------------
# Each kind imports its transform when it runs: a process that only reads
# the registry (every warm build) loads no pass.

def _identity(spec: VariantSpec, base: Module, exclude: frozenset) -> Module:
    return base


def _vectorize(spec: VariantSpec, base: Module, exclude: frozenset) -> Module:
    from ..passes.clone import clone_module
    from ..passes.vectorize import vectorize

    return vectorize(clone_module(base, f"{base.name}.simd"), exclude=exclude)


def _elzar(spec: VariantSpec, base: Module, exclude: frozenset) -> Module:
    from ..passes.elzar import elzar_transform

    options = spec.options or ElzarOptions()
    if exclude:
        options = dataclasses.replace(options, exclude=exclude)
    return elzar_transform(base, options)


def _swiftr(spec: VariantSpec, base: Module, exclude: frozenset) -> Module:
    from ..passes.swiftr import swiftr_transform

    options = spec.options
    if exclude:
        options = dataclasses.replace(options or SwiftOptions(copies=3),
                                      exclude=exclude)
    return swiftr_transform(base, options)


def _swift(spec: VariantSpec, base: Module, exclude: frozenset) -> Module:
    from ..passes.swiftr import swift_transform

    options = spec.options
    if exclude:
        options = dataclasses.replace(options or SwiftOptions(copies=2),
                                      exclude=exclude)
    return swift_transform(base, options)


_KINDS = {
    "identity": _identity,
    "vectorize": _vectorize,
    "elzar": _elzar,
    "swiftr": _swiftr,
    "swift": _swift,
}


# The registry ----------------------------------------------------------------

REGISTRY: Dict[str, VariantSpec] = {}
_ALIASES: Dict[str, str] = {}


def register_variant(spec: VariantSpec) -> VariantSpec:
    """Add a variant to the registry (extension point: one entry here
    surfaces the variant in the harness, the campaign CLI, lab cells
    and cluster workers at once)."""
    if spec.name in REGISTRY or spec.name in _ALIASES:
        raise ValueError(f"variant {spec.name!r} already registered")
    for alias in spec.aliases:
        if alias in REGISTRY or alias in _ALIASES:
            raise ValueError(f"variant alias {alias!r} already registered")
    REGISTRY[spec.name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = spec.name
    return spec


def get_variant(name: str) -> VariantSpec:
    """Resolve a variant name (or alias) to its spec."""
    spec = REGISTRY.get(name)
    if spec is None:
        canonical = _ALIASES.get(name)
        if canonical is not None:
            return REGISTRY[canonical]
        raise KeyError(
            f"unknown variant {name!r}; registry has {sorted(REGISTRY)} "
            f"(aliases: {sorted(_ALIASES)})"
        )
    return spec


def variant_names() -> Tuple[str, ...]:
    """Canonical variant names, registry (= presentation) order."""
    return tuple(REGISTRY)


for _spec in (
    VariantSpec(
        "native", "vectorize",
        description="mem2reg + auto-vectorization (paper baseline, §V-A)",
    ),
    VariantSpec(
        "noavx", "identity",
        description="the O3 base with SIMD disabled (Figure 1, smatch-na)",
    ),
    VariantSpec(
        "elzar", "elzar", ElzarOptions(),
        description="full ELZAR: 4-lane TMR, all checks (§III)",
    ),
    VariantSpec(
        "elzar_noload", "elzar", ElzarOptions(check_loads=False),
        description="Figure 12 ablation: load checks off",
    ),
    VariantSpec(
        "elzar_nostore", "elzar",
        ElzarOptions(check_loads=False, check_stores=False),
        description="Figure 12 ablation: + store checks off",
    ),
    VariantSpec(
        "elzar_nobranch", "elzar",
        ElzarOptions(check_loads=False, check_stores=False,
                     check_branches=False),
        description="Figure 12 ablation: + branch checks off",
    ),
    VariantSpec(
        "elzar_nochecks", "elzar", ElzarOptions.no_checks(),
        description="Figure 12 ablation: all checks off (wrapping only)",
    ),
    VariantSpec(
        "elzar_float", "elzar", ElzarOptions(float_only=True),
        description="float-only protection (§V-B)",
    ),
    VariantSpec(
        "elzar_proposed", "elzar", ElzarOptions(),
        cost_profile="PROPOSED_AVX",
        description="full ELZAR priced under the proposed AVX ISA (Fig 17)",
    ),
    VariantSpec(
        "elzar_detect", "elzar", ElzarOptions(fail_stop=True),
        aliases=("elzar-detect", "elzar-failstop"),
        description="detection-only ELZAR: checks fail-stop (§II-A)",
    ),
    VariantSpec(
        "swiftr", "swiftr",
        description="SWIFT-R scalar instruction triplication (Figure 14)",
    ),
    VariantSpec(
        "swift", "swift",
        description="SWIFT DMR: duplication, fail-stop (ablation extra)",
    ),
):
    register_variant(_spec)
del _spec

#: Canonical variant names (kept as the public tuple ``harness.VARIANTS``
#: used to re-export).
VARIANTS: Tuple[str, ...] = variant_names()
