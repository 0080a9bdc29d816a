"""repro.toolchain — the one compilation pipeline every subsystem runs.

The paper's evaluation (§IV–V) compiles each workload exactly once per
variant: ``-O3``, then harden. This package is that pipeline made a
single importable layer:

- :mod:`repro.toolchain.registry` — the declarative
  :class:`VariantSpec` registry, the *only* variant→options table in
  the repository. ``harness.Session``, ``python -m repro campaign``,
  lab cells and cluster workers all read it, so a variant added here
  appears in every subsystem at once.
- :mod:`repro.toolchain.build` — :class:`Toolchain` and the canonical
  ``build(workload, scale, variant)`` pipeline (``build_at`` →
  ``mem2reg`` → ``inline`` → ``mem2reg`` → harden/vectorize →
  verify). Harness sessions, ``faults.campaign`` cells and cluster
  workers build modules through it, so the same (workload, scale,
  variant) names the same IR everywhere — the property the cluster
  handshake checks across machines, now enforced across subsystems.
- :mod:`repro.toolchain.cache` — the persistent content-addressed
  cache, the one on-disk store of built variants, checkpoint sets and
  compiled code. Built variants are stored as sealed printed IR keyed
  on (workload, scale, variant digest, pipeline digest, IR-format
  digest) and rehydrated through the round-trippable parser, so a
  second scorecard, bench run or cluster worker on the same checkout
  skips build+harden entirely. See docs/TOOLCHAIN.md for keys and
  invalidation rules.
"""

from .build import (
    BuiltVariant,
    PIPELINE,
    TOOLCHAIN_VERSION,
    Toolchain,
    build,
    default_toolchain,
    pipeline_digest,
    toolchain_digest,
)
from .cache import ArtifactCache, CacheStats, default_cache_path
from .registry import (
    REGISTRY,
    VARIANTS,
    VariantSpec,
    get_variant,
    register_variant,
    variant_names,
)

__all__ = [
    "ArtifactCache",
    "BuiltVariant",
    "CacheStats",
    "PIPELINE",
    "REGISTRY",
    "TOOLCHAIN_VERSION",
    "Toolchain",
    "VARIANTS",
    "VariantSpec",
    "build",
    "default_cache_path",
    "default_toolchain",
    "get_variant",
    "pipeline_digest",
    "register_variant",
    "toolchain_digest",
    "variant_names",
]
