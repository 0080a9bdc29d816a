"""Cell recipes: how both ends of the wire rebuild a campaign cell.

Modules never cross the network (they are not picklable by design —
the lab's forked workers inherit them, and a remote worker cannot).
Instead a cell travels as a *recipe*: ``(workload, build scale,
version)``. Coordinator and worker each rebuild the module from their
own checkout through the unified toolchain — the canonical §IV-A
pipeline plus the registry variant's hardening transform, identical to
what the harness figures run — and the handshake compares content
digests of the printed IR and of the golden run, so a drifted checkout
is refused before any shard is leased rather than silently producing
different counts.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..faults.models import StreamProfile, get_model
from ..ir.module import Module
from ..lab.checkpoint import golden_digest, module_digest
from ..lab.store import _canonical, digest_of
from ..toolchain import default_toolchain, get_variant, variant_names

#: Version vocabulary for recipes on the wire: every registry variant
#: (and its aliases). Kept as a mapping for backward compatibility —
#: ``sorted(VERSIONS)`` is still the CLI's "what can I ask for" list —
#: but the values are the registry specs, not ad-hoc lambdas.
VERSIONS = {name: get_variant(name) for name in variant_names()}


def build_cell(workload: str, build_scale: str,
               version: str) -> Tuple[Module, str, tuple]:
    """Rebuild one cell's module via the unified toolchain; returns
    (module, entry, args). Raises ``KeyError`` (listing the registry)
    for unknown versions."""
    built = default_toolchain().build(workload, build_scale, version)
    return built.module, built.entry, built.args


def handshake(module: Module, reference: Sequence, profile: StreamProfile,
              fault_model: str) -> Dict[str, object]:
    """What both ends must agree on before any shard of a cell is
    leased: the IR digest, the golden-run digest, the fault model's
    target population, and the digest of its ``cache_key``. The
    coordinator computes it from its build of the cell, each worker
    from its own, and the ``prepared`` frame carries the worker's."""
    model = get_model(fault_model)
    return {
        "module_digest": module_digest(module),
        "golden_digest": golden_digest(
            reference, profile.eligible, profile.executed,
            profile.mem_accesses, profile.cond_branches,
            profile.checker_sites),
        "population": model.population(profile),
        "model_key": digest_of(_canonical(model.cache_key)),
    }


class CellCache:
    """Worker-side cache of rebuilt cells keyed by recipe, backed by
    the process-wide toolchain (which itself memoizes builds and
    rehydrates from the on-disk artifact cache). The golden run is
    additionally memoized on the module
    (:func:`repro.faults.campaign.golden_profile`), so a worker serving
    many leases of one cell pays for at most one build and one golden
    run."""

    def __init__(self):
        self._cells: Dict[tuple, Tuple[Module, str, tuple]] = {}

    def get(self, workload: str, build_scale: str,
            version: str) -> Tuple[Module, str, tuple]:
        key = (workload, build_scale, version)
        cell = self._cells.get(key)
        if cell is None:
            cell = build_cell(workload, build_scale, version)
            self._cells[key] = cell
        return cell
