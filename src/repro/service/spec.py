"""Campaign request specs: validation, normalization, content digest.

A service campaign is one cell — ``(workload, variant, fault model,
budget, CI target)`` — expressed as a flat JSON object. This
module is the admission boundary's *shape* check: every field is
validated against the same registries the CLI uses (the workload
registry, the toolchain variant registry, the fault-model registry),
so a request the service accepts is exactly a request ``python -m
repro campaign`` could run, and the two produce bit-identical counts.

:func:`CampaignRequest.digest` is the request's content address over
the *outcome-determining* fields only. The execution knobs — workers
and priority — are excluded for the same reason the lab store excludes
them from its spec keys: counts are bit-identical across them by
contract. There is no engine field: every campaign runs on the compiled
engine with checkpoint resume (see :mod:`repro.faults.campaign`), and a
request naming ``engine`` is rejected as an unknown field. Two requests
with equal digests
therefore have equal results, which is what lets the service coalesce
duplicate in-flight submissions and serve repeats from the store for
~0 compute.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional

from ..faults.campaign import CampaignConfig
from ..faults.models import DEFAULT_MODEL, model_names
from ..lab.store import digest_of
from ..toolchain.registry import get_variant, variant_names
from ..workloads.registry import ALL as ALL_WORKLOADS

#: Per ``scale``: default (injections, shard_size) — identical to the
#: campaign CLI's ``_SCALE_DEFAULTS`` so a bare service spec and a bare
#: CLI invocation land on the same store rows.
SCALE_DEFAULTS = {"test": (40, 10), "perf": (150, 25)}

#: Hard ceiling on one campaign's injection budget, independent of
#: tenant quotas (which are usually tighter).
MAX_INJECTIONS = 1_000_000


class SpecError(ValueError):
    """A request field failed validation. Carries the structured form
    the HTTP layer returns as a 400."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name
        self.message = message

    def as_dict(self) -> Dict[str, str]:
        return {"code": "invalid-spec", "field": self.field,
                "message": self.message}


@dataclass(frozen=True)
class CampaignRequest:
    """A validated campaign submission (one cell)."""

    workload: str
    version: str
    fault_model: str = DEFAULT_MODEL
    scale: str = "test"
    injections: int = 0      # 0 -> scale default
    seed: int = 2016
    shard_size: int = 0      # 0 -> scale default
    ci_target: Optional[float] = None
    #: Local-fabric forked workers per campaign (ignored under the
    #: cluster fabric, where parallelism is the worker pool).
    workers: int = 1
    priority: int = 0

    @property
    def build_scale(self) -> str:
        return "fi" if self.scale == "perf" else "test"

    def config(self) -> CampaignConfig:
        return CampaignConfig(
            injections=self.injections, seed=self.seed,
            workers=self.workers, fault_model=self.fault_model,
        )

    def digest(self) -> str:
        """Content address over outcome-determining fields only."""
        return digest_of([
            1, "service-spec", self.workload, self.scale, self.version,
            self.fault_model, self.seed, self.injections, self.shard_size,
            repr(self.ci_target),
        ])

    def as_dict(self) -> Dict:
        return asdict(self)


_FIELDS = {f: True for f in (
    "workload", "version", "fault_model", "scale", "injections", "seed",
    "shard_size", "ci_target", "workers", "priority",
)}


def _as_int(payload: Dict, name: str, default: int, lo: int, hi: int) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(name, f"expected an integer, got {value!r}")
    if not lo <= value <= hi:
        raise SpecError(name, f"must be in [{lo}, {hi}], got {value}")
    return value


def parse_request(payload: object) -> CampaignRequest:
    """Validate a JSON submission into a :class:`CampaignRequest`.

    Raises :class:`SpecError` naming the offending field — the HTTP
    layer turns it into a structured 400. Unknown fields are rejected
    (a typo'd knob silently ignored would silently change nothing,
    which is worse than failing loudly).
    """
    if not isinstance(payload, dict):
        raise SpecError("body", "expected a JSON object")
    unknown = sorted(k for k in payload if k not in _FIELDS)
    if unknown:
        raise SpecError(unknown[0], "unknown field")

    scale = payload.get("scale", "test")
    if scale not in SCALE_DEFAULTS:
        raise SpecError("scale", f"must be one of {sorted(SCALE_DEFAULTS)}, "
                                 f"got {scale!r}")
    default_injections, default_shard = SCALE_DEFAULTS[scale]

    workload = payload.get("workload")
    if not isinstance(workload, str) or workload not in ALL_WORKLOADS:
        raise SpecError("workload",
                        f"unknown workload {workload!r}; see "
                        f"{', '.join(sorted(ALL_WORKLOADS))}")

    version = payload.get("version")
    if not isinstance(version, str):
        raise SpecError("version", "required: a variant registry name")
    try:
        get_variant(version)
    except KeyError:
        raise SpecError("version",
                        f"unknown variant {version!r}; see "
                        f"{', '.join(variant_names())}") from None

    fault_model = payload.get("fault_model", DEFAULT_MODEL)
    if fault_model not in model_names():
        raise SpecError("fault_model",
                        f"unknown fault model {fault_model!r}; see "
                        f"{', '.join(model_names())}")

    ci_target = payload.get("ci_target")
    if ci_target is not None:
        if isinstance(ci_target, bool) or \
                not isinstance(ci_target, (int, float)):
            raise SpecError("ci_target", f"expected a number, "
                                         f"got {ci_target!r}")
        if not 0.0 < float(ci_target) < 1.0:
            raise SpecError("ci_target", "must be in (0, 1), "
                                         f"got {ci_target}")
        ci_target = float(ci_target)

    return CampaignRequest(
        workload=workload,
        version=version,
        fault_model=fault_model,
        scale=scale,
        injections=_as_int(payload, "injections", default_injections,
                           1, MAX_INJECTIONS),
        seed=_as_int(payload, "seed", 2016, 0, 2**63 - 1),
        shard_size=_as_int(payload, "shard_size", default_shard, 1, 100_000),
        ci_target=ci_target,
        workers=_as_int(payload, "workers", 1, 0, 256),
        priority=_as_int(payload, "priority", 0, -100, 100),
    )
