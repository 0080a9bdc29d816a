"""repro.service — fault injection as a service.

A long-running, multi-tenant HTTP front end over the durable campaign
machinery: submissions are validated against the same registries the
CLI uses, admitted under per-tenant quotas, scheduled fair-share over
the local forked fabric or a cluster worker pool, and answered from
the content-addressed result store whenever the work already exists.

Start one with ``python -m repro serve``; talk to it with ``python -m
repro submit`` or :class:`~repro.service.client.ServiceClient`. The
wire API and tenancy model are documented in docs/SERVICE.md.
"""

from .._lazy import lazy_exports

__all__ = [
    "AdmissionController",
    "CampaignRequest",
    "CampaignRunner",
    "QuotaExceeded",
    "ReproService",
    "ServiceClient",
    "ServiceError",
    "SpecError",
    "TenantQuotas",
    "parse_request",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".admission": ("AdmissionController", "QuotaExceeded", "TenantQuotas"),
    ".app": ("ReproService",),
    ".client": ("ServiceClient", "ServiceError"),
    ".runner": ("CampaignRunner",),
    ".spec": ("CampaignRequest", "SpecError", "parse_request"),
})
