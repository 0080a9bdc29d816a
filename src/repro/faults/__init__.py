"""repro.faults — single-event-upset injection and outcome
classification (paper §IV-B, Table I, Figure 13)."""

from .._lazy import lazy_exports

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "DEFAULT_MODEL",
    "FaultModel",
    "Outcome",
    "StreamProfile",
    "TraceSummary",
    "collect_trace",
    "draw_model_plans",
    "draw_plans",
    "functions_only",
    "get_model",
    "golden_profile",
    "hardened_only",
    "inject_once",
    "InjectionSession",
    "model_names",
    "register_model",
    "resolve_workers",
    "run_plans",
    "run_campaign",
    "trap_outcome",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".campaign": (
        "CampaignConfig", "InjectionSession", "draw_model_plans", "draw_plans",
        "golden_profile", "inject_once", "resolve_workers", "run_campaign",
        "run_plans", "trap_outcome",
    ),
    ".models": (
        "DEFAULT_MODEL", "FaultModel", "StreamProfile", "get_model",
        "model_names", "register_model",
    ),
    ".outcomes": ("CampaignResult", "Outcome"),
    ".trace": (
        "TraceSummary", "collect_trace", "functions_only", "hardened_only",
    ),
})
