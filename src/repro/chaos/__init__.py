"""repro.chaos — deterministic infrastructure chaos for the campaign
stack.

The light core (:mod:`.hooks`, :mod:`.policy`) is imported by product
code and must stay dependency-free; the orchestration layers
(:mod:`.scenarios`, :mod:`.runner`, :mod:`.verify`, :mod:`.cli`) pull
in the whole lab/cluster stack and are imported lazily by the CLI.
See docs/CHAOS.md.
"""

from .._lazy import lazy_exports

__all__ = [
    "CHAOS_ENV",
    "ChaosController",
    "ChaosCrash",
    "ChaosRule",
    "ChaosSpec",
    "RESULT_RESEND",
    "RetryPolicy",
    "SERVICE_POLL",
    "WORKER_CONNECT",
    "activate",
    "activate_from_env",
    "active",
    "chaos_active",
    "chaos_point",
    "deactivate",
    "perform",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".hooks": (
        "CHAOS_ENV", "ChaosController", "ChaosCrash", "ChaosRule", "ChaosSpec",
        "activate", "activate_from_env", "active", "chaos_active",
        "chaos_point", "deactivate", "perform",
    ),
    ".policy": ("RESULT_RESEND", "SERVICE_POLL", "WORKER_CONNECT",
                "RetryPolicy"),
})
