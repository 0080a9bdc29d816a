"""repro.analysis — result aggregation, text rendering, and static
module inspection."""

from .._lazy import lazy_exports

__all__ = [
    "CrossCheckRow",
    "FunctionReport",
    "FunctionVulnerability",
    "ModuleReport",
    "VulnerabilityReport",
    "analyze_function",
    "analyze_module",
    "arithmetic_mean",
    "cross_check",
    "diff_reports",
    "exposed_sites_for_model",
    "fmt",
    "geometric_mean",
    "inspect_function",
    "inspect_module",
    "render_table",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".inspect": (
        "FunctionReport", "ModuleReport", "diff_reports", "inspect_function",
        "inspect_module",
    ),
    ".report": ("arithmetic_mean", "fmt", "geometric_mean", "render_table"),
    ".vulnerability": (
        "CrossCheckRow", "FunctionVulnerability", "VulnerabilityReport",
        "analyze_function", "analyze_module", "cross_check",
        "exposed_sites_for_model",
    ),
})
