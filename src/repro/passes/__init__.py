"""repro.passes — IR transformations: optimization, vectorization, and
the ELZAR / SWIFT-R / SWIFT hardening schemes."""

from .._lazy import lazy_exports

__all__ = [
    "ElzarOptions",
    "PassManager",
    "SwiftOptions",
    "build_use_map",
    "clone_function_into",
    "clone_instruction",
    "clone_module",
    "constant_folding",
    "dce",
    "dce_function",
    "elzar_transform",
    "erase_instruction",
    "inline_function_calls",
    "inline_module",
    "fold_function",
    "has_side_effects",
    "mem2reg",
    "promote_function",
    "remove_unreachable_blocks",
    "replace_all_uses",
    "simplify_cfg",
    "simplify_function_cfg",
    "swift_transform",
    "swiftr_transform",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".clone": ("clone_function_into", "clone_instruction", "clone_module"),
    ".constant_folding": ("constant_folding", "fold_function"),
    ".dce": ("dce", "dce_function"),
    ".elzar": ("elzar_transform",),
    ".inline": ("inline_function_calls", "inline_module"),
    ".mem2reg": ("mem2reg", "promote_function"),
    ".options": ("ElzarOptions", "SwiftOptions"),
    ".pass_manager": ("PassManager",),
    ".simplify_cfg": ("simplify_cfg", "simplify_function_cfg"),
    ".swiftr": ("swift_transform", "swiftr_transform"),
    ".utils": (
        "build_use_map", "erase_instruction", "has_side_effects",
        "remove_unreachable_blocks", "replace_all_uses",
    ),
})
