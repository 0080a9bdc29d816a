"""repro.ir — a small typed SSA intermediate representation.

Modelled on LLVM (opaque pointers, phis, first-class vectors) and rich
enough to express the ELZAR/SWIFT-R hardening transformations the paper
describes, plus the workloads they are evaluated on.
"""

from .._lazy import lazy_exports

__all__ = [
    "Argument",
    "AllocaInst",
    "BasicBlock",
    "BinaryInst",
    "BranchInst",
    "BroadcastInst",
    "CallInst",
    "CastInst",
    "Constant",
    "DominatorTree",
    "ExtractElementInst",
    "FCmpInst",
    "Function",
    "GepInst",
    "GlobalVariable",
    "ICmpInst",
    "IRBuilder",
    "IfState",
    "InsertElementInst",
    "Instruction",
    "LoadInst",
    "Loop",
    "LoopState",
    "Module",
    "ParseError",
    "PhiInst",
    "RetInst",
    "SelectInst",
    "ShuffleVectorInst",
    "StoreInst",
    "UndefValue",
    "UnreachableInst",
    "Value",
    "VerificationError",
    "const_bool",
    "const_float",
    "const_int",
    "const_splat",
    "find_natural_loops",
    "format_function",
    "format_instruction",
    "format_module",
    "opcodes",
    "parse_module",
    "reverse_postorder",
    "types",
    "verify_function",
    "verify_module",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".": ("opcodes", "types"),
    ".builder": ("IRBuilder", "IfState", "LoopState"),
    ".cfg": (
        "DominatorTree", "Loop", "find_natural_loops", "reverse_postorder",
    ),
    ".function": ("BasicBlock", "Function"),
    ".instructions": (
        "AllocaInst", "BinaryInst", "BranchInst", "BroadcastInst", "CallInst",
        "CastInst", "ExtractElementInst", "FCmpInst", "GepInst", "ICmpInst",
        "InsertElementInst", "Instruction", "LoadInst", "PhiInst", "RetInst",
        "SelectInst", "ShuffleVectorInst", "StoreInst", "UnreachableInst",
    ),
    ".module": ("Module",),
    ".parser": ("ParseError", "parse_module"),
    ".printer": ("format_function", "format_instruction", "format_module"),
    ".values": (
        "Argument", "Constant", "GlobalVariable", "UndefValue", "Value",
        "const_bool", "const_float", "const_int", "const_splat",
    ),
    ".verifier": ("VerificationError", "verify_function", "verify_module"),
})
