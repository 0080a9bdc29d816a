"""Textual form of the IR (LLVM-flavoured), round-trippable with
:mod:`repro.ir.parser`."""

from __future__ import annotations

from typing import List

from . import types as T
from .function import BasicBlock, Function
from .instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    BroadcastInst,
    CallInst,
    CastInst,
    ExtractElementInst,
    FCmpInst,
    GepInst,
    ICmpInst,
    InsertElementInst,
    Instruction,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    ShuffleVectorInst,
    StoreInst,
    UnreachableInst,
)
from .module import Module
from .values import GlobalVariable, Value


class _Namer:
    """Collision-safe printed names for one function.

    In-memory names need not be unique: workload builders may reuse an
    explicit name (two ``%merged`` in different blocks), and transforms
    applied to a *parsed* function restart the ``%tN`` counter over
    names the text already uses. References in memory are by identity,
    so the IR is unambiguous — but its printed form would not be.
    The namer walks the function once, keeps every first-seen name
    verbatim (collision-free functions print byte-identically), and
    deterministically renames later duplicates ``name.r2``, ``name.r3``
    … so the text parses back to the same value graph. Values and block
    labels are uniquified in separate namespaces, as the parser
    resolves ``label %x`` against blocks only.
    """

    def __init__(self, fn: Function):
        self._values: dict = {}  # id(value) -> printed name
        self._blocks: dict = {}  # id(block) -> printed name
        # The map is keyed by identity: hold references so no id is
        # reused while we print.
        self._pinned = []
        used: set = set()
        for arg in fn.args:
            self._values[id(arg)] = self._claim(arg.name or "arg", used)
            self._pinned.append(arg)
        block_used: set = set()
        for block in fn.blocks:
            self._blocks[id(block)] = self._claim(block.name or "bb",
                                                  block_used)
            self._pinned.append(block)
        for block in fn.blocks:
            for inst in block.instructions:
                if inst.type.is_void:
                    continue
                self._values[id(inst)] = self._claim(inst.name or "v", used)
                self._pinned.append(inst)

    @staticmethod
    def _claim(name: str, used: set) -> str:
        if name not in used:
            used.add(name)
            return name
        k = 2
        while f"{name}.r{k}" in used:
            k += 1
        unique = f"{name}.r{k}"
        used.add(unique)
        return unique

    def ref(self, v: Value) -> str:
        name = self._values.get(id(v))
        return f"%{name}" if name is not None else v.ref()

    def label(self, block: BasicBlock) -> str:
        return f"%{self._blocks.get(id(block), block.name)}"

    def block_name(self, block: BasicBlock) -> str:
        return self._blocks.get(id(block), block.name)


class _IdentityNamer:
    """Fallback for printing an instruction/block outside a function
    print (debugging): raw in-memory names, no uniquing."""

    def ref(self, v: Value) -> str:
        return v.ref()

    def label(self, block: BasicBlock) -> str:
        return f"%{block.name}"

    def block_name(self, block: BasicBlock) -> str:
        return block.name


def _operand(v: Value, n) -> str:
    """``type ref`` text for an operand position."""
    return f"{v.type} {n.ref(v)}"


def format_instruction(inst: Instruction, namer=None) -> str:
    n = namer if namer is not None else _IdentityNamer()
    lhs = f"{n.ref(inst)} = " if not inst.type.is_void else ""
    if isinstance(inst, BinaryInst):
        return (
            f"{lhs}{inst.opcode} {inst.type} "
            f"{n.ref(inst.lhs)}, {n.ref(inst.rhs)}"
        )
    if isinstance(inst, ICmpInst):
        return (
            f"{lhs}icmp {inst.pred} {inst.lhs.type} "
            f"{n.ref(inst.lhs)}, {n.ref(inst.rhs)}"
        )
    if isinstance(inst, FCmpInst):
        return (
            f"{lhs}fcmp {inst.pred} {inst.lhs.type} "
            f"{n.ref(inst.lhs)}, {n.ref(inst.rhs)}"
        )
    if isinstance(inst, CastInst):
        return f"{lhs}{inst.opcode} {_operand(inst.value, n)} to {inst.type}"
    if isinstance(inst, AllocaInst):
        return f"{lhs}alloca {inst.allocated_type}, i64 {inst.count}"
    if isinstance(inst, LoadInst):
        return f"{lhs}load {inst.type}, {_operand(inst.ptr, n)}"
    if isinstance(inst, StoreInst):
        return f"store {_operand(inst.value, n)}, {_operand(inst.ptr, n)}"
    if isinstance(inst, GepInst):
        return (
            f"{lhs}gep {inst.elem_type}, {_operand(inst.ptr, n)}, "
            f"{_operand(inst.index, n)}"
        )
    if isinstance(inst, BranchInst):
        if inst.is_conditional:
            return (
                f"br {_operand(inst.cond, n)}, "
                f"label {n.label(inst.then_block)}, "
                f"label {n.label(inst.else_block)}"
            )
        return f"br label {n.label(inst.then_block)}"
    if isinstance(inst, RetInst):
        if inst.value is None:
            return "ret void"
        return f"ret {_operand(inst.value, n)}"
    if isinstance(inst, UnreachableInst):
        return "unreachable"
    if isinstance(inst, CallInst):
        args = ", ".join(_operand(a, n) for a in inst.args)
        return f"{lhs}call {inst.type} @{inst.callee.name}({args})"
    if isinstance(inst, PhiInst):
        pairs = ", ".join(
            f"[ {n.ref(v)}, {n.label(b)} ]" for v, b in inst.incoming()
        )
        return f"{lhs}phi {inst.type} {pairs}"
    if isinstance(inst, SelectInst):
        return (
            f"{lhs}select {_operand(inst.cond, n)}, "
            f"{_operand(inst.tval, n)}, {_operand(inst.fval, n)}"
        )
    if isinstance(inst, ExtractElementInst):
        return (
            f"{lhs}extractelement {_operand(inst.vec, n)}, "
            f"{_operand(inst.index, n)}"
        )
    if isinstance(inst, InsertElementInst):
        return (
            f"{lhs}insertelement {_operand(inst.vec, n)}, "
            f"{_operand(inst.elem, n)}, {_operand(inst.index, n)}"
        )
    if isinstance(inst, ShuffleVectorInst):
        mask = ", ".join(str(i) for i in inst.mask)
        return (
            f"{lhs}shufflevector {_operand(inst.v1, n)}, "
            f"{_operand(inst.v2, n)}, mask <{mask}>"
        )
    if isinstance(inst, BroadcastInst):
        return f"{lhs}broadcast {_operand(inst.scalar, n)}, {inst.type.count}"
    raise TypeError(f"cannot print instruction {inst!r}")


def format_block(block: BasicBlock, namer=None) -> str:
    n = namer if namer is not None else _IdentityNamer()
    lines = [f"{n.block_name(block)}:"]
    for inst in block.instructions:
        lines.append(f"  {format_instruction(inst, n)}")
    return "\n".join(lines)


def format_function(fn: Function) -> str:
    if fn.is_declaration:
        params = ", ".join(f"{a.type} %{a.name}" for a in fn.args)
        return f"declare {fn.return_type} @{fn.name}({params})"
    namer = _Namer(fn)
    params = ", ".join(f"{a.type} {namer.ref(a)}" for a in fn.args)
    scheme = f" hardened({fn.hardened})" if fn.hardened else ""
    lines = [f"define {fn.return_type} @{fn.name}({params}){scheme} {{"]
    for block in fn.blocks:
        lines.append(format_block(block, namer))
    lines.append("}")
    return "\n".join(lines)


def format_global(gv: GlobalVariable) -> str:
    kind = "constant" if gv.constant else "global"
    init = _format_initializer(gv)
    return f"@{gv.name} = {kind} {gv.content_type} {init}"


def _format_initializer(gv: GlobalVariable) -> str:
    init = gv.initializer
    if init is None:
        return "zeroinitializer"
    ty = gv.content_type
    if isinstance(init, (bytes, bytearray)):
        elems = ", ".join(f"i8 {b}" for b in init)
        return f"[{elems}]"
    if ty.is_array:
        elem = ty.elem
        parts = ", ".join(
            f"{elem} {_scalar_text(elem, v)}" for v in init
        )
        return f"[{parts}]"
    return _scalar_text(ty, init)


def _scalar_text(ty: T.Type, value) -> str:
    if ty.is_float:
        return repr(float(value))
    return str(int(value))


def format_module(module: Module) -> str:
    parts: List[str] = [f"; module {module.name}"]
    for gv in module.globals.values():
        parts.append(format_global(gv))
    for fn in module.functions.values():
        parts.append(format_function(fn))
    return "\n\n".join(parts) + "\n"
