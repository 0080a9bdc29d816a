"""SWIFT-R: instruction-triplication ILR with majority voting.

The paper's baseline (Reis et al. [16], re-implemented by the authors
because the original was not public; §V-D). Every replicable
instruction is emitted three times, creating three independent data
flows; before each synchronization instruction the three copies of
every live-in operand are majority-voted (``tmr.vote``), masking a
fault in any single copy (Figure 5b).

Replicated inputs: loads, call results, and function arguments are
computed once and *shared* by the three flows (the classical SWIFT-R
move into three shadow registers — we share the SSA value, which keeps
the same window of vulnerability: a fault in the producing instruction
corrupts all three flows, a fault in any consumer corrupts one).

The same machinery with ``copies=2`` and fail-stop checks implements
plain SWIFT (DMR, detection only) for the ablation experiments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cpu import intrinsics as intr
from ..ir.builder import IRBuilder
from ..ir.function import BasicBlock, Function
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    GepInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)
from ..ir.module import Module
from ..ir.function import Function as FnValue
from ..ir.values import Constant, GlobalVariable, UndefValue, Value
from .options import SwiftOptions


def swiftr_transform(module: Module, options: Optional[SwiftOptions] = None) -> Module:
    """Instruction-triplicating TMR transform (new module)."""
    options = options or SwiftOptions(copies=3)
    return _transform(module, options, suffix="swiftr")


def swift_transform(module: Module, options: Optional[SwiftOptions] = None) -> Module:
    """Instruction-duplicating DMR (fail-stop) transform (new module)."""
    options = options or SwiftOptions(copies=2)
    if options.copies != 2:
        raise ValueError("swift_transform requires copies=2")
    return _transform(module, options, suffix="swift")


def _transform(module: Module, options: SwiftOptions, suffix: str) -> Module:
    out = Module(f"{module.name}.{suffix}")
    module.clone_signature_into(out)
    for fn in module.functions.values():
        out.declare_function(fn.name, fn.ftype)
    for fn in module.functions.values():
        if fn.is_declaration:
            continue
        if fn.name in options.exclude:
            from .clone import clone_function_into

            clone_function_into(fn, out)
        else:
            _Triplicator(fn, out, options, suffix).run()
    return out


class _Triplicator:
    def __init__(self, fn: Function, target: Module, options: SwiftOptions,
                 suffix: str):
        self.fn = fn
        self.target = target
        self.options = options
        self.suffix = suffix
        self.new_fn = target.get_function(fn.name)
        self.builder = IRBuilder()
        # Original value -> tuple of N copies in the new function.
        self.vmap: Dict[int, Tuple[Value, ...]] = {}
        self.bmap: Dict[int, BasicBlock] = {}

    @property
    def n(self) -> int:
        return self.options.copies

    def run(self) -> Function:
        fn, new_fn = self.fn, self.new_fn
        new_fn._name_counter = fn._name_counter  # avoid %tN name collisions
        for old_arg, new_arg in zip(fn.args, new_fn.args):
            self.vmap[id(old_arg)] = (new_arg,) * self.n
        for block in fn.blocks:
            self.bmap[id(block)] = new_fn.append_block(block.name)
        for block in fn.blocks:
            self.builder.position_at_end(self.bmap[id(block)])
            for inst in block.instructions:
                self._transform(inst)
        self._wire_phis()
        new_fn.hardened = self.suffix
        return new_fn

    # Operand copies ----------------------------------------------------------------

    def copies(self, value: Value) -> Tuple[Value, ...]:
        if isinstance(value, (Constant, UndefValue)):
            return (value,) * self.n
        if isinstance(value, GlobalVariable):
            return (self.target.get_global(value.name),) * self.n
        if isinstance(value, FnValue):
            return (self.target.get_function(value.name),) * self.n
        mapped = self.vmap.get(id(value))
        if mapped is None:
            raise KeyError(f"unmapped operand {value.ref()} in @{self.fn.name}")
        return mapped

    def vote(self, value: Value, enabled: bool) -> Value:
        """Majority-vote (or DMR-check) the copies of an operand before
        it reaches a synchronization instruction; returns the winner."""
        copies = self.copies(value)
        if not enabled or _all_same(copies):
            return copies[0]
        if self.n == 2:
            callee = intr.swift_check(self.target, copies[0].type)
            return self.builder.call(callee, list(copies))
        callee = intr.tmr_vote(self.target, copies[0].type)
        return self.builder.call(callee, list(copies))

    # Transformation -------------------------------------------------------------------

    def _transform(self, inst: Instruction) -> None:
        b = self.builder

        if isinstance(inst, PhiInst):
            phis = []
            for i in range(self.n):
                phi = PhiInst(inst.type)
                phi.name = f"{inst.name}.c{i}" if i else inst.name
                b.block.append(phi)
                phis.append(phi)
            self.vmap[id(inst)] = tuple(phis)
            return

        if isinstance(inst, (BinaryInst, GepInst, SelectInst, ICmpInst,
                             FCmpInst, CastInst)):
            out = []
            for i in range(self.n):
                operands = [self.copies(op)[i] for op in inst.operands]
                copy = _rebuild(inst, operands)
                copy.name = f"{inst.name}.c{i}" if i else inst.name
                b.block.append(copy)
                out.append(copy)
            self.vmap[id(inst)] = tuple(out)
            return

        if isinstance(inst, LoadInst):
            addr = self.vote(inst.ptr, self.options.check_loads)
            loaded = b.load(inst.type, addr, name=inst.name)
            self.vmap[id(inst)] = (loaded,) * self.n
            return

        if isinstance(inst, StoreInst):
            value = self.vote(inst.value, self.options.check_stores)
            addr = self.vote(inst.ptr, self.options.check_stores)
            b.store(value, addr)
            return

        if isinstance(inst, AllocaInst):
            copy = AllocaInst(inst.allocated_type, inst.count)
            copy.name = inst.name
            b.block.append(copy)
            self.vmap[id(inst)] = (copy,) * self.n
            return

        if isinstance(inst, CallInst):
            args = [self.vote(a, self.options.check_other) for a in inst.args]
            callee = self.target.get_function(inst.callee.name)
            call = b.call(callee, args, name=inst.name)
            if not inst.type.is_void:
                self.vmap[id(inst)] = (call,) * self.n
            return

        if isinstance(inst, BranchInst):
            if not inst.is_conditional:
                b.br(self.bmap[id(inst.then_block)])
                return
            cond = self.vote(inst.cond, self.options.check_branches)
            b.cond_br(
                cond,
                self.bmap[id(inst.then_block)],
                self.bmap[id(inst.else_block)],
            )
            return

        if isinstance(inst, RetInst):
            if inst.value is None:
                b.ret_void()
                return
            b.ret(self.vote(inst.value, self.options.check_other))
            return

        if isinstance(inst, UnreachableInst):
            b.unreachable()
            return

        raise TypeError(f"SWIFT-R cannot transform {inst!r}")

    def _wire_phis(self) -> None:
        for block in self.fn.blocks:
            for inst in block.instructions:
                if not isinstance(inst, PhiInst):
                    continue
                new_phis = self.vmap[id(inst)]
                for value, pred in inst.incoming():
                    incoming = self.copies(value)
                    for phi, inc in zip(new_phis, incoming):
                        phi.add_incoming(inc, self.bmap[id(pred)])


def _rebuild(inst: Instruction, operands: List[Value]) -> Instruction:
    if isinstance(inst, BinaryInst):
        return BinaryInst(inst.opcode, operands[0], operands[1])
    if isinstance(inst, ICmpInst):
        return ICmpInst(inst.pred, operands[0], operands[1])
    if isinstance(inst, FCmpInst):
        return FCmpInst(inst.pred, operands[0], operands[1])
    if isinstance(inst, CastInst):
        return CastInst(inst.opcode, operands[0], inst.type)
    if isinstance(inst, GepInst):
        return GepInst(inst.elem_type, operands[0], operands[1])
    if isinstance(inst, SelectInst):
        return SelectInst(operands[0], operands[1], operands[2])
    raise TypeError(f"not a compute instruction: {inst!r}")


def _all_same(copies: Tuple[Value, ...]) -> bool:
    first = copies[0]
    return all(c is first for c in copies[1:])
