"""The ELZAR transformation (paper §III, §IV).

ELZAR replicates *data*, not instructions: every live value is held in
all four lanes of a vector (YMM) register, and replicable computation
(arithmetic, logic, comparisons, casts, address arithmetic, selects,
phis) is rewritten to the corresponding vector operation so that all
replicas are computed by one instruction (Figure 2).

Synchronization instructions (loads, stores, calls, returns, branches;
§III-B) stay scalar. ELZAR wraps them:

- a load extracts lane 0 of the replicated address, performs the scalar
  load, and broadcasts the result back into all lanes (Figure 6);
- a store extracts both the value and the address;
- calls extract every argument and broadcast the return value, so
  function signatures never change (§III-B) — this also gives the
  module-boundary behaviour of the paper for unhardened externals;
- a branch turns into a lane-wise comparison followed by a
  ptest-style collapse of the replicated i1 result (Figure 7).

Checks (§III-C step 2) are inserted before synchronization
instructions: the shuffle–xor–ptest sequence of Figure 8, modelled by
the ``elzar.check.*`` intrinsic whose fast-path cost equals that
sequence and whose slow path performs the extended majority-vote
recovery of §III-C step 3 (including the no-majority program stop).
Branch checks reuse the ptest needed for branching anyway, adding only
one jump (Figure 9) — hence the separate, cheaper
``elzar.branch_cond`` intrinsic; with branch checks disabled the
``_nocheck`` variant still pays the ptest because AVX has no other way
to branch.

Deviations from the paper (documented in DESIGN.md): every type is
replicated exactly 4x (the paper fills the whole YMM register, §III-D
option 3), and check/recovery are intrinsics with the paper's costs
rather than inline IR, keeping the hardened CFG isomorphic to the
original. The fault-injection window of vulnerability on extracted
addresses (§V-C) is preserved: the extract happens *after* the check.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cpu import intrinsics as intr
from ..ir import types as T
from ..ir.builder import IRBuilder
from ..ir.function import BasicBlock, Function
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    BroadcastInst,
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
from ..ir.values import Argument, Constant, GlobalVariable, UndefValue, Value
from .options import LANES, ElzarOptions

def elzar_transform(
    module: Module, options: Optional[ElzarOptions] = None
) -> Module:
    """Return a new module in which every defined function is hardened."""
    options = options or ElzarOptions()
    out = Module(f"{module.name}.elzar")
    module.clone_signature_into(out)
    for fn in module.functions.values():
        out.declare_function(fn.name, fn.ftype)
    for fn in module.functions.values():
        if fn.is_declaration:
            continue
        if fn.name in options.exclude:
            _copy_unhardened(fn, out)
        else:
            _harden_function(fn, out, options)
    return out


def _copy_unhardened(fn: Function, target: Module) -> None:
    # clone_function_into fills the declaration shell already present in
    # ``target`` (other functions hold references to that shell).
    from .clone import clone_function_into

    clone_function_into(fn, target)


class _FunctionHardener:
    def __init__(self, fn: Function, target: Module, options: ElzarOptions):
        self.fn = fn
        self.target = target
        self.options = options
        self.new_fn = target.get_function(fn.name)
        self.builder = IRBuilder()
        self.vmap: Dict[int, Value] = {}
        self.bmap: Dict[int, BasicBlock] = {}
        self._entry_broadcasts: Dict[int, Value] = {}

    # Protection predicate -----------------------------------------------------

    def protects(self, ty: T.Type) -> bool:
        """Should a value of this (scalar) type live replicated?"""
        if ty.is_void or ty.is_vector:
            return False
        if self.options.float_only:
            return ty.is_float
        return True

    def vec_ty(self, ty: T.Type) -> T.VectorType:
        return T.vector(ty, self.options.lanes)

    # Main driver -----------------------------------------------------------------

    def run(self) -> Function:
        fn, new_fn = self.fn, self.new_fn
        new_fn._name_counter = fn._name_counter  # avoid %tN name collisions
        for old_arg, new_arg in zip(fn.args, new_fn.args):
            self.vmap[id(old_arg)] = new_arg  # replicated lazily at entry
        for block in fn.blocks:
            self.bmap[id(block)] = new_fn.append_block(block.name)

        for block in fn.blocks:
            self.builder.position_at_end(self.bmap[id(block)])
            for inst in block.instructions:
                self._transform(inst)

        self._wire_phis()
        new_fn.hardened = "elzar-float" if self.options.float_only else "elzar"
        return new_fn

    # Operand representation ---------------------------------------------------------

    def rep(self, value: Value) -> Value:
        """Hardened representation of an operand: a 4-lane vector for
        protected values, the scalar clone otherwise."""
        if isinstance(value, Constant):
            if self.protects(value.type):
                return Constant(self.vec_ty(value.type), (value.value,) * self.options.lanes)
            return value
        if isinstance(value, UndefValue):
            if self.protects(value.type):
                return UndefValue(self.vec_ty(value.type))
            return value
        if isinstance(value, GlobalVariable):
            gv = self.target.get_global(value.name)
            if self.protects(value.type):
                return self._entry_broadcast(gv)
            return gv
        if isinstance(value, Function):
            return self.target.get_function(value.name)
        if isinstance(value, Argument):
            mapped = self.vmap[id(value)]
            if self.protects(value.type):
                return self._entry_broadcast(mapped)
            return mapped
        mapped = self.vmap.get(id(value))
        if mapped is None:
            raise KeyError(f"unmapped operand {value.ref()} in @{self.fn.name}")
        return mapped

    def _entry_broadcast(self, scalar: Value) -> Value:
        """Broadcast a function input (argument/global address) into a
        replicated register once, in the entry block (§III-B: "ILR
        replicates all inputs")."""
        cached = self._entry_broadcasts.get(id(scalar))
        if cached is not None:
            return cached
        entry = self.new_fn.entry
        bcast = BroadcastInst(scalar, self.options.lanes)
        bcast.name = self.new_fn.next_name(f"{scalar.name}.rep")
        entry.insert(entry.first_non_phi_index(), bcast)
        self._entry_broadcasts[id(scalar)] = bcast
        return bcast

    # Check / extract helpers ----------------------------------------------------------

    def check(self, vec: Value, enabled: bool) -> Value:
        """Insert a check-and-recover (or fail-stop) call if checks are
        enabled for this class of synchronization instruction."""
        if not enabled or not vec.type.is_vector:
            return vec
        if self.options.fail_stop:
            callee = intr.elzar_check_dmr(self.target, vec.type)
        else:
            callee = intr.elzar_check(self.target, vec.type)
        return self.builder.call(callee, [vec])

    def to_scalar(self, value: Value, check_enabled: bool) -> Value:
        """Collapse a hardened operand to a scalar for use by a
        synchronization instruction (check, then extract lane 0).

        Splat constants collapse for free — the backend folds an
        extract of a constant vector to an immediate (no check needed
        either: constants cannot be corrupted in our register-fault
        model, and the paper's checks guard *computed* replicas)."""
        if not value.type.is_vector:
            return value
        if isinstance(value, Constant):
            first = value.value[0]
            if all(v == first for v in value.value[1:]):
                return Constant(value.type.elem, first)
        checked = self.check(value, check_enabled)
        return self.builder.extractelement(checked, IRBuilder.i64(0))

    def from_scalar(self, scalar: Value) -> Value:
        """Replicate a synchronization instruction's scalar result."""
        return self.builder.broadcast(scalar, self.options.lanes)

    # Instruction transformation ----------------------------------------------------------

    def _transform(self, inst: Instruction) -> None:
        b = self.builder
        opcode = inst.opcode

        if isinstance(inst, PhiInst):
            ty = self.vec_ty(inst.type) if self.protects(inst.type) else inst.type
            phi = PhiInst(ty)
            phi.name = inst.name
            b.block.append(phi)
            self.vmap[id(inst)] = phi
            return

        if isinstance(inst, (BinaryInst, GepInst, SelectInst, ICmpInst, FCmpInst,
                             CastInst)):
            self._transform_compute(inst)
            return

        if isinstance(inst, LoadInst):
            addr = self.to_scalar(self.rep(inst.ptr), self.options.check_loads)
            loaded = b.load(inst.type, addr, name=inst.name)
            if self.protects(inst.type):
                self.vmap[id(inst)] = self.from_scalar(loaded)
            else:
                self.vmap[id(inst)] = loaded
            return

        if isinstance(inst, StoreInst):
            # Paper §V-B: stores check both the address and the value,
            # which is why store checks cost more than load checks.
            value = self.to_scalar(self.rep(inst.value), self.options.check_stores)
            addr = self.to_scalar(self.rep(inst.ptr), self.options.check_stores)
            b.store(value, addr)
            return

        if isinstance(inst, AllocaInst):
            copy = AllocaInst(inst.allocated_type, inst.count)
            copy.name = inst.name
            b.block.append(copy)
            if self.protects(T.PTR):
                self.vmap[id(inst)] = self.from_scalar(copy)
            else:
                self.vmap[id(inst)] = copy
            return

        if isinstance(inst, CallInst):
            args = [
                self.to_scalar(self.rep(a), self.options.check_other)
                for a in inst.args
            ]
            callee = self.target.get_function(inst.callee.name)
            call = b.call(callee, args, name=inst.name)
            if not inst.type.is_void:
                if self.protects(inst.type):
                    self.vmap[id(inst)] = self.from_scalar(call)
                else:
                    self.vmap[id(inst)] = call
            return

        if isinstance(inst, BranchInst):
            if not inst.is_conditional:
                b.br(self.bmap[id(inst.then_block)])
                return
            cond = self.rep(inst.cond)
            if cond.type.is_vector:
                if self.options.fail_stop and self.options.check_branches:
                    callee = intr.elzar_branch_cond_dmr(
                        self.target, cond.type.count
                    )
                else:
                    callee = intr.elzar_branch_cond(
                        self.target, cond.type.count,
                        checked=self.options.check_branches,
                    )
                cond = b.call(callee, [cond])
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
            value = self.to_scalar(self.rep(inst.value), self.options.check_other)
            b.ret(value)
            return

        if isinstance(inst, UnreachableInst):
            b.unreachable()
            return

        raise TypeError(f"ELZAR cannot transform {inst!r}")

    def _transform_compute(self, inst: Instruction) -> None:
        """Replicable computation: emit the vector form when the result
        (and in float_only mode, the operand domain) is protected."""
        b = self.builder
        if isinstance(inst, (ICmpInst, FCmpInst)):
            protected = self.protects(inst.lhs.type)
        else:
            protected = self.protects(inst.type)

        if not protected:
            # float_only mode: clone scalar, but operands that live in
            # the protected domain must be collapsed first (fptosi etc).
            operands = [self._unprotect(op) for op in inst.operands]
            copy = _rebuild(inst, operands)
            copy.name = inst.name
            b.block.append(copy)
            if not inst.type.is_void:
                self.vmap[id(inst)] = copy
            return

        operands = [self._protect(self.rep(op), op.type) for op in inst.operands]
        copy = _rebuild_vector(inst, operands, self.options.lanes)
        copy.name = inst.name
        b.block.append(copy)
        # Note for float_only mode: fcmp results stay replicated
        # (<4 x i1>); they collapse only at synchronization points —
        # branches via ptest, scalar consumers via _unprotect — exactly
        # like full-mode i1 values. An i1 phi mixing replicated and
        # scalar incomings is not supported in float_only mode (none of
        # the paper's FP workloads produce one); _wire_phis reports it.
        self.vmap[id(inst)] = copy

    def _protect(self, value: Value, orig_ty: T.Type) -> Value:
        """Lift an operand into the replicated domain if it is not
        there already (float_only mode: an int feeding sitofp)."""
        if value.type.is_vector or value.type.is_void:
            return value
        if isinstance(value, Constant):
            return Constant(self.vec_ty(value.type), (value.value,) * self.options.lanes)
        return self.builder.broadcast(value, self.options.lanes)

    def _unprotect(self, op: Value) -> Value:
        """Collapse a protected operand for use by an unprotected
        instruction (float_only mode: fptosi's float input). Checked:
        leaving the protected domain is a synchronization point."""
        mapped = self.rep(op)
        if mapped.type.is_vector:
            return self.to_scalar(mapped, self.options.check_other)
        return mapped

    # Phi wiring ------------------------------------------------------------------------

    def _wire_phis(self) -> None:
        for block in self.fn.blocks:
            for inst in block.instructions:
                if not isinstance(inst, PhiInst):
                    continue
                new_phi = self.vmap[id(inst)]
                for value, pred in inst.incoming():
                    incoming = self.rep(value)
                    if new_phi.type.is_vector and not incoming.type.is_vector:
                        incoming = self._lift_constant(incoming)
                    elif not new_phi.type.is_vector and incoming.type.is_vector:
                        raise TypeError(
                            f"float_only mode cannot mix replicated and "
                            f"scalar values in phi {inst.ref()} of "
                            f"@{self.fn.name}; harden with the full mode"
                        )
                    new_phi.add_incoming(incoming, self.bmap[id(pred)])

    def _lift_constant(self, value: Value) -> Value:
        if isinstance(value, Constant):
            return Constant(
                self.vec_ty(value.type), (value.value,) * self.options.lanes
            )
        raise TypeError(f"cannot lift {value!r} into the replicated domain")


def _rebuild(inst: Instruction, operands) -> Instruction:
    """Clone a compute instruction with new (scalar) operands."""
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


def _rebuild_vector(inst: Instruction, operands, lanes: int) -> Instruction:
    """Vector form of a compute instruction with replicated operands."""
    if isinstance(inst, BinaryInst):
        return BinaryInst(inst.opcode, operands[0], operands[1])
    if isinstance(inst, ICmpInst):
        return ICmpInst(inst.pred, operands[0], operands[1])
    if isinstance(inst, FCmpInst):
        return FCmpInst(inst.pred, operands[0], operands[1])
    if isinstance(inst, CastInst):
        to_ty = T.vector(inst.type, lanes)
        return CastInst(inst.opcode, operands[0], to_ty)
    if isinstance(inst, GepInst):
        return GepInst(inst.elem_type, operands[0], operands[1])
    if isinstance(inst, SelectInst):
        return SelectInst(operands[0], operands[1], operands[2])
    raise TypeError(f"not a compute instruction: {inst!r}")


def _harden_function(fn: Function, target: Module, options: ElzarOptions) -> Function:
    return _FunctionHardener(fn, target, options).run()
