"""mem2reg: promote stack slots to SSA registers.

Standard SSA construction (Cytron et al.): phi placement at iterated
dominance frontiers of the stores, then a renaming walk over the
dominator tree. An alloca is promotable when it is a single scalar (or
vector) slot whose address is only ever used directly by loads and
stores *to* it.

This mirrors the paper's use of LLVM's scalarrepl/mem2reg before
hardening (§IV-A): the hardened program should carry its data flow in
registers, where ELZAR can replicate it, not in memory, which is
assumed ECC-protected and is not replicated.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir import types as T
from ..ir.cfg import DominatorTree
from ..ir.function import BasicBlock, Function
from ..ir.instructions import AllocaInst, Instruction, LoadInst, PhiInst, StoreInst
from ..ir.module import Module
from ..ir.values import Constant, Value
from .utils import build_use_map


def mem2reg(module: Module) -> Module:
    for fn in module.defined_functions():
        promote_function(fn)
    module.bump_version()
    return module


def promote_function(fn: Function) -> int:
    """Promote all eligible allocas in ``fn``; returns how many."""
    allocas = _promotable_allocas(fn)
    if not allocas:
        return 0
    domtree = DominatorTree(fn)
    frontiers = domtree.frontiers()
    preds = fn.compute_predecessors()

    # Phase 1: phi placement at iterated dominance frontiers. Blocks
    # are visited in function order, never in set order (sets of
    # blocks hash by identity, so set order follows memory addresses):
    # phi names, and with them the IR digest, must not vary between
    # processes.
    order = {block: i for i, block in enumerate(fn.blocks)}
    phis: Dict[PhiInst, AllocaInst] = {}
    for alloca in allocas:
        def_blocks: Set[BasicBlock] = {
            inst.parent
            for inst in _users(fn, alloca)
            if isinstance(inst, StoreInst)
        }
        placed: Set[BasicBlock] = set()
        worklist = sorted(def_blocks, key=order.__getitem__)
        while worklist:
            block = worklist.pop()
            for frontier_block in sorted(frontiers.get(block, ()),
                                         key=order.__getitem__):
                if frontier_block in placed:
                    continue
                placed.add(frontier_block)
                phi = PhiInst(alloca.allocated_type)
                phi.name = fn.next_name(f"{alloca.name}.phi")
                frontier_block.insert(0, phi)
                phis[phi] = alloca
                if frontier_block not in def_blocks:
                    worklist.append(frontier_block)

    # Phase 2: renaming walk over the dominator tree.
    alloca_set = set(map(id, allocas))
    stacks: Dict[int, List[Value]] = {id(a): [] for a in allocas}
    to_erase: List[Instruction] = []

    def current_value(alloca: AllocaInst) -> Value:
        stack = stacks[id(alloca)]
        if stack:
            return stack[-1]
        return _zero_value(alloca.allocated_type)

    def rename(block: BasicBlock) -> None:
        pushed: List[int] = []
        for inst in list(block.instructions):
            if isinstance(inst, PhiInst) and inst in phis:
                stacks[id(phis[inst])].append(inst)
                pushed.append(id(phis[inst]))
                continue
            if isinstance(inst, LoadInst) and id(inst.ptr) in alloca_set:
                replacement = current_value(inst.ptr)
                _replace_uses_in_fn(fn, inst, replacement)
                to_erase.append(inst)
                continue
            if isinstance(inst, StoreInst) and id(inst.ptr) in alloca_set:
                stacks[id(inst.ptr)].append(inst.value)
                pushed.append(id(inst.ptr))
                to_erase.append(inst)
                continue
        for succ in block.successors():
            for phi in succ.phis():
                alloca = phis.get(phi)
                if alloca is not None:
                    phi.add_incoming(current_value(alloca), block)
        for child in domtree.children[block]:
            rename(child)
        for key in pushed:
            stacks[key].pop()

    rename(fn.entry)

    for inst in to_erase:
        inst.parent.remove(inst)
    for alloca in allocas:
        alloca.parent.remove(alloca)

    # Prune phis for incoming edges never seen (unreachable preds).
    for phi, alloca in phis.items():
        block = phi.parent
        if block is None:
            continue
        expected = preds[block]
        if len(phi.incoming_blocks) != len(expected):
            for pred in expected:
                if pred not in phi.incoming_blocks:
                    phi.add_incoming(_zero_value(phi.type), pred)
    return len(allocas)


def _promotable_allocas(fn: Function) -> List[AllocaInst]:
    uses = build_use_map(fn)
    out = []
    for inst in fn.instructions():
        if not isinstance(inst, AllocaInst):
            continue
        if inst.count != 1:
            continue
        ty = inst.allocated_type
        if not (ty.is_scalar or ty.is_vector):
            continue
        ok = True
        for user, index in uses.get(id(inst), ()):
            if isinstance(user, LoadInst):
                continue
            if isinstance(user, StoreInst) and index == 1:
                continue  # address operand of a store to this slot
            ok = False
            break
        if ok:
            out.append(inst)
    return out


def _users(fn: Function, value: Value) -> List[Instruction]:
    return [inst for inst in fn.instructions() if value in inst.operands]


def _replace_uses_in_fn(fn: Function, old: Value, new: Value) -> None:
    for inst in fn.instructions():
        for i, op in enumerate(inst.operands):
            if op is old:
                inst.operands[i] = new


def _zero_value(ty: T.Type) -> Value:
    """Value of an uninitialized slot (LLVM would say undef; we use a
    deterministic zero so simulations are reproducible)."""
    if ty.is_vector:
        return Constant(ty, (0,) * ty.count)
    if ty.is_float:
        return Constant(ty, 0.0)
    if ty.is_pointer:
        return Constant(ty, 0)
    return Constant(ty, 0)
