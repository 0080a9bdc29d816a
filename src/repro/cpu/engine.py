"""Decode layer of the execution core: IR -> decoded blocks.

The reference interpreter (:mod:`repro.cpu.interpreter`) dispatches each
dynamic instruction through a chain of ~22 ``isinstance`` checks and
resolves every operand with per-step dict lookups keyed by ``Value``.
This module removes that per-step work with a one-time *decode* of each
function into the static facts execution needs. It holds no instruction
semantics: :mod:`repro.cpu.compiled` emits them as Python source from
the decoded form — compiled segments and, for the trampoline's record
path, one function per body record — and binds the reference's
intrinsic implementations (``interpreter.intrinsic_impl``) into it.

- every value gets a **register-file slot** (one flat list per frame);
  operands pre-resolve to slots or to baked-in constants — globals to
  their deterministic heap addresses (:func:`operand_resolver`);
- each basic block becomes a :class:`DecodedBlock`: its body records
  (leading phis become per-edge parallel moves; the compiler emits
  from this one partition), the defined-call metadata the trampoline
  pushes frames from, the fault-injection metadata of every
  value-producing record, and the terminator;
- per-block *static* counter deltas (instructions, uops, loads, ...)
  are pre-summed and flushed once per block instead of once per
  instruction, with exact prefix reconstruction when an exception
  escapes mid-block;
- records the reference interpreter would fail on before doing any
  work (an operand it cannot evaluate, a call to an undefined function,
  an instruction class it cannot execute) decode to *raisers*: the
  exception to raise, with the counters the reference has added by
  then.

The decoded form is cached on the :class:`~repro.ir.module.Module`
keyed by its ``version`` stamp (see ``Module.bump_version``) and the
cost model, so fault campaigns and thread sweeps decode once and
execute thousands of times.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.function import Function
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
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
    SelectInst,
    ShuffleVectorInst,
    StoreInst,
)
from ..ir.module import Module
from ..ir.values import Argument, Constant, GlobalVariable, UndefValue
from .errors import Trap
from .interpreter import _compute_static

# Terminator kinds.
_T_BR = 0          # unconditional branch
_T_CONDBR = 1      # conditional branch
_T_RET = 2         # ret <value>
_T_RET_VOID = 3    # ret void
_T_UNREACHABLE = 4
_T_FALLOFF = 5     # block has no terminator (reference raises MemoryFault)


# --- Decoded containers ------------------------------------------------------


class DecodedBlock:
    __slots__ = (
        "name",
        "n",               # number of body records
        "records",         # the body record instructions (len n)
        "raisers",         # parallel to the records: (exc type, msg) or None
        "inject",          # parallel to the records: (dst, type, inst) or None
        "cum_pairs",       # cum_pairs[i]: static deltas of records 0..i-1
        "partial_pairs",   # partial_pairs[i]: pre-exec deltas of record i
        "full_pairs",      # whole block incl. terminator (the common flush)
        "opcodes",         # opcode per record incl. terminator (by_opcode)
        "opcode_items",    # pre-counted ((opcode, count), ...) for full flush
        "term_kind",
        "term",            # kind-specific payload tuple
        "phi_moves",       # {pred DecodedBlock: ((dst, slot, const), ...)} | None
        "phi_meta",        # ((type, phi inst), ...) for inject bookkeeping
        "call_meta",       # parallel to the records: defined-call metadata or None
        "compiled",        # per variant (cpu.compiled): segmap or records | None
    )

    def __init__(self, name: str):
        self.name = name
        self.phi_moves = None
        self.phi_meta = ()
        self.compiled = None


class DecodedFunction:
    __slots__ = ("fn", "dmod", "nargs", "nslots", "slot_map", "rv", "entry",
                 "blocks")

    def __init__(self, fn: Function, dmod: "DecodedModule"):
        self.fn = fn
        self.dmod = dmod  # owner: cpu.compiled compiles per module
        self.nargs = len(fn.args)
        self.nslots = 0
        self.slot_map: Dict[int, int] = {}  # id(value) -> register slot
        self.rv = None                      # operand resolver over slot_map
        self.entry: Optional[DecodedBlock] = None
        self.blocks: List[DecodedBlock] = []


# --- Decode: static counter deltas -------------------------------------------


def _deltas(inst, static):
    """(full, partial) static counter deltas for one record.

    ``full`` is what a completed execution adds; ``partial`` is what the
    reference interpreter has already added at the instant each
    realistic exception site inside the record can fire (counted-before-
    executed fields: instructions, loads/stores, calls, fp/div class
    counts).
    """
    is_avx, _, uops = static
    base = {"instructions": 1}
    if is_avx:
        base["avx_instructions"] = 1
    op = inst.opcode
    if op == "unreachable":
        # The reference raises before adding uops.
        return dict(base), dict(base)
    full = dict(base)
    if uops:
        full["uops"] = uops
    partial = dict(base)
    if op == "br":
        full["branches"] = 1
        if inst.is_conditional:
            full["cond_branches"] = 1
        partial = dict(full)
    elif op == "ret":
        partial = dict(full)
    elif op == "load":
        full["loads"] = 1
        full["l1_accesses"] = 1
        partial["loads"] = 1
    elif op == "store":
        full["stores"] = 1
        full["l1_accesses"] = 1
        partial["stores"] = 1
    elif op == "call":
        full["calls"] = 1
        partial["calls"] = 1
    elif isinstance(inst, BinaryInst):
        ty = inst.type
        elem = ty.elem if ty.is_vector else ty
        if elem.is_float:
            full["fp_instructions"] = 1
            partial["fp_instructions"] = 1
        if op in ("sdiv", "udiv", "srem", "urem"):
            full["int_div_instructions"] = 1
            partial["int_div_instructions"] = 1
    elif isinstance(inst, FCmpInst):
        full["fp_instructions"] = 1
        partial["fp_instructions"] = 1
    return full, partial


# --- Decode ------------------------------------------------------------------


class _Undecodable(Exception):
    """Operand cannot be pre-resolved (malformed IR): the record decodes
    to a raiser that reproduces the reference interpreter's Trap."""


#: Instruction classes a body record executes; any other class in a
#: body (an interior phi) decodes to a raiser.
_RECORD_CLASSES = (
    BinaryInst, ICmpInst, FCmpInst, CastInst, LoadInst, StoreInst,
    AllocaInst, GepInst, CallInst, SelectInst, ExtractElementInst,
    InsertElementInst, ShuffleVectorInst, BroadcastInst,
)

_TERMINATOR_OPCODES = ("br", "ret", "unreachable")


def _base_deltas(inst, static):
    """Deltas for a record that raises before doing any work (the
    reference counts instructions / avx, then fails inside eval)."""
    base = {"instructions": 1}
    if static[0]:
        base["avx_instructions"] = 1
    return base, dict(base)


def _raiser(inst, rv):
    """The ``(exception type, message)`` a record raises before doing
    any work, or None. The reference counts the instruction, then either
    cannot execute its class (TypeError) or Traps evaluating an operand
    it cannot resolve."""
    if not isinstance(inst, _RECORD_CLASSES):
        return TypeError, f"cannot execute {inst!r}"
    try:
        for op in inst.operands:
            rv(op)
    except _Undecodable as exc:
        return Trap, str(exc)
    return None


def _fill_block(dmod, dblock, bb, bmap, rv, slot_map):
    costs = dmod.costs
    insts = bb.instructions

    # Leading phis become parallel moves (edge-keyed, see phi pass in
    # _fill_function); the body starts after them.
    start = 0
    while start < len(insts) and isinstance(insts[start], PhiInst):
        start += 1

    records = []
    raisers = []
    call_meta = []
    injects = []
    fulls = []
    partials = []
    opcodes = []
    terminator = None
    for inst in insts[start:]:
        if inst.opcode in _TERMINATOR_OPCODES:
            terminator = inst
            break
        static = _compute_static(inst, costs)
        callee = inst.callee if isinstance(inst, CallInst) else None
        meta = None
        if (callee is not None and callee.is_declaration
                and not callee.is_intrinsic):
            # Reference: args evaluated, calls counted, then Trap.
            raiser = (Trap, f"call to undefined function @{callee.name}")
            full, partial = _base_deltas(inst, static)
            full["calls"] = partial["calls"] = 1
        else:
            raiser = _raiser(inst, rv)
            if raiser is not None:
                full, partial = _base_deltas(inst, static)
            else:
                full, partial = _deltas(inst, static)
                if callee is not None and not callee.is_intrinsic:
                    # Everything the trampoline needs to run a defined
                    # call without Python recursion: it pushes an
                    # explicit frame, then completes the post-return
                    # bookkeeping (dst write, call timing) itself.
                    meta = (tuple(rv(a) for a in inst.args),
                            slot_map.get(id(inst), -1),
                            dmod.function(callee),
                            costs.scalar_latency("call"),
                            static[2], static[1], costs.ports.get("call"))
        records.append(inst)
        raisers.append(raiser)
        call_meta.append(meta)
        injects.append(None if inst.type.is_void
                       else (slot_map[id(inst)], inst.type, inst))
        fulls.append(full)
        partials.append(partial)
        opcodes.append(inst.opcode)

    # Terminator ---------------------------------------------------------
    term_full = {}
    term_partial = {}
    if terminator is None:
        dblock.term_kind = _T_FALLOFF
        dblock.term = None
    else:
        tstatic = _compute_static(terminator, costs)
        term_full, term_partial = _deltas(terminator, tstatic)
        top = terminator.opcode
        opcodes.append(top)
        try:
            if top == "unreachable":
                dblock.term_kind = _T_UNREACHABLE
                dblock.term = None
            elif top == "br":
                lat = costs.scalar["br"]
                if terminator.is_conditional:
                    s, c = rv(terminator.cond)
                    dblock.term_kind = _T_CONDBR
                    dblock.term = (
                        s, c,
                        bmap[id(terminator.then_block)],
                        bmap[id(terminator.else_block)],
                        terminator, lat,
                    )
                else:
                    dblock.term_kind = _T_BR
                    dblock.term = (bmap[id(terminator.then_block)], lat)
            else:  # ret
                lat = costs.scalar["ret"]
                uops = tstatic[2]
                if terminator.operands:
                    s, c = rv(terminator.operands[0])
                    dblock.term_kind = _T_RET
                    dblock.term = (s, c, lat, uops)
                else:
                    dblock.term_kind = _T_RET_VOID
                    dblock.term = (lat, uops)
        except _Undecodable as exc:
            # The reference counts the terminator, then Traps evaluating
            # its operand: a raiser record ends the block.
            records.append(terminator)
            raisers.append((Trap, str(exc)))
            call_meta.append(None)
            injects.append(None)
            fulls.append(term_full)
            partials.append(dict(term_full))
            term_full = {}
            term_partial = {}
            dblock.term_kind = _T_FALLOFF
            dblock.term = None

    # Static-delta tables ------------------------------------------------
    n = len(raisers)
    cum = {}
    cum_pairs = []
    for full in fulls:
        cum_pairs.append(tuple(cum.items()))
        for k, v in full.items():
            cum[k] = cum.get(k, 0) + v
    cum_pairs.append(tuple(cum.items()))
    for k, v in term_full.items():
        cum[k] = cum.get(k, 0) + v

    dblock.n = n
    dblock.records = tuple(records)
    dblock.raisers = tuple(raisers)
    dblock.inject = tuple(injects)
    dblock.call_meta = tuple(call_meta)
    dblock.cum_pairs = tuple(cum_pairs)
    dblock.partial_pairs = tuple(
        [tuple(p.items()) for p in partials] + [tuple(term_partial.items())]
    )
    dblock.full_pairs = tuple(cum.items())
    dblock.opcodes = tuple(opcodes)
    items = {}
    for op in opcodes:
        items[op] = items.get(op, 0) + 1
    dblock.opcode_items = tuple(items.items())


def slot_layout(fn):
    """Register-file layout of ``fn``: args first, then every
    value-producing instruction (phis included) in block order.
    Returns ``(slot_map, nslots)`` with ``slot_map`` keyed by
    ``id(value)``. Kept on the :class:`DecodedFunction`: the compiler
    (repro.cpu.compiled) emits slot indices from the same map."""
    slot_map = {}
    slot = 0
    for arg in fn.args:
        slot_map[id(arg)] = slot
        slot += 1
    for bb in fn.blocks:
        for inst in bb.instructions:
            if not inst.type.is_void:
                slot_map[id(inst)] = slot
                slot += 1
    return slot_map, slot


def operand_resolver(slot_map, globals_addr):
    """Build the operand resolver over a slot layout: op ->
    ``(slot, constant)``; slot < 0 means use the constant. Mirrors
    Machine._eval's resolution rules; raises :class:`_Undecodable` for
    malformed operands (the reference Traps on those at runtime)."""

    def rv(op):
        if isinstance(op, Constant):
            return (-1, op.value)
        s = slot_map.get(id(op))
        if s is not None:
            return (s, None)
        if isinstance(op, GlobalVariable):
            return (-1, globals_addr[op.name])
        if isinstance(op, UndefValue):
            if op.type.is_vector:
                return (-1, (0,) * op.type.count)
            return (-1, 0.0 if op.type.is_float else 0)
        if isinstance(op, Function):
            return (-1, op)
        if isinstance(op, (Instruction, Argument)):
            raise _Undecodable(f"use of undefined value {op.ref()}")
        raise _Undecodable(f"cannot evaluate operand {op!r}")

    return rv


def _fill_function(dmod, dfn):
    fn = dfn.fn
    slot_map, dfn.nslots = slot_layout(fn)
    rv = operand_resolver(slot_map, dmod.globals_addr)
    dfn.slot_map = slot_map
    dfn.rv = rv

    bmap = {}
    for bb in fn.blocks:
        db = DecodedBlock(bb.name)
        bmap[id(bb)] = db
        dfn.blocks.append(db)
    dfn.entry = bmap[id(fn.entry)]

    for bb in fn.blocks:
        _fill_block(dmod, bmap[id(bb)], bb, bmap, rv, slot_map)

    # Phi pass: per-edge parallel moves. A predecessor with no entry in
    # phi_moves reproduces the reference KeyError at runtime.
    for bb in fn.blocks:
        phis = []
        for inst in bb.instructions:
            if not isinstance(inst, PhiInst):
                break
            phis.append(inst)
        if not phis:
            continue
        db = bmap[id(bb)]
        db.phi_meta = tuple((phi.type, phi) for phi in phis)
        moves_by_pred = {}
        preds = []
        seen = set()
        for phi in phis:
            for pred in phi.incoming_blocks:
                if id(pred) in seen or id(pred) not in bmap:
                    continue
                seen.add(id(pred))
                preds.append(pred)
        for pred in preds:
            moves = []
            ok = True
            for phi in phis:
                try:
                    incoming = phi.incoming_for(pred)
                except KeyError:
                    ok = False
                    break
                try:
                    s, c = rv(incoming)
                except _Undecodable:
                    ok = False
                    break
                moves.append((slot_map[id(phi)], s, c))
            if ok:
                moves_by_pred[bmap[id(pred)]] = tuple(moves)
        db.phi_moves = moves_by_pred


# --- Module-level decode + cache ---------------------------------------------


class DecodedModule:
    """All decoded functions of one module under one cost model and one
    globals layout. Obtained via :func:`decoded_module` (cached on the
    module, keyed by its version stamp)."""

    def __init__(self, module: Module, costs, globals_addr: Dict[str, int]):
        self.module = module
        self.version = module.version
        self.costs = costs
        self.globals_addr = dict(globals_addr)
        self._functions: Dict[int, DecodedFunction] = {}

    def function(self, fn: Function) -> DecodedFunction:
        dfn = self._functions.get(id(fn))
        if dfn is None:
            # Register the shell before filling so recursive and
            # mutually-recursive calls can bind it.
            dfn = DecodedFunction(fn, self)
            self._functions[id(fn)] = dfn
            _fill_function(self, dfn)
        return dfn


def decoded_module(module: Module, costs,
                   globals_addr: Dict[str, int]) -> DecodedModule:
    """Fetch (or build) the decoded form of ``module`` under ``costs``.

    Cached on ``module._decoded_cache`` keyed by ``(version, id(costs))``
    — ``Module.bump_version`` clears the cache, and the cached
    DecodedModule keeps the cost model alive so its id cannot be
    recycled. A machine whose globals layout differs from the cached one
    (non-default memory config) gets a private, uncached decode.
    """
    cache = module._decoded_cache
    key = (module.version, id(costs))
    dmod = cache.get(key)
    if dmod is not None:
        if dmod.globals_addr == globals_addr:
            return dmod
        return DecodedModule(module, costs, globals_addr)
    stale = [k for k in cache if k[0] != module.version]
    for k in stale:
        del cache[k]
    dmod = DecodedModule(module, costs, globals_addr)
    cache[key] = dmod
    return dmod
