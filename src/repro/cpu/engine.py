"""Decode layer of the execution core: IR -> decoded records.

The reference interpreter (:mod:`repro.cpu.interpreter`) dispatches each
dynamic instruction through a chain of ~22 ``isinstance`` checks and
resolves every operand with per-step dict lookups keyed by ``Value``.
This module removes that per-step work with a one-time *decode* of each
function (execution itself lives in :mod:`repro.cpu.compiled`: the
explicit-frame trampoline runs these records directly for the
``decoded`` engine, and compiles them further into threaded-code
segments for the ``compiled`` engine):

- every basic block is lowered to a flat tuple of per-instruction
  **handler closures** (a dispatch table built once, indexed never);
- operands are pre-resolved to **register-file slot indices** (one flat
  list per frame) or to baked-in constants — globals resolve to their
  deterministic heap addresses at decode time;
- cost-table entries (latency, uop count, port reservation) are
  pre-bound into each closure, so the timing model is fed without any
  per-step table lookups;
- per-block *static* counter deltas (instructions, uops, loads, ...)
  are pre-summed and flushed once per block instead of once per
  instruction, with exact prefix reconstruction when an exception
  escapes mid-block.

The decoded form is cached on the :class:`~repro.ir.module.Module`
keyed by its ``version`` stamp (see ``Module.bump_version``) and the
cost model, so fault campaigns and thread sweeps decode once and
execute thousands of times.

Bit-identity contract: for any program the reference engine runs, this
engine produces the same return value, program output, perf counters,
simulated cycles, fault-injection behaviour, and exception type — the
differential tests in ``tests/cpu/test_engine_differential.py`` enforce
this over every kernel and app. That is why the handlers below mirror
the reference interpreter's exact order of counter updates, timing
``issue()`` calls, predictor updates, and injection points.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..avx import costs as C
from ..avx import ops as avxops
from ..ir import types as T
from ..ir.function import Function
from ..ir.instructions import (
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
    LoadInst,
    PhiInst,
    SelectInst,
    ShuffleVectorInst,
    StoreInst,
)
from ..ir.module import Module
from ..ir.values import Argument, Constant, GlobalVariable, UndefValue
from .errors import AbortError, DetectedError, HangError, MemoryFault, Trap
from .memory import HEAP_BASE as _HEAP_BASE
from .memory import STACK_BASE as _STACK_BASE
from .memory import _FLOAT_FMT
from .interpreter import (
    _FCMP,
    _HOST_UNARY,
    _ICMP,
    _MASK64,
    _cast_scalar,
    _compute_static,
    _float_binop,
    _int_binop,
    _key_to_value,
    _lane_keys,
    _scalar_key,
    _to_signed,
)

_MEM_L1 = float(C.MEM_LATENCY[1])

# Terminator kinds.
_T_BR = 0          # unconditional branch
_T_CONDBR = 1      # conditional branch
_T_RET = 2         # ret <value>
_T_RET_VOID = 3    # ret void
_T_UNREACHABLE = 4
_T_FALLOFF = 5     # block has no terminator (reference raises MemoryFault)

import math  # noqa: E402  (used by host intrinsics below)
from struct import Struct as _Struct  # noqa: E402


# --- Decoded containers ------------------------------------------------------


class DecodedBlock:
    __slots__ = (
        "name",
        "body",            # tuple of handler closures
        "n",               # len(body)
        "inject",          # tuple parallel to body: (dst, type, inst) or None
        "cum_pairs",       # cum_pairs[i]: static deltas of records 0..i-1
        "partial_pairs",   # partial_pairs[i]: pre-exec deltas of record i
        "full_pairs",      # whole block incl. terminator (the common flush)
        "opcodes",         # opcode per record incl. terminator (by_opcode)
        "opcode_items",    # pre-counted ((opcode, count), ...) for full flush
        "term_kind",
        "term",            # kind-specific payload tuple
        "phi_moves",       # {pred DecodedBlock: ((dst, slot, const), ...)} | None
        "phi_meta",        # ((type, phi inst), ...) for inject bookkeeping
        "call_meta",       # parallel to body: defined-call metadata or None
        "compiled",        # segmap per compiled variant | None (cpu.compiled)
    )

    def __init__(self, name: str):
        self.name = name
        self.phi_moves = None
        self.phi_meta = ()
        self.compiled = None


class DecodedFunction:
    __slots__ = ("fn", "dmod", "nargs", "nslots", "entry", "blocks")

    def __init__(self, fn: Function, dmod: "DecodedModule"):
        self.fn = fn
        self.dmod = dmod  # owner: cpu.compiled compiles segments per module
        self.nargs = len(fn.args)
        self.nslots = 0
        self.entry: Optional[DecodedBlock] = None
        self.blocks: List[DecodedBlock] = []


# --- Execution ---------------------------------------------------------------


# Execution lives in repro.cpu.compiled: one explicit-frame
# trampoline (run_stack) executes decoded records for the
# "decoded" engine and compiled segments for the "compiled"
# engine. This module is the decode layer only.


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


# --- Decode: scalar operation specialisation ---------------------------------


def _int_op(opcode, width):
    mask = (1 << width) - 1
    if opcode == "add":
        return lambda a, b: (a + b) & mask
    if opcode == "sub":
        return lambda a, b: (a - b) & mask
    if opcode == "mul":
        return lambda a, b: (a * b) & mask
    if opcode == "and":
        return lambda a, b: a & b
    if opcode == "or":
        return lambda a, b: a | b
    if opcode == "xor":
        return lambda a, b: a ^ b
    if opcode == "shl":
        return lambda a, b: (a << (b % width)) & mask
    if opcode == "lshr":
        return lambda a, b: (a >> (b % width)) & mask
    if opcode == "ashr":
        return lambda a, b: (_to_signed(a, width) >> (b % width)) & mask
    # div/rem keep the reference helper (ArithmeticFault on zero).
    return lambda a, b: _int_binop(opcode, a, b, width)


def _float_op(opcode, bits):
    if bits == 32:
        return lambda a, b: _float_binop(opcode, a, b, 32)
    if opcode == "fadd":
        return lambda a, b: a + b
    if opcode == "fsub":
        return lambda a, b: a - b
    if opcode == "fmul":
        return lambda a, b: a * b
    return lambda a, b: _float_binop(opcode, a, b, 64)


def _vec_op(scalar_fn):
    return lambda a, b, f=scalar_fn: tuple(f(x, y) for x, y in zip(a, b))


# --- Decode: handler factories -----------------------------------------------
#
# Handler contract: ``h(M, regs, times, executed, timing) -> executed``.
# Static facts (slots, constants, latency, uops, vector-ness, port) are
# bound as keyword defaults so the interpreter loop pays LOAD_FAST, not
# closure-cell, prices. Handlers never touch the *static* perf counters
# (the block flush owns those); they only update dynamic ones (cache
# misses, corrections, ...).


def _make_binary2(rv, inst, fn2, lat, static, port, dst, opcode):
    (sa, ca), (sb, cb) = rv(inst.operands[0]), rv(inst.operands[1])
    uops, isv = static[2], static[1]

    def h(M, regs, times, executed, timing,
          sa=sa, ca=ca, sb=sb, cb=cb, dst=dst, fn2=fn2, lat=lat,
          uops=uops, isv=isv, port=port, opcode=opcode):
        a = regs[sa] if sa >= 0 else ca
        b = regs[sb] if sb >= 0 else cb
        regs[dst] = fn2(a, b)
        if timing is not None:
            times[dst] = timing.issue(
                opcode, lat,
                (times[sa] if sa >= 0 else 0.0,
                 times[sb] if sb >= 0 else 0.0),
                0.0, uops, isv, port,
            )
        return executed

    return h


def _make_unary(rv, inst, fn1, lat, static, port, dst, opcode):
    s, c = rv(inst.operands[0])
    uops, isv = static[2], static[1]

    def h(M, regs, times, executed, timing,
          s=s, c=c, dst=dst, fn1=fn1, lat=lat, uops=uops, isv=isv,
          port=port, opcode=opcode):
        regs[dst] = fn1(regs[s] if s >= 0 else c)
        if timing is not None:
            times[dst] = timing.issue(
                opcode, lat, (times[s] if s >= 0 else 0.0,),
                0.0, uops, isv, port,
            )
        return executed

    return h


def _make_load(rv, inst, costs, static, dst):
    sp, cp = rv(inst.ptr)
    ty = inst.type
    size = T.sizeof(ty)
    lat = (costs.vector_latency("load") if ty.is_vector
           else costs.scalar_latency("load"))
    port = costs.ports.get("load")
    uops, isv = static[2], static[1]

    if ty.is_vector:

        def h(M, regs, times, executed, timing,
              sp=sp, cp=cp, dst=dst, ty=ty, size=size, lat=lat, uops=uops,
              isv=isv, port=port, inst=inst):
            addr = regs[sp] if sp >= 0 else cp
            if M._mem_stream_live:
                addr = M._mem_step(addr, inst)
            regs[dst] = M.memory.load_value(ty, addr)
            cache = M.cache
            if cache is None:
                extra = _MEM_L1
            else:
                level, extra = cache.access(addr, size)
                if level >= 2:
                    c = M.counters
                    c.l1_misses += 1
                    if level >= 3:
                        c.l2_misses += 1
                        if level >= 4:
                            c.l3_misses += 1
            if timing is not None:
                times[dst] = timing.issue(
                    "load", lat, (times[sp] if sp >= 0 else 0.0,),
                    extra, uops, isv, port,
                )
            return executed

        return h

    # Scalar load: the typed-memory path (sizeof, format lookup, bounds
    # locate) is resolved at decode time and inlined. Bounds checks and
    # faults are byte-for-byte those of Memory._locate/load_scalar.
    if ty.is_float:
        unpack_from = _Struct(_FLOAT_FMT[ty.bits]).unpack_from

        def h(M, regs, times, executed, timing,
              sp=sp, cp=cp, dst=dst, size=size, lat=lat, uops=uops,
              isv=isv, port=port, unpack_from=unpack_from, inst=inst):
            addr = regs[sp] if sp >= 0 else cp
            if M._mem_stream_live:
                addr = M._mem_step(addr, inst)
            mem = M.memory
            end = addr + size
            if _HEAP_BASE <= addr and end <= mem.heap_top:
                regs[dst] = unpack_from(mem._heap, addr - _HEAP_BASE)[0]
            elif _STACK_BASE <= addr and end <= mem.stack_top:
                regs[dst] = unpack_from(mem._stack, addr - _STACK_BASE)[0]
            else:
                raise MemoryFault(addr, size, False)
            cache = M.cache
            if cache is None:
                extra = _MEM_L1
            else:
                level, extra = cache.access(addr, size)
                if level >= 2:
                    c = M.counters
                    c.l1_misses += 1
                    if level >= 3:
                        c.l2_misses += 1
                        if level >= 4:
                            c.l3_misses += 1
            if timing is not None:
                times[dst] = timing.issue(
                    "load", lat, (times[sp] if sp >= 0 else 0.0,),
                    extra, uops, isv, port,
                )
            return executed

        return h

    mask = ((1 << ty.width) - 1) if ty.is_int and ty.width % 8 != 0 else 0

    def h(M, regs, times, executed, timing,
          sp=sp, cp=cp, dst=dst, size=size, mask=mask, lat=lat, uops=uops,
          isv=isv, port=port, from_bytes=int.from_bytes, inst=inst):
        addr = regs[sp] if sp >= 0 else cp
        if M._mem_stream_live:
            addr = M._mem_step(addr, inst)
        mem = M.memory
        end = addr + size
        if _HEAP_BASE <= addr and end <= mem.heap_top:
            off = addr - _HEAP_BASE
            value = from_bytes(mem._heap[off:off + size], "little")
        elif _STACK_BASE <= addr and end <= mem.stack_top:
            off = addr - _STACK_BASE
            value = from_bytes(mem._stack[off:off + size], "little")
        else:
            raise MemoryFault(addr, size, False)
        regs[dst] = value & mask if mask else value
        cache = M.cache
        if cache is None:
            extra = _MEM_L1
        else:
            level, extra = cache.access(addr, size)
            if level >= 2:
                c = M.counters
                c.l1_misses += 1
                if level >= 3:
                    c.l2_misses += 1
                    if level >= 4:
                        c.l3_misses += 1
        if timing is not None:
            times[dst] = timing.issue(
                "load", lat, (times[sp] if sp >= 0 else 0.0,),
                extra, uops, isv, port,
            )
        return executed

    return h


def _make_store(rv, inst, costs, static):
    sv, cv = rv(inst.value)
    sp, cp = rv(inst.ptr)
    vty = inst.value.type
    size = T.sizeof(vty)
    lat = (costs.vector_latency("store") if vty.is_vector
           else costs.scalar_latency("store"))
    port = costs.ports.get("store")
    uops, isv = static[2], static[1]

    if vty.is_vector:

        def h(M, regs, times, executed, timing,
              sv=sv, cv=cv, sp=sp, cp=cp, vty=vty, size=size, lat=lat,
              uops=uops, isv=isv, port=port, inst=inst):
            addr = regs[sp] if sp >= 0 else cp
            if M._mem_stream_live:
                addr = M._mem_step(addr, inst)
            value = regs[sv] if sv >= 0 else cv
            M.memory.store_value(vty, addr, value)
            cache = M.cache
            if cache is not None:
                # Miss accounting only; the store's extra latency is
                # dropped by the reference interpreter too.
                level, _extra = cache.access(addr, size)
                if level >= 2:
                    c = M.counters
                    c.l1_misses += 1
                    if level >= 3:
                        c.l2_misses += 1
                        if level >= 4:
                            c.l3_misses += 1
            if timing is not None:
                timing.issue(
                    "store", lat,
                    (times[sv] if sv >= 0 else 0.0,
                     times[sp] if sp >= 0 else 0.0),
                    0.0, uops, isv, port,
                )
            return executed

        return h

    # Scalar store: inlined typed-memory path (see _make_load).
    if vty.is_float:
        pack_into = _Struct(_FLOAT_FMT[vty.bits]).pack_into

        def h(M, regs, times, executed, timing,
              sv=sv, cv=cv, sp=sp, cp=cp, size=size, lat=lat,
              uops=uops, isv=isv, port=port, pack_into=pack_into,
              inst=inst):
            addr = regs[sp] if sp >= 0 else cp
            if M._mem_stream_live:
                addr = M._mem_step(addr, inst)
            value = regs[sv] if sv >= 0 else cv
            mem = M.memory
            end = addr + size
            if _HEAP_BASE <= addr and end <= mem.heap_top:
                pack_into(mem._heap, addr - _HEAP_BASE, value)
            elif _STACK_BASE <= addr and end <= mem.stack_top:
                pack_into(mem._stack, addr - _STACK_BASE, value)
            else:
                raise MemoryFault(addr, size, True)
            cache = M.cache
            if cache is not None:
                level, _extra = cache.access(addr, size)
                if level >= 2:
                    c = M.counters
                    c.l1_misses += 1
                    if level >= 3:
                        c.l2_misses += 1
                        if level >= 4:
                            c.l3_misses += 1
            if timing is not None:
                timing.issue(
                    "store", lat,
                    (times[sv] if sv >= 0 else 0.0,
                     times[sp] if sp >= 0 else 0.0),
                    0.0, uops, isv, port,
                )
            return executed

        return h

    smask = (1 << (size * 8)) - 1

    def h(M, regs, times, executed, timing,
          sv=sv, cv=cv, sp=sp, cp=cp, size=size, smask=smask, lat=lat,
          uops=uops, isv=isv, port=port, inst=inst):
        addr = regs[sp] if sp >= 0 else cp
        if M._mem_stream_live:
            addr = M._mem_step(addr, inst)
        value = regs[sv] if sv >= 0 else cv
        raw = (int(value) & smask).to_bytes(size, "little")
        mem = M.memory
        end = addr + size
        if _HEAP_BASE <= addr and end <= mem.heap_top:
            off = addr - _HEAP_BASE
            mem._heap[off:off + size] = raw
        elif _STACK_BASE <= addr and end <= mem.stack_top:
            off = addr - _STACK_BASE
            mem._stack[off:off + size] = raw
        else:
            raise MemoryFault(addr, size, True)
        cache = M.cache
        if cache is not None:
            level, _extra = cache.access(addr, size)
            if level >= 2:
                c = M.counters
                c.l1_misses += 1
                if level >= 3:
                    c.l2_misses += 1
                    if level >= 4:
                        c.l3_misses += 1
        if timing is not None:
            timing.issue(
                "store", lat,
                (times[sv] if sv >= 0 else 0.0,
                 times[sp] if sp >= 0 else 0.0),
                0.0, uops, isv, port,
            )
        return executed

    return h


def _make_alloca(inst, costs, static, dst):
    size = T.sizeof(inst.allocated_type) * inst.count
    lat = costs.scalar_latency("alloca")
    port = costs.ports.get("alloca")
    uops, isv = static[2], static[1]

    def h(M, regs, times, executed, timing,
          size=size, dst=dst, lat=lat, uops=uops, isv=isv, port=port):
        regs[dst] = M.memory.stack_alloc(size)
        if timing is not None:
            times[dst] = timing.issue("alloca", lat, (), 0.0, uops, isv, port)
        return executed

    return h


def _make_gep(rv, inst, costs, static, dst):
    sp, cp = rv(inst.ptr)
    si, ci = rv(inst.index)
    esize = T.sizeof(inst.elem_type)
    ity = inst.index.type
    ty = inst.type
    port = costs.ports.get("gep")
    uops, isv = static[2], static[1]
    if ty.is_vector:
        iw = ity.elem.width if ity.is_vector else ity.width
        count = ty.count
        vec_idx = ity.is_vector
        vec_ptr = inst.ptr.type.is_vector
        lat = costs.vector_latency("gep")

        def h(M, regs, times, executed, timing,
              sp=sp, cp=cp, si=si, ci=ci, dst=dst, esize=esize, iw=iw,
              count=count, vec_idx=vec_idx, vec_ptr=vec_ptr, lat=lat,
              uops=uops, isv=isv, port=port):
            base = regs[sp] if sp >= 0 else cp
            index = regs[si] if si >= 0 else ci
            idxs = index if vec_idx else (index,) * count
            bases = base if vec_ptr else (base,) * count
            regs[dst] = tuple(
                (p + _to_signed(i, iw) * esize) & _MASK64
                for p, i in zip(bases, idxs)
            )
            if timing is not None:
                times[dst] = timing.issue(
                    "gep", lat,
                    (times[sp] if sp >= 0 else 0.0,
                     times[si] if si >= 0 else 0.0),
                    0.0, uops, isv, port,
                )
            return executed

        return h

    iw = ity.width
    lat = costs.scalar_latency("gep")

    def h(M, regs, times, executed, timing,
          sp=sp, cp=cp, si=si, ci=ci, dst=dst, esize=esize, iw=iw, lat=lat,
          uops=uops, isv=isv, port=port):
        base = regs[sp] if sp >= 0 else cp
        index = regs[si] if si >= 0 else ci
        regs[dst] = (base + _to_signed(index, iw) * esize) & _MASK64
        if timing is not None:
            times[dst] = timing.issue(
                "gep", lat,
                (times[sp] if sp >= 0 else 0.0,
                 times[si] if si >= 0 else 0.0),
                0.0, uops, isv, port,
            )
        return executed

    return h


def _make_select(rv, inst, costs, static, dst):
    sc, cc = rv(inst.cond)
    st, ct = rv(inst.tval)
    sf, cf = rv(inst.fval)
    ty = inst.type
    lat = (costs.vector_latency("select") if ty.is_vector
           else costs.scalar_latency("select"))
    vec_cond = inst.cond.type.is_vector
    port = costs.ports.get("select")
    uops, isv = static[2], static[1]

    def h(M, regs, times, executed, timing,
          sc=sc, cc=cc, st=st, ct=ct, sf=sf, cf=cf, dst=dst, lat=lat,
          vec_cond=vec_cond, uops=uops, isv=isv, port=port):
        cond = regs[sc] if sc >= 0 else cc
        tval = regs[st] if st >= 0 else ct
        fval = regs[sf] if sf >= 0 else cf
        if vec_cond:
            regs[dst] = tuple(
                t if c else f for c, t, f in zip(cond, tval, fval)
            )
        else:
            regs[dst] = tval if cond else fval
        if timing is not None:
            times[dst] = timing.issue(
                "select", lat,
                (times[sc] if sc >= 0 else 0.0,
                 times[st] if st >= 0 else 0.0,
                 times[sf] if sf >= 0 else 0.0),
                0.0, uops, isv, port,
            )
        return executed

    return h


def _make_extract(rv, inst, costs, static, dst):
    sv, cv = rv(inst.vec)
    si, ci = rv(inst.index)
    lat = costs.vector_latency("extractelement")
    port = costs.ports.get("extractelement")
    uops, isv = static[2], static[1]

    def h(M, regs, times, executed, timing,
          sv=sv, cv=cv, si=si, ci=ci, dst=dst, lat=lat, uops=uops, isv=isv,
          port=port):
        vec = regs[sv] if sv >= 0 else cv
        index = regs[si] if si >= 0 else ci
        if not 0 <= index < len(vec):
            raise MemoryFault(index, 0)
        regs[dst] = vec[index]
        if timing is not None:
            times[dst] = timing.issue(
                "extractelement", lat,
                (times[sv] if sv >= 0 else 0.0,
                 times[si] if si >= 0 else 0.0),
                0.0, uops, isv, port,
            )
        return executed

    return h


def _make_insert(rv, inst, costs, static, dst):
    sv, cv = rv(inst.vec)
    se, ce = rv(inst.elem)
    si, ci = rv(inst.index)
    lat = costs.vector_latency("insertelement")
    port = costs.ports.get("insertelement")
    uops, isv = static[2], static[1]

    def h(M, regs, times, executed, timing,
          sv=sv, cv=cv, se=se, ce=ce, si=si, ci=ci, dst=dst, lat=lat,
          uops=uops, isv=isv, port=port):
        vec = list(regs[sv] if sv >= 0 else cv)
        elem = regs[se] if se >= 0 else ce
        index = regs[si] if si >= 0 else ci
        if not 0 <= index < len(vec):
            raise MemoryFault(index, 0)
        vec[index] = elem
        regs[dst] = tuple(vec)
        if timing is not None:
            times[dst] = timing.issue(
                "insertelement", lat,
                (times[sv] if sv >= 0 else 0.0,
                 times[se] if se >= 0 else 0.0,
                 times[si] if si >= 0 else 0.0),
                0.0, uops, isv, port,
            )
        return executed

    return h


def _make_shuffle(rv, inst, costs, static, dst):
    s1, c1 = rv(inst.v1)
    s2, c2 = rv(inst.v2)
    mask = inst.mask
    lat = costs.vector_latency("shufflevector")
    port = costs.ports.get("shufflevector")
    uops, isv = static[2], static[1]

    def h(M, regs, times, executed, timing,
          s1=s1, c1=c1, s2=s2, c2=c2, dst=dst, mask=mask, lat=lat,
          uops=uops, isv=isv, port=port):
        v1 = regs[s1] if s1 >= 0 else c1
        v2 = regs[s2] if s2 >= 0 else c2
        joined = tuple(v1) + tuple(v2)
        regs[dst] = tuple(joined[j] for j in mask)
        if timing is not None:
            times[dst] = timing.issue(
                "shufflevector", lat,
                (times[s1] if s1 >= 0 else 0.0,
                 times[s2] if s2 >= 0 else 0.0),
                0.0, uops, isv, port,
            )
        return executed

    return h


def _make_raise(exc_factory):
    def h(M, regs, times, executed, timing, exc_factory=exc_factory):
        raise exc_factory()

    return h


# --- Decode: intrinsic call implementations ----------------------------------
#
# Pre-dispatched versions of ``Machine._call_intrinsic`` — the name
# prefix chain runs once at decode; each impl receives the evaluated
# argument list and the machine (for counters / memory / output).


def _intrinsic_impl(name, inst):
    if name.startswith("elzar.check_dmr."):
        elem = inst.type.elem

        def impl(M, args, elem=elem):
            lanes = args[0]
            keyed = _lane_keys(lanes, elem)
            if avxops.lanes_all_equal(keyed):
                return lanes
            M.counters.detections += 1
            raise DetectedError("ELZAR-DMR check: lanes diverged")

        return impl
    if name.startswith("elzar.branch_cond_dmr."):

        def impl(M, args):
            kind = avxops.ptest_classify(args[0])
            if kind == 2:
                M.counters.detections += 1
                raise DetectedError("ELZAR-DMR branch: true/false mix")
            return kind

        return impl
    if name.startswith("elzar.check."):
        elem = inst.type.elem

        def impl(M, args, elem=elem):
            lanes = args[0]
            keyed = _lane_keys(lanes, elem)
            if avxops.lanes_all_equal(keyed):
                return lanes
            counters = M.counters
            counters.corrections += 1
            try:
                majority = avxops.majority_value(keyed)
            except avxops.NoMajorityError as exc:
                counters.recoveries_failed += 1
                raise DetectedError(str(exc)) from exc
            value = _key_to_value(majority, elem)
            return (value,) * len(lanes)

        return impl
    if name.startswith("elzar.branch_cond_nocheck."):

        def impl(M, args):
            return 1 if all(args[0]) else 0

        return impl
    if name.startswith("elzar.branch_cond."):

        def impl(M, args):
            lanes = args[0]
            kind = avxops.ptest_classify(lanes)
            if kind == 2:
                counters = M.counters
                counters.corrections += 1
                try:
                    majority = avxops.majority_value(tuple(lanes))
                except avxops.NoMajorityError as exc:
                    counters.recoveries_failed += 1
                    raise DetectedError(str(exc)) from exc
                return 1 if majority else 0
            return kind

        return impl
    if name.startswith("tmr.vote."):
        ty = inst.type

        def impl(M, args, ty=ty):
            a, b, c = args
            ka, kb, kc = (_scalar_key(v, ty) for v in (a, b, c))
            if ka == kb and kb == kc:
                return a
            counters = M.counters
            counters.corrections += 1
            if ka == kb or ka == kc:
                return a
            if kb == kc:
                return b
            counters.recoveries_failed += 1
            raise DetectedError("TMR vote: all three copies differ")

        return impl
    if name.startswith("swift.check."):
        ty = inst.type

        def impl(M, args, ty=ty):
            a, b = args
            if _scalar_key(a, ty) != _scalar_key(b, ty):
                M.counters.detections += 1
                raise DetectedError("DMR check: copies diverged")
            return a

        return impl
    if name == "rt.alloc":
        return lambda M, args: M.memory.alloc(args[0])
    if name == "rt.print_i64":

        def impl(M, args):
            M.output.append(_to_signed(args[0], 64))
            return None

        return impl
    if name == "rt.print_f64":

        def impl(M, args):
            M.output.append(float(args[0]))
            return None

        return impl
    if name == "rt.abort":

        def impl(M, args):
            raise AbortError("rt.abort called")

        return impl
    if name.startswith("host."):
        op = name[5:]
        if op == "pow":

            def impl(M, args):
                try:
                    return float(args[0] ** args[1])
                except (OverflowError, ZeroDivisionError, ValueError):
                    return math.nan

            return impl
        fun = _HOST_UNARY.get(op)
        if fun is None:

            def impl(M, args, name=name):
                raise Trap(f"unknown host intrinsic {name}")

            return impl

        def impl(M, args, fun=fun):
            try:
                return float(fun(args[0]))
            except (OverflowError, ValueError):
                return math.nan

        return impl

    def impl(M, args, name=name):
        raise Trap(f"unknown intrinsic {name}")

    return impl


def _make_call_intrinsic(rv, inst, costs, static, dst):
    arg_rs = tuple(rv(a) for a in inst.args)
    impl = _intrinsic_impl(inst.callee.name, inst)
    lat = costs.intrinsic_latency(inst.callee.name)
    port = costs.ports.get("call")
    uops, isv = static[2], static[1]

    if len(arg_rs) == 1:
        (s0, c0), = arg_rs

        def h(M, regs, times, executed, timing,
              s0=s0, c0=c0, dst=dst, impl=impl, lat=lat, uops=uops, isv=isv,
              port=port):
            value = impl(M, (regs[s0] if s0 >= 0 else c0,))
            if dst >= 0:
                regs[dst] = value
            if timing is not None:
                done = timing.issue(
                    "call", lat, (times[s0] if s0 >= 0 else 0.0,),
                    0.0, uops, isv, port,
                )
                if dst >= 0:
                    times[dst] = done
            return executed

        return h

    def h(M, regs, times, executed, timing,
          arg_rs=arg_rs, dst=dst, impl=impl, lat=lat, uops=uops, isv=isv,
          port=port):
        value = impl(M, [regs[s] if s >= 0 else c for s, c in arg_rs])
        if dst >= 0:
            regs[dst] = value
        if timing is not None:
            done = timing.issue(
                "call", lat,
                [times[s] if s >= 0 else 0.0 for s, c in arg_rs],
                0.0, uops, isv, port,
            )
            if dst >= 0:
                times[dst] = done
        return executed

    return h


def _make_call_defined(rv, inst, costs, static, dst, dfn):
    arg_rs = tuple(rv(a) for a in inst.args)
    lat = costs.scalar_latency("call")
    port = costs.ports.get("call")
    uops, isv = static[2], static[1]

    def h(M, regs, times, executed, timing, name=inst.callee.name):
        # Unreachable: the trampoline (repro.cpu.compiled.run_stack)
        # intercepts every record whose call_meta is set and pushes an
        # explicit frame instead of invoking the handler.
        raise RuntimeError(
            f"defined call @{name} must run on the frame trampoline"
        )

    # Everything the trampoline needs to execute this record without
    # Python recursion: it pushes an explicit frame where the recursive
    # engine recursed, and completes the post-return bookkeeping
    # (dst write, call timing) itself.
    h._call_meta = (arg_rs, dst, dfn, lat, uops, isv, port)
    return h


# --- Decode ------------------------------------------------------------------

from ..ir.instructions import Instruction  # noqa: E402


class _Undecodable(Exception):
    """Operand cannot be pre-resolved (malformed IR): the record decodes
    to a raiser that reproduces the reference interpreter's Trap."""


def _make_trap(msg):
    return _make_raise(lambda msg=msg: Trap(msg))


def _base_deltas(inst, static):
    """Deltas for a record that raises before doing any work (the
    reference counts instructions / avx, then fails inside eval)."""
    base = {"instructions": 1}
    if static[0]:
        base["avx_instructions"] = 1
    return base, dict(base)


def _build_handler(dmod, rv, inst, costs, static, dst):
    opcode = inst.opcode
    ty = inst.type
    port = costs.ports.get(opcode)

    if isinstance(inst, BinaryInst):
        elem = ty.elem if ty.is_vector else ty
        if elem.is_float:
            fn2 = _float_op(opcode, elem.bits)
        else:
            fn2 = _int_op(opcode, elem.width)
        if ty.is_vector:
            fn2 = _vec_op(fn2)
            lat = costs.vector_latency(opcode, elem)
        else:
            lat = costs.scalar_latency(opcode)
        return _make_binary2(rv, inst, fn2, lat, static, port, dst, opcode)

    if isinstance(inst, ICmpInst):
        fun = _ICMP[inst.pred]
        oty = inst.lhs.type
        if oty.is_vector:
            width = T.bitwidth(oty.elem) if not oty.elem.is_float else 64
            fn2 = (lambda a, b, fun=fun, w=width:
                   tuple(1 if fun(x, y, w) else 0 for x, y in zip(a, b)))
            lat = costs.vector_latency("icmp")
        else:
            width = T.bitwidth(oty)
            fn2 = lambda a, b, fun=fun, w=width: 1 if fun(a, b, w) else 0
            lat = costs.scalar_latency("icmp")
        return _make_binary2(rv, inst, fn2, lat, static, port, dst, "icmp")

    if isinstance(inst, FCmpInst):
        fun = _FCMP[inst.pred]
        if inst.lhs.type.is_vector:
            fn2 = (lambda a, b, fun=fun:
                   tuple(1 if fun(x, y) else 0 for x, y in zip(a, b)))
            lat = costs.vector_latency("fcmp")
        else:
            fn2 = lambda a, b, fun=fun: 1 if fun(a, b) else 0
            lat = costs.scalar_latency("fcmp")
        return _make_binary2(rv, inst, fn2, lat, static, port, dst, "fcmp")

    if isinstance(inst, CastInst):
        src = inst.value.type
        if ty.is_vector:
            se, te = src.elem, ty.elem
            fn1 = (lambda v, opcode=opcode, se=se, te=te:
                   tuple(_cast_scalar(opcode, x, se, te) for x in v))
            lat = costs.vector_latency(opcode)
        else:
            fn1 = (lambda v, opcode=opcode, se=src, te=ty:
                   _cast_scalar(opcode, v, se, te))
            lat = costs.scalar_latency(opcode)
        return _make_unary(rv, inst, fn1, lat, static, port, dst, opcode)

    if isinstance(inst, LoadInst):
        return _make_load(rv, inst, costs, static, dst)
    if isinstance(inst, StoreInst):
        return _make_store(rv, inst, costs, static)
    if isinstance(inst, AllocaInst):
        return _make_alloca(inst, costs, static, dst)
    if isinstance(inst, GepInst):
        return _make_gep(rv, inst, costs, static, dst)

    if isinstance(inst, CallInst):
        callee = inst.callee
        if callee.is_intrinsic:
            return _make_call_intrinsic(rv, inst, costs, static, dst)
        if callee.is_declaration:
            # Reference: args evaluated, calls counted, then Trap.
            return _make_trap(f"call to undefined function @{callee.name}")
        return _make_call_defined(rv, inst, costs, static, dst,
                                  dmod.function(callee))

    if isinstance(inst, SelectInst):
        return _make_select(rv, inst, costs, static, dst)
    if isinstance(inst, ExtractElementInst):
        return _make_extract(rv, inst, costs, static, dst)
    if isinstance(inst, InsertElementInst):
        return _make_insert(rv, inst, costs, static, dst)
    if isinstance(inst, ShuffleVectorInst):
        return _make_shuffle(rv, inst, costs, static, dst)

    if isinstance(inst, BroadcastInst):
        count = ty.count
        fn1 = lambda v, count=count: (v,) * count
        lat = costs.vector_latency("broadcast")
        return _make_unary(rv, inst, fn1, lat, static, port, dst, "broadcast")

    return None  # interior phi / unknown class: caller emits a raiser


_TERMINATOR_OPCODES = ("br", "ret", "unreachable")


def _fill_block(dmod, dblock, bb, bmap, rv, slot_map):
    costs = dmod.costs
    insts = bb.instructions

    # Leading phis become parallel moves (edge-keyed, see phi pass in
    # _fill_function); the body starts after them.
    start = 0
    while start < len(insts) and isinstance(insts[start], PhiInst):
        start += 1

    handlers = []
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
        dst = slot_map.get(id(inst), -1)
        full, partial = _deltas(inst, static)
        try:
            handler = _build_handler(dmod, rv, inst, costs, static, dst)
            if handler is None:
                # Interior phi or unknown instruction class: the
                # reference counts the instruction, then _exec_inst
                # raises TypeError.
                handler = _make_raise(
                    lambda inst=inst: TypeError(f"cannot execute {inst!r}")
                )
                full, partial = _base_deltas(inst, static)
            elif isinstance(inst, CallInst) and (
                    inst.callee.is_declaration
                    and not inst.callee.is_intrinsic):
                # Undefined-callee Trap fires after calls is counted.
                full, partial = _base_deltas(inst, static)
                full["calls"] = partial["calls"] = 1
        except _Undecodable as exc:
            # The reference Traps while evaluating operands, before any
            # opcode-specific counters (loads, calls, ...) are touched.
            handler = _make_trap(str(exc))
            full, partial = _base_deltas(inst, static)
        handlers.append(handler)
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
        if top == "unreachable":
            dblock.term_kind = _T_UNREACHABLE
            dblock.term = None
            opcodes.append(top)
        elif top == "br":
            lat = costs.scalar["br"]
            if terminator.is_conditional:
                try:
                    s, c = rv(terminator.cond)
                    dblock.term_kind = _T_CONDBR
                    dblock.term = (
                        s, c,
                        bmap[id(terminator.then_block)],
                        bmap[id(terminator.else_block)],
                        terminator, lat,
                    )
                    opcodes.append(top)
                except _Undecodable as exc:
                    # Reference counts the branch, then Traps evaluating
                    # the condition: emit a raiser and end the block.
                    handlers.append(_make_trap(str(exc)))
                    injects.append(None)
                    fulls.append(term_full)
                    partials.append(dict(term_full))
                    opcodes.append(top)
                    term_full = {}
                    term_partial = {}
                    dblock.term_kind = _T_FALLOFF
                    dblock.term = None
            else:
                dblock.term_kind = _T_BR
                dblock.term = (bmap[id(terminator.then_block)], lat)
                opcodes.append(top)
        else:  # ret
            lat = costs.scalar["ret"]
            uops = tstatic[2]
            if terminator.operands:
                try:
                    s, c = rv(terminator.operands[0])
                    dblock.term_kind = _T_RET
                    dblock.term = (s, c, lat, uops)
                    opcodes.append(top)
                except _Undecodable as exc:
                    handlers.append(_make_trap(str(exc)))
                    injects.append(None)
                    fulls.append(term_full)
                    partials.append(dict(term_full))
                    opcodes.append(top)
                    term_full = {}
                    term_partial = {}
                    dblock.term_kind = _T_FALLOFF
                    dblock.term = None
            else:
                dblock.term_kind = _T_RET_VOID
                dblock.term = (lat, uops)
                opcodes.append(top)

    # Static-delta tables ------------------------------------------------
    n = len(handlers)
    cum = {}
    cum_pairs = []
    for full in fulls:
        cum_pairs.append(tuple(cum.items()))
        for k, v in full.items():
            cum[k] = cum.get(k, 0) + v
    cum_pairs.append(tuple(cum.items()))
    for k, v in term_full.items():
        cum[k] = cum.get(k, 0) + v

    dblock.body = tuple(handlers)
    dblock.n = n
    dblock.inject = tuple(injects)
    dblock.call_meta = tuple(
        getattr(h, "_call_meta", None) for h in handlers
    )
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
    ``id(value)``. Deterministic per function — the decode pass and the
    segment compiler (repro.cpu.compiled) must agree on it."""
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
