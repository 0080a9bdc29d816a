"""The compiled execution core: one explicit-frame trampoline running
decoded blocks (:mod:`repro.cpu.engine`) on code emitted from them.

This module holds the only instruction semantics besides the reference
interpreter's, as a Python source emitter (:func:`_emit_record`).
Intrinsics are the exception: the emitted code tests the agreement of
the hardening checks, branch syncs and votes inline, and calls the
reference's own ``interpreter.intrinsic_impl`` on a disagreement and
for every other intrinsic (:func:`_emit_intrinsic`). Its output runs in
two shapes:

- **Regions**: every function compiles to one closure over all of its
  supported blocks, with operands resolved to register slots,
  semantics and the timing model's ``issue()`` inlined, and cost-table
  entries baked in as literals; it branches between its blocks in
  place. The trampoline enters it through *segments*: one per block
  entry and one per *post-call entry*, where a block resumes after a
  defined call. Each segment returns a control code that tells the
  trampoline what to run next (see the segment protocol below).
- **Record functions**: one function per body record, the unit of the
  trampoline's *record path*. It runs whatever segments cannot: blocks
  outside the compiled subset, budget exhaustion (the HangError at the
  exact instruction), and every block in which a fault plan could fire
  or a checkpoint be taken. The loop around the records owns the
  per-record bookkeeping — phis, capture polls, the instruction budget,
  the inject/trace/checker hooks, defined-call pushes, terminators and
  the exact counter flush when an exception unwinds.

The parts:

- **Trampoline** (:func:`run_stack`): the explicit frame stack. Defined
  calls push a :class:`Frame` where the reference interpreter recurses,
  so at any body-record boundary the complete run state is a plain data
  structure (:class:`ResumeState`) that can be copied, serialized
  (:mod:`repro.snap.format`) and resumed in another process.
- **Compiler** (:func:`ensure_compiled`): emits and compiles one
  variant (:data:`_VARIANTS`) for every decoded function of a module,
  on first use in a run. Fault-eligible frames of a run with active
  faults (armed plans, ``count_only`` profiling, checkpoint capture)
  execute the *armed* segment variant: it counts the four targeting
  streams exactly and hands every block in which a plan could fire or
  a checkpoint be taken back to the record path. Trace hooks keep the
  record path throughout.
- **Code cache**: generated code objects are keyed by the content of
  their source (:func:`_code_key`) in two tiers: in-process, shared
  across machine instances, and on disk beside the toolchain
  artifacts (``.code`` entries), shared across processes. Campaigns
  compile once per cell, and fresh processes, forked workers and
  cluster agents start with compiled code.

Bit-identity contract: a trampoline run — on segments, on records, or
any mix — is indistinguishable from a reference ``Machine.run``: return
value, output, every counter (including the exact partial flushes of
trap-abandoned blocks), cycles, branch-predictor/cache state (a timed
machine's; an untimed one simulates neither), fault behaviour, and
exception type. Segments inline the *same* statement
order the record functions and ``TimingModel.issue`` execute; the
differential tests in ``tests/cpu/`` and ``tests/snap/`` pin the
contract across workloads, fault models and machine configurations.

Resuming from a checkpoint arms plans *without* resetting the stream
counters (contrast ``Machine.arm_faults``): the counters are restored
to their checkpoint values and the plan fires when its stream counter
reaches ``target_index`` — the same dynamic event a from-scratch run
hits. A checkpoint captured during a ``count_only`` golden run is a
superset state, valid for every plan whose per-stream mark has not yet
passed (:func:`stream_mark`).
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import time
import types
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..avx import costs as C
from ..ir import types as T
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
    LoadInst,
    SelectInst,
    ShuffleVectorInst,
    StoreInst,
)
from .engine import (
    _T_BR,
    _T_CONDBR,
    _T_FALLOFF,
    _T_RET,
    _T_RET_VOID,
    _T_UNREACHABLE,
    _Undecodable,
    DecodedFunction,
    decoded_module,
)
from .cache import _LATENCY as _CACHE_LATENCY
from .errors import HangError, MemoryFault
from .interpreter import (
    _MASK64,
    _cast_scalar,
    _compute_static,
    _float_binop,
    _int_binop,
    _is_checker_site,
    RunResult,
    intrinsic_impl,
)
from .memory import HEAP_BASE, STACK_BASE, _FLOAT_FMT, _UINT_CODE

from struct import Struct as _Struct


class Frame:
    """One live decoded-function activation on the explicit stack."""

    __slots__ = (
        "dfn",          # DecodedFunction
        "regs",         # register file
        "times",        # ready-time file
        "mark",         # stack mark at entry (memory.stack_release target)
        "depth",        # call depth (root = 0)
        "inject",       # frame runs the inject (bookkeeping) path
        "prev_mem",     # _mem_stream_live to restore on pop
        "prev_branch",  # _branch_stream_live to restore on pop
        "caller_fn",    # _current_fn to restore on pop
        "block",        # current DecodedBlock
        "prev",         # predecessor block (phi edge), valid if phis_pending
        "i",            # resume cursor into the block's records
        "phis_pending",  # phi stage of `block` not yet run
        "in_body",      # inside the counted region (exception flush applies)
        "budget_exc",   # the HangError this frame raised for budget, if any
        "rv",           # return value of a frame return (control None)
        "pending_call",  # (dfn, args, arg_times) parked for control 1
    )

    def __init__(self, dfn, regs, times, mark, depth, inject, caller_fn,
                 prev_mem, prev_branch, block, i=0, in_body=False):
        self.dfn = dfn
        self.regs = regs
        self.times = times
        self.mark = mark
        self.depth = depth
        self.inject = inject
        self.caller_fn = caller_fn
        self.prev_mem = prev_mem
        self.prev_branch = prev_branch
        self.block = block
        self.prev = None
        self.i = i
        self.phis_pending = False
        self.in_body = in_body
        self.budget_exc = None
        self.rv = None
        self.pending_call = None


def push_frame(M, stack: List[Frame], dfn: DecodedFunction, args: List,
               arg_times: List[float]) -> Frame:
    """Mirror of the reference ``Machine._exec_function`` prologue:
    depth check, register-file setup, stack mark, ``_current_fn``/
    stream-flag maintenance — as an explicit frame push."""
    depth = M._depth + 1
    if depth > M.config.max_call_depth:
        raise HangError(f"call depth exceeded in @{dfn.fn.name}")
    M._depth = depth
    regs = [None] * dfn.nslots
    times = [0.0] * dfn.nslots
    nargs = dfn.nargs
    if nargs:
        regs[:nargs] = args
        times[:nargs] = arg_times
    inject = bool(M._fault_active and M._fault_eligible_fn(dfn.fn))
    f = Frame(dfn, regs, times, M.memory.stack_mark(), depth, inject,
              M._current_fn, M._mem_stream_live, M._branch_stream_live,
              dfn.entry)
    M._current_fn = dfn.fn
    M._mem_stream_live = inject and M._mem_stream_needed
    M._branch_stream_live = inject and M._branch_stream_needed
    stack.append(f)
    return f


def _pop_frame(M, stack: List[Frame]) -> None:
    """Mirror of the reference ``Machine._exec_function`` epilogue: pop
    the innermost frame, restore its caller's context and release its
    stack allocations. Frame returns and the unwinder both use it."""
    f = stack.pop()
    M._current_fn = f.caller_fn
    M._mem_stream_live = f.prev_mem
    M._branch_stream_live = f.prev_branch
    M.memory.stack_release(f.mark)
    M._depth = f.depth - 1


#: Event limit of a stream with nothing pending.
_NEVER = 1 << 62


def _next_target(plans, cursor, count) -> int:
    """Index of the next event that fires a plan on one stream. A plan
    aimed below the stream's count can never fire, and it blocks the
    cursor (the record path compares only ``plans[cursor]``)."""
    if cursor < len(plans):
        target = plans[cursor].target_index
        if target >= count:
            return target
    return _NEVER


def _event_limits(M, capture) -> Tuple[int, int, int, int]:
    """Largest event index each targeting stream (eligible, memory,
    conditional branch, checker) may reach in armed segments before the
    record path must take over. An armed segment covering ``d`` events
    of a stream whose count is ``c`` runs only when ``c + d <= limit``:
    no plan fires at indices ``c .. c+d-1``, and no capture poll inside
    it can see the eligible count reach ``capture.next_index``."""
    elig = _next_target(M.fault_plans, M._next_plan, M.eligible_executed)
    if capture is not None and capture.next_index - 1 < elig:
        elig = capture.next_index - 1
    return (elig,
            _next_target(M._mem_plans, M._next_mem_plan,
                         M.mem_accesses_eligible),
            _next_target(M._branch_plans, M._next_branch_plan,
                         M.cond_branches_eligible),
            _next_target(M._checker_plans, M._next_checker_plan,
                         M.checker_sites_executed))


def run_stack(M, stack: List[Frame], executed: int, capture=None):
    """Run the frame stack to completion; returns the root frame's
    return value. ``executed`` continues the global dynamic-instruction
    count (``M._executed`` at entry, or a checkpoint's).

    ``capture``, when given, is a hook with an integer ``next_index``
    attribute and a ``take(M, stack, executed)`` method; the loop
    invokes ``take`` at the first body-record boundary at or after each
    threshold. ``take`` must leave the run unperturbed: it may copy or
    read state (see :func:`capture_state`) and advance ``next_index``,
    or end the run by raising (the exception unwinds the frame stack
    like a trap's).

    Each step of the innermost frame runs one segment, or the record
    path over one block, and ends in a control code (the segment
    protocol, under "Segment compiler" below): ``None`` returns from
    the frame (value in ``f.rv``), 1 pushes the call parked in
    ``f.pending_call``, 2 continues on ``f.block`` at ``f.i``, and 3
    runs the rest of ``f.block`` on the record path.
    """
    counters = M.counters
    cd = counters.__dict__
    byop = counters.collect_by_opcode
    timing = M.timing
    maxi = M.config.max_instructions
    # Segment variants per frame mode (bit-identical to the record
    # path; segments are pure speed). Inject frames run the armed
    # variant, which counts the four targeting streams and bails to the
    # record path before any block where a plan could fire or a
    # checkpoint be taken — unless a trace hook must see every event.
    # Other frames run the unarmed variant unless the capture hook is
    # due (their eligible count is frozen, so only the record path's
    # per-record poll sees a threshold crossed by a callee's return).
    armed_ok = M._trace_eligible is None
    vidx = 0 if timing is not None else 1
    ridx = vidx + _RECORD_VARIANT  # record functions, same timing mode
    ready = [False] * len(_VARIANTS)  # variants ensured this run
    value = None
    returning = False
    try:
        while stack:
            f = stack[-1]
            regs = f.regs
            times = f.times
            inject = f.inject

            if returning:
                # Complete the suspended defined call at f.i: the dst
                # write and call timing of the reference's call, then
                # the caller loop's inject bookkeeping on the result.
                returning = False
                block = f.block
                (arg_rs, dst, _cdfn, lat, uops, isv,
                 port) = block.call_meta[f.i]
                if dst >= 0:
                    regs[dst] = value
                if timing is not None:
                    ats = [times[s] if s >= 0 else 0.0 for s, c in arg_rs]
                    done = timing.issue("call", lat, ats, 0.0, uops, isv,
                                        port)
                    if dst >= 0:
                        times[dst] = done
                executed = M._executed
                if inject and dst >= 0:
                    regs[dst] = M._maybe_inject(block.inject[f.i][2],
                                                regs[dst], True)
                f.i += 1

            fast = (armed_ok if inject else
                    capture is None
                    or M.eligible_executed < capture.next_index)
            sidx = vidx + 2 if inject else vidx
            while True:  # block chain within this frame
                block = f.block
                if f.phis_pending:
                    # Phis: parallel moves against the incoming edge.
                    # Nothing is counted yet (in_body is False), so
                    # exceptions here escape without any flush — exactly
                    # like the recursive engine.
                    f.phis_pending = False
                    pm = block.phi_moves
                    if pm is not None:
                        moves = pm.get(f.prev)
                        if moves is None:
                            raise KeyError(
                                f"phi in %{block.name} has no incoming "
                                f"from %{f.prev.name}"
                            )
                        staged = [
                            (dst,
                             regs[s] if s >= 0 else c,
                             times[s] if s >= 0 else 0.0)
                            for dst, s, c in moves
                        ]
                        if inject:
                            M._executed = executed
                            for (dst, v, t), (_ty, phi) in zip(
                                    staged, block.phi_meta):
                                regs[dst] = M._maybe_inject(phi, v, True)
                                times[dst] = t
                        else:
                            for dst, v, t in staged:
                                regs[dst] = v
                                times[dst] = t

                ctrl = 3
                if fast:
                    if not ready[sidx]:
                        ensure_compiled(f.dfn.dmod, sidx)
                        ready[sidx] = True
                    if inject:
                        M._next_events = _event_limits(M, capture)
                    maps = block.compiled
                    if maps is not None:
                        segmap = maps[sidx]
                        seg = (segmap.get(f.i)
                               if segmap is not None else None)
                        if seg is not None:
                            executed, ctrl = seg(
                                M, f, regs, times, executed, timing,
                                maxi, cd, byop)
                            if ctrl == 2:
                                continue
                            # A region may have run on to another block
                            # before handing back.
                            block = f.block

                if ctrl == 3:
                    # Record path: the rest of the block, one record
                    # function per body record.
                    if not ready[ridx]:
                        ensure_compiled(f.dfn.dmod, ridx)
                        ready[ridx] = True
                    f.in_body = True
                    body = block.compiled[ridx]
                    inj = block.inject
                    call_meta = block.call_meta
                    n = block.n
                    i = f.i
                    try:
                        while i < n:
                            if (capture is not None
                                    and M.eligible_executed >=
                                    capture.next_index):
                                f.i = i
                                capture.take(M, stack, executed)
                            executed += 1
                            if executed > maxi:
                                f.budget_exc = HangError(
                                    f"instruction budget exceeded ({maxi})"
                                )
                                raise f.budget_exc
                            cm = call_meta[i]
                            if cm is not None:
                                # Defined call: evaluate the arguments
                                # and park the call for the push.
                                arg_rs, cdfn = cm[0], cm[2]
                                f.pending_call = (
                                    cdfn,
                                    [regs[s] if s >= 0 else c
                                     for s, c in arg_rs],
                                    [times[s] if s >= 0 else 0.0
                                     for s, c in arg_rs])
                                M._executed = executed
                                f.i = i
                                ctrl = 1
                                break
                            body[i](M, regs, times, timing)
                            if inject:
                                meta = inj[i]
                                if meta is not None:
                                    rdst = meta[0]
                                    M._executed = executed
                                    regs[rdst] = M._maybe_inject(
                                        meta[2], regs[rdst], True)
                            i += 1
                        else:
                            f.i = i
                            kind = block.term_kind
                            if kind == _T_FALLOFF:
                                raise MemoryFault(0, 0)
                            executed += 1
                            if executed > maxi:
                                f.budget_exc = HangError(
                                    f"instruction budget exceeded ({maxi})"
                                )
                                raise f.budget_exc
                            if kind == _T_UNREACHABLE:
                                raise MemoryFault(0, 0)
                            for k, v in block.full_pairs:
                                cd[k] += v
                            if byop:
                                bo = counters.by_opcode
                                for op, cnt in block.opcode_items:
                                    bo[op] = bo.get(op, 0) + cnt
                            term = block.term
                            if kind == _T_RET:
                                s, c, lat, uops = term
                                if timing is not None:
                                    timing.issue(
                                        "ret", lat,
                                        (times[s] if s >= 0 else 0.0,),
                                        0.0, uops, False, None,
                                    )
                                f.rv = regs[s] if s >= 0 else c
                                ctrl = None
                            elif kind == _T_RET_VOID:
                                lat, uops = term
                                if timing is not None:
                                    timing.issue("ret", lat, (), 0.0, uops,
                                                 False, None)
                                ctrl = None
                            else:
                                if kind == _T_BR:
                                    succ, lat = term
                                    if timing is not None:
                                        timing.issue("br", lat, (), 0.0, 1,
                                                     False, None)
                                else:  # _T_CONDBR
                                    s, c, tb, eb, inst, lat = term
                                    taken = bool(regs[s] if s >= 0 else c)
                                    if M._branch_stream_live:
                                        taken = M._branch_step(taken, inst)
                                    if timing is not None:
                                        pcs = M._branch_pcs
                                        key = id(inst)
                                        pc = pcs.get(key)
                                        if pc is None:
                                            pc = M._next_pc
                                            M._next_pc = pc + 1
                                            pcs[key] = pc
                                        correct = M.predictor \
                                            .predict_and_update(pc, taken)
                                        resolve = timing.issue(
                                            "br", lat,
                                            (times[s] if s >= 0 else 0.0,),
                                            0.0, 1, False, None,
                                        )
                                        if not correct:
                                            cd["branch_misses"] += 1
                                            timing.branch_mispredict(resolve)
                                    succ = tb if taken else eb
                                f.prev = block
                                f.block = succ
                                f.phis_pending = True
                                f.in_body = False
                                f.i = 0
                                continue
                    except BaseException:
                        f.i = i
                        raise
                break

            if ctrl == 1:
                cdfn, cargs, cats = f.pending_call
                f.pending_call = None
                push_frame(M, stack, cdfn, cargs, cats)
                continue
            # Frame return: publish the instruction count, then pop.
            value = f.rv
            f.rv = None
            if executed > M._executed:
                M._executed = executed
            _pop_frame(M, stack)
            returning = True
        return value
    except BaseException as exc:
        # Unwind: per-frame exact partial counter flush (the recursive
        # engine's `except` clause) plus the frame epilogue, innermost
        # first. A frame suspended at a defined call flushes its call
        # record partially — exactly what its recursive `except` would
        # do when the callee's exception propagated through the call.
        while stack:
            f = stack[-1]
            if f.in_body:
                block = f.block
                i = f.i
                for k, v in block.cum_pairs[i]:
                    cd[k] += v
                if exc is not f.budget_exc:
                    for k, v in block.partial_pairs[i]:
                        cd[k] += v
                if byop:
                    bo = counters.by_opcode
                    end = i if exc is f.budget_exc else i + 1
                    for op in block.opcodes[:end]:
                        bo[op] = bo.get(op, 0) + 1
            _pop_frame(M, stack)
        raise
    finally:
        if executed > M._executed:
            M._executed = executed


def _root_stack(M, fn_name: str, args: Sequence) -> List[Frame]:
    """A frame stack holding just ``fn_name``'s root frame, pushed with
    ``args`` — the start of a run."""
    fn = M.module.get_function(fn_name)
    if fn.is_declaration:
        raise ValueError(f"cannot run declaration @{fn_name}")
    arg_values = list(args)
    if len(arg_values) != len(fn.args):
        raise TypeError(
            f"@{fn_name} expects {len(fn.args)} args, got {len(arg_values)}"
        )
    dmod = decoded_module(M.module, M.config.cost_model, M.globals_addr)
    stack: List[Frame] = []
    push_frame(M, stack, dmod.function(fn), arg_values,
               [0.0] * len(arg_values))
    return stack


def run_resumable(M, fn_name: str, args: Sequence = (),
                  capture=None) -> RunResult:
    """``Machine.run`` on the trampoline — bit-identical results, no
    recursion-limit dance, and optional mid-run capture via
    ``capture``. This is how the ``"compiled"`` engine runs (see
    :func:`run_stack` for which frames run segments)."""
    stack = _root_stack(M, fn_name, args)
    return M._run_result(run_stack(M, stack, M._executed, capture))


class _RecordPath:
    """Capture policy that keeps a whole trampoline run on the record
    path: it is due at every record, which turns off plain segments and
    makes every armed segment's event guard hand its block to the
    record path. It captures nothing itself; an inner ``capture``
    policy still takes its checkpoints at its own thresholds."""

    next_index = 0

    def __init__(self, capture=None):
        self.capture = capture

    def take(self, M, stack, executed) -> None:
        inner = self.capture
        if inner is not None and M.eligible_executed >= inner.next_index:
            inner.take(M, stack, executed)


def compile_records(M, fn_name: str) -> None:
    """Compile the code ``M``'s fault-armed runs of ``fn_name`` use: the
    armed segments its fault-eligible frames run and the record
    functions every fault fires on — what a run otherwise does on
    first use. Fault campaigns call it before forking injection
    workers, and the workers inherit the compiled code instead of each
    loading it again."""
    dmod = decoded_module(M.module, M.config.cost_model, M.globals_addr)
    dmod.function(M.module.get_function(fn_name))
    timing_mode = 0 if M.timing is not None else 1
    ensure_compiled(dmod, timing_mode + 2)  # the armed segments
    ensure_compiled(dmod, _RECORD_VARIANT + timing_mode)


def run_records(M, fn_name: str, args: Sequence = (),
                capture=None) -> RunResult:
    """:func:`run_resumable` with every frame on the record functions —
    no segment runs. Bit-identical to any other run; the engine
    benchmark and the differential tests use it to measure and check
    the record path on its own."""
    return run_resumable(M, fn_name, args, _RecordPath(capture))


# --- Mid-run state capture / restore -----------------------------------------


@dataclass(frozen=True)
class FrameState:
    """One suspended frame, in process-independent coordinates: the
    function name plus indices into its (deterministic) decoded form."""

    fn: str
    block: int    # index into dfn.blocks
    i: int        # resume cursor into the block's records
    regs: tuple
    times: tuple
    mark: int     # memory stack mark at frame entry


@dataclass
class ResumeState:
    """Complete machine state at a body-record boundary: memory,
    output, counters, cache, predictor and timing state, branch-PC
    numbering, the frame stack, the live dynamic-instruction count,
    and the four stream counters. The one restorable state — a
    golden-prefix checkpoint (:func:`capture_state`) and the start of
    a run (:func:`start_state`) alike. Fault plumbing (plans, hooks)
    is deliberately absent: :func:`resume_run` arms the injected plans
    itself.
    """

    heap: bytes
    stack_mem: bytes
    heap_top: int
    stack_top: int
    output: tuple
    counters: object
    cache: object
    predictor: object
    timing: object
    branch_pcs: Dict[int, int]   # id(inst) -> pc (process-local keys)
    next_pc: int
    executed: int
    eligible: int
    checker_sites: int
    mem_accesses: int
    cond_branches: int
    frames: Tuple[FrameState, ...]


def capture_state(M, stack: List[Frame], executed: int) -> ResumeState:
    """Copy the complete mid-run state (non-destructively — the run
    continues unperturbed)."""
    frames = []
    for f in stack:
        dfn = f.dfn
        frames.append(FrameState(
            fn=dfn.fn.name,
            block=dfn.blocks.index(f.block),
            i=f.i,
            regs=tuple(f.regs),
            times=tuple(f.times),
            mark=f.mark,
        ))
    heap, heap_top, stack_mem, stack_top = M.memory.image()
    return ResumeState(
        heap=heap,
        stack_mem=stack_mem,
        heap_top=heap_top,
        stack_top=stack_top,
        output=tuple(M.output),
        counters=M.counters.copy(),
        cache=_copied(M.cache),
        predictor=_copied(M.predictor),
        timing=_copied(M.timing),
        branch_pcs=dict(M._branch_pcs),
        next_pc=M._next_pc,
        executed=executed,
        eligible=M.eligible_executed,
        checker_sites=M.checker_sites_executed,
        mem_accesses=M.mem_accesses_eligible,
        cond_branches=M.cond_branches_eligible,
        frames=tuple(frames),
    )


def start_state(M, fn_name: str, args: Sequence = ()) -> ResumeState:
    """The state a run of ``fn_name`` starts from: ``M`` as it stands,
    with the root frame pushed and nothing executed. The push is
    unwound again, so ``M`` is left as it was."""
    stack = _root_stack(M, fn_name, args)
    state = capture_state(M, stack, M._executed)
    _pop_frame(M, stack)
    return state


def _copied(component):
    """``component.copy()``, or None for a disabled one (an untimed
    machine has no cache, predictor or timing model)."""
    return component.copy() if component is not None else None


def restore_payload(M, state: ResumeState) -> None:
    """Put the machine's architectural state back to the checkpoint.
    Non-destructive on ``state`` (copies), so one deserialized
    checkpoint serves any number of resumes. Leaves the machine with no
    plans armed, no hooks, ``count_only`` off — callers arm what they
    need (``Machine._arm_plans``) before :func:`rebuild_frames`."""
    M.memory.load_image(state.heap, state.heap_top,
                        state.stack_mem, state.stack_top)
    M.output = list(state.output)
    M.counters = state.counters.copy()
    M.cache = _copied(state.cache)
    M.predictor = _copied(state.predictor)
    M.timing = _copied(state.timing)
    M._branch_pcs = dict(state.branch_pcs)
    M._next_pc = state.next_pc
    M._executed = state.executed
    M.eligible_executed = state.eligible
    M.checker_sites_executed = state.checker_sites
    M.mem_accesses_eligible = state.mem_accesses
    M.cond_branches_eligible = state.cond_branches
    M._count_only = False
    M._trace_eligible = None
    M._current_fn = None
    M._depth = -1
    M._mem_stream_live = False
    M._branch_stream_live = False
    M._arm_plans(())


def rebuild_frames(M, state: ResumeState) -> List[Frame]:
    """Reconstruct the live frame stack from a checkpoint. Must run
    *after* plans are armed — per-frame inject mode and the
    stream-live flags depend on ``M._fault_active``, exactly as they
    would have at each frame's push in a from-scratch run."""
    dmod = decoded_module(M.module, M.config.cost_model, M.globals_addr)
    stack: List[Frame] = []
    caller_fn = None
    prev_mem = False
    prev_branch = False
    for depth, fs in enumerate(state.frames):
        fn = M.module.get_function(fs.fn)
        dfn = dmod.function(fn)
        f = Frame(dfn, list(fs.regs), list(fs.times), fs.mark, depth,
                  bool(M._fault_active and M._fault_eligible_fn(fn)),
                  caller_fn, prev_mem, prev_branch, dfn.blocks[fs.block],
                  fs.i, True)
        stack.append(f)
        caller_fn = fn
        prev_mem = f.inject and M._mem_stream_needed
        prev_branch = f.inject and M._branch_stream_needed
    M._mem_stream_live = prev_mem
    M._branch_stream_live = prev_branch
    M._depth = len(stack) - 1
    M._current_fn = stack[-1].dfn.fn if stack else None
    return stack


def resume_run(M, state: ResumeState, plans: Sequence,
               capture=None) -> RunResult:
    """Restore ``state``, arm ``plans`` against its stream marks, and
    execute the rest of the run — the whole run from a
    :func:`start_state`, only the tail from a checkpoint. Bit-identical
    to arming the same plans on a fresh machine and running from
    scratch, for every plan whose site ``state`` has not passed
    (:func:`stream_mark`). ``capture`` is :func:`run_stack`'s hook."""
    restore_payload(M, state)
    M._arm_plans(plans)
    stack = rebuild_frames(M, state)
    return M._run_result(run_stack(M, stack, state.executed, capture))


# --- Checkpoint validity -----------------------------------------------------


def stream_mark(state: ResumeState, plan) -> int:
    """The checkpoint's counter on ``plan``'s targeting stream. Resuming
    ``state`` still reaches ``plan``'s dynamic fault site when this is
    at most ``plan.target_index`` (the counter has not passed it)."""
    kind = getattr(plan, "kind", "reg")
    if kind == "checker":
        return state.checker_sites
    if kind == "addr":
        return state.mem_accesses
    if kind == "branch":
        return state.cond_branches
    return state.eligible


# --- Segment compiler ---------------------------------------------------------
#
# Each function compiles to one *region* closure over its supported
# blocks, dispatching on the arm key ``_bk``: a block's index for its
# entry, a key past the block indices for each *post-call entry* (the
# record after a defined call: a call that really pushes suspends the
# frame, and its return resumes there). A *segment* is the trampoline
# into one arm, held in the block's segmap under the arm's first
# record. Segment protocol:
#
#   seg(M, f, regs, times, executed, timing, maxi, cd, byop)
#       -> (executed, ctrl)
#
# ``ctrl`` is a control code, never a segment:
#
# - ``None``: frame return (value in ``f.rv``);
# - ``1``: defined-call push (callee and arguments parked in
#   ``f.pending_call``);
# - ``2``: continue on ``f.block`` at ``f.i`` with the successor's phis
#   pending (``f.phis_pending``): the successor lies outside the region
#   or the decoder could not pre-resolve the edge (the trampoline's phi
#   stage reproduces the reference KeyError);
# - ``3``: run the rest of ``f.block`` on the record path (the
#   instruction budget would run out inside the block, and the record
#   path raises the HangError at the exact instruction; or, armed, an
#   event is due inside the block).
#
# The record path ends each block in the same codes, so the trampoline
# handles a push, a return and a block change in one place each.
#
# Bit-identity rules baked into the generated code:
#
# - Regions and record functions share one record emitter
#   (:func:`_emit_record`): same bounds checks, same masking, same
#   helper calls for div/rem, f32 and the rare casts.
# - ``TimingModel.issue`` is inlined with its scalar state (issue
#   time, finish time, retire frontier) hoisted into locals; the
#   ``issued``/``uops_issued`` totals are deferred to the region
#   exits (nothing reads them mid-region), with exact prefix
#   restoration when an exception escapes mid-block.
# - Static counter deltas of completed blocks accumulate in locals
#   flushed at the region exits; an escaping exception leaves the
#   current block's flush to the trampoline's unwind handler via
#   ``f.i``, exactly like the record path.
# - Unarmed segments are only entered for frames with no per-record
#   bookkeeping (no fault injection, tracing, checker stepping or
#   capture polling), so stream counting is statically absent, not
#   skipped. Armed segments add each block's static stream deltas
#   (memory/branch/checker counts stored back only while their gates
#   are on) and run a block only when no plan or capture poll can be
#   due inside it (:func:`_event_limits`): plan firing, checker
#   stepping and polling are statically absent there too, because those
#   blocks run on the record path. Trap exactness follows the record
#   path: eligible and checker events count after their record, a
#   memory event before its access.

import math  # noqa: E402

_MEM_L1 = float(C.MEM_LATENCY[1])

_SUPPORTED_TERMS = (_T_BR, _T_CONDBR, _T_RET, _T_RET_VOID)

_ICMP_UNSIGNED = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
                  "ugt": ">", "uge": ">="}
_ICMP_SIGNED = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
_FCMP_ORDERED = {"oeq": "==", "olt": "<", "ole": "<=", "ogt": ">",
                 "oge": ">="}

# Stable object for identity-keyed const dedup (``int.from_bytes``
# attribute access creates a fresh bound object every time).
_FROM_BYTES = int.from_bytes

# Pre-bound pack/unpack pairs of the inline same-size float<->int
# bitcasts, keyed by bit width: the struct round trips of
# ``avxops.float_to_bits`` / ``avxops.bits_to_float``.
_FLOAT_PACK = {b: _Struct(f).pack for b, f in _FLOAT_FMT.items()}
_FLOAT_UNPACK = {b: _Struct(f).unpack for b, f in _FLOAT_FMT.items()}
_BITS_PACK = {32: _Struct("<I").pack, 64: _Struct("<Q").pack}
_BITS_UNPACK = {32: _Struct("<I").unpack, 64: _Struct("<Q").unpack}


class _Unsupported(Exception):
    """Record/block outside the compilable subset (it stays on the
    record path — bit-identical, just not accelerated)."""


@dataclass
class CompileStats:
    """Process-wide segment-compiler totals (see :data:`COMPILE_STATS`)."""

    functions: int = 0
    blocks: int = 0
    segments: int = 0
    compile_ms: float = 0.0
    #: Functions whose code came from a cache tier (in-process or disk).
    code_hits: int = 0
    #: Functions that ran ``compile()``.
    code_misses: int = 0
    #: The subset of ``code_hits`` read from disk.
    code_disk_hits: int = 0
    #: Disk entries that failed validation, were removed and recompiled.
    code_invalid: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "functions": self.functions,
            "blocks": self.blocks,
            "segments": self.segments,
            "compile_ms": self.compile_ms,
            "code_hits": self.code_hits,
            "code_misses": self.code_misses,
            "code_disk_hits": self.code_disk_hits,
            "code_invalid": self.code_invalid,
        }

    def add(self, other: "CompileStats") -> None:
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)


COMPILE_STATS = CompileStats()

#: Subscribers called with one payload dict per :func:`ensure_compiled`
#: invocation that did work: module digest, variant, function/block/
#: segment counts, compile wall time and code-cache hit/miss split.
#: The lab bridges these onto its EventBus as ``engine-compile``
#: events.
_COMPILE_HOOKS: List[Callable[[Dict[str, object]], None]] = []

#: In-process code-object cache: content key (:func:`_code_key`) ->
#: code. Two machines whose emitted source is byte-identical re-exec
#: the cached code object with fresh instance constants instead of
#: re-compiling. The disk tier under it (``.code`` entries of the
#: toolchain :class:`~repro.toolchain.cache.ArtifactCache`) uses the
#: same key.
_CODE_CACHE: Dict[str, types.CodeType] = {}

_CODE_SUFFIX = ".code"


def add_compile_hook(fn: Callable[[Dict[str, object]], None]) -> None:
    _COMPILE_HOOKS.append(fn)


def remove_compile_hook(fn: Callable[[Dict[str, object]], None]) -> None:
    try:
        _COMPILE_HOOKS.remove(fn)
    except ValueError:
        pass


def code_cache_clear() -> None:
    _CODE_CACHE.clear()


def _module_digest(dmod) -> str:
    """Content digest of the module (the toolchain's artifact key).
    Telemetry only: code is keyed by its source."""
    from ..toolchain.build import module_digest
    return module_digest(dmod.module)


def _code_key(filename: str, source: str) -> str:
    """Content key of one function's segment code, for both cache
    tiers. The source names every constant it binds and bakes every
    cost in as a literal, so byte-identical source under the same
    bytecode format means an identical code object."""
    h = hashlib.sha256(importlib.util.MAGIC_NUMBER)
    h.update(filename.encode("utf-8"))
    h.update(b"\0")
    h.update(source.encode("utf-8"))
    return h.hexdigest()


def _decode_code(body: bytes) -> types.CodeType:
    code = marshal.loads(body)
    if not isinstance(code, types.CodeType):
        raise ValueError("not a code object")
    return code


def _code_for(source: str, filename: str, cache, stats: CompileStats):
    """The code object for ``source``: in-process tier, then the
    ``.code`` entries of ``cache``, then ``compile()`` (written back to
    both)."""
    key = _code_key(filename, source)
    code = _CODE_CACHE.get(key)
    if code is None:
        code = cache.get(key, _CODE_SUFFIX, _decode_code)
    if code is None:
        code = compile(source, filename, "exec")
        stats.code_misses += 1
        cache.put(key, _CODE_SUFFIX, marshal.dumps(code))
    else:
        stats.code_hits += 1
    _CODE_CACHE[key] = code
    return code


class _Emitter:
    """Source accumulator for one region or record function: indented
    lines, constants
    bound as keyword-parameter defaults, and the deferred-timing
    bookkeeping the exits and the exception path must restore."""

    def __init__(self, consts, seen, with_timing, armed=False,
                 records=False):
        self.lines: List[str] = []
        self.consts = consts          # function-level: name -> value
        self.seen = seen              # function-level: id(value) -> name
        self.with_timing = with_timing
        # Record function (see _emit_records): it steps the memory
        # targeting stream itself, and calls the timing and cache
        # models instead of inlining them — record functions are the
        # cold path, so source size matters more than dispatch cost.
        self.records = records
        # Armed variant: the targeting-stream counts live in the _se/
        # _sm/_sb/_sc locals as of the current arm's start;
        # pend_ev holds the per-stream deltas of the code emitted so far
        # in the block (added at exits), rec_ev each record's events
        # (the exception-flush tables).
        self.armed = armed
        self.used: List[str] = []     # const names this closure binds
        self.uops_used = set()
        self.pend_issued = 0
        self.pend_uops = 0
        # Exception-flush tables, indexed by (raising record - arm
        # start): pending uops / pending issues before that record, and
        # the record count since the last inline `executed` bump.
        self.cum_uops: List[int] = [0]
        self.cum_issued: List[int] = [0]
        self.rec_adj: List[int] = [0]
        self.exec_base = 0            # first record not yet in `executed`
        self.pend_ev = [0, 0, 0, 0]
        self.rec_ev: List[Tuple[int, int, int]] = []
        self.edge_phis = 0
        self.need_mem = False
        self.need_cache = False
        self.uses_bmp = False
        self.uses_pred = False
        # Region-wide counter accumulators: block-completion counter
        # flushes become local integer adds; the dict writes happen
        # once per region exit. Keyed by counter name in first-use
        # order; exits emitted mid-block use the %CTRFLUSH% marker
        # (patched once the full key set is known).
        self.ctr_local: Dict[str, str] = {}
        # Region-wide port clocks (timing variant): one local per port
        # name, hoisted from TimingModel._port_free at entry and stored
        # back at every exit with the counter flushes.
        self.port_local: Dict[str, str] = {}

    def w(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def mark(self, nxt: int) -> None:
        """Record the flush-table entries for record index ``nxt``."""
        self.cum_uops.append(self.pend_uops)
        self.cum_issued.append(self.pend_issued)
        self.rec_adj.append(nxt - self.exec_base)

    def reset_block(self, start: int) -> None:
        """Restart the per-arm static accounting at record ``start``."""
        self.pend_issued = 0
        self.pend_uops = 0
        self.cum_uops = [0]
        self.cum_issued = [0]
        self.rec_adj = [0]
        self.exec_base = start
        self.pend_ev = [0, 0, 0, 0]
        self.rec_ev = []
        self.edge_phis = 0

    def span_events(self) -> Tuple[int, int, int, int]:
        """Armed: per-stream event totals of the arm just emitted,
        through its terminator and the phis of the successor it
        branches to — every phi is an eligible event, and the larger
        edge counts, so a plan aimed at a phi sends the predecessor
        block to the record path, whose phi stage fires it."""
        el, ma, cb, cs = self.pend_ev
        return el + self.edge_phis, ma, cb, cs

    def count_record(self, db, k, inst) -> None:
        """Armed: add body record ``k``'s events to the pending deltas.
        A value-producing record is an eligible event (counted after it
        executes), a checker site also a checker event, a load/store a
        memory event (counted before the access)."""
        el = 1 if db.inject[k] is not None else 0
        ma = 1 if isinstance(inst, (LoadInst, StoreInst)) else 0
        cs = 1 if el and _is_checker_site(inst) else 0
        self.rec_ev.append((el, ma, cs))
        pend = self.pend_ev
        pend[0] += el
        pend[1] += ma
        pend[3] += cs

    def stream_flush(self, d, el, ma, cb, cs) -> None:
        """Store the stream counts back through :func:`_put_streams`;
        each argument is the source added to that stream's local (a
        literal or a table lookup, "" for none)."""
        self.w(d, f"{self.KI(_put_streams)}(M, _se{el}, _sm{ma}, "
                  f"_sb{cb}, _sc{cs})")

    def _use(self, name: str) -> str:
        if name not in self.used:
            self.used.append(name)
        return name

    def K(self, value) -> str:
        name = f"_k{len(self.consts)}"
        self.consts[name] = value
        return self._use(name)

    def KI(self, value) -> str:
        """Identity-deduplicated constant (shared helpers, types,
        decoded blocks)."""
        name = self.seen.get(id(value))
        if name is None:
            name = f"_k{len(self.consts)}"
            self.consts[name] = value
            self.seen[id(value)] = name
        return self._use(name)

    def ctr(self, key: str) -> str:
        """Region-local accumulator name for counter ``key``."""
        name = self.ctr_local.get(key)
        if name is None:
            name = f"_c{len(self.ctr_local)}"
            self.ctr_local[key] = name
        return name

    def oexpr(self, sc) -> str:
        s, c = sc
        return f"regs[{s}]" if s >= 0 else self.K(c)

    def texpr(self, sc) -> Optional[str]:
        """Operand ready-time expression; None for constants (0.0 —
        never the max, so the inlined issue() skips it)."""
        return f"times[{sc[0]}]" if sc[0] >= 0 else None

    def issue(self, d, lat_expr, tops, extra, uops, isv, port, rtp) -> None:
        """Inline ``TimingModel.issue`` (timing variant only): exact
        statement order — ROB ring slot, operand maxes, port clock,
        vector-ALU clock, completion, retire frontier into the ring
        slot, ring and frontend advance. The ring index and the port
        clocks are region locals (see :func:`_timing_hoists`). Leaves
        the completion time in ``_d``. Record functions call ``issue()``
        itself (a constant operand's 0.0 ready time never wins the
        max, so it is left out either way)."""
        w = self.w
        if self.records:
            ops = "".join(f"{t}, " for t in tops if t is not None)
            pk = "None" if port is None else self.KI(port)
            w(d, f"_d = timing.issue(None, {lat_expr}, ({ops}), "
                 f"{extra or 0.0}, {uops}, {isv}, {pk})")
            return
        w(d, "_s = _ti")
        w(d, "_o = _rob[_ri]")
        w(d, "if _o > _s:")
        w(d + 1, "_s = _o")
        for t in tops:
            if t is None:
                continue
            w(d, f"if {t} > _s:")
            w(d + 1, f"_s = {t}")
        clocks = [] if port is None else [port]
        if isv:
            clocks.append(("vecalu", rtp * uops))
        for name, busy in clocks:
            u = self.port_local.setdefault(name,
                                           f"_pt{len(self.port_local)}")
            w(d, f"if {u} > _s:")
            w(d + 1, f"_s = {u}")
            w(d, f"{u} += {self.K(busy)}")
        if extra is None:
            w(d, f"_d = _s + {lat_expr}")
        else:
            w(d, f"_d = _s + {lat_expr} + {extra}")
        # finish_time and _retire_frontier are both the running max of
        # every completion time since reset (only issue()/reset() write
        # them), so they are always equal — track one local and store
        # it back to both fields.
        w(d, "if _d > _tr:")
        w(d + 1, "_tr = _d")
        w(d, "_rob[_ri] = _tr")
        w(d, "_ri = _rnx[_ri]")
        if uops:
            # uops == 0 would add 0/width == +0.0 to issue_time, a
            # no-op (issue_time is never -0.0: it starts at 0.0 and
            # only grows) — skip the float add entirely.
            w(d, f"_ti += _q{uops}")
            self.uops_used.add(uops)
        self.pend_issued += 1
        self.pend_uops += uops

    def writeback(self, d) -> None:
        """Flush the counter accumulators, (armed) the stream counts,
        the hoisted timing scalars and the deferred issued/uops totals
        back to their homes (region exits)."""
        self.w(d, "%CTRFLUSH%")
        if self.armed:
            self.stream_flush(d, *(f" + {n}" if n else ""
                                   for n in self.pend_ev))
        if not self.with_timing:
            return
        # Prior blocks' totals live in the _nis/_nuo runtime
        # accumulators; the current block's are static.
        self.w(d, "_tm.issue_time = _ti")
        self.w(d, "_tm.finish_time = _tr")
        self.w(d, "_tm._retire_frontier = _tr")
        self.w(d, "_tm._ri = _ri")
        self.w(d, f"_tm.issued += _nis + {self.pend_issued}")
        self.w(d, f"_tm.uops_issued += _nuo + {self.pend_uops}")

def _scalar_int_expr(E, opcode, a, b, width):
    """Expression for the reference's ``_int_binop(opcode, a, b,
    width)`` over the operand expressions ``a``/``b`` (pure reads, safe
    to repeat), inlined except for signed div/rem and zero divisors."""
    mask = (1 << width) - 1
    if opcode == "add":
        return f"(({a} + {b}) & {mask})"
    if opcode == "sub":
        return f"(({a} - {b}) & {mask})"
    if opcode == "mul":
        return f"(({a} * {b}) & {mask})"
    if opcode == "and":
        return f"({a} & {b})"
    if opcode == "or":
        return f"({a} | {b})"
    if opcode == "xor":
        return f"({a} ^ {b})"
    if opcode == "shl":
        return f"((({a} << ({b} % {width})) & {mask}))"
    if opcode == "lshr":
        return f"(({a} >> ({b} % {width})) & {mask})"
    if opcode == "ashr":
        # Inline _to_signed: register values are kept width-masked (the
        # same invariant the unsigned compare path relies on), so the
        # sign conversion is a single conditional subtract.
        sb = 1 << (width - 1)
        return (f"((({a} - {1 << width} if {a} >= {sb} else {a})"
                f" >> ({b} % {width})) & {mask})")
    ib = E.KI(_int_binop)
    call = f"{ib}({opcode!r}, {a}, {b}, {width})"
    if opcode in ("udiv", "urem"):
        # A zero divisor takes the helper, which raises ArithmeticFault.
        op = "//" if opcode == "udiv" else "%"
        return f"((({a} {op} {b}) & {mask}) if {b} else {call})"
    # Signed div/rem keep the helper (C truncation toward zero).
    return call


def _scalar_float_expr(E, opcode, a, b, bits):
    """Expression for the reference's ``_float_binop(opcode, a, b,
    bits)``: f64 add/sub/mul and f64 division by a non-zero divisor
    inlined, the rest through the helper."""
    if bits == 64:
        if opcode == "fadd":
            return f"({a} + {b})"
        if opcode == "fsub":
            return f"({a} - {b})"
        if opcode == "fmul":
            return f"({a} * {b})"
    fb = E.KI(_float_binop)
    call = f"{fb}({opcode!r}, {a}, {b}, {bits})"
    if bits == 64 and opcode == "fdiv":
        # A zero divisor (either sign) takes the helper's IEEE
        # inf/NaN rules; Python's `/` would raise instead.
        return f"(({a} / {b}) if {b} != 0.0 else {call})"
    return call


def _sext_expr(x, width):
    """Expression for the reference's ``_to_signed(x, width)``: mask,
    then the conditional-xor sign extension (no helper call)."""
    sb = 1 << (width - 1)
    return f"((({x} & {(1 << width) - 1}) ^ {sb}) - {sb})"


def _icmp_scalar_expr(E, pred, a, b, width):
    op = _ICMP_UNSIGNED.get(pred)
    if op is not None:
        return f"(1 if {a} {op} {b} else 0)"
    op = _ICMP_SIGNED.get(pred)
    if op is None:
        raise _Unsupported(f"icmp pred {pred}")
    # Signed compare via the sign-bit flip: x -> x ^ sb maps the signed
    # order onto the unsigned order for width-masked values, so no
    # _to_signed conversion (and no helper call) is needed.
    sb = 1 << (width - 1)
    return f"(1 if ({a} ^ {sb}) {op} ({b} ^ {sb}) else 0)"


def _fcmp_scalar_expr(E, pred, a, b):
    op = _FCMP_ORDERED.get(pred)
    if op is not None:
        return f"(1 if {a} {op} {b} else 0)"
    isnan = E.KI(math.isnan)
    if pred == "one":
        return (f"(1 if ({a} != {b} and not ({isnan}({a}) or "
                f"{isnan}({b}))) else 0)")
    if pred == "ord":
        return f"(1 if not ({isnan}({a}) or {isnan}({b})) else 0)"
    if pred == "uno":
        return f"(1 if ({isnan}({a}) or {isnan}({b})) else 0)"
    raise _Unsupported(f"fcmp pred {pred}")


def _emit_miss_ladder(E, d):
    E.w(d, "if _lv >= 2:")
    E.w(d + 1, "_cc = M.counters")
    E.w(d + 1, "_cc.l1_misses += 1")
    E.w(d + 1, "if _lv >= 3:")
    E.w(d + 2, "_cc.l2_misses += 1")
    E.w(d + 2, "if _lv >= 4:")
    E.w(d + 3, "_cc.l3_misses += 1")


def _emit_cache_probe(E, d, size, for_store):
    """Cache access + hierarchical miss accounting, mirroring the
    reference's loads and stores (loads also consume the extra latency
    ``_x``; stores drop it like the reference does).

    The non-straddling case inlines :meth:`CacheHierarchy.access`
    statement for statement (L1 probe, straddle-free, prefetcher
    advance, prefetch fills) against the hoisted ``_l1s``/``_l2a``/...
    locals — the access per se is a handful of list operations, so the
    method-call round trip and the (level, latency) tuple dominated the
    memory-bound kernels. A straddling access (rare) falls back to the
    real method. Record functions always call it, like the reference.
    Untimed variants emit nothing: an untimed machine has no cache."""
    if not E.with_timing:
        return
    w = E.w
    if E.records:
        w(d, "_ch = M.cache")
    else:
        E.need_cache = True
    if for_store:
        w(d, "if _ch is not None:")
    else:
        w(d, "if _ch is None:")
        w(d + 1, f"_x = {E.K(_MEM_L1)}")
        w(d, "else:")
    b = d + 1
    if E.records:
        w(b, f"_lv, _x = _ch.access(_a, {size})")
        _emit_miss_ladder(E, b)
        return
    w(b, "_cl = _a // 64")
    if size > 1:
        w(b, f"if (_a + {size - 1}) // 64 != _cl:")
        w(b + 1, f"_lv, _x = _ch.access(_a, {size})")
        _emit_miss_ladder(E, b + 1, )
        w(b, "else:")
        b += 1
    # Inline of CacheHierarchy.access for the single-line case; state
    # evolution is identical (same probes, same order).
    w(b, "_cs = _l1s[_cl % _l1n]")
    w(b, "if _cs and _cs[0] == _cl:")
    if not for_store:
        w(b + 1, f"_x = {E.K(_MEM_L1)}")
    else:
        w(b + 1, "pass")
    w(b, "elif _cl in _cs:")
    w(b + 1, "_cs.insert(0, _cs.pop(_cs.index(_cl)))")
    if not for_store:
        w(b + 1, f"_x = {E.K(_MEM_L1)}")
    w(b, "else:")
    w(b + 1, "if len(_cs) >= _l1a:")
    w(b + 2, "_cs.pop()")
    w(b + 1, "_cs.insert(0, _cl)")
    w(b + 1, "if _l2a(_cl):")
    w(b + 2, "_lv = 2")
    w(b + 1, "elif _l3a(_cl):")
    w(b + 2, "_lv = 3")
    w(b + 1, "else:")
    w(b + 2, "_lv = 4")
    if not for_store:
        w(b + 1, f"_x = {E.K(_CACHE_LATENCY)}[_lv]")
    _emit_miss_ladder(E, b + 1)
    # Inline of StreamPrefetcher.advance + the prefetch fills.
    w(b, "if _pfo is not None:")
    p = b + 1
    w(p, "_pfo._clock += 1")
    w(p, "_st = _pfo._streams")
    w(p, "_mt = _st.index(_cl) if _cl in _st else -1")
    w(p, "_pv = _cl - 1")
    w(p, "if _pv in _st:")
    w(p + 1, "_j = _st.index(_pv)")
    w(p + 1, "if _mt < 0 or _j < _mt:")
    w(p + 2, "_mt = _j")
    w(p, "if _mt >= 0:")
    w(p + 1, "_st[_mt] = _cl + 1")
    w(p + 1, "_pfo._last_used[_mt] = _pfo._clock")
    w(p + 1, "_dp = _pfo.depth")
    w(p + 1, "_ch.prefetches += _dp")
    w(p + 1, "for _fk in range(1, _dp + 1):")
    w(p + 2, "_fl = _cl + _fk")
    w(p + 2, "_fs = _l1s[_fl % _l1n]")
    w(p + 2, "if _fs and _fs[0] == _fl:")
    w(p + 3, "continue")
    w(p + 2, "if _fl in _fs:")
    w(p + 3, "_fs.insert(0, _fs.pop(_fs.index(_fl)))")
    w(p + 3, "continue")
    w(p + 2, "if len(_fs) >= _l1a:")
    w(p + 3, "_fs.pop()")
    w(p + 2, "_fs.insert(0, _fl)")
    w(p + 2, "if not _l2a(_fl):")
    w(p + 3, "_l3a(_fl)")
    w(p, "else:")
    w(p + 1, "_lu = _pfo._last_used")
    w(p + 1, "_vt = _lu.index(min(_lu))")
    w(p + 1, "_st[_vt] = _cl + 1")
    w(p + 1, "_lu[_vt] = _pfo._clock")


def _lane_code(elem, store: bool) -> Optional[str]:
    """The struct code under which a whole vector of ``elem`` lanes
    loads (``store`` False) or stores in one call, bit for bit as one
    ``Memory.load_scalar``/``store_scalar`` per lane, or None: sub-byte
    and odd-sized ints, and f32 stores (a lane past the f32 range
    raises in ``pack`` after the lanes before it were written one by
    one, but before a whole-vector pack writes any)."""
    if elem.is_float:
        if elem.bits == 64:
            return "d"
        return "f" if elem.bits == 32 and not store else None
    if elem.is_int and elem.width % 8 == 0:
        return _UINT_CODE.get(elem.width // 8)
    return None


def _emit_address(E, d, pp, inst):
    """A load/store address into ``_a``. Record functions step the
    memory targeting stream on it (an ``addr`` plan corrupts it) —
    segments never run where the stream is live and a plan could fire."""
    E.w(d, f"_a = {E.oexpr(pp)}")
    if E.records:
        E.w(d, "if M._mem_stream_live:")
        E.w(d + 1, f"_a = M._mem_step(_a, {E.KI(inst)})")


def _emit_record(E, d, inst, dst, rv, costs, rtp):
    """Emit one body record: the reference interpreter's semantics for
    the instruction class, statement for statement, with operands
    resolved to slots and constants. Raises :class:`_Unsupported` for
    anything else (raiser records, defined and declaration calls,
    unknown classes)."""
    w = E.w
    t = E.with_timing
    opcode = inst.opcode
    ty = inst.type
    static = _compute_static(inst, costs)
    uops, isv = static[2], static[1]

    if isinstance(inst, BinaryInst):
        port = costs.ports.get(opcode)
        pa, pb = rv(inst.operands[0]), rv(inst.operands[1])
        a, b = E.oexpr(pa), E.oexpr(pb)
        elem = ty.elem if ty.is_vector else ty
        if elem.is_float:
            def sfn(x, y):
                return _scalar_float_expr(E, opcode, x, y, elem.bits)
        else:
            def sfn(x, y):
                return _scalar_int_expr(E, opcode, x, y, elem.width)
        if ty.is_vector:
            w(d, f"_a = {a}")
            w(d, f"_b = {b}")
            lanes = ", ".join(sfn(f"_a[{j}]", f"_b[{j}]")
                              for j in range(ty.count))
            w(d, f"regs[{dst}] = ({lanes},)")
            lat = costs.vector_latency(opcode, elem)
        else:
            w(d, f"regs[{dst}] = {sfn(a, b)}")
            lat = costs.scalar_latency(opcode)
        if t:
            E.issue(d, E.K(lat), (E.texpr(pa), E.texpr(pb)), None,
                    uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, ICmpInst):
        port = costs.ports.get(opcode)
        pa, pb = rv(inst.operands[0]), rv(inst.operands[1])
        a, b = E.oexpr(pa), E.oexpr(pb)
        oty = inst.lhs.type
        if oty.is_vector:
            width = T.bitwidth(oty.elem) if not oty.elem.is_float else 64
            w(d, f"_a = {a}")
            w(d, f"_b = {b}")
            lanes = ", ".join(
                _icmp_scalar_expr(E, inst.pred, f"_a[{j}]", f"_b[{j}]",
                                  width)
                for j in range(ty.count))
            w(d, f"regs[{dst}] = ({lanes},)")
            lat = costs.vector_latency("icmp")
        else:
            width = T.bitwidth(oty)
            w(d, f"regs[{dst}] = "
                 f"{_icmp_scalar_expr(E, inst.pred, a, b, width)}")
            lat = costs.scalar_latency("icmp")
        if t:
            E.issue(d, E.K(lat), (E.texpr(pa), E.texpr(pb)), None,
                    uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, FCmpInst):
        port = costs.ports.get(opcode)
        pa, pb = rv(inst.operands[0]), rv(inst.operands[1])
        a, b = E.oexpr(pa), E.oexpr(pb)
        if inst.lhs.type.is_vector:
            w(d, f"_a = {a}")
            w(d, f"_b = {b}")
            lanes = ", ".join(
                _fcmp_scalar_expr(E, inst.pred, f"_a[{j}]", f"_b[{j}]")
                for j in range(ty.count))
            w(d, f"regs[{dst}] = ({lanes},)")
            lat = costs.vector_latency("fcmp")
        else:
            w(d, f"regs[{dst}] = "
                 f"{_fcmp_scalar_expr(E, inst.pred, a, b)}")
            lat = costs.scalar_latency("fcmp")
        if t:
            E.issue(d, E.K(lat), (E.texpr(pa), E.texpr(pb)), None,
                    uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, CastInst):
        port = costs.ports.get(opcode)
        p = rv(inst.value)
        v = E.oexpr(p)
        src = inst.value.type

        def cast_expr(x, se, te):
            # Inline the common casts (exactly _cast_scalar's
            # arithmetic); the rare ones dispatch to the helper.
            if opcode == "zext":
                return f"int({x})"
            if opcode in ("trunc", "ptrtoint"):
                return f"int({x}) & {(1 << te.width) - 1}"
            if opcode == "inttoptr":
                return f"int({x}) & {_MASK64}"
            if opcode == "fpext":
                return f"float({x})"
            if opcode == "sext":
                return f"{_sext_expr(f'int({x})', se.width)} & " \
                       f"{(1 << te.width) - 1}"
            if opcode == "sitofp" and te.bits == 64:
                return f"float({_sext_expr(f'int({x})', se.width)})"
            if opcode in ("fptosi", "fptoui"):
                # x - x is 0.0 exactly for finite x; NaN/inf give 0.
                return (f"((int({x}) & {(1 << te.width) - 1}) "
                        f"if {x} - {x} == 0.0 else 0)")
            if opcode == "bitcast" and T.sizeof(se) == T.sizeof(te):
                if se.is_float and te.is_int:
                    return (f"{E.KI(_BITS_UNPACK[se.bits])}("
                            f"{E.KI(_FLOAT_PACK[se.bits])}({x}))[0]")
                if se.is_int and te.is_float:
                    return (f"{E.KI(_FLOAT_UNPACK[te.bits])}("
                            f"{E.KI(_BITS_PACK[te.bits])}"
                            f"({x} & {(1 << te.bits) - 1}))[0]")
                return x
            # fptrunc, uitofp, sitofp to f32 and different-size
            # bitcasts (the Trap) keep the helper.
            cs = E.KI(_cast_scalar)
            return f"{cs}({opcode!r}, {x}, {E.KI(se)}, {E.KI(te)})"

        if ty.is_vector:
            w(d, f"_v = {v}")
            lanes = ", ".join(cast_expr(f"_v[{j}]", src.elem, ty.elem)
                              for j in range(ty.count))
            w(d, f"regs[{dst}] = ({lanes},)")
            lat = costs.vector_latency(opcode)
        else:
            w(d, f"regs[{dst}] = {cast_expr(v, src, ty)}")
            lat = costs.scalar_latency(opcode)
        if t:
            E.issue(d, E.K(lat), (E.texpr(p),), None, uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, LoadInst):
        pp = rv(inst.ptr)
        size = T.sizeof(ty)
        lat = (costs.vector_latency("load") if ty.is_vector
               else costs.scalar_latency("load"))
        port = costs.ports.get("load")
        E.need_mem = True
        mf = E.KI(MemoryFault)
        _emit_address(E, d, pp, inst)
        code = _lane_code(ty.elem, False) if ty.is_vector else None
        if code is not None:
            # Whole vector in one unpack when it lies in one region;
            # anything else (a lane past a top faults) takes the
            # per-lane helper, whose MemoryFault names that lane.
            uf = E.K(_Struct(f"<{ty.count}{code}").unpack_from)
            w(d, f"_e = _a + {size}")
            w(d, f"if {HEAP_BASE} <= _a and _e <= _mem.heap_top:")
            w(d + 1, f"regs[{dst}] = {uf}(_mem._heap, _a - {HEAP_BASE})")
            w(d, f"elif {STACK_BASE} <= _a and _e <= _mem.stack_top:")
            w(d + 1, f"regs[{dst}] = {uf}(_mem._stack, _a - {STACK_BASE})")
            w(d, "else:")
            w(d + 1, f"regs[{dst}] = _mem.load_value({E.KI(ty)}, _a)")
        elif ty.is_vector:
            w(d, f"regs[{dst}] = _mem.load_value({E.KI(ty)}, _a)")
        elif ty.is_float:
            uf = E.K(_Struct(_FLOAT_FMT[ty.bits]).unpack_from)
            w(d, f"_e = _a + {size}")
            w(d, f"if {HEAP_BASE} <= _a and _e <= _mem.heap_top:")
            w(d + 1, f"regs[{dst}] = {uf}(_mem._heap, _a - {HEAP_BASE})[0]")
            w(d, f"elif {STACK_BASE} <= _a and _e <= _mem.stack_top:")
            w(d + 1,
              f"regs[{dst}] = {uf}(_mem._stack, _a - {STACK_BASE})[0]")
            w(d, "else:")
            w(d + 1, f"raise {mf}(_a, {size}, False)")
        else:
            mask = ((1 << ty.width) - 1) if ty.is_int and ty.width % 8 != 0 \
                else 0
            if size == 1:
                # Single-byte load: indexing a bytearray yields the int
                # directly — same value as int.from_bytes of the
                # one-byte slice, without the slice allocation.
                heap_v = f"_mem._heap[_a - {HEAP_BASE}]"
                stack_v = f"_mem._stack[_a - {STACK_BASE}]"
            else:
                fb = E.KI(_FROM_BYTES)
                heap_v = (f"{fb}(_mem._heap[_o:_o + {size}], 'little')")
                stack_v = (f"{fb}(_mem._stack[_o:_o + {size}], 'little')")
            w(d, f"_e = _a + {size}")
            w(d, f"if {HEAP_BASE} <= _a and _e <= _mem.heap_top:")
            if size != 1:
                w(d + 1, f"_o = _a - {HEAP_BASE}")
            w(d + 1, f"_v = {heap_v}")
            w(d, f"elif {STACK_BASE} <= _a and _e <= _mem.stack_top:")
            if size != 1:
                w(d + 1, f"_o = _a - {STACK_BASE}")
            w(d + 1, f"_v = {stack_v}")
            w(d, "else:")
            w(d + 1, f"raise {mf}(_a, {size}, False)")
            if mask:
                w(d, f"regs[{dst}] = _v & {mask}")
            else:
                w(d, f"regs[{dst}] = _v")
        _emit_cache_probe(E, d, size, for_store=False)
        if t:
            E.issue(d, E.K(lat), (E.texpr(pp),), "_x", uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, StoreInst):
        pv, pp = rv(inst.value), rv(inst.ptr)
        vty = inst.value.type
        size = T.sizeof(vty)
        lat = (costs.vector_latency("store") if vty.is_vector
               else costs.scalar_latency("store"))
        port = costs.ports.get("store")
        E.need_mem = True
        mf = E.KI(MemoryFault)
        _emit_address(E, d, pp, inst)
        w(d, f"_v = {E.oexpr(pv)}")
        code = _lane_code(vty.elem, True) if vty.is_vector else None
        if code is not None:
            # One pack_into, lanes masked as Memory.store_scalar masks
            # them; out of range, the per-lane helper writes the lanes
            # before the faulting one, as the reference does.
            pf = E.K(_Struct(f"<{vty.count}{code}").pack_into)
            lanes = ("*_v" if vty.elem.is_float else
                     f"*[int(_ln) & {(1 << vty.elem.width) - 1}"
                     " for _ln in _v]")
            w(d, f"_e = _a + {size}")
            w(d, f"if {HEAP_BASE} <= _a and _e <= _mem.heap_top:")
            w(d + 1, f"{pf}(_mem._heap, _a - {HEAP_BASE}, {lanes})")
            w(d, f"elif {STACK_BASE} <= _a and _e <= _mem.stack_top:")
            w(d + 1, f"{pf}(_mem._stack, _a - {STACK_BASE}, {lanes})")
            w(d, "else:")
            w(d + 1, f"_mem.store_value({E.KI(vty)}, _a, _v)")
        elif vty.is_vector:
            w(d, f"_mem.store_value({E.KI(vty)}, _a, _v)")
        elif vty.is_float:
            pf = E.K(_Struct(_FLOAT_FMT[vty.bits]).pack_into)
            w(d, f"_e = _a + {size}")
            w(d, f"if {HEAP_BASE} <= _a and _e <= _mem.heap_top:")
            w(d + 1, f"{pf}(_mem._heap, _a - {HEAP_BASE}, _v)")
            w(d, f"elif {STACK_BASE} <= _a and _e <= _mem.stack_top:")
            w(d + 1, f"{pf}(_mem._stack, _a - {STACK_BASE}, _v)")
            w(d, "else:")
            w(d + 1, f"raise {mf}(_a, {size}, True)")
        else:
            smask = (1 << (size * 8)) - 1
            w(d, f"_raw = (int(_v) & {smask}).to_bytes({size}, 'little')")
            w(d, f"_e = _a + {size}")
            w(d, f"if {HEAP_BASE} <= _a and _e <= _mem.heap_top:")
            w(d + 1, f"_o = _a - {HEAP_BASE}")
            w(d + 1, f"_mem._heap[_o:_o + {size}] = _raw")
            w(d, f"elif {STACK_BASE} <= _a and _e <= _mem.stack_top:")
            w(d + 1, f"_o = _a - {STACK_BASE}")
            w(d + 1, f"_mem._stack[_o:_o + {size}] = _raw")
            w(d, "else:")
            w(d + 1, f"raise {mf}(_a, {size}, True)")
        _emit_cache_probe(E, d, size, for_store=True)
        if t:
            E.issue(d, E.K(lat), (E.texpr(pv), E.texpr(pp)), None,
                    uops, isv, port, rtp)
        return

    if isinstance(inst, AllocaInst):
        size = T.sizeof(inst.allocated_type) * inst.count
        lat = costs.scalar_latency("alloca")
        port = costs.ports.get("alloca")
        E.need_mem = True
        w(d, f"regs[{dst}] = _mem.stack_alloc({size})")
        if t:
            E.issue(d, E.K(lat), (), None, uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, GepInst):
        pp, pi = rv(inst.ptr), rv(inst.index)
        esize = T.sizeof(inst.elem_type)
        ity = inst.index.type
        port = costs.ports.get("gep")
        if ty.is_vector:
            iw = ity.elem.width if ity.is_vector else ity.width
            vec_idx = ity.is_vector
            vec_ptr = inst.ptr.type.is_vector
            lat = costs.vector_latency("gep")
            w(d, f"_b = {E.oexpr(pp)}")
            w(d, f"_x = {E.oexpr(pi)}")
            lanes = []
            for j in range(ty.count):
                be = f"_b[{j}]" if vec_ptr else "_b"
                ie = f"_x[{j}]" if vec_idx else "_x"
                lanes.append(f"(({be} + {_sext_expr(ie, iw)} * {esize}) "
                             f"& {_MASK64})")
            w(d, f"regs[{dst}] = ({', '.join(lanes)},)")
        else:
            iw = ity.width
            lat = costs.scalar_latency("gep")
            w(d, f"_b = {E.oexpr(pp)}")
            w(d, f"_x = {E.oexpr(pi)} & {(1 << iw) - 1}")
            w(d, f"if _x >= {1 << (iw - 1)}:")
            w(d + 1, f"_x -= {1 << iw}")
            w(d, f"regs[{dst}] = (_b + _x * {esize}) & {_MASK64}")
        if t:
            E.issue(d, E.K(lat), (E.texpr(pp), E.texpr(pi)), None,
                    uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, SelectInst):
        pc, pt, pf2 = rv(inst.cond), rv(inst.tval), rv(inst.fval)
        lat = (costs.vector_latency("select") if ty.is_vector
               else costs.scalar_latency("select"))
        port = costs.ports.get("select")
        w(d, f"_c = {E.oexpr(pc)}")
        w(d, f"_t = {E.oexpr(pt)}")
        w(d, f"_f = {E.oexpr(pf2)}")
        if inst.cond.type.is_vector:
            lanes = ", ".join(f"(_t[{j}] if _c[{j}] else _f[{j}])"
                              for j in range(ty.count))
            w(d, f"regs[{dst}] = ({lanes},)")
        else:
            w(d, f"regs[{dst}] = _t if _c else _f")
        if t:
            E.issue(d, E.K(lat), (E.texpr(pc), E.texpr(pt), E.texpr(pf2)),
                    None, uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, ExtractElementInst):
        pv, pi = rv(inst.vec), rv(inst.index)
        lat = costs.vector_latency("extractelement")
        port = costs.ports.get("extractelement")
        mf = E.KI(MemoryFault)
        w(d, f"_v = {E.oexpr(pv)}")
        w(d, f"_ix = {E.oexpr(pi)}")
        w(d, "if not 0 <= _ix < len(_v):")
        w(d + 1, f"raise {mf}(_ix, 0)")
        w(d, f"regs[{dst}] = _v[_ix]")
        if t:
            E.issue(d, E.K(lat), (E.texpr(pv), E.texpr(pi)), None,
                    uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, InsertElementInst):
        pv, pe, pi = rv(inst.vec), rv(inst.elem), rv(inst.index)
        lat = costs.vector_latency("insertelement")
        port = costs.ports.get("insertelement")
        mf = E.KI(MemoryFault)
        w(d, f"_v = list({E.oexpr(pv)})")
        w(d, f"_el = {E.oexpr(pe)}")
        w(d, f"_ix = {E.oexpr(pi)}")
        w(d, "if not 0 <= _ix < len(_v):")
        w(d + 1, f"raise {mf}(_ix, 0)")
        w(d, "_v[_ix] = _el")
        w(d, f"regs[{dst}] = tuple(_v)")
        if t:
            E.issue(d, E.K(lat), (E.texpr(pv), E.texpr(pe), E.texpr(pi)),
                    None, uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, ShuffleVectorInst):
        p1, p2 = rv(inst.v1), rv(inst.v2)
        lat = costs.vector_latency("shufflevector")
        port = costs.ports.get("shufflevector")
        w(d, f"_j = tuple({E.oexpr(p1)}) + tuple({E.oexpr(p2)})")
        lanes = ", ".join(f"_j[{m}]" for m in inst.mask)
        w(d, f"regs[{dst}] = ({lanes},)")
        if t:
            E.issue(d, E.K(lat), (E.texpr(p1), E.texpr(p2)), None,
                    uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, BroadcastInst):
        p = rv(inst.operands[0])
        lat = costs.vector_latency("broadcast")
        port = costs.ports.get(opcode)
        w(d, f"regs[{dst}] = ({E.oexpr(p)},) * {ty.count}")
        if t:
            E.issue(d, E.K(lat), (E.texpr(p),), None, uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, CallInst):
        callee = inst.callee
        if not callee.is_intrinsic:
            # Defined calls are emitted by the caller (_emit_span);
            # declaration calls are raiser records.
            raise _Unsupported(f"call to @{callee.name}")
        arg_ps = [rv(a) for a in inst.args]
        lat = costs.intrinsic_latency(callee.name)
        port = costs.ports.get("call")
        _emit_intrinsic(E, d, inst, [E.oexpr(p) for p in arg_ps])
        if dst >= 0:
            w(d, f"regs[{dst}] = _v")
        if t:
            E.issue(d, E.K(lat), [E.texpr(p) for p in arg_ps], None,
                    uops, isv, port, rtp)
            if dst >= 0:
                w(d, f"times[{dst}] = _d")
        return

    raise _Unsupported(f"record class {type(inst).__name__}")


def _emit_intrinsic(E, d, inst, args):
    """Intrinsic call ``inst`` over the operand expressions ``args``
    (pure reads, safe to repeat), result in ``_v``.

    The hardening checks, branch syncs and votes test lane/copy
    agreement inline — the shuffle-xor-ptest fast path of the paper's
    Figs. 8/9 — and call ``intrinsic_impl`` only on a disagreement,
    where it corrects, detects or raises exactly as the reference does.
    On agreement the result is what ``impl`` returns: the checked
    argument itself, or the ptest kind. Float lanes and copies take
    the fast path only when equal and non-zero: equal non-zero binary32/
    binary64 values share one bit pattern, so that is exactly the
    reference's bit-key equality, while ±0.0 and NaN (equal bits that
    compare unequal or unequal bits that compare equal) go through
    ``impl``. Every other intrinsic is a plain ``impl`` call."""
    w = E.w
    name = inst.callee.name
    if name.startswith("elzar.branch_cond_nocheck."):
        lanes = [f"_v[{j}]" for j in range(inst.args[0].type.count)]
        w(d, f"_v = {args[0]}")
        w(d, f"_v = 1 if {' and '.join(lanes)} else 0")
        return
    impl = E.K(intrinsic_impl(name, inst.type))
    if name.startswith(("elzar.check.", "elzar.check_dmr.")):
        # Vector types have at least two lanes, so this is a chain.
        eq = " == ".join(f"_v[{j}]" for j in range(inst.type.count))
        if inst.type.elem.is_float:
            eq = f"_v[0] != 0.0 and {eq}"
        w(d, f"_v = {args[0]}")
        w(d, f"if not ({eq}):")
        w(d + 1, f"_v = {impl}(M, (_v,))")
        return
    if name.startswith(("elzar.branch_cond.", "elzar.branch_cond_dmr.")):
        # i1 lanes are 0/1, so all-true and none-true are one constant
        # tuple compare each; any other tuple (a mix) takes impl.
        n = inst.args[0].type.count
        w(d, f"_v = {args[0]}")
        w(d, f"if _v == {(1,) * n}:")
        w(d + 1, "_v = 1")
        w(d, f"elif _v == {(0,) * n}:")
        w(d + 1, "_v = 0")
        w(d, "else:")
        w(d + 1, f"_v = {impl}(M, (_v,))")
        return
    if name.startswith(("tmr.vote.", "swift.check.")):
        # Scalar copies; a vector type's key is the tuple itself, so
        # only float scalars need the non-zero guard.
        eq = " == ".join(args)
        if inst.type.is_float:
            eq = f"{args[0]} != 0.0 and {eq}"
        w(d, f"_v = {args[0]} if {eq} else {impl}(M, [{', '.join(args)}])")
        return
    if len(args) == 1:
        w(d, f"_v = {impl}(M, ({args[0]},))")
    else:
        w(d, f"_v = {impl}(M, [{', '.join(args)}])")


def _emit_call_exit(E, d, db, k):
    """Suspend at the defined-call record ``k``: publish the count,
    park the callee + evaluated args on the frame and return control 1
    (the trampoline pushes the frame — its depth-limit HangError then
    unwinds through ``f.i``/``f.in_body`` exactly like the record
    path's). The return re-enters the region at the call's post-call
    entry."""
    arg_rs, _dst, cdfn, _lat, _uops, _isv, _port = db.call_meta[k]
    # The region sets f.block lazily (only exits need it); the
    # trampoline's return epilogue reads call_meta through it.
    E.w(d, f"f.block = {E.KI(db)}")
    E.w(d, "f.in_body = True")
    E.w(d, f"_i = {k}")
    E.w(d, f"executed += {k - E.exec_base + 1}")
    args = ", ".join(f"regs[{ss}]" if ss >= 0 else E.K(cc)
                     for ss, cc in arg_rs)
    ats = ", ".join(f"times[{ss}]" if ss >= 0 else "0.0"
                    for ss, cc in arg_rs)
    E.w(d, f"_ca = [{args}]")
    E.w(d, f"_ct = [{ats}]")
    E.w(d, "M._executed = executed")
    E.w(d, f"f.i = {k}")
    E.w(d, f"f.pending_call = ({E.KI(cdfn)}, _ca, _ct)")
    E.writeback(d)
    E.w(d, "return executed, 1")


#: Opcodes that can never raise for any operand values the type system
#: admits: no division (ArithmeticFault), no memory traffic
#: (MemoryFault), no float->int casts (int(nan) raises). A call to a
#: single-block callee made only of these is inlined at the call site.
_PURE_OPCODES = frozenset({
    "add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr",
    "fadd", "fsub", "fmul", "icmp", "fcmp", "select",
    "zext", "sext", "trunc", "fpext", "bitcast", "sitofp", "uitofp",
    "ptrtoint", "inttoptr",
})


def _inlinable_leaf(cdfn, costs, rtp, with_timing) -> bool:
    """True when a call to the defined callee ``cdfn`` can be inlined
    instead of a real frame push: single supported block, RET/RET_VOID
    terminator, no nested calls, and every record both pure (cannot
    raise — see :data:`_PURE_OPCODES`) and emittable. Purity is what
    makes the expansion safe: with no exception possible between the
    depth check and the return, none of the frame-stack bookkeeping a
    real push maintains for the unwinder is observable."""
    if len(cdfn.blocks) != 1:
        return False
    cdb = cdfn.blocks[0]
    if cdb.term_kind not in (_T_RET, _T_RET_VOID):
        return False
    if any(cm is not None for cm in cdb.call_meta):
        return False
    if any(r.opcode not in _PURE_OPCODES for r in cdb.records):
        return False
    # Probe-emit into a scratch emitter: a pure-but-unsupported record
    # keeps the call on the real push path without dragging the
    # caller's block off the compiled path.
    scratch = _Emitter({}, {}, with_timing)
    try:
        for r in cdb.records:
            _emit_record(scratch, 1, r, cdfn.slot_map.get(id(r), -1),
                         cdfn.rv, costs, rtp)
    except (_Unsupported, _Undecodable):
        return False
    return True


def _emit_leaf_call(E, d, db, k, costs, rtp):
    """Inline the defined call at record ``k``. The guard falls back to
    the generic suspend (real frame push) whenever any of the inline's
    preconditions fail at runtime: a fault campaign is active (the
    callee may be an injection target), the push would trip the depth
    limit (push_frame raises the HangError), or the budget could expire
    inside the callee (the callee's record path raises at the exact
    instruction). The fast arm replays the real path's observable
    effects in order: callee records, callee block counters, ret issue,
    then the caller's call-record issue — same TimingModel and counter
    evolution, no Frame, no driver round trip."""
    arg_rs, dst, cdfn, lat, uops, isv, port = db.call_meta[k]
    cdb = cdfn.blocks[0]
    t = E.with_timing
    span = (k - E.exec_base + 1) + (cdb.n + 1)
    E.w(d, "if (M._fault_active or M._depth >= M.config.max_call_depth"
           f" or executed + {span} > maxi):")
    _emit_call_exit(E, d + 1, db, k)
    # Fast arm (the suspend above returned): count the caller records,
    # the call record, and the whole callee up front — the real path
    # publishes the same total by the time anything can observe it.
    E.w(d, f"executed += {span}")
    E.w(d, "M._executed = executed")
    for j, (ss, cc) in enumerate(arg_rs):
        E.w(d, f"_a{j} = " + (f"regs[{ss}]" if ss >= 0 else E.K(cc)))
        if t:
            E.w(d, f"_t{j} = " + (f"times[{ss}]" if ss >= 0 else "0.0"))
    E.w(d, "_or = regs")
    E.w(d, f"regs = [None] * {cdfn.nslots}")
    if t:
        E.w(d, "_ot = times")
        E.w(d, f"times = [0.0] * {cdfn.nslots}")
    for j in range(len(arg_rs)):
        E.w(d, f"regs[{j}] = _a{j}")
        if t:
            E.w(d, f"times[{j}] = _t{j}")
    for r in cdb.records:
        _emit_record(E, d, r, cdfn.slot_map.get(id(r), -1), cdfn.rv, costs,
                     rtp)
    for key, val in cdb.full_pairs:
        E.w(d, f"{E.ctr(key)} += {val}")
    if cdb.opcode_items:
        E.w(d, "if byop:")
        E.w(d + 1, "_bo = M.counters.by_opcode")
        for op, cnt in cdb.opcode_items:
            E.w(d + 1, f"_bo[{op!r}] = _bo.get({op!r}, 0) + {cnt}")
    if cdb.term_kind == _T_RET:
        rs_, rc_, rlat, ruops = cdb.term
        if t:
            E.issue(d, E.K(rlat),
                    (f"times[{rs_}]" if rs_ >= 0 else None,), None,
                    ruops, False, None, rtp)
        E.w(d, "_crv = " + (f"regs[{rs_}]" if rs_ >= 0 else E.K(rc_)))
    else:  # _T_RET_VOID
        rlat, ruops = cdb.term
        if t:
            E.issue(d, E.K(rlat), (), None, ruops, False, None, rtp)
        E.w(d, "_crv = None")
    E.w(d, "regs = _or")
    if t:
        E.w(d, "times = _ot")
    if t:
        E.issue(d, E.K(lat),
                [f"_t{j}" if arg_rs[j][0] >= 0 else None
                 for j in range(len(arg_rs))],
                None, uops, isv, port, rtp)
    if dst >= 0:
        E.w(d, f"regs[{dst}] = _crv")
        if t:
            E.w(d, f"times[{dst}] = _d")
    E.exec_base = k + 1


def _emit_span(E, d, db, start, rv, slot_map, costs, region, bi_of, rtp,
               inlines):
    """Emit the block body from record ``start`` through the
    terminator: plain records, then at each defined call either the
    generic suspend (the return re-enters at the call's post-call
    entry) or — for inlinable leaf callees — the guarded inline
    expansion, after which emission continues in place to the next
    call."""
    records = db.records
    calls = [k for k, cm in enumerate(db.call_meta) if cm is not None]
    nxt = next((kk for kk in calls if kk >= start), None)
    end = nxt if nxt is not None else db.n
    for k in range(start, end):
        E.w(d, f"_i = {k}")
        _emit_record(E, d, records[k], slot_map.get(id(records[k]), -1),
                     rv, costs, rtp)
        if E.armed:
            E.count_record(db, k, records[k])
        E.mark(k + 1)
    if nxt is None:
        _emit_terminator(E, d, db, costs, region, bi_of, rtp)
        return
    E.w(d, f"_i = {nxt}")
    if not inlines(db.call_meta[nxt][2]):
        _emit_call_exit(E, d, db, nxt)
        return
    _emit_leaf_call(E, d, db, nxt, costs, rtp)
    E.mark(nxt + 1)
    _emit_span(E, d, db, nxt + 1, rv, slot_map, costs, region, bi_of, rtp,
               inlines)


def _precheck_span(db, s, inlines):
    """Worst-case ``executed`` growth of the span starting at record
    ``s``: records through the next real suspend (or the terminator),
    plus the full body+ret of every leaf call inlined along the way.
    Used in the entry budget precheck so an inlined span can never run
    past ``maxi`` — near exhaustion the precheck bails to the record
    path (control 3), which raises at the exact instruction."""
    extra = 0
    for k in range(s, db.n):
        cm = db.call_meta[k]
        if cm is None:
            continue
        if not inlines(cm[2]):
            return extra + (k - s + 1)
        extra += cm[2].blocks[0].n + 1
    return extra + (db.n - s + 1)


def _timing_hoists(E) -> List[str]:
    hoists = [
        "_tm = timing",
        "_ti = _tm.issue_time",
        "_tr = _tm._retire_frontier",
        "_rob = _tm._rob",
        "_ri = _tm._ri",
        "_rnx = _tm._rob_next",
        "_iw = _tm.issue_width",
    ]
    if E.port_local:
        hoists.append("_pf = _tm._port_free")
        hoists += [f"{u} = _pf[{name!r}]"
                   for name, u in E.port_local.items()]
    if E.uses_bmp:
        hoists.append("_bmp = _tm.branch_miss_penalty")
    for u in sorted(E.uops_used):
        hoists.append(f"_q{u} = {u} / _iw")
    return hoists


def _put_streams(M, eligible, mem, branch, checker) -> None:
    """Armed exits: store the stream counts. The memory, branch and
    checker counts move only while their stream is needed — the record
    path's gates."""
    M.eligible_executed = eligible
    if M._mem_stream_live:
        M.mem_accesses_eligible = mem
    if M._branch_stream_live:
        M.cond_branches_eligible = branch
    if M._checker_needed:
        M.checker_sites_executed = checker


def _event_tables(E) -> Tuple[tuple, tuple, tuple]:
    """Armed exception-flush tables (eligible, memory, checker) of the
    current block, indexed by the raising record's offset: events of
    the records before it — plus the raiser's own memory event, which
    is counted before the access. Terminators never raise, so the
    branch stream needs none."""
    el, ma, cs = [0], [0], [0]
    for e, m, c in E.rec_ev:
        el.append(el[-1] + e)
        ma.append(ma[-1] + m)
        cs.append(cs[-1] + c)
    return tuple(el), tuple(ma[1:] + ma[-1:]), tuple(cs)


#: Armed entry: the eligible, memory, conditional-branch and checker
#: stream counts (that order everywhere) and the event limits the
#: trampoline published (:func:`_event_limits`).
_STREAM_HOISTS = (
    "_se = M.eligible_executed",
    "_sm = M.mem_accesses_eligible",
    "_sb = M.cond_branches_eligible",
    "_sc = M.checker_sites_executed",
    "_he, _hm, _hb, _hc = M._next_events",
)


def _event_guard(events) -> str:
    """Condition under which a unit with these per-stream event totals
    could reach a pending event: the record path must run it. The
    eligible term stays even with no events: every record polls a
    capture policy that may already be due."""
    el, ma, cb, cs = events
    terms = [f"_se + {el} > _he"]
    if ma:
        terms.append(f"_sm + {ma} > _hm")
    if cb:
        terms.append(f"_sb + {cb} > _hb")
    if cs:
        terms.append(f"_sc + {cs} > _hc")
    return " or ".join(terms)


#: Hoisted by any timing region with a conditional branch (the inlined
#: gshare update reads these every iteration).
_PRED_HOISTS = (
    "_pcs = M._branch_pcs",
    "_bp = M.predictor",
    "_bpc = _bp.counters",
    "_bpm = _bp.mask",
)

#: Hoisted by any timing region with a load or store: the inlined
#: cache probe's working set (see :func:`_emit_cache_probe`). The
#: nested lines carry their own indentation on top of the splice depth.
_CACHE_HOISTS = (
    "_ch = M.cache",
    "if _ch is not None:",
    "    _l1 = _ch.l1",
    "    _l1s = _l1._sets",
    "    _l1n = _l1.num_sets",
    "    _l1a = _l1.assoc",
    "    _l2a = _ch.l2.access",
    "    _l3a = _ch.l3.access",
    "    _pfo = _ch.prefetcher",
)


def _emit_branch_arm(E, d, cur_db, succ_db, region, bi_of):
    """One branch arm. When the successor lies outside the region (the
    compiled subset) or the edge has no pre-resolved move list, leave
    the phis pending for the trampoline's phi stage (which reproduces
    the reference KeyError) and return control 2. Otherwise inline the
    successor's phi moves for this edge and jump to it within the
    region."""
    tbi = bi_of[id(succ_db)]
    moves = None
    edge_ok = True
    if succ_db.phi_moves is not None:
        moves = succ_db.phi_moves.get(cur_db)
        if moves is None:
            edge_ok = False
    if tbi not in region or not edge_ok:
        E.w(d, f"f.prev = {E.KI(cur_db)}")
        E.w(d, f"f.block = {E.KI(succ_db)}")
        E.w(d, "f.phis_pending = True")
        E.w(d, "f.in_body = False")
        E.w(d, "f.i = 0")
        E.writeback(d)
        E.w(d, "return executed, 2")
        return
    # Armed: the phis are eligible events (the entry guard covered them).
    phis = len(moves) if E.armed and moves else 0
    E.pend_ev[0] += phis
    E.edge_phis = max(E.edge_phis, phis)
    if moves:
        dsts = {m[0] for m in moves}
        srcs = {m[1] for m in moves if m[1] >= 0}
        if dsts & srcs:
            # Parallel moves: stage every read before any write (phi
            # semantics — a swapped pair must not see its own update).
            for j, (_mdst, ms, mc) in enumerate(moves):
                E.w(d, f"_p{j} = " + (f"regs[{ms}]" if ms >= 0
                                      else E.K(mc)))
                E.w(d, f"_u{j} = " + (f"times[{ms}]" if ms >= 0
                                      else "0.0"))
            for j, (mdst, _ms, _mc) in enumerate(moves):
                E.w(d, f"regs[{mdst}] = _p{j}")
                E.w(d, f"times[{mdst}] = _u{j}")
        else:
            # No destination feeds another move's source: write
            # directly, skipping the staging temporaries.
            for mdst, ms, mc in moves:
                E.w(d, f"regs[{mdst}] = " + (f"regs[{ms}]" if ms >= 0
                                             else E.K(mc)))
                E.w(d, f"times[{mdst}] = " + (f"times[{ms}]" if ms >= 0
                                              else "0.0"))
    # Accumulate this block's issue totals and jump through the dispatch
    # loop — no trampoline round-trip.
    if E.with_timing:
        E.w(d, f"_nis += {E.pend_issued}")
        E.w(d, f"_nuo += {E.pend_uops}")
    if E.armed:
        for local, n in zip(("_se", "_sm", "_sb", "_sc"), E.pend_ev):
            if n:
                E.w(d, f"{local} += {n}")
    E.w(d, f"_bk = {tbi}")
    E.w(d, "continue")
    E.pend_ev[0] -= phis


def _emit_terminator(E, d, db, costs, region, bi_of, rtp):
    """Block completion: static-counter flush into the region's
    accumulators, then the decoded terminator — mirroring the
    trampoline's record path (the budget precheck at the entry already
    covered the terminator's increment)."""
    t = E.with_timing
    E.w(d, f"executed += {db.n - E.exec_base + 1}")
    for key, val in db.full_pairs:
        E.w(d, f"{E.ctr(key)} += {val}")
    if db.opcode_items:
        E.w(d, "if byop:")
        E.w(d + 1, "_bo = M.counters.by_opcode")
        for op, cnt in db.opcode_items:
            E.w(d + 1, f"_bo[{op!r}] = _bo.get({op!r}, 0) + {cnt}")
    kind = db.term_kind
    if kind == _T_BR:
        succ, lat = db.term
        if t:
            E.issue(d, E.K(lat), (), None, 1, False, None, rtp)
        _emit_branch_arm(E, d, db, succ, region, bi_of)
        return
    if kind == _T_CONDBR:
        cs, cc, tb, eb, inst, lat = db.term
        cond = f"regs[{cs}]" if cs >= 0 else E.K(cc)
        E.w(d, f"_tk = True if {cond} else False")
        if t:  # an untimed machine has no predictor
            pckey = E.K(id(inst))
            E.uses_pred = True
            E.w(d, f"_pc = _pcs.get({pckey})")
            E.w(d, "if _pc is None:")
            E.w(d + 1, "_pc = M._next_pc")
            E.w(d + 1, "M._next_pc = _pc + 1")
            E.w(d + 1, f"_pcs[{pckey}] = _pc")
            # Inline GSharePredictor.predict_and_update: same index/counter/
            # history evolution, minus the method-call round trip.
            E.w(d, "_bh = _bp.history")
            E.w(d, "_bx = (_pc ^ _bh) & _bpm")
            E.w(d, "_bc = _bpc[_bx]")
            E.w(d, "_cor = (_bc >= 2) == _tk")
            E.w(d, "_bp.predictions += 1")
            E.w(d, "if not _cor:")
            E.w(d + 1, "_bp.misses += 1")
            E.w(d, "if _tk:")
            E.w(d + 1, "if _bc < 3:")
            E.w(d + 2, "_bpc[_bx] = _bc + 1")
            E.w(d + 1, "_bp.history = ((_bh << 1) | 1) & _bpm")
            E.w(d, "else:")
            E.w(d + 1, "if _bc > 0:")
            E.w(d + 2, "_bpc[_bx] = _bc - 1")
            E.w(d + 1, "_bp.history = (_bh << 1) & _bpm")
            E.issue(d, E.K(lat),
                    (f"times[{cs}]" if cs >= 0 else None,), None,
                    1, False, None, rtp)
            E.uses_bmp = True
            E.w(d, "if not _cor:")
            E.w(d + 1, "cd['branch_misses'] += 1")
            # Inline TimingModel.branch_mispredict(resolve=_d).
            E.w(d + 1, "_r = _d + _bmp")
            E.w(d + 1, "if _r > _ti:")
            E.w(d + 2, "_ti = _r")
        if E.armed:
            E.pend_ev[2] += 1
        E.w(d, "if _tk:")
        _emit_branch_arm(E, d + 1, db, tb, region, bi_of)
        _emit_branch_arm(E, d, db, eb, region, bi_of)
        return
    if kind == _T_RET:
        rs, rc, lat, uops = db.term
        if t:
            E.issue(d, E.K(lat),
                    (f"times[{rs}]" if rs >= 0 else None,), None,
                    uops, False, None, rtp)
        E.w(d, "f.rv = " + (f"regs[{rs}]" if rs >= 0 else E.K(rc)))
        E.writeback(d)
        E.w(d, "return executed, None")
        return
    # _T_RET_VOID
    lat, uops = db.term
    if t:
        E.issue(d, E.K(lat), (), None, uops, False, None, rtp)
    E.w(d, "f.rv = None")
    E.writeback(d)
    E.w(d, "return executed, None")


def _emit_region(dfn, entries, rv, slot_map, costs, consts, seen,
                 with_timing, bi_of, rtp, rname, inlines, armed=False):
    """Emit the function's region closure: every supported block,
    compiled into one ``while True`` dispatch loop keyed on ``_bk``.
    ``entries`` lists the arms in chain order as ``(key, block index,
    first record)``: a block entry has key == block index and starts
    at record 0; a *post-call entry* resumes a block after a defined
    call, at the record after it, under a key past the block indices
    (it only exists in functions with calls). Intra-region branches
    become phi moves plus ``_bk = <target>; continue`` — no trampoline
    round-trip and no per-block flush/rehoist of the timing scalars.
    Issued and uop totals of completed blocks accumulate in the runtime
    ``_nis`` / ``_nuo`` locals (the path through the region is
    dynamic); the current block's totals stay static.

    Returns the region's source lines. Exits use the segment protocol's
    control codes; entry is via the per-entry trampolines the caller
    emits (so the driver's segment dispatch stays unchanged). A defined
    call that really pushes — or a leaf inline whose runtime guard
    fails — exits with control 1, and the return re-enters at that
    call's post-call entry."""
    E = _Emitter(consts, seen, with_timing, armed)
    region = frozenset(bi for _key, bi, _s in entries)
    bmap: Dict[int, object] = {}
    cum_tables: Dict[int, tuple] = {}
    iss_tables: Dict[int, tuple] = {}
    adj_tables: Dict[int, tuple] = {}
    ev_tables: Dict[int, tuple] = {}
    E.w(1, "_i = 0")
    if with_timing:
        E.w(1, "_nis = 0")
        E.w(1, "_nuo = 0")
    E.w(1, "%CTRINIT%")
    hoist_at = len(E.lines)
    E.w(1, "try:")
    E.w(2, "while True:")
    first = True
    for key, bi, s in entries:
        db = dfn.blocks[bi]
        bmap[key] = db
        E.w(3, f"{'if' if first else 'elif'} _bk == {key}:")
        first = False
        d = 4
        # Per-block static accounting restarts here (the completed
        # blocks' totals were rolled into _nis/_nuo at the jump).
        E.reset_block(s)
        E.w(d, f"_i = {s}")
        guard_at = len(E.lines)
        E.w(d, f"if executed + {_precheck_span(db, s, inlines)} > maxi:")
        E.w(d + 1, f"f.block = {E.KI(db)}")
        E.w(d + 1, "f.in_body = True")
        E.w(d + 1, f"f.i = {s}")
        E.writeback(d + 1)
        E.w(d + 1, "return executed, 3")
        _emit_span(E, d, db, s, rv, slot_map, costs, region, bi_of, rtp,
                   inlines)
        # Flush tables are indexed by the raising record's index in the
        # block: a post-call entry's are padded over the records before
        # its start.
        pad = (0,) * s
        cum_tables[key] = pad + tuple(E.cum_uops)
        iss_tables[key] = pad + tuple(E.cum_issued)
        adj_tables[key] = pad + tuple(E.rec_adj)
        if armed:
            # The entry guard needs the arm's event totals, known only
            # now.
            E.lines[guard_at] = (E.lines[guard_at][:-1] + " or "
                                 + _event_guard(E.span_events()) + ":")
            ev_tables[key] = tuple(pad + t for t in _event_tables(E))
    E.w(3, "else:")
    E.w(4, "raise RuntimeError('bad region block %r' % _bk)")
    # Only records raise (phi moves are pure reg/const reads, inlined
    # leaf bodies are exception-free by construction, and the
    # terminators cannot raise: budget is prechecked and the inlined
    # predictor/timing updates are exception-free), so _bk/_i pinpoint
    # the raising record; the frame/timing flush leaves the trampoline's
    # unwinder the record path's state at that record, with the
    # completed blocks' totals added.
    E.w(1, "except BaseException:")
    E.w(2, f"f.block = {E.K(bmap)}[_bk]")
    E.w(2, "f.in_body = True")
    E.w(2, "f.i = _i")
    E.w(2, "%CTRFLUSH%")
    if with_timing:
        E.w(2, "_tm.issue_time = _ti")
        E.w(2, "_tm.finish_time = _tr")
        E.w(2, "_tm._retire_frontier = _tr")
        E.w(2, "_tm._ri = _ri")
        E.w(2, f"_tm.issued += _nis + {E.K(iss_tables)}[_bk][_i]")
        E.w(2, f"_tm.uops_issued += _nuo + {E.K(cum_tables)}[_bk][_i]")
    E.w(2, f"_ex = executed + {E.K(adj_tables)}[_bk][_i] + 1")
    E.w(2, "if _ex > M._executed:")
    E.w(3, "M._executed = _ex")
    if armed:
        el, ma, cs = (f" + {E.K({k: t[j] for k, t in ev_tables.items()})}"
                      f"[_bk][_i]" for j in range(3))
        E.stream_flush(2, el, ma, "", cs)
    E.w(2, "raise")
    hoists = []
    if armed:
        hoists += _STREAM_HOISTS
    if with_timing:
        hoists += _timing_hoists(E)
    if E.need_mem:
        hoists.append("_mem = M.memory")
    if E.need_cache:
        hoists += _CACHE_HOISTS
    if E.uses_pred:
        hoists += _PRED_HOISTS
    E.lines[hoist_at:hoist_at] = ["    " + h for h in hoists]
    # Patch the counter-accumulator markers now that the full key set
    # is known: inits at entry, dict flushes (counters, then the port
    # clocks) at every exit. A marker with no keys vanishes (every
    # marked suite also holds a return or raise, so no suite can become
    # empty).
    init = [f"{n} = 0" for n in E.ctr_local.values()]
    flush = [f"cd[{k!r}] += {n}" for k, n in E.ctr_local.items()]
    flush += [f"_pf[{name!r}] = {u}" for name, u in E.port_local.items()]
    lines = []
    for line in E.lines:
        text = line.lstrip()
        if text == "%CTRINIT%":
            ind = line[:len(line) - len(text)]
            lines.extend(ind + s for s in init)
        elif text == "%CTRFLUSH%":
            ind = line[:len(line) - len(text)]
            lines.extend(ind + s for s in flush)
        else:
            lines.append(line)
    params = "".join(f", {n}={n}" for n in E.used)
    return ([f"def {rname}(M, f, regs, times, executed, timing, "
             f"maxi, cd, byop, _bk{params}):"]
            + lines + [""])


def _emit_function(dfn, costs, with_timing, armed=False):
    """Compile-emit one decoded function: its region closure plus one
    trampoline segment per block entry and post-call entry. Returns
    (source, consts, [(block index, boundary, fname), ...]) or None if
    nothing in the function is compilable. The armed variant inlines
    no leaf calls: armed frames run only while faults are active, when
    the inline guard always takes the real push."""
    fn = dfn.fn
    slot_map, rv = dfn.slot_map, dfn.rv
    bi_of = {id(db): i for i, db in enumerate(dfn.blocks)}
    rtp = costs.vector_alu_rtp

    leaf_cache: Dict[int, bool] = {}

    def inlines(cdfn):
        """Memoized: is a call to ``cdfn`` inlined (else a real push)?"""
        if armed:
            return False
        key = id(cdfn)
        if key not in leaf_cache:
            leaf_cache[key] = _inlinable_leaf(cdfn, costs, rtp, with_timing)
        return leaf_cache[key]

    # Probe each record into a throwaway emitter: a block with any
    # record outside the compiled subset stays whole on the record path
    # (the real pass then starts from a known-supported set, so constant
    # numbering is deterministic). Nothing else emitted for a block can
    # fail: defined calls, terminators and phi edges are pre-resolved by
    # decode, and leaf inlines probe their callee themselves.
    supported = []
    for bi, db in enumerate(dfn.blocks):
        if db.term_kind not in _SUPPORTED_TERMS:
            continue
        scratch = _Emitter({}, {}, with_timing)
        try:
            for k, r in enumerate(db.records):
                if db.call_meta[k] is None:
                    _emit_record(scratch, 1, r, slot_map.get(id(r), -1),
                                 rv, costs, rtp)
        except (_Unsupported, _Undecodable):
            continue
        supported.append(bi)
    if not supported:
        return None

    # One segment per (block, boundary): boundary 0 is the block entry,
    # k + 1 the post-call entry after the defined call at record k.
    # Each enters the region under its arm's key.
    entries: List[Tuple[int, int, int]] = []
    post_key = len(dfn.blocks)
    for bi in supported:
        entries.append((bi, bi, 0))
        for k, cm in enumerate(dfn.blocks[bi].call_meta):
            if cm is not None:
                entries.append((post_key, bi, k + 1))
                post_key += 1

    consts: Dict[str, object] = {}
    seen: Dict[int, str] = {}
    variant = "timing" if with_timing else "plain"
    if armed:
        variant += ", armed"
    out: List[str] = [f"# compiled segments of @{fn.name} ({variant})"]
    rname = "_rg0"
    # The region def must precede the trampolines: each trampoline binds
    # it as a keyword default at def time. Post-call entries head the
    # dispatch chain: every return from a callee re-enters through one.
    chain = ([e for e in entries if e[2]]
             + [e for e in entries if not e[2]])
    out.extend(_emit_region(dfn, chain, rv, slot_map, costs, consts, seen,
                            with_timing, bi_of, rtp, rname, inlines, armed))
    metas: List[Tuple[int, int, str]] = []
    for n, (key, bi, s) in enumerate(entries):
        fname = f"_s{n}"
        out.append(f"def {fname}(M, f, regs, times, executed, "
                   f"timing, maxi, cd, byop, _rg={rname}):")
        out.append(f"    return _rg(M, f, regs, times, executed, "
                   f"timing, maxi, cd, byop, {key})")
        out.append("")
        metas.append((bi, s, fname))
    return "\n".join(out) + "\n", consts, metas


def _emit_records(dfn, costs, with_timing):
    """Emit the record functions of one decoded function: one
    ``rec(M, regs, times, timing)`` per body record, executing exactly
    that record; a raiser record raises its decoded exception. Defined
    calls get none (the trampoline pushes a frame instead). Returns
    (source, consts, [(block index, record index, fname), ...]).
    Unlike segments, every record must emit: a failure raises."""
    fn = dfn.fn
    rtp = costs.vector_alu_rtp
    consts: Dict[str, object] = {}
    seen: Dict[int, str] = {}
    variant = "timing" if with_timing else "plain"
    out: List[str] = [f"# record functions of @{fn.name} ({variant})"]
    metas: List[Tuple[int, int, str]] = []
    for bi, db in enumerate(dfn.blocks):
        for k, inst in enumerate(db.records):
            if db.call_meta[k] is not None:
                continue
            E = _Emitter(consts, seen, with_timing, records=True)
            raiser = db.raisers[k]
            if raiser is not None:
                exc_type, message = raiser
                E.w(1, f"raise {E.KI(exc_type)}({E.K(message)})")
            else:
                _emit_record(E, 1, inst, dfn.slot_map.get(id(inst), -1),
                             dfn.rv, costs, rtp)
            fname = f"_r{len(metas)}"
            params = "".join(f", {n}={n}" for n in E.used)
            out.append(f"def {fname}(M, regs, times, timing{params}):")
            if E.need_mem:
                out.append("    _mem = M.memory")
            out.extend(E.lines)
            out.append("")
            metas.append((bi, k, fname))
    return "\n".join(out) + "\n", consts, metas


def _compile_dfn(dmod, dfn, vidx, cache, stats):
    """Emit + exec one variant of one function, reusing a cached code
    object when its source was compiled before (:func:`_code_for`).
    Segment variants add the segments and blocks they compiled to
    ``stats``; record variants store one tuple of record functions per
    block. An emission error raises."""
    for db in dfn.blocks:
        if db.compiled is None:
            db.compiled = [None] * len(_VARIANTS)
    with_timing = vidx % 2 == 0
    records = vidx >= _RECORD_VARIANT
    if records:
        emitted = _emit_records(dfn, dmod.costs, with_timing)
    else:
        emitted = _emit_function(dfn, dmod.costs, with_timing, vidx >= 2)
        if emitted is None:
            return
    # Emission re-runs per instance (the consts are per-decode
    # objects); only compile() is shared.
    source, consts, metas = emitted
    code = _code_for(source, f"<repro.compiled:@{dfn.fn.name}>", cache,
                     stats)
    ns = dict(consts)
    exec(code, ns)  # noqa: S102 - our own generated code
    if records:
        bodies = [[None] * db.n for db in dfn.blocks]
        for bi, k, fname in metas:
            bodies[bi][k] = ns[fname]
        for db, body in zip(dfn.blocks, bodies):
            db.compiled[vidx] = tuple(body)
        return
    per_block: Dict[int, Dict[int, object]] = {}
    for bi, boundary, fname in metas:
        per_block.setdefault(bi, {})[boundary] = ns[fname]
    for bi, segmap in per_block.items():
        dfn.blocks[bi].compiled[vidx] = segmap
    stats.segments += len(metas)
    stats.blocks += len(per_block)


#: Compiled variants, indexed like ``DecodedBlock.compiled``: regions
#: with or without the inlined timing model, unarmed or armed (stream
#: counting behind the next-event guard), then the record functions
#: with or without timing. A segment variant holds a segmap
#: ``{boundary: segment}`` per block — boundary 0 the block entry, the
#: others its post-call entries, each a trampoline into the function's
#: one region — a record variant a tuple of record functions (None at
#: defined calls).
_VARIANTS = ("timing", "plain", "timing-armed", "plain-armed",
             "timing-records", "plain-records")
_RECORD_VARIANT = 4


def ensure_compiled(dmod, vidx) -> Optional[Dict[str, object]]:
    """Compile every decoded function of ``dmod`` in the given variant
    (an index into :data:`_VARIANTS`) that is not compiled yet.
    Idempotent and cheap when there is nothing to do. Returns the
    compile-event payload when work happened, else None."""
    done = getattr(dmod, "_compiled_fns", None)
    if done is None:
        done = dmod._compiled_fns = [set() for _ in _VARIANTS]
    todo = [(fid, dfn) for fid, dfn in dmod._functions.items()
            if fid not in done[vidx]]
    if not todo:
        return None
    from ..toolchain.cache import ArtifactCache

    digest = _module_digest(dmod)
    cache = ArtifactCache()
    t0 = time.perf_counter()
    stats = CompileStats(functions=len(todo))
    for fid, dfn in todo:
        _compile_dfn(dmod, dfn, vidx, cache, stats)
        done[vidx].add(fid)
    stats.compile_ms = (time.perf_counter() - t0) * 1000.0
    disk = cache.stats_for(_CODE_SUFFIX)
    stats.code_disk_hits = disk.hits
    stats.code_invalid = disk.invalid
    COMPILE_STATS.add(stats)
    payload = {
        "digest": digest,
        "variant": _VARIANTS[vidx],
        **stats.as_dict(),
    }
    for hook in list(_COMPILE_HOOKS):
        hook(payload)
    return payload
