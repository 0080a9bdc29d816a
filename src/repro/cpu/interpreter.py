"""The simulated machine: an IR interpreter with performance modelling
and fault-injection hooks.

One :class:`Machine` owns a module plus the architectural state: flat
memory, cache hierarchy, branch predictor, perf counters, and the
dataflow timing model. ``run()`` executes a function and returns a
:class:`RunResult` with the return value, program output, cycle count,
and counters.

Fault injection (paper §IV-B): arm the machine with a
:class:`FaultPlan`; when the N-th *eligible* dynamic instruction
executes (value-producing, inside an eligible function), one bit of its
result register — or of one SIMD lane, matching the paper's YMM
injection rule — is flipped.
"""

from __future__ import annotations

import copy
import math
import struct
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..avx import costs as C
from ..avx import ops as avxops
from ..ir import opcodes as OP
from ..ir import types as T
from ..ir.function import BasicBlock, Function
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
    Instruction,
    LoadInst,
    PhiInst,
    SelectInst,
    ShuffleVectorInst,
    StoreInst,
)
from ..ir.module import Module
from ..ir.values import Argument, Constant, GlobalVariable, UndefValue, Value
from .branch_predictor import GSharePredictor
from .cache import CacheHierarchy
from .counters import PerfCounters
from .errors import (
    AbortError,
    ArithmeticFault,
    DetectedError,
    HangError,
    MemoryFault,
    Trap,
)
from .memory import HEAP_BASE, Memory, pack_array
from .timing import TimingModel

_MASK64 = (1 << 64) - 1

# Each simulated call nests several Python frames; Machine.run raises
# the recursion limit to this (and restores it afterwards) so the
# default MachineConfig.max_call_depth is reachable before Python's own
# limit cuts in. Importing this module does not mutate process state.
_RUN_RECURSION_LIMIT = 8000

#: Vector-typed instructions that do NOT contend for the vector ALU
#: port group (memory ops use the load/store ports; control flow and
#: calls are scalar machinery; phis are renaming only).
_NON_ALU_OPS = frozenset({"load", "store", "br", "ret", "call", "phi", "alloca"})


# --- Engine registry ---------------------------------------------------------
#
# Maps MachineConfig.engine names to runners. "reference" is special
# (the tree-walking interpreter below, dispatched inline by
# Machine.run); every other engine resolves lazily to
# ``module_path.attr``, a callable ``runner(machine, fn, arg_values) ->
# value`` (lazy so importing this module never pulls the decode or
# compile layers).
_ENGINE_SPECS: Dict[str, Optional[Tuple[str, str]]] = {
    "reference": None,
    "decoded": ("repro.cpu.compiled", "run_decoded"),
    "compiled": ("repro.cpu.compiled", "run_compiled"),
}


def register_engine(name: str, spec: Optional[Tuple[str, str]]) -> None:
    """Register (or override) an execution engine. ``spec`` is a
    ``(module_path, attr)`` pair naming a runner, or None for engines
    dispatched specially by Machine.run."""
    _ENGINE_SPECS[name] = spec


def registered_engines() -> Tuple[str, ...]:
    return tuple(sorted(_ENGINE_SPECS))


def _engine_runner(name: str):
    import importlib

    spec = _ENGINE_SPECS[name]
    module_path, attr = spec
    return getattr(importlib.import_module(module_path), attr)


@dataclass
class MachineConfig:
    cost_model: C.CostModel = C.HASWELL
    collect_timing: bool = True
    cache_enabled: bool = True
    #: Cache sizes. The default hierarchy is the testbed's (Haswell)
    #: geometry scaled down (2 KB / 8 KB / 256 KB) because simulated
    #: datasets are necessarily ~100-1000x smaller than the paper's —
    #: scaling the caches with the data preserves each workload's miss
    #: *ratios* (Table II) and the memory-boundedness that amortizes
    #: hardening overhead (mmul, §V-B), which is what drives the
    #: performance shapes.
    l1_size: int = 2 << 10
    l2_size: int = 8 << 10
    l3_size: int = 256 << 10
    max_instructions: int = 200_000_000
    heap_capacity: int = 64 << 20
    stack_capacity: int = 8 << 20
    collect_by_opcode: bool = False
    max_call_depth: int = 400
    #: Which functions fault injection may target (None = every defined
    #: non-intrinsic function in the module).
    fault_eligible: Optional[Callable[[Function], bool]] = None
    #: Execution engine: "decoded" runs decoded records on the frame
    #: trampoline, "compiled" (the default) additionally runs
    #: closure-compiled block segments (both in repro.cpu.compiled,
    #: bit-identical results); "reference" runs the original
    #: tree-walking interpreter.
    engine: str = "compiled"

    def __post_init__(self) -> None:
        if self.engine not in _ENGINE_SPECS:
            raise ValueError(
                f"unknown engine {self.engine!r}; registered engines: "
                + ", ".join(registered_engines())
            )


@dataclass
class FaultPlan:
    """One planned fault, fired at the ``target_index``-th dynamic event
    of its targeting stream.

    The default ``kind`` (``"reg"``) is the paper's §IV-B model: flip
    ``bit`` of the result register of the ``target_index``-th *eligible*
    dynamic instruction — within SIMD ``lane`` when the result is a
    vector. Other kinds (see :mod:`repro.faults.models`) reinterpret the
    fields:

    - ``"multi"``  — flip ``bit`` plus every bit in ``bits`` (all in the
      same ``lane`` of one result; multi-bit upset).
    - ``"skip"``   — replace the result with a type-appropriate zero
      (instruction-skip approximation).
    - ``"mem"``    — the eligible instruction only *times* the upset;
      flip bit ``bit % 8`` of the live heap byte at
      ``offset % live_heap_bytes``. The targeted value is untouched.
    - ``"addr"``   — counted on the *memory-access* stream: flip ``bit``
      of the effective address of the ``target_index``-th dynamic
      load/store in eligible functions, for that one access.
    - ``"branch"`` — counted on the *conditional-branch* stream: invert
      the ``target_index``-th dynamic branch decision (after the
      condition — and any ``elzar.branch_cond`` sync — has evaluated).
    - ``"checker"`` — counted on the *checker-site* stream (results of
      hardening-inserted wrapper/check instructions only): flip
      ``bit``/``lane`` of that site's result, i.e. an upset inside the
      paper's window of vulnerability.

    Bit-width semantics (deliberate, paper-matching, and baked into
    stored campaign keys — do **not** "fix" by narrowing the draw):
    ``bit`` is always drawn from ``[0, 64)`` and ``lane`` from
    ``[0, 4)``, the full GPR width and YMM lane count. A scalar result
    narrower than 64 bits (i32, f32, i8, i1) occupies the register's low
    bits, so a flip at ``bit % 64 >= width`` hits architecturally dead
    upper bits and is immediately masked — ``_flip`` returns the value
    unchanged. Vector lanes are packed, so ``lane`` wraps (``lane %
    count``) and ``bit`` wraps into the element width: vector flips
    always land in live bits. This inflates the masked rate for
    integer-heavy scalar code exactly as real GPR injections do.
    """

    target_index: int
    bit: int
    lane: int = 0
    #: Fault-model kind; see class docstring. Default preserves the
    #: original single-bit register-flip behaviour.
    kind: str = "reg"
    #: Extra bits to flip for ``kind="multi"`` (distinct from ``bit``).
    bits: tuple = ()
    #: Heap byte offset seed for ``kind="mem"``.
    offset: int = 0


@dataclass
class RunResult:
    value: object
    output: List
    counters: PerfCounters
    cycles: float
    ilp: float
    fault_injected: bool = False

    @property
    def instructions(self) -> int:
        return self.counters.instructions


def _to_signed(value: int, width: int) -> int:
    value &= (1 << width) - 1
    if value >= 1 << (width - 1):
        value -= 1 << width
    return value


def _round_f32(value: float) -> float:
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _int_binop(opcode: str, a: int, b: int, width: int) -> int:
    mask = (1 << width) - 1
    if opcode == "add":
        return (a + b) & mask
    if opcode == "sub":
        return (a - b) & mask
    if opcode == "mul":
        return (a * b) & mask
    if opcode == "and":
        return a & b
    if opcode == "or":
        return a | b
    if opcode == "xor":
        return a ^ b
    if opcode == "shl":
        return (a << (b % width)) & mask
    if opcode == "lshr":
        return (a >> (b % width)) & mask
    if opcode == "ashr":
        return (_to_signed(a, width) >> (b % width)) & mask
    if opcode in ("sdiv", "srem"):
        sa, sb = _to_signed(a, width), _to_signed(b, width)
        if sb == 0:
            raise ArithmeticFault("integer division by zero")
        quotient = int(sa / sb)  # C-style truncation toward zero
        if opcode == "sdiv":
            return quotient & mask
        return (sa - quotient * sb) & mask
    if opcode in ("udiv", "urem"):
        if b == 0:
            raise ArithmeticFault("integer division by zero")
        return (a // b if opcode == "udiv" else a % b) & mask
    raise ValueError(f"unknown integer binop {opcode}")


def _float_binop(opcode: str, a: float, b: float, bits: int) -> float:
    if opcode == "fadd":
        r = a + b
    elif opcode == "fsub":
        r = a - b
    elif opcode == "fmul":
        r = a * b
    elif opcode == "fdiv":
        if b == 0.0:
            r = math.nan if a == 0.0 else math.copysign(math.inf, a) * math.copysign(1.0, b)
        else:
            r = a / b
    elif opcode == "frem":
        r = math.fmod(a, b) if b != 0.0 else math.nan
    else:
        raise ValueError(f"unknown float binop {opcode}")
    return _round_f32(r) if bits == 32 else r


_ICMP = {
    "eq": lambda a, b, w: a == b,
    "ne": lambda a, b, w: a != b,
    "ult": lambda a, b, w: a < b,
    "ule": lambda a, b, w: a <= b,
    "ugt": lambda a, b, w: a > b,
    "uge": lambda a, b, w: a >= b,
    "slt": lambda a, b, w: _to_signed(a, w) < _to_signed(b, w),
    "sle": lambda a, b, w: _to_signed(a, w) <= _to_signed(b, w),
    "sgt": lambda a, b, w: _to_signed(a, w) > _to_signed(b, w),
    "sge": lambda a, b, w: _to_signed(a, w) >= _to_signed(b, w),
}

_FCMP = {
    "oeq": lambda a, b: a == b,
    "one": lambda a, b: a != b and not (math.isnan(a) or math.isnan(b)),
    "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
    "ord": lambda a, b: not (math.isnan(a) or math.isnan(b)),
    "uno": lambda a, b: math.isnan(a) or math.isnan(b),
}

_HOST_UNARY = {
    "sqrt": lambda x: math.sqrt(x) if x >= 0 else math.nan,
    "exp": lambda x: math.exp(x) if x < 709 else math.inf,
    "log": lambda x: math.log(x) if x > 0 else (-math.inf if x == 0 else math.nan),
    "sin": math.sin,
    "cos": math.cos,
    "erf": math.erf,
    "fabs": math.fabs,
    "floor": math.floor,
    "ceil": math.ceil,
}


def _compute_static(inst: Instruction, costs: C.CostModel) -> tuple:
    """(counts_as_avx, uses_vector_alu, uops) — immutable per instruction."""
    opcode = inst.opcode
    is_vec = inst.type.is_vector or any(op.type.is_vector for op in inst.operands)
    is_avx = is_vec or opcode in OP.VECTOR_OPS
    is_vec_alu = is_vec and opcode not in _NON_ALU_OPS
    if opcode == "call" and inst.callee.is_intrinsic:
        uops = costs.intrinsic_cost(inst.callee.name)[1]
        if inst.callee.name.startswith(("elzar.", "avx.")):
            is_vec_alu = True  # checks run on the SIMD units
    elif opcode == "br":
        uops = 1
    elif is_vec_alu:
        uops = costs.vector_uops(opcode)
    else:
        uops = costs.scalar_uops(opcode)
    return (is_avx, is_vec_alu, uops)


@dataclass
class MachineSnapshot:
    """Between-runs machine state captured by :meth:`Machine.snapshot`.

    Opaque to callers; its only contract is the
    ``snapshot → run → restore → run`` bit-identity round trip. Memory
    is stored as the *used* heap/stack prefixes, so a snapshot of a
    freshly constructed machine costs the laid-out globals, not the
    configured capacities — cheap enough to take one per injection
    session and restore per injection."""

    heap: bytes
    stack: bytes
    heap_top: int
    stack_top: int
    output: List
    counters: PerfCounters
    cache: Optional[CacheHierarchy]
    predictor: GSharePredictor
    timing: Optional[TimingModel]
    branch_pcs: Dict[int, int]
    next_pc: int
    executed: int
    fault_state: tuple
    count_only: bool
    trace_eligible: object
    watches: tuple


class Machine:
    def __init__(self, module: Module, config: Optional[MachineConfig] = None):
        self.module = module
        self.config = config or MachineConfig()
        self.memory = Memory(self.config.heap_capacity, self.config.stack_capacity)
        self.counters = PerfCounters()
        self.counters.collect_by_opcode = self.config.collect_by_opcode
        self.cache = (
            CacheHierarchy(
                l1_size=self.config.l1_size,
                l2_size=self.config.l2_size,
                l3_size=self.config.l3_size,
            )
            if self.config.cache_enabled
            else None
        )
        self.predictor = GSharePredictor()
        self.timing = TimingModel(self.config.cost_model) if self.config.collect_timing else None
        self.output: List = []
        self.globals_addr: Dict[str, int] = {}
        self._executed = 0
        self._static_info: Dict[int, tuple] = {}
        self._branch_pcs: Dict[int, int] = {}
        self._next_pc = 1
        # Fault injection state. ``fault_plans`` is sorted by target
        # index; multi-plan arming exercises the paper's §III-A claim
        # that four lanes tolerate two independent SEUs.
        self.fault_plans: List[FaultPlan] = []
        self._next_plan = 0
        self.fault_injected = False
        self.fault_target: Optional[Instruction] = None
        self.eligible_executed = 0
        # Additional targeting streams (repro.faults.models). Each is a
        # sorted plan list + cursor + dynamic-event counter, mirroring
        # the eligible-instruction stream above. One campaign arms plans
        # of a single kind, so the streams never interact.
        self._checker_plans: List[FaultPlan] = []
        self._next_checker_plan = 0
        self.checker_sites_executed = 0
        self._mem_plans: List[FaultPlan] = []
        self._next_mem_plan = 0
        self.mem_accesses_eligible = 0
        self._branch_plans: List[FaultPlan] = []
        self._next_branch_plan = 0
        self.cond_branches_eligible = 0
        self._eligible_fn_cache: Dict[int, bool] = {}
        self._trace_eligible = None
        # Skip gate for the eligible-stream hook: the engines invoke
        # ``_trace_eligible`` only once ``eligible_executed`` exceeds
        # this, so a hook that knows its next interesting index (a site
        # watch or checkpoint comparator) costs one int compare per
        # event instead of a Python call. -1 (the value the setter
        # resets to) fires at every event — dense hooks like
        # ``faults.trace`` need no changes.
        self._trace_skip_until = -1
        self._count_only = False
        # Stream watch hooks (repro.cpu.batch). Each is an optional
        # ``(inst, index) -> None`` callable fired at every dynamic event
        # of its stream *before* that event's plan-cursor reads, so a
        # hook may arm plans that fire at the very event it observed
        # (the batch engine forks a lane inside the hook and arms the
        # lane's plan in the child). Set via :meth:`set_stream_watches`.
        self._watch_checker = None
        self._watch_mem = None
        self._watch_branch = None
        # Execution-position registries for the batch engine's state
        # digests (decoded engine only; cleared at every ``run()``):
        # ``_frames`` holds ``(dfn, regs)`` per live decoded frame,
        # outermost first; ``_call_sites`` holds ``id(call_inst)`` per
        # suspended caller, identifying where each frame resumes.
        self._frames: List[tuple] = []
        self._call_sites: List[int] = []
        #: True when any per-eligible-instruction bookkeeping is needed
        #: (armed plans, count-only profiling, or a trace hook); the
        #: decoded engine skips that bookkeeping entirely otherwise.
        self._fault_active = False
        # Stream gates. ``*_needed`` = this run must count the stream at
        # all (count-only profiling or plans of that kind armed);
        # ``*_live`` = needed *and* currently inside an eligible frame —
        # maintained by the frame setup of both engines so the hot
        # load/store/branch paths test one boolean.
        self._checker_needed = False
        self._mem_stream_needed = False
        self._branch_stream_needed = False
        self._mem_stream_live = False
        self._branch_stream_live = False
        self._current_fn: Optional[Function] = None
        self._depth = -1
        self._layout_globals()

    # Eligible-instruction bookkeeping modes ------------------------------------

    def _refresh_fault_mode(self) -> None:
        self._fault_active = (
            bool(self.fault_plans)
            or bool(self._checker_plans)
            or bool(self._mem_plans)
            or bool(self._branch_plans)
            or self._count_only
            or self._trace_eligible is not None
            or self._watch_checker is not None
            or self._watch_mem is not None
            or self._watch_branch is not None
        )
        self._checker_needed = (
            self._count_only
            or bool(self._checker_plans)
            or self._watch_checker is not None
        )
        self._mem_stream_needed = (
            self._count_only
            or bool(self._mem_plans)
            or self._watch_mem is not None
        )
        self._branch_stream_needed = (
            self._count_only
            or bool(self._branch_plans)
            or self._watch_branch is not None
        )

    def set_stream_watches(self, checker=None, mem=None, branch=None) -> None:
        """Install (or, with no arguments, clear) the per-stream watch
        hooks and recompute the bookkeeping gates. The eligible stream
        has no separate watch — use :attr:`trace_eligible`, which fires
        at every eligible event with the same fire-at-observed-event
        guarantee."""
        self._watch_checker = checker
        self._watch_mem = mem
        self._watch_branch = branch
        self._refresh_fault_mode()

    @property
    def trace_eligible(self):
        """Optional per-eligible-instruction hook ``(inst, fn) -> None``
        used by the trace/demarcation step (paper §IV-B)."""
        return self._trace_eligible

    @trace_eligible.setter
    def trace_eligible(self, hook) -> None:
        self._trace_eligible = hook
        self._trace_skip_until = -1
        self._refresh_fault_mode()

    @property
    def count_only(self) -> bool:
        """Profiling mode: count eligible dynamic instructions (into
        ``eligible_executed``) without arming any fault. Campaign golden
        runs use this instead of a never-firing sentinel plan."""
        return self._count_only

    @count_only.setter
    def count_only(self, value: bool) -> None:
        self._count_only = bool(value)
        self._refresh_fault_mode()

    # Setup ----------------------------------------------------------------------

    def _layout_globals(self) -> None:
        for gv in self.module.globals.values():
            self.globals_addr[gv.name] = self.memory.init_global(
                gv.content_type, gv.initializer
            )

    def write_global(self, name: str, values, elem_ty: Optional[T.Type] = None) -> None:
        """Populate a global array from Python values (test/workload setup)."""
        gv = self.module.get_global(name)
        addr = self.globals_addr[name]
        ty = gv.content_type
        if ty.is_array:
            self.memory.write_bytes(
                addr, pack_array(elem_ty or ty.elem, list(values)))
        else:
            self.memory.store_scalar(ty, addr, values)

    def read_global(self, name: str, count: Optional[int] = None):
        gv = self.module.get_global(name)
        addr = self.globals_addr[name]
        ty = gv.content_type
        if ty.is_array:
            n = count if count is not None else ty.count
            esize = T.sizeof(ty.elem)
            return [
                self.memory.load_scalar(ty.elem, addr + i * esize) for i in range(n)
            ]
        return self.memory.load_scalar(ty, addr)

    # Fault plumbing ----------------------------------------------------------------

    def arm_fault(self, plan: FaultPlan) -> None:
        """Arm a single-event-upset injection (the paper's fault model,
        §III-A)."""
        self.arm_faults([plan])

    def arm_faults(self, plans: Sequence[FaultPlan]) -> None:
        """Arm multiple independent upsets in one run (used to test the
        §III-A observation that four replicas usually mask two faults).
        Plans with negative target indices never fire (golden runs use
        one to count eligible instructions).

        Plans are routed by ``kind`` onto their targeting stream:
        ``addr`` plans count dynamic loads/stores, ``branch`` plans
        count dynamic conditional branches, ``checker`` plans count
        hardening-inserted check/wrapper sites, and everything else
        (``reg``/``multi``/``skip``/``mem``) counts eligible
        value-producing instructions, exactly as before."""
        reg: List[FaultPlan] = []
        checker: List[FaultPlan] = []
        mem: List[FaultPlan] = []
        branch: List[FaultPlan] = []
        for plan in plans:
            kind = getattr(plan, "kind", "reg")
            if kind == "checker":
                checker.append(plan)
            elif kind == "addr":
                mem.append(plan)
            elif kind == "branch":
                branch.append(plan)
            else:
                reg.append(plan)
        by_index = lambda p: p.target_index  # noqa: E731
        self.fault_plans = sorted(reg, key=by_index)
        self._next_plan = 0
        while (self._next_plan < len(self.fault_plans)
               and self.fault_plans[self._next_plan].target_index < 0):
            self._next_plan += 1
        self._checker_plans = sorted(checker, key=by_index)
        self._next_checker_plan = 0
        self._mem_plans = sorted(mem, key=by_index)
        self._next_mem_plan = 0
        self._branch_plans = sorted(branch, key=by_index)
        self._next_branch_plan = 0
        self.fault_injected = False
        self.fault_target = None
        self.eligible_executed = 0
        self.checker_sites_executed = 0
        self.mem_accesses_eligible = 0
        self.cond_branches_eligible = 0
        self._refresh_fault_mode()

    def _fault_eligible_fn(self, fn: Function) -> bool:
        cached = self._eligible_fn_cache.get(id(fn))
        if cached is None:
            if self.config.fault_eligible is not None:
                cached = self.config.fault_eligible(fn)
            else:
                cached = not fn.is_intrinsic
            self._eligible_fn_cache[id(fn)] = cached
        return cached

    def _maybe_inject(self, inst: Instruction, value, in_eligible_fn: bool):
        if inst.type.is_void:
            return value
        if not in_eligible_fn:
            return value
        index = self.eligible_executed
        self.eligible_executed += 1
        if (self._trace_eligible is not None
                and self.eligible_executed > self._trace_skip_until):
            self._trace_eligible(inst, self._current_fn)
        if self._checker_needed:
            value = self._checker_step(value, inst)
        plans = self.fault_plans
        cursor = self._next_plan
        if cursor >= len(plans) or index != plans[cursor].target_index:
            return value
        return self._apply_reg_plans(value, inst, index)

    def _apply_reg_plans(self, value, inst: Instruction, index: int):
        """Apply every eligible-stream plan aimed at ``index`` (they may
        hit different lanes/bits of the same result). Shared verbatim by
        both engines — this is what keeps their injection behaviour
        bit-identical across fault kinds."""
        plans = self.fault_plans
        cursor = self._next_plan
        ty = inst.type
        while cursor < len(plans) and plans[cursor].target_index == index:
            plan = plans[cursor]
            kind = plan.kind
            if kind == "skip":
                value = _zero_value(ty)
            elif kind == "mem":
                self._flip_memory(plan)
            elif kind == "multi":
                value = _flip(value, ty, plan.bit, plan.lane)
                for extra_bit in plan.bits:
                    value = _flip(value, ty, extra_bit, plan.lane)
            else:  # "reg" — the paper's single-bit model
                value = _flip(value, ty, plan.bit, plan.lane)
            cursor += 1
        self._next_plan = cursor
        self.fault_injected = True
        self.fault_target = inst  # what the SEU hit (for analyses/tests)
        return value

    def _flip_memory(self, plan: FaultPlan) -> None:
        """MemoryBitFlip payload: flip one bit of a live heap byte. The
        eligible instruction only *times* the upset; its result is left
        intact. Restricted to the heap (globals + rt.alloc) — stack
        depth varies across schemes, so a heap-relative offset is the
        only placement that hits comparable state in native and hardened
        builds. An empty heap makes the flip a no-op."""
        mem = self.memory
        live = mem.heap_top - HEAP_BASE
        if live <= 0:
            return
        mem._heap[plan.offset % live] ^= 1 << (plan.bit % 8)
        self.fault_injected = True

    def _checker_step(self, value, inst: Instruction):
        """Count (and possibly corrupt) a checker-site result. Called
        from the per-eligible hook of both engines when the checker
        stream is needed; non-checker instructions pass through."""
        if not _is_checker_site(inst):
            return value
        index = self.checker_sites_executed
        self.checker_sites_executed = index + 1
        if self._watch_checker is not None:
            # The hook may arm plans aimed at this very site (batch lane
            # fork), so the plan list and cursor are read after it.
            self._watch_checker(inst, index)
        plans = self._checker_plans
        cursor = self._next_checker_plan
        if cursor >= len(plans) or index != plans[cursor].target_index:
            return value
        ty = inst.type
        while cursor < len(plans) and plans[cursor].target_index == index:
            plan = plans[cursor]
            value = _flip(value, ty, plan.bit, plan.lane)
            cursor += 1
        self._next_checker_plan = cursor
        self.fault_injected = True
        self.fault_target = inst
        return value

    def _mem_step(self, addr: int, inst: Instruction) -> int:
        """Count a dynamic load/store and, when an ``addr`` plan fires,
        corrupt its effective address for this one access. Runs *after*
        address computation (so after any hardening check on the address
        value) and *before* the memory access and cache bookkeeping —
        the paper's post-check window on extracted scalar addresses."""
        index = self.mem_accesses_eligible
        self.mem_accesses_eligible = index + 1
        if self._watch_mem is not None:
            self._watch_mem(inst, index)
        plans = self._mem_plans
        cursor = self._next_mem_plan
        if cursor >= len(plans) or index != plans[cursor].target_index:
            return addr
        while cursor < len(plans) and plans[cursor].target_index == index:
            addr = (addr ^ (1 << (plans[cursor].bit % 64))) & _MASK64
            cursor += 1
        self._next_mem_plan = cursor
        self.fault_injected = True
        self.fault_target = inst
        return addr

    def _branch_step(self, taken: bool, inst: Instruction) -> bool:
        """Count a dynamic conditional branch and, when a ``branch``
        plan fires, invert its decision — a wrong-path fault *after* the
        ptest/branch synchronisation point."""
        index = self.cond_branches_eligible
        self.cond_branches_eligible = index + 1
        if self._watch_branch is not None:
            self._watch_branch(inst, index)
        plans = self._branch_plans
        cursor = self._next_branch_plan
        if cursor >= len(plans) or index != plans[cursor].target_index:
            return taken
        while cursor < len(plans) and plans[cursor].target_index == index:
            taken = not taken
            cursor += 1
        self._next_branch_plan = cursor
        self.fault_injected = True
        self.fault_target = inst
        return taken

    # Execution ------------------------------------------------------------------------

    def run(self, fn_name: str, args: Sequence = (), reset_counters: bool = False) -> RunResult:
        fn = self.module.get_function(fn_name)
        if fn.is_declaration:
            raise ValueError(f"cannot run declaration @{fn_name}")
        if reset_counters:
            self.counters = PerfCounters()
            self.counters.collect_by_opcode = self.config.collect_by_opcode
            if self.timing is not None:
                self.timing.reset()
            self._executed = 0
        arg_values = list(args)
        if len(arg_values) != len(fn.args):
            raise TypeError(
                f"@{fn_name} expects {len(fn.args)} args, got {len(arg_values)}"
            )
        # A previous run abandoned after a Trap leaves stale entries in
        # the position registries (they are popped by normal unwinding,
        # but a machine is allowed to be rerun after a caught Trap).
        if self._frames:
            self._frames.clear()
        if self._call_sites:
            self._call_sites.clear()
        saved_limit = sys.getrecursionlimit()
        if saved_limit < _RUN_RECURSION_LIMIT:
            sys.setrecursionlimit(_RUN_RECURSION_LIMIT)
        try:
            engine = self.config.engine
            if _ENGINE_SPECS.get(engine, None) is None:
                if engine not in _ENGINE_SPECS:
                    raise ValueError(
                        f"unknown engine {engine!r}; registered engines: "
                        + ", ".join(registered_engines())
                    )
                value = self._exec_function(
                    fn, arg_values, [0.0] * len(arg_values), 0
                )
            else:
                value = _engine_runner(engine)(self, fn, arg_values)
        finally:
            if saved_limit < _RUN_RECURSION_LIMIT:
                sys.setrecursionlimit(saved_limit)
        cycles = self.timing.cycles if self.timing is not None else 0.0
        ilp = self.timing.ilp if self.timing is not None else 0.0
        return RunResult(
            value=value,
            output=self.output,
            counters=self.counters,
            cycles=cycles,
            ilp=ilp,
            fault_injected=self.fault_injected,
        )

    # Snapshot / restore -----------------------------------------------------------------

    def snapshot(self) -> "MachineSnapshot":
        """Capture the machine's *between-runs* architectural state.

        Valid only while no ``run()`` is in progress (the live Python
        call stack of a run cannot be captured). Everything a later
        :meth:`restore` needs to make the next run bit-identical to a
        run from this point is copied: the used prefixes of heap and
        stack, the output list, counters, cache, predictor and timing
        state, branch-PC numbering, the instruction budget cursor, and
        the complete fault-plumbing state (plans, cursors, stream
        counters, hooks). Pure caches that cannot affect results
        (``_static_info``, ``_eligible_fn_cache``, the module's decoded
        form) are deliberately *not* part of a snapshot.
        """
        heap, heap_top, stack, stack_top = self.memory.image()
        return MachineSnapshot(
            heap=heap,
            stack=stack,
            heap_top=heap_top,
            stack_top=stack_top,
            output=list(self.output),
            counters=copy.deepcopy(self.counters),
            cache=copy.deepcopy(self.cache),
            predictor=copy.deepcopy(self.predictor),
            timing=copy.deepcopy(self.timing),
            branch_pcs=dict(self._branch_pcs),
            next_pc=self._next_pc,
            executed=self._executed,
            fault_state=(
                list(self.fault_plans), self._next_plan,
                list(self._checker_plans), self._next_checker_plan,
                list(self._mem_plans), self._next_mem_plan,
                list(self._branch_plans), self._next_branch_plan,
                self.fault_injected, self.fault_target,
                self.eligible_executed, self.checker_sites_executed,
                self.mem_accesses_eligible, self.cond_branches_eligible,
            ),
            count_only=self._count_only,
            trace_eligible=self._trace_eligible,
            watches=(self._watch_checker, self._watch_mem,
                     self._watch_branch),
        )

    def restore(self, snap: "MachineSnapshot") -> None:
        """Return the machine to a state captured by :meth:`snapshot`;
        the next ``run()`` is bit-identical to one started right after
        the snapshot was taken (the round-trip property test pins
        this). Memory the machine touched *after* the snapshot is
        re-zeroed, so a restored machine is indistinguishable from a
        fresh one with the snapshot replayed onto it."""
        self.memory.load_image(snap.heap, snap.heap_top,
                               snap.stack, snap.stack_top)
        self.output = list(snap.output)
        self.counters = copy.deepcopy(snap.counters)
        self.cache = copy.deepcopy(snap.cache)
        self.predictor = copy.deepcopy(snap.predictor)
        self.timing = copy.deepcopy(snap.timing)
        self._branch_pcs = dict(snap.branch_pcs)
        self._next_pc = snap.next_pc
        self._executed = snap.executed
        (self.fault_plans, self._next_plan,
         self._checker_plans, self._next_checker_plan,
         self._mem_plans, self._next_mem_plan,
         self._branch_plans, self._next_branch_plan,
         self.fault_injected, self.fault_target,
         self.eligible_executed, self.checker_sites_executed,
         self.mem_accesses_eligible, self.cond_branches_eligible,
         ) = snap.fault_state
        self.fault_plans = list(self.fault_plans)
        self._checker_plans = list(self._checker_plans)
        self._mem_plans = list(self._mem_plans)
        self._branch_plans = list(self._branch_plans)
        self._count_only = snap.count_only
        self._trace_eligible = snap.trace_eligible
        self._trace_skip_until = -1
        self._watch_checker, self._watch_mem, self._watch_branch = (
            snap.watches
        )
        # Between-runs invariants (restore targets a quiescent machine;
        # an aborted run may have left these mid-frame).
        self._current_fn = None
        self._depth = -1
        self._mem_stream_live = False
        self._branch_stream_live = False
        self._frames.clear()
        self._call_sites.clear()
        self._refresh_fault_mode()

    # The core loop ---------------------------------------------------------------------

    def _exec_function(self, fn: Function, args: List, arg_times: List[float],
                       depth: int):
        if depth > self.config.max_call_depth:
            raise HangError(f"call depth exceeded in @{fn.name}")
        frame: Dict[Value, object] = {}
        times: Dict[Value, float] = {}
        for formal, actual, ready in zip(fn.args, args, arg_times):
            frame[formal] = actual
            times[formal] = ready
        mark = self.memory.stack_mark()
        caller = self._current_fn
        self._current_fn = fn
        prev_mem = self._mem_stream_live
        prev_branch = self._branch_stream_live
        if self._fault_active:
            in_eligible = self._fault_eligible_fn(fn)
            self._mem_stream_live = in_eligible and self._mem_stream_needed
            self._branch_stream_live = (
                in_eligible and self._branch_stream_needed
            )
        try:
            return self._exec_blocks(fn, frame, times, depth)
        finally:
            self._current_fn = caller
            self._mem_stream_live = prev_mem
            self._branch_stream_live = prev_branch
            self.memory.stack_release(mark)

    def _exec_blocks(self, fn: Function, frame: Dict, times: Dict, depth: int):
        counters = self.counters
        timing = self.timing
        costs = self.config.cost_model
        static_info = self._static_info
        eligible = self._fault_eligible_fn(fn)
        block = fn.entry
        prev: Optional[BasicBlock] = None

        while True:
            insts = block.instructions
            start_index = 0

            # Phis: evaluated in parallel against the incoming edge.
            if prev is not None and isinstance(insts[0], PhiInst):
                moves = []
                for inst in insts:
                    if not isinstance(inst, PhiInst):
                        break
                    start_index += 1
                    incoming = inst.incoming_for(prev)
                    moves.append(
                        (inst, self._eval(incoming, frame), times.get(incoming, 0.0))
                    )
                for phi, value, ready in moves:
                    value = self._maybe_inject(phi, value, eligible)
                    frame[phi] = value
                    times[phi] = ready
            else:
                while start_index < len(insts) and isinstance(
                    insts[start_index], PhiInst
                ):
                    start_index += 1

            for idx in range(start_index, len(insts)):
                inst = insts[idx]
                self._executed += 1
                if self._executed > self.config.max_instructions:
                    raise HangError(
                        f"instruction budget exceeded ({self.config.max_instructions})"
                    )
                opcode = inst.opcode
                counters.instructions += 1
                counters.count(opcode)
                # Static per-instruction facts (vector-ness, uop count)
                # never change across executions; cache them.
                static = static_info.get(id(inst))
                if static is None:
                    static = _compute_static(inst, costs)
                    static_info[id(inst)] = static
                is_avx, is_vec_alu, uops = static
                if is_avx:
                    counters.avx_instructions += 1

                # --- Terminators -------------------------------------------------
                if opcode == "br":
                    counters.branches += 1
                    counters.uops += uops
                    block, prev = self._exec_branch(inst, frame, times, counters,
                                                    timing, costs), block
                    break
                if opcode == "ret":
                    counters.uops += uops
                    if timing is not None:
                        operand_times = [times.get(op, 0.0) for op in inst.operands]
                        timing.issue("ret", costs.scalar["ret"], operand_times,
                                     uops=uops)
                    if inst.operands:
                        return self._eval(inst.operands[0], frame)
                    return None
                if opcode == "unreachable":
                    raise MemoryFault(0, 0)

                # --- Everything else ----------------------------------------------
                value, latency, extra = self._exec_inst(inst, frame, times, depth)
                value = self._maybe_inject(inst, value, eligible)
                if not inst.type.is_void:
                    frame[inst] = value
                counters.uops += uops
                if timing is not None:
                    operand_times = [times.get(op, 0.0) for op in inst.operands]
                    done = timing.issue(
                        opcode, latency, operand_times, extra,
                        uops=uops, is_vector=is_vec_alu,
                    )
                    if not inst.type.is_void:
                        times[inst] = done
            else:
                raise MemoryFault(0, 0)  # fell off a block with no terminator

    def _exec_branch(self, inst: BranchInst, frame, times, counters, timing, costs):
        if not inst.is_conditional:
            if timing is not None:
                timing.issue("br", costs.scalar["br"], ())
            return inst.then_block
        counters.cond_branches += 1
        cond = self._eval(inst.cond, frame)
        taken = bool(cond)
        if self._branch_stream_live:
            taken = self._branch_step(taken, inst)
        pc = self._branch_pcs.get(id(inst))
        if pc is None:
            pc = self._next_pc
            self._next_pc += 1
            self._branch_pcs[id(inst)] = pc
        correct = self.predictor.predict_and_update(pc, taken)
        if timing is not None:
            resolve = timing.issue(
                "br", costs.scalar["br"], [times.get(inst.cond, 0.0)]
            )
            if not correct:
                counters.branch_misses += 1
                timing.branch_mispredict(resolve)
        elif not correct:
            counters.branch_misses += 1
        return inst.then_block if taken else inst.else_block

    # Instruction semantics ------------------------------------------------------------

    def _exec_inst(self, inst: Instruction, frame: Dict, times: Dict, depth: int):
        """Returns (value, latency, extra_latency)."""
        opcode = inst.opcode
        costs = self.config.cost_model
        counters = self.counters
        ty = inst.type

        if isinstance(inst, BinaryInst):
            a = self._eval(inst.lhs, frame)
            b = self._eval(inst.rhs, frame)
            elem = ty.elem if ty.is_vector else ty
            if elem.is_float:
                counters.fp_instructions += 1
            if opcode in ("sdiv", "udiv", "srem", "urem"):
                counters.int_div_instructions += 1
            if ty.is_vector:
                if elem.is_float:
                    value = tuple(
                        _float_binop(opcode, x, y, elem.bits) for x, y in zip(a, b)
                    )
                else:
                    width = elem.width
                    value = tuple(
                        _int_binop(opcode, x, y, width) for x, y in zip(a, b)
                    )
                return value, costs.vector_latency(opcode, elem), 0.0
            if elem.is_float:
                return _float_binop(opcode, a, b, elem.bits), costs.scalar_latency(opcode), 0.0
            return _int_binop(opcode, a, b, elem.width), costs.scalar_latency(opcode), 0.0

        if isinstance(inst, ICmpInst):
            a = self._eval(inst.lhs, frame)
            b = self._eval(inst.rhs, frame)
            oty = inst.lhs.type
            fun = _ICMP[inst.pred]
            if oty.is_vector:
                width = T.bitwidth(oty.elem) if not oty.elem.is_float else 64
                value = tuple(1 if fun(x, y, width) else 0 for x, y in zip(a, b))
                return value, costs.vector_latency("icmp"), 0.0
            width = T.bitwidth(oty)
            return (1 if fun(a, b, width) else 0), costs.scalar_latency("icmp"), 0.0

        if isinstance(inst, FCmpInst):
            a = self._eval(inst.lhs, frame)
            b = self._eval(inst.rhs, frame)
            counters.fp_instructions += 1
            fun = _FCMP[inst.pred]
            if inst.lhs.type.is_vector:
                value = tuple(1 if fun(x, y) else 0 for x, y in zip(a, b))
                return value, costs.vector_latency("fcmp"), 0.0
            return (1 if fun(a, b) else 0), costs.scalar_latency("fcmp"), 0.0

        if isinstance(inst, CastInst):
            value = self._eval(inst.value, frame)
            src = inst.value.type
            if ty.is_vector:
                out = tuple(
                    _cast_scalar(opcode, v, src.elem, ty.elem) for v in value
                )
                return out, costs.vector_latency(opcode), 0.0
            return (
                _cast_scalar(opcode, value, src, ty),
                costs.scalar_latency(opcode),
                0.0,
            )

        if isinstance(inst, LoadInst):
            addr = self._eval(inst.ptr, frame)
            if self._mem_stream_live:
                addr = self._mem_step(addr, inst)
            counters.loads += 1
            value = self.memory.load_value(ty, addr)
            extra = self._mem_access(addr, T.sizeof(ty))
            latency = costs.vector_latency("load") if ty.is_vector else costs.scalar_latency("load")
            return value, latency, extra

        if isinstance(inst, StoreInst):
            addr = self._eval(inst.ptr, frame)
            if self._mem_stream_live:
                addr = self._mem_step(addr, inst)
            value = self._eval(inst.value, frame)
            counters.stores += 1
            vty = inst.value.type
            self.memory.store_value(vty, addr, value)
            self._mem_access(addr, T.sizeof(vty))  # miss accounting only
            latency = costs.vector_latency("store") if vty.is_vector else costs.scalar_latency("store")
            return None, latency, 0.0

        if isinstance(inst, AllocaInst):
            size = T.sizeof(inst.allocated_type) * inst.count
            addr = self.memory.stack_alloc(size)
            return addr, costs.scalar_latency("alloca"), 0.0

        if isinstance(inst, GepInst):
            base = self._eval(inst.ptr, frame)
            index = self._eval(inst.index, frame)
            esize = T.sizeof(inst.elem_type)
            ity = inst.index.type
            if ty.is_vector:
                iw = ity.elem.width if ity.is_vector else ity.width
                idxs = index if ity.is_vector else (index,) * ty.count
                bases = base if inst.ptr.type.is_vector else (base,) * ty.count
                value = tuple(
                    (p + _to_signed(i, iw) * esize) & _MASK64
                    for p, i in zip(bases, idxs)
                )
                return value, costs.vector_latency("gep"), 0.0
            value = (base + _to_signed(index, ity.width) * esize) & _MASK64
            return value, costs.scalar_latency("gep"), 0.0

        if isinstance(inst, CallInst):
            return self._exec_call(inst, frame, times, depth)

        if isinstance(inst, SelectInst):
            cond = self._eval(inst.cond, frame)
            tval = self._eval(inst.tval, frame)
            fval = self._eval(inst.fval, frame)
            latency = (
                costs.vector_latency("select") if ty.is_vector
                else costs.scalar_latency("select")
            )
            if inst.cond.type.is_vector:
                value = tuple(t if c else f for c, t, f in zip(cond, tval, fval))
                return value, latency, 0.0
            return (tval if cond else fval), latency, 0.0

        if isinstance(inst, ExtractElementInst):
            vec = self._eval(inst.vec, frame)
            index = self._eval(inst.index, frame)
            if not 0 <= index < len(vec):
                raise MemoryFault(index, 0)
            return vec[index], costs.vector_latency("extractelement"), 0.0

        if isinstance(inst, InsertElementInst):
            vec = list(self._eval(inst.vec, frame))
            elem = self._eval(inst.elem, frame)
            index = self._eval(inst.index, frame)
            if not 0 <= index < len(vec):
                raise MemoryFault(index, 0)
            vec[index] = elem
            return tuple(vec), costs.vector_latency("insertelement"), 0.0

        if isinstance(inst, ShuffleVectorInst):
            v1 = self._eval(inst.v1, frame)
            v2 = self._eval(inst.v2, frame)
            joined = tuple(v1) + tuple(v2)
            value = tuple(joined[i] for i in inst.mask)
            return value, costs.vector_latency("shufflevector"), 0.0

        if isinstance(inst, BroadcastInst):
            scalar = self._eval(inst.scalar, frame)
            return (scalar,) * ty.count, costs.vector_latency("broadcast"), 0.0

        raise TypeError(f"cannot execute {inst!r}")

    def _mem_access(self, addr: int, size: int) -> float:
        counters = self.counters
        counters.l1_accesses += 1
        if self.cache is None:
            return float(C.MEM_LATENCY[1])
        level, latency = self.cache.access(addr, size)
        if level >= 2:
            counters.l1_misses += 1
        if level >= 3:
            counters.l2_misses += 1
        if level >= 4:
            counters.l3_misses += 1
        return latency

    # Calls ---------------------------------------------------------------------------

    def _exec_call(self, inst: CallInst, frame: Dict, times: Dict, depth: int):
        costs = self.config.cost_model
        callee = inst.callee
        arg_values = [self._eval(a, frame) for a in inst.args]
        self.counters.calls += 1
        if callee.is_intrinsic:
            value = self._call_intrinsic(callee.name, arg_values, inst)
            return value, costs.intrinsic_latency(callee.name), 0.0
        if callee.is_declaration:
            raise Trap(f"call to undefined function @{callee.name}")
        arg_times = [times.get(a, 0.0) for a in inst.args]
        value = self._exec_function(callee, arg_values, arg_times, depth + 1)
        return value, costs.scalar_latency("call"), 0.0

    def _call_intrinsic(self, name: str, args: List, inst: CallInst):
        counters = self.counters
        if name.startswith("elzar.check_dmr."):
            lanes = args[0]
            keyed = _lane_keys(lanes, inst.type.elem)
            if avxops.lanes_all_equal(keyed):
                return lanes
            counters.detections += 1
            raise DetectedError("ELZAR-DMR check: lanes diverged")
        if name.startswith("elzar.branch_cond_dmr."):
            lanes = args[0]
            kind = avxops.ptest_classify(lanes)
            if kind == 2:
                counters.detections += 1
                raise DetectedError("ELZAR-DMR branch: true/false mix")
            return kind
        if name.startswith("elzar.check."):
            lanes = args[0]
            keyed = _lane_keys(lanes, inst.type.elem)
            if avxops.lanes_all_equal(keyed):
                return lanes
            counters.corrections += 1
            try:
                majority = avxops.majority_value(keyed)
            except avxops.NoMajorityError as exc:
                counters.recoveries_failed += 1
                raise DetectedError(str(exc)) from exc
            value = _key_to_value(majority, inst.type.elem)
            return (value,) * len(lanes)
        if name.startswith("elzar.branch_cond_nocheck."):
            # Unchecked AVX branch: ptest + je — "all lanes true" wins.
            lanes = args[0]
            return 1 if all(lanes) else 0
        if name.startswith("elzar.branch_cond."):
            lanes = args[0]
            kind = avxops.ptest_classify(lanes)
            if kind == 2:
                counters.corrections += 1
                try:
                    majority = avxops.majority_value(tuple(lanes))
                except avxops.NoMajorityError as exc:
                    counters.recoveries_failed += 1
                    raise DetectedError(str(exc)) from exc
                return 1 if majority else 0
            return kind
        if name.startswith("tmr.vote."):
            a, b, c = args
            ty = inst.type
            ka, kb, kc = (_scalar_key(v, ty) for v in (a, b, c))
            if ka == kb and kb == kc:
                return a
            counters.corrections += 1
            if ka == kb or ka == kc:
                return a
            if kb == kc:
                return b
            counters.recoveries_failed += 1
            raise DetectedError("TMR vote: all three copies differ")
        if name.startswith("swift.check."):
            a, b = args
            ty = inst.type
            if _scalar_key(a, ty) != _scalar_key(b, ty):
                counters.detections += 1
                raise DetectedError("DMR check: copies diverged")
            return a
        if name == "rt.alloc":
            return self.memory.alloc(args[0])
        if name == "rt.print_i64":
            self.output.append(_to_signed(args[0], 64))
            return None
        if name == "rt.print_f64":
            self.output.append(float(args[0]))
            return None
        if name == "rt.abort":
            raise AbortError("rt.abort called")
        if name.startswith("host."):
            op = name[5:]
            if op == "pow":
                try:
                    return float(args[0] ** args[1])
                except (OverflowError, ZeroDivisionError, ValueError):
                    return math.nan
            fun = _HOST_UNARY.get(op)
            if fun is None:
                raise Trap(f"unknown host intrinsic {name}")
            try:
                return float(fun(args[0]))
            except (OverflowError, ValueError):
                return math.nan
        raise Trap(f"unknown intrinsic {name}")

    # Operand evaluation -----------------------------------------------------------------

    def _eval(self, op: Value, frame: Dict):
        if isinstance(op, Constant):
            return op.value
        if isinstance(op, (Instruction, Argument)):
            try:
                return frame[op]
            except KeyError:
                raise Trap(f"use of undefined value {op.ref()}") from None
        if isinstance(op, GlobalVariable):
            return self.globals_addr[op.name]
        if isinstance(op, UndefValue):
            if op.type.is_vector:
                return (0,) * op.type.count
            return 0.0 if op.type.is_float else 0
        if isinstance(op, Function):
            return op
        raise Trap(f"cannot evaluate operand {op!r}")


# --- Helpers -----------------------------------------------------------------------


def _cast_scalar(opcode: str, value, src: T.Type, dst: T.Type):
    if opcode == "trunc":
        return int(value) & ((1 << dst.width) - 1)
    if opcode == "zext":
        return int(value)
    if opcode == "sext":
        return _to_signed(int(value), src.width) & ((1 << dst.width) - 1)
    if opcode == "fptrunc":
        return _round_f32(value)
    if opcode == "fpext":
        return float(value)
    if opcode in ("fptosi", "fptoui"):
        if math.isnan(value) or math.isinf(value):
            return 0
        return int(value) & ((1 << dst.width) - 1)
    if opcode == "sitofp":
        result = float(_to_signed(int(value), src.width))
        return _round_f32(result) if dst.is_float and dst.bits == 32 else result
    if opcode == "uitofp":
        result = float(int(value))
        return _round_f32(result) if dst.is_float and dst.bits == 32 else result
    if opcode == "bitcast":
        return _bitcast_scalar(value, src, dst)
    if opcode == "ptrtoint":
        return int(value) & ((1 << dst.width) - 1)
    if opcode == "inttoptr":
        return int(value) & _MASK64
    raise ValueError(f"unknown cast {opcode}")


def _bitcast_scalar(value, src: T.Type, dst: T.Type):
    if T.sizeof(src) != T.sizeof(dst):
        raise Trap(f"bitcast between different sizes: {src} -> {dst}")
    if src.is_float and dst.is_int:
        return avxops.float_to_bits(value, src.bits)
    if src.is_int and dst.is_float:
        return avxops.bits_to_float(value, dst.bits)
    return value


def _scalar_key(value, ty: T.Type):
    """Comparable bit-pattern key (floats compared bitwise so that NaN
    copies are equal and +0.0 != -0.0, matching register comparison)."""
    if ty.is_float:
        return avxops.float_to_bits(value, ty.bits)
    return value


def _lane_keys(lanes, elem: T.Type):
    if elem.is_float:
        return tuple(avxops.float_to_bits(v, elem.bits) for v in lanes)
    return tuple(lanes)


def _key_to_value(key, elem: T.Type):
    if elem.is_float:
        return avxops.bits_to_float(key, elem.bits)
    return key


#: Intrinsic-name prefixes of hardening-inserted check/vote/sync calls.
_CHECKER_PREFIXES = ("elzar.", "tmr.vote.", "swift.check.")


def _is_checker_site(inst: Instruction) -> bool:
    """Structural predicate for the CheckerFault target set: results of
    instructions the hardening passes insert around synchronisation
    points — check/vote/branch-sync intrinsic calls plus the
    extract/broadcast pair of every to-scalar/from-scalar wrapper. The
    test is purely structural (opcode + callee-name prefix), so it
    survives IR printing/parsing and keeps durable store keys stable."""
    opcode = inst.opcode
    if opcode in ("extractelement", "broadcast"):
        return True
    if opcode == "call":
        callee = inst.callee
        return callee.is_intrinsic and callee.name.startswith(
            _CHECKER_PREFIXES
        )
    return False


def _zero_value(ty: T.Type):
    """Type-appropriate zero for the InstructionSkip model (the skipped
    instruction's destination register reads as if never written)."""
    if ty.is_vector:
        zero = 0.0 if ty.elem.is_float else 0
        return (zero,) * ty.count
    return 0.0 if ty.is_float else 0


def _flip(value, ty: T.Type, bit: int, lane: int):
    """Apply a single-event upset to an instruction result.

    Scalars live in 64-bit registers: a flip above the value's width
    hits architecturally dead bits and is immediately masked (the bit
    is drawn from [0, 64), matching the paper's GPR injections). SIMD
    lanes are fully packed, so lane flips always land in live bits.
    """
    if ty.is_vector:
        lane = lane % ty.count
        lst = list(value)
        lst[lane] = _flip_lane(lst[lane], ty.elem, bit)
        return tuple(lst)
    width = T.bitwidth(ty)
    if bit % 64 >= width:
        return value  # dead upper register bits
    if ty.is_float:
        return avxops.flip_bit_float(value, bit % width, ty.bits)
    return avxops.flip_bit_int(int(value), bit % width, width)


def _flip_lane(value, elem: T.Type, bit: int):
    if elem.is_float:
        return avxops.flip_bit_float(value, bit % elem.bits, elem.bits)
    width = T.bitwidth(elem)
    return avxops.flip_bit_int(int(value), bit % width, width)
