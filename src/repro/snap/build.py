"""Checkpoint-set builder: one golden capture run per cell, shared by
every fabric through the content-addressed store.

``build_checkpoints`` is the single entry point: it resolves the
content key, serves the set from the in-process cache or the on-disk
:class:`~repro.toolchain.cache.ArtifactCache`, and only on a true cold
start pays one ``count_only`` golden run on the resumable trampoline with
a :class:`CapturePolicy` attached. The resulting
:class:`CheckpointSet` resolves fault plans to the nearest checkpoint
at or before their dynamic site (:meth:`CheckpointSet.nearest`).

A set read from the cache decodes nothing up front: it keeps the
sealed state blobs and each state's stream marks (from the set's
meta), chooses among states by their marks, and decodes a state the
first time a plan selects it or the reconvergence poll reads it.

The set also drives the *reconvergence poll* (:class:`ReconvergencePoll`),
the capture hook an injection run carries: once every plan has fired,
it compares the live machine with each golden state after the fault
site and, on an exact match, ends the run (:class:`Reconverged`); the
rest of the run is the golden run's (docs/CHECKPOINT.md,
"Reconvergence").
"""

from __future__ import annotations

import collections.abc
import struct
import threading
from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

from ..cpu.compiled import _NEVER
from ..cpu.engine import decoded_module, live_masks
from ..cpu.resumable import ResumeState, capture_state, run_resumable, \
    stream_mark
from ..toolchain.cache import DECODE_ERRORS, ArtifactCache
from .format import SnapFormatError, deserialize_state, serialize_state
from .store import SNAPSET_SUFFIX, GoldenEnd, StreamMarks, checkpoint_key, \
    machine_key, marks_meta, parse_set, render_set, set_end, set_marks

#: Below this many eligible instructions the golden prefix is too short
#: for checkpoints to pay for their capture run and restore cost;
#: every injection then resumes the start state.
MIN_ELIGIBLE = 2048

#: Captures are spaced uniformly along the eligible stream, one every
#: ``max(MIN_INTERVAL, eligible // CAPTURES)`` eligible instructions,
#: because the injector picks a plan's site uniformly along the stream
#: (protected or exposed code alike). That caps a set at CAPTURES
#: states.
CAPTURES = 24
MIN_INTERVAL = 256


def capture_interval(eligible: int) -> int:
    """Eligible instructions between two captures of a golden run of
    ``eligible`` eligible instructions."""
    return max(MIN_INTERVAL, eligible // CAPTURES)

#: The stream names in the shape of marks: ``stream_mark(_STREAMS,
#: plan)`` names the stream ``plan``'s fault site is counted on.
_STREAMS = StreamMarks(*StreamMarks._fields)


class CheckpointSet:
    """One cell's mid-run checkpoints, sorted by eligible index.

    Each slot holds a decoded :class:`ResumeState` or, for a set read
    from the cache, the state's blob until a plan first selects it
    (:meth:`nearest`) or the reconvergence poll reads it; the decoded
    state replaces the blob. ``states`` is a sequence view: its length
    costs no decode, indexing decodes that one state. ``end`` is where
    the golden run ends (None: unknown, so no poll).
    """

    def __init__(self, key: str, marks: Sequence[StreamMarks],
                 slots: list, from_cache: bool, machine=None,
                 cache: Optional[ArtifactCache] = None,
                 end: Optional[GoldenEnd] = None):
        self.key = key
        self.from_cache = from_cache
        self.end = end
        self._marks = tuple(marks)
        self._columns = {name: [getattr(m, name) for m in self._marks]
                         for name in StreamMarks._fields}
        self._slots = slots
        # Per state, what the poll compares of each frame's registers
        # (:meth:`live`), filled on first use.
        self._live: list = [None] * len(slots)
        # What a first-use decode needs: the module build the blobs'
        # coordinates are relative to, and where the entry lives.
        self._machine = machine
        self._cache = cache
        self._lock = threading.Lock()
        #: States decoded from blobs in this process.
        self.decoded = 0

    @classmethod
    def captured(cls, key: str, states: Sequence[ResumeState],
                 end: Optional[GoldenEnd] = None,
                 machine=None) -> "CheckpointSet":
        """A set of states in memory (a capture run's on ``machine``)."""
        return cls(key, marks=[_marks_of(s) for s in states],
                   slots=list(states), from_cache=False, machine=machine,
                   end=end)

    @property
    def polls(self) -> bool:
        """Whether injections from this set carry the reconvergence
        poll: its outcome rule needs a golden run that corrects
        nothing, since a reconverged run's tail is the golden's."""
        return self.end is not None and self.end.corrections == 0

    @property
    def states(self) -> "_States":
        return _States(self)

    @property
    def marks(self) -> List[int]:
        return [m.eligible for m in self._marks]

    def _index(self, plan) -> int:
        """Index of the latest checkpoint that still reaches ``plan``'s
        fault site (the first of several at the same mark), or -1 (site
        earlier than every checkpoint). States are in capture order,
        so every stream's marks are non-decreasing along the set."""
        marks = self._columns[stream_mark(_STREAMS, plan)]
        j = bisect_right(marks, plan.target_index) - 1
        return j if j < 0 else bisect_left(marks, marks[j])

    def nearest(self, plan) -> Optional[ResumeState]:
        """The latest checkpoint that still reaches ``plan``'s fault
        site, or None (site earlier than every checkpoint)."""
        i = self._index(plan)
        return None if i < 0 else self.state(i)

    def _after(self, plan) -> int:
        """Index of the first checkpoint past ``plan``'s fault site on
        its stream: where the reconvergence poll starts."""
        marks = self._columns[stream_mark(_STREAMS, plan)]
        return bisect_right(marks, plan.target_index)

    def reachable(self, plans) -> List[int]:
        """Indices of the states injections of ``plans`` can read, in
        order: what :meth:`nearest` returns for each, and, where the
        set polls, every state past the earliest of their fault
        sites."""
        resumed, polled = self._reads(plans)
        return sorted(resumed.union(polled))

    def _reads(self, plans) -> Tuple[set, range]:
        """The states injections of ``plans`` resume (a set) and the
        states their polls can compare (a range)."""
        resumed = set()
        first = len(self._slots)
        for plan in plans:
            resumed.add(self._index(plan))
            first = min(first, self._after(plan))
        resumed.discard(-1)
        return resumed, range(first if self.polls else len(self._slots),
                              len(self._slots))

    def prefetch(self, plans) -> None:
        """Decode now every state injections of ``plans`` can read
        (:meth:`reachable`), and find the live registers of every state
        their polls can compare (:meth:`live`): before forking workers,
        so they inherit both."""
        resumed, polled = self._reads(plans)
        for i in sorted(resumed.union(polled)):
            self.state(i)
        for i in polled:
            self.live(i)

    def live(self, i: int) -> tuple:
        """What the poll compares of state ``i``'s registers: per frame,
        the live slots and their golden values. The innermost frame's
        live slots are those live before its cursor's record; a
        suspended caller's are those live after its call record, but
        for the call's destination, which the return writes. Liveness
        is computed once per function (``live_masks``)."""
        live = self._live[i]
        if live is None:
            state = self.state(i)
            machine = self._machine
            module = machine.module
            dmod = decoded_module(module, machine.config.cost_model,
                                  machine.globals_addr)
            inner = len(state.frames) - 1
            live = []
            for depth, fs in enumerate(state.frames):
                dfn = dmod.function(module.get_function(fs.fn))
                masks = live_masks(dfn)[fs.block]
                if depth == inner:
                    mask = masks[fs.i]
                else:
                    dst = dfn.blocks[fs.block].call_meta[fs.i][1]
                    mask = masks[fs.i + 1] & ~(1 << dst if dst >= 0 else 0)
                slots = tuple(s for s in range(mask.bit_length())
                              if mask >> s & 1)
                live.append((slots, tuple(fs.regs[s] for s in slots)))
            live = self._live[i] = tuple(live)
        return live

    def state(self, i: int) -> ResumeState:
        """State ``i``, decoded on first use. A blob that does not
        decode to the state its marks describe removes the set from
        the cache and this process and raises
        :class:`SnapFormatError` — it never resumes."""
        slot = self._slots[i]
        if type(slot) is not bytes:
            return slot
        try:
            state = deserialize_state(slot, self._machine)
            if _marks_of(state) != self._marks[i]:
                raise SnapFormatError("state disagrees with its marks")
        except DECODE_ERRORS as exc:
            self._discard()
            raise SnapFormatError(
                f"checkpoint set {self.key}: state {i} does not decode "
                f"({exc})") from exc
        with self._lock:
            if type(self._slots[i]) is bytes:
                self._slots[i] = state
                self.decoded += 1
            return self._slots[i]

    def blob(self, i: int) -> bytes:
        """State ``i`` serialized: its stored blob while it is not
        decoded, else its encoding (a decoded state re-encodes to the
        bytes it was read from)."""
        slot = self._slots[i]
        if type(slot) is bytes:
            return slot
        return serialize_state(slot, self._machine)

    def _discard(self) -> None:
        self._machine.module._golden_cache.pop(("snap-set", self.key), None)
        if self._cache is not None:
            self._cache.invalidate(self.key, SNAPSET_SUFFIX)


def _marks_of(state: ResumeState) -> StreamMarks:
    return StreamMarks(*(getattr(state, name)
                         for name in StreamMarks._fields))


class _States(collections.abc.Sequence):
    """The states of a :class:`CheckpointSet`, decoded on access."""

    def __init__(self, cset: CheckpointSet):
        self._cset = cset

    def __len__(self) -> int:
        return len(self._cset._slots)

    def __getitem__(self, i: int) -> ResumeState:
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self._cset.state(i)


_F64 = struct.Struct("<d")


def same_bits(a, b) -> bool:
    """Whether two register values or output items are the same bits:
    the same type at every level (``True`` is not ``1``), floats
    compared by their IEEE-754 bits (``-0.0`` is not ``0.0``, NaN
    payloads are told apart, an equal NaN matches), lane tuples lane
    by lane. Python ``==`` answers none of these correctly."""
    if a is b:
        return True
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is float:
        return _F64.pack(a) == _F64.pack(b)
    if kind is tuple or kind is list:
        return len(a) == len(b) and all(map(same_bits, a, b))
    return a == b


def same_values(live: list, golden: tuple) -> bool:
    """:func:`same_bits` over a live register file or output list and
    its golden tuple. The C-level tuple compare rejects most
    mismatches first (bitwise equal implies ``==`` but for NaN, whose
    register then finds no match: a lost early exit, never a wrong
    outcome)."""
    return (len(live) == len(golden) and tuple(live) == golden
            and all(map(same_bits, live, golden)))


class Reconverged(Exception):
    """Raised by :class:`ReconvergencePoll` to end an injection run
    whose state is exactly a golden checkpoint's, so the rest of the
    run is the golden run's. ``executed`` is the instruction count the
    run would end at, ``corrections`` the corrections it made (the
    golden tail makes none). Not a :class:`~repro.cpu.errors.Trap`."""

    def __init__(self, executed: int, corrections: int):
        super().__init__(executed, corrections)
        self.executed = executed
        self.corrections = corrections


def _all_fired(M) -> bool:
    """Every armed plan has fired, on all four stream cursors."""
    return (M._next_plan >= len(M.fault_plans)
            and M._next_mem_plan >= len(M._mem_plans)
            and M._next_branch_plan >= len(M._branch_plans)
            and M._next_checker_plan >= len(M._checker_plans))


class ReconvergencePoll:
    """The capture hook of an injection run (``run_stack``'s
    ``capture``). :meth:`arm` points it at the first golden state past
    the plan's fault site; from then on, at each golden state's
    eligible mark, once every plan has fired, :meth:`take` compares
    the live machine with that state and on an exact match raises
    :class:`Reconverged`.

    Compared: both memory tops, the used heap and stack prefixes (in
    place, ``bytearray.startswith``: a memcmp, no copy), the output,
    every frame's function and block, cursor and stack mark, and the
    registers live at each frame's position (:meth:`CheckpointSet.live`),
    bit for bit (:func:`same_bits`). Not compared: dead registers,
    which nothing reads before it writes them again, and counters,
    timing, cache, predictor, branch-PC numbering, stream counters and
    ``executed``, none of which steers the program. A poll that falls
    where the golden run took no state (a run out of step) finds no
    match, which costs only the early exit, never an outcome."""

    __slots__ = ("next_index", "_cset", "_marks", "_k", "_taken")

    def __init__(self, cset: CheckpointSet):
        self._cset = cset
        self._marks = cset._columns["eligible"]
        self._k = len(self._marks)
        self._taken = 0
        self.next_index = _NEVER

    def arm(self, plan) -> None:
        k = self._k = self._cset._after(plan)
        self._taken = 0
        self.next_index = self._marks[k] if k < len(self._marks) else _NEVER

    def take(self, M, stack, executed) -> None:
        marks = self._marks
        # The latest due state: the one taken here, if the run is in
        # step with the golden run.
        k = bisect_right(marks, M.eligible_executed, self._k) - 1
        cset = self._cset
        if _all_fired(M) and _matches(M, stack, cset, k):
            raise Reconverged(executed + cset.end.executed
                              - cset.state(k).executed,
                              M.counters.corrections)
        # Each poll sends the block it falls in to the record path, and
        # a run that matches at all mostly matches at one of its first
        # three polls (fig13 cells at fi scale), so polls back off: they
        # fall 1, 1, 2, 4, 8... states apart.
        self._taken += 1
        k += 1 << max(self._taken - 2, 0)
        self._k = k
        self.next_index = marks[k] if k < len(marks) else _NEVER


def _matches(M, stack, cset: CheckpointSet, k: int) -> bool:
    """Whether the live machine is at ``cset``'s golden state ``k`` in
    everything the program can still read: the cheap checks first, the
    memcmps, then the live registers bit for bit."""
    state = cset.state(k)
    memory = M.memory
    if (memory.heap_top != state.heap_top
            or memory.stack_top != state.stack_top
            or len(stack) != len(state.frames)):
        return False
    for f, fs in zip(stack, state.frames):
        if (f.i != fs.i or f.mark != fs.mark or f.dfn.fn.name != fs.fn
                or f.dfn.blocks[fs.block] is not f.block):
            return False
    return (memory._heap.startswith(state.heap)
            and memory._stack.startswith(state.stack_mem)
            and same_values(M.output, state.output)
            and all(same_values([f.regs[s] for s in slots], golden)
                    for f, (slots, golden) in zip(stack, cset.live(k))))


class CapturePolicy:
    """The live capture hook :func:`repro.cpu.resumable.run_stack`
    drives: ``next_index`` is the eligible index at which to take the
    next checkpoint, ``take`` copies the state and re-arms one
    ``interval`` later."""

    __slots__ = ("interval", "next_index", "states")

    def __init__(self, interval: int):
        self.interval = interval
        # Skip index 0: a checkpoint at the very start is just the
        # start state (repro.cpu.resumable.start_state) the injection
        # session already holds.
        self.next_index = interval
        self.states: List[ResumeState] = []

    def take(self, M, stack, executed) -> None:
        self.states.append(capture_state(M, stack, executed))
        self.next_index = M.eligible_executed + self.interval


def build_checkpoints(module, entry: str, args: Sequence, *,
                      budget: int,
                      fault_eligible=None,
                      model: Optional[str] = None,
                      eligible: int,
                      cache: Optional[ArtifactCache] = None,
                      ) -> Optional[CheckpointSet]:
    """The cell's checkpoint set, from (in order) the module's golden
    cache, the content-addressed cache (``.snapset`` entries), or a
    fresh capture run. One set serves every fault model: each state
    records all four stream marks, and :meth:`CheckpointSet.nearest`
    bisects the one a plan counts on. ``model`` is ignored; the
    e2ebench harness still passes it.

    Returns None when checkpointing is off for this cell: unkeyable
    eligibility predicate (no safe content address), or a golden run
    too short to profit (``eligible < MIN_ELIGIBLE``). A stored set
    whose meta lacks per-state stream marks (written before they were
    recorded) is an invalid miss and is rebuilt.
    """
    from ..faults.campaign import _args_key, _eligibility_key, _fresh_machine

    ekey = _eligibility_key(fault_eligible)
    if ekey is None or eligible < MIN_ELIGIBLE:
        return None
    machine = _fresh_machine(module, max_instructions=budget,
                             fault_eligible=fault_eligible)
    key = checkpoint_key(module, entry, _args_key(args), ekey,
                         machine_key(machine.config))
    cache_slot = ("snap-set", key)
    cached = module._golden_cache.get(cache_slot)
    if cached is not None:
        return cached

    cache = cache if cache is not None else ArtifactCache()
    stored = cache.get(key, SNAPSET_SUFFIX, read_set)
    if stored is not None:
        blobs, marks, end = stored
        cset = CheckpointSet(key, marks, slots=blobs, from_cache=True,
                             machine=machine, cache=cache, end=end)
        module._golden_cache[cache_slot] = cset
        return cset

    # Cold: one count_only golden run on the trampoline, capturing at
    # uniformly spaced points.
    machine.count_only = True
    policy = CapturePolicy(capture_interval(eligible))
    result = run_resumable(machine, entry, args, capture=policy)
    states = policy.states
    end = GoldenEnd(machine._executed, result.counters.corrections)
    cset = CheckpointSet.captured(key, states, end, machine)
    module._golden_cache[cache_slot] = cset
    if cache.enabled and states:
        blobs = [serialize_state(s, machine) for s in states]
        cache.put(key, SNAPSET_SUFFIX, render_set(blobs, meta={
            "module": module.name,
            "entry": entry,
            "budget": budget,
            "streams": marks_meta(states),
            "end": list(end),
        }))
    return cset


def read_set(body: bytes) -> Tuple[List[bytes], Tuple[StreamMarks, ...],
                                   GoldenEnd]:
    """``(state blobs, per-state marks, golden end)`` of a stored set;
    raises :class:`SnapFormatError` on a framing error or a meta
    without marks or end."""
    blobs, meta = parse_set(body)
    return blobs, set_marks(meta, len(blobs)), set_end(meta)
