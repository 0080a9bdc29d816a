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
first time a plan selects it.
"""

from __future__ import annotations

import collections.abc
import threading
from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

from ..cpu.resumable import ResumeState, capture_state, run_resumable, \
    stream_mark
from ..toolchain.cache import DECODE_ERRORS, ArtifactCache
from .format import SnapFormatError, deserialize_state, serialize_state
from .store import SNAPSET_SUFFIX, StreamMarks, checkpoint_key, \
    machine_key, marks_meta, parse_set, render_set, set_marks

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
    (:meth:`nearest`); the decoded state replaces the blob. ``states``
    is a sequence view: its length costs no decode, indexing decodes
    that one state.
    """

    def __init__(self, key: str, marks: Sequence[StreamMarks],
                 slots: list, from_cache: bool, machine=None,
                 cache: Optional[ArtifactCache] = None):
        self.key = key
        self.from_cache = from_cache
        self._marks = tuple(marks)
        self._columns = {name: [getattr(m, name) for m in self._marks]
                         for name in StreamMarks._fields}
        self._slots = slots
        # What a first-use decode needs: the module build the blobs'
        # coordinates are relative to, and where the entry lives.
        self._machine = machine
        self._cache = cache
        self._lock = threading.Lock()
        #: States decoded from blobs in this process.
        self.decoded = 0

    @classmethod
    def captured(cls, key: str,
                 states: Sequence[ResumeState]) -> "CheckpointSet":
        """A set of states in memory (a capture run's)."""
        return cls(key, marks=[_marks_of(s) for s in states],
                   slots=list(states), from_cache=False)

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

    def prefetch(self, plans) -> None:
        """Decode now every state :meth:`nearest` would return for
        ``plans`` (before forking workers, so they inherit it)."""
        for i in sorted({self._index(plan) for plan in plans} - {-1}):
            self.state(i)

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
        blobs, marks = stored
        cset = CheckpointSet(key, marks, slots=blobs, from_cache=True,
                             machine=machine, cache=cache)
        module._golden_cache[cache_slot] = cset
        return cset

    # Cold: one count_only golden run on the trampoline, capturing at
    # uniformly spaced points.
    machine.count_only = True
    policy = CapturePolicy(capture_interval(eligible))
    run_resumable(machine, entry, args, capture=policy)
    states = policy.states
    cset = CheckpointSet.captured(key, states)
    module._golden_cache[cache_slot] = cset
    if cache.enabled and states:
        blobs = [serialize_state(s, machine) for s in states]
        cache.put(key, SNAPSET_SUFFIX, render_set(blobs, meta={
            "module": module.name,
            "entry": entry,
            "budget": budget,
            "streams": marks_meta(states),
        }))
    return cset


def read_set(body: bytes) -> Tuple[List[bytes], Tuple[StreamMarks, ...]]:
    """``(state blobs, per-state marks)`` of a stored set; raises
    :class:`SnapFormatError` on a framing error or a meta without
    marks."""
    blobs, meta = parse_set(body)
    return blobs, set_marks(meta, len(blobs))
