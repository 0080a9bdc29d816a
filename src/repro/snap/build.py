"""Checkpoint-set builder: one golden capture run per cell, shared by
every fabric through the content-addressed store.

``build_checkpoints`` is the single entry point: it resolves the
content key, serves the set from the in-process cache or the on-disk
:class:`~repro.toolchain.cache.ArtifactCache`, and only on a true cold
start pays one ``count_only`` golden run on the resumable trampoline with
the placement policy's capture hook attached. The resulting
:class:`CheckpointSet` resolves fault plans to the nearest checkpoint
at or before their dynamic site (:meth:`CheckpointSet.nearest`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..cpu.resumable import ResumeState, covers, run_resumable, stream_mark
from ..toolchain.cache import ArtifactCache
from .format import deserialize_state, serialize_state
from .placement import PlacementConfig, make_policy
from .store import SNAPSET_SUFFIX, checkpoint_key, machine_key, parse_set, \
    render_set

#: Below this many eligible instructions the golden prefix is too short
#: for checkpoints to pay for their capture run and restore cost;
#: every injection then resumes the start state.
MIN_ELIGIBLE = 2048


@dataclass
class CheckpointSet:
    """One cell's mid-run checkpoints, sorted by eligible index."""

    key: str
    model: str
    states: Tuple[ResumeState, ...]
    from_cache: bool

    @property
    def marks(self) -> List[int]:
        return [s.eligible for s in self.states]

    def nearest(self, plan) -> Optional[ResumeState]:
        """The latest checkpoint that still reaches ``plan``'s fault
        site, or None (site earlier than every checkpoint)."""
        best = None
        best_mark = -1
        for state in self.states:
            if covers(state, plan):
                mark = stream_mark(state, plan)
                if mark > best_mark:
                    best = state
                    best_mark = mark
        return best


def build_checkpoints(module, entry: str, args: Sequence, *,
                      budget: int,
                      fault_eligible=None,
                      model: str,
                      eligible: int,
                      placement: Optional[PlacementConfig] = None,
                      cache: Optional[ArtifactCache] = None,
                      ) -> Optional[CheckpointSet]:
    """The cell's checkpoint set, from (in order) the module's golden
    cache, the content-addressed cache (``.snapset`` entries), or a
    fresh capture run.

    Returns None when checkpointing is off for this cell: unkeyable
    eligibility predicate (no safe content address), or a golden run
    too short to profit (``eligible < MIN_ELIGIBLE``).
    """
    from ..faults.campaign import _args_key, _eligibility_key, _fresh_machine

    ekey = _eligibility_key(fault_eligible)
    if ekey is None or eligible < MIN_ELIGIBLE:
        return None
    placement = placement or PlacementConfig()
    machine = _fresh_machine(module, max_instructions=budget,
                             fault_eligible=fault_eligible)
    key = checkpoint_key(
        module, entry, _args_key(args), ekey, model, budget,
        machine_key(machine.config), placement.cache_key(),
    )
    cache_slot = ("snap-set", key)
    cached = module._golden_cache.get(cache_slot)
    if cached is not None:
        return cached

    def decode(body: bytes) -> Tuple[ResumeState, ...]:
        blobs, _meta = parse_set(body)
        return tuple(deserialize_state(blob, machine) for blob in blobs)

    cache = cache if cache is not None else ArtifactCache()
    states = cache.get(key, SNAPSET_SUFFIX, decode)
    if states is not None:
        cset = CheckpointSet(key=key, model=model, states=states,
                             from_cache=True)
        module._golden_cache[cache_slot] = cset
        return cset

    # Cold: one count_only golden run on the trampoline, capturing at
    # the placement policy's points.
    machine.count_only = True
    policy = make_policy(module, eligible, model, placement)
    run_resumable(machine, entry, args, capture=policy)
    states = tuple(sorted(policy.states, key=lambda s: s.eligible))
    cset = CheckpointSet(key=key, model=model, states=states,
                         from_cache=False)
    module._golden_cache[cache_slot] = cset
    if cache.enabled and states:
        blobs = [serialize_state(s, machine) for s in states]
        cache.put(key, SNAPSET_SUFFIX, render_set(blobs, meta={
            "module": module.name,
            "entry": entry,
            "model": model,
            "budget": budget,
            "marks": cset.marks,
        }))
    return cset
