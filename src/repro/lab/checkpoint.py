"""Shard planning and checkpoint/replay rules.

A campaign's fault plans are pre-drawn from one seeded RNG in the
serial draw order (:func:`repro.faults.campaign.draw_plans`), which
makes *contiguous* slices of the plan list the natural replay unit:

- the outcome multiset of the whole campaign is the disjoint union of
  the shards' outcome multisets, independent of execution order and
  worker count;
- plans are drawn sequentially, so shard ``i`` of a campaign depends
  only on ``(fault model, population, seed, shard_size, i)`` — not on
  the campaign's total injection cap. Raising the cap (150 → 2500) extends the plan
  list; every previously stored *full* shard is still byte-for-byte
  the same work and is reused.

Checkpointing is therefore just: persist each shard's counts as it
completes, and on (re)start load whichever shards of the spec already
exist with matching plan counts. An interrupted campaign resumed this
way is bit-identical to an uninterrupted one by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Counter as CounterT
from typing import Dict, List, Optional, Sequence

from ..chaos.hooks import chaos_point
from ..cpu.interpreter import FaultPlan
from ..faults.campaign import CampaignConfig, _args_key, _eligibility_key
from ..faults.models import get_model
from ..ir.module import Module
# module_digest moved to the toolchain (cluster handshakes and the
# artifact cache share it); re-exported here for existing importers.
from ..toolchain.build import module_digest, toolchain_digest  # noqa: F401
from .events import EventBus
from .store import LAB_SCHEMA, GoldenRecord, ResultStore, _canonical, digest_of

#: Injections per shard. Fixed (not derived from the worker count) so
#: the same store rows serve every ``--workers`` setting.
DEFAULT_SHARD_SIZE = 25


def golden_digest(reference: Sequence, eligible: int, executed: int,
                  *streams: int) -> str:
    """Digest of a fault-free run (exact: floats via ``repr``). Extra
    ``streams`` counts (memory accesses, conditional branches, checker
    sites) fold in the full :class:`~repro.faults.models.StreamProfile`,
    so drift in *any* targeting stream purges the cell's shards."""
    return digest_of(["golden", [repr(v) for v in reference], eligible,
                      executed, list(streams)])


@dataclass(frozen=True)
class ShardPlan:
    """One contiguous slice of the campaign's serial plan list."""

    index: int
    start: int  # position of plans[0] in the serial draw order
    plans: List[FaultPlan]


def partition(plans: Sequence[FaultPlan],
              shard_size: int = DEFAULT_SHARD_SIZE) -> List[ShardPlan]:
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    return [
        ShardPlan(index=i, start=i * shard_size,
                  plans=list(plans[i * shard_size:(i + 1) * shard_size]))
        for i in range((len(plans) + shard_size - 1) // shard_size)
    ]


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that determines a shard's outcome counts, digested
    into store keys. The *cell* (module + entry + args + eligibility)
    identifies the golden run; the full spec adds the fault-drawing and
    classification parameters. The injection *cap* is deliberately
    absent — see the module docstring."""

    module_digest: str
    entry: str
    args_key: str
    eligibility: object
    seed: int
    hang_factor: float
    rtol: float
    #: Registered fault-model name; its ``cache_key`` salts the spec
    #: key, so campaigns under different models never share shard rows.
    fault_model: str
    #: Size of the model's target stream (eligible results for the
    #: default model, dynamic memory accesses for address flips, …) —
    #: the modulus every plan's ``target_index`` was drawn against.
    population: int
    shard_size: int

    @property
    def cell_key(self) -> str:
        # Salted with the toolchain digest (LAB_SCHEMA 3): shards
        # recorded under a different build recipe (e.g. the pre-unified
        # cells pipeline that skipped inlining) degrade to misses.
        return digest_of([LAB_SCHEMA, toolchain_digest(), "cell",
                          self.module_digest, self.entry,
                          self.args_key, _canonical(self.eligibility)])

    @property
    def spec_key(self) -> str:
        model_key = _canonical(get_model(self.fault_model).cache_key)
        return digest_of([LAB_SCHEMA, "spec", self.cell_key, self.seed,
                          repr(self.hang_factor), repr(self.rtol),
                          model_key, self.population, self.shard_size])


def build_spec(module: Module, entry: str, args: Sequence,
               config: CampaignConfig, population: int,
               shard_size: int = DEFAULT_SHARD_SIZE
               ) -> Optional[CampaignSpec]:
    """Spec for a campaign, or ``None`` when the eligibility predicate
    is unkeyable (no ``cache_key`` — the campaign then runs without
    durable storage; :func:`repro.faults.campaign._eligibility_key`
    warns once). ``population`` is the size of ``config.fault_model``'s
    target stream, as measured by the golden run. No execution knob is
    in the spec: ``workers`` and the fabric never change a count, so
    their shards are interchangeable store rows."""
    ekey = _eligibility_key(config.fault_eligible)
    if ekey is None:
        return None
    return CampaignSpec(
        module_digest=module_digest(module),
        entry=entry,
        args_key=repr(_args_key(args)),
        eligibility=ekey,
        seed=config.seed,
        hang_factor=config.hang_factor,
        rtol=config.rtol,
        fault_model=config.fault_model,
        population=population,
        shard_size=shard_size,
    )


def ensure_golden(store: ResultStore, spec: CampaignSpec, digest: str,
                  eligible: int, executed: int, events: EventBus) -> bool:
    """Record (or cross-check) the cell's golden run. On a digest
    mismatch — same IR text, different behaviour, i.e. simulator
    semantics drifted — purge the cell's stored shards so nothing stale
    is replayed. Returns True when the stored golden matched."""
    record = store.get_golden(spec.cell_key)
    rule = chaos_point("lab.checkpoint.golden", cell=spec.cell_key[:12])
    if rule is not None and rule.action == "corrupt" and record is not None:
        # A torn golden row read back from disk: the digest no longer
        # matches, which must route through the purge path below (the
        # cell's shards are dropped and re-executed) — never silently
        # replay shards recorded under a golden we cannot verify.
        record = GoldenRecord(digest="chaos-torn-golden",
                              eligible=record.eligible,
                              executed=record.executed)
    if record is None:
        store.put_golden(spec.cell_key, digest, eligible, executed)
        return True
    if record.digest != digest or record.eligible != eligible:
        purged = store.purge_cell(spec.cell_key)
        store.put_golden(spec.cell_key, digest, eligible, executed)
        events.emit("store-stale", purged=purged, cell_key=spec.cell_key)
        return False
    return True


def load_completed(store: ResultStore, spec: CampaignSpec,
                   shards: Sequence[ShardPlan]
                   ) -> Dict[int, CounterT]:
    """Stored outcome counts for every shard of ``spec`` whose plan
    count matches (a short final shard under a smaller cap never
    masquerades as the full shard of a larger one)."""
    stored = store.get_shards(spec.spec_key)
    loaded: Dict[int, CounterT] = {}
    for shard in shards:
        row = stored.get(shard.index)
        if row is not None and row[0] == len(shard.plans):
            loaded[shard.index] = row[1]
    return loaded
