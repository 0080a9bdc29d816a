"""Chaos campaign runner: execute one (scenario, seed) end to end.

A chaos run drives a small, fixed fault-injection campaign (the
``histogram``/``native`` cell at test scale: 40 injections in 4 shards
of 10) through the real stack — forked scheduler or coordinator +
subprocess worker agents — with the scenario's fault schedule armed,
and records everything a verifier needs: the final counts, the store
rows, the event log (phase-tagged), and the controller's firing trace.

Driver "crashes" are simulated, not literal: a
:class:`~repro.chaos.hooks.ChaosCrash` (or a chaos-induced
:class:`~repro.lab.events.CampaignInterrupted`) unwinds the phase
exactly where a power loss would have killed the process, and the
runner starts the next phase the way an operator would restart the
driver — fresh coordinator, same store. Everything a real crash would
lose (in-memory state) is lost; everything it would keep (committed
store rows, rule firings already consumed in the driver) is kept.
"""

from __future__ import annotations

import os
from typing import Dict, List

from ..faults.campaign import CampaignConfig, golden_profile
from ..lab.durable import run_durable_campaign
from ..lab.events import CampaignInterrupted, EventBus
from ..lab.scheduler import SchedulerPolicy
from ..lab.store import ResultStore
from ..toolchain.build import Toolchain, default_toolchain
from .hooks import CHAOS_ENV, ChaosCrash, ChaosSpec, chaos_active
from .scenarios import Scenario

#: The chaos cell: small enough to run a whole scenario matrix in CI,
#: large enough (4 shards, 2 workers) that shards genuinely race.
WORKLOAD = "histogram"
VERSION = "native"
SCALE = "test"
INJECTIONS = 40
SHARD_SIZE = 10
SHARD_COUNT = INJECTIONS // SHARD_SIZE
WORKERS = 2

#: A crash-rerun scenario that cannot finish in this many phases is
#: failing to recover, not still recovering (one fault = one rerun).
MAX_PHASES = 4


def _config() -> CampaignConfig:
    return CampaignConfig(injections=INJECTIONS, seed=1234, workers=WORKERS)


def _build_cell():
    return default_toolchain().build(WORKLOAD, SCALE, VERSION)


def run_reference(store_path: str) -> Dict:
    """The clean twin: same cell, same campaign config, no chaos, into
    ``store_path``. Fabric is irrelevant by the determinism contract
    (the cluster suite enforces forked == cluster), so the cheap forked
    path serves as the oracle for both."""
    built = _build_cell()
    store = ResultStore(store_path)
    try:
        outcome = run_durable_campaign(
            built.module, built.entry, built.args, WORKLOAD, VERSION,
            _config(), store=store, shard_size=SHARD_SIZE,
        )
        spec_key = outcome.spec.spec_key
        rows = _store_rows(store, spec_key)
    finally:
        store.close()
    return {
        "counts": {o.value: int(n) for o, n in outcome.result.counts.items()},
        "injections_used": outcome.info.injections_used,
        "spec_key": spec_key,
        "rows": rows,
        "store_path": store_path,
    }


def _store_rows(store: ResultStore, spec_key: str) -> Dict[str, Dict]:
    """index -> {n, counts} for one spec, JSON-shaped for reports."""
    return {
        str(index): {"n": n, "counts": {o.value: int(c)
                                        for o, c in counts.items()}}
        for index, (n, counts) in sorted(store.get_shards(spec_key).items())
    }


def run_chaotic(scenario: Scenario, seed: int, store_path: str) -> Dict:
    """One chaos campaign under ``scenario.spec(seed)``; returns the
    report dict :mod:`repro.chaos.verify` judges."""
    spec = scenario.spec(seed, SHARD_COUNT)
    built = _build_cell()
    config = _config()
    if scenario.fresh_module:
        # Make sure the cache holds the cell's golden profile (a clean
        # fresh module reads it, or runs and stores it), then run on
        # another fresh module, which must read it back.
        warm = Toolchain().build(WORKLOAD, SCALE, VERSION)
        golden_profile(warm.module, warm.entry, warm.args)
        built = Toolchain().build(WORKLOAD, SCALE, VERSION)

    events: List[Dict] = []
    phase = [0]
    bus = EventBus()
    bus.subscribe(lambda e: events.append({"phase": phase[0], **e.as_dict()}))

    if scenario.warm_store:
        # Pre-existing state the fault corrupts: a clean campaign banks
        # its golden + shard rows into the chaotic store first.
        warm = ResultStore(store_path)
        try:
            run_durable_campaign(built.module, built.entry, built.args,
                                 WORKLOAD, VERSION, config, store=warm,
                                 shard_size=SHARD_SIZE)
        finally:
            warm.close()

    outcome = None
    with chaos_active(spec) as controller:
        while phase[0] < MAX_PHASES:
            phase[0] += 1
            try:
                if scenario.fabric == "cluster":
                    outcome = _cluster_phase(built, config, scenario, spec,
                                             store_path, bus)
                else:
                    outcome = _forked_phase(built, config, scenario,
                                            store_path, bus)
                break
            except (ChaosCrash, CampaignInterrupted):
                # The simulated power loss: drop everything in memory,
                # restart the phase against the same store.
                continue
        trace = list(controller.trace)

    report = {
        "scenario": scenario.name,
        "fabric": scenario.fabric,
        "seed": seed,
        "phases": phase[0],
        "completed": outcome is not None,
        "rules": [r.to_wire() for r in spec.rules],
        "trace": trace,
        "events": events,
        "store_path": store_path,
    }
    if outcome is not None:
        report["counts"] = {o.value: int(n)
                            for o, n in outcome.result.counts.items()}
        report["injections_used"] = outcome.info.injections_used
        report["spec_key"] = outcome.spec.spec_key
        store = ResultStore(store_path)
        try:
            report["rows"] = _store_rows(store, outcome.spec.spec_key)
        finally:
            store.close()
    return report


def _forked_phase(built, config: CampaignConfig, scenario: Scenario,
                  store_path: str, bus: EventBus):
    policy = SchedulerPolicy(workers=WORKERS,
                             timeout=scenario.scheduler_timeout)
    store = ResultStore(store_path)
    try:
        return run_durable_campaign(
            built.module, built.entry, built.args, WORKLOAD, VERSION,
            config, store=store, shard_size=SHARD_SIZE, events=bus,
            policy=policy,
        )
    finally:
        store.close()


def _cluster_phase(built, config: CampaignConfig, scenario: Scenario,
                   spec: ChaosSpec, store_path: str, bus: EventBus):
    """One coordinator lifetime: cold start, spawn chaos-armed worker
    agents, distribute, tear down. A chaos interrupt unwinds through
    here and the next phase builds a brand-new coordinator — the
    cold-start recovery path under test."""
    from ..cluster.cli import reap_workers, spawn_local_workers
    from ..cluster.coordinator import (
        ClusterCoordinator,
        run_distributed_campaign,
    )
    from ..cluster.lease import LeasePolicy

    lease_policy = LeasePolicy()
    if scenario.lease_timeout is not None:
        lease_policy = LeasePolicy(lease_timeout=scenario.lease_timeout)
    coordinator = ClusterCoordinator(store_path=store_path, events=bus,
                                     policy=lease_policy)
    coordinator.start()
    env = dict(os.environ)
    env[CHAOS_ENV] = spec.to_env()
    procs = spawn_local_workers("127.0.0.1", coordinator.port, WORKERS,
                                env=env)
    store = ResultStore(store_path)
    try:
        outcome = run_distributed_campaign(
            built.module, built.entry, built.args, WORKLOAD, VERSION,
            config, coordinator=coordinator, build_scale=SCALE,
            store=store, events=bus, shard_size=SHARD_SIZE,
        )
        # Leak detector for the verifier: a finished campaign must
        # leave no session (and so no lease) behind.
        bus.emit("chaos-sessions-after",
                 sessions=coordinator.active_sessions)
        return outcome
    finally:
        store.close()
        coordinator.stop()
        reap_workers(procs)
