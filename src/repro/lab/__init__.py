"""repro.lab — durable campaign orchestration.

The paper amortized its fault-injection cost across a 25-machine
cluster driven by ad-hoc scripts (§IV-B, 2500 faults per program).
This package is that layer for the simulator, built so a 100k-injection
study is a resumable, observable batch job rather than a one-shot loop:

- :mod:`repro.lab.store` — a content-addressed SQLite result store
  keyed on (module IR digest, entry, args, eligibility, seed, shard
  geometry); every campaign is incremental by construction.
- :mod:`repro.lab.checkpoint` — shard-level checkpointing. Fault plans
  are pre-drawn in serial RNG order, so contiguous shards are the
  natural replay unit: an interrupted campaign resumes bit-identically.
- :mod:`repro.lab.scheduler` — supervised forked workers with
  per-shard timeout, bounded retry with backoff, and graceful
  degradation to in-process execution.
- :mod:`repro.lab.sampling` — Wilson-interval adaptive stopping: run
  shards until every outcome class's 95% CI half-width is below a
  target (the paper's fixed 2500/program becomes the cap, not the
  default).
- :mod:`repro.lab.events` — the telemetry stream consumed by
  ``python -m repro campaign`` (progress, shard latency, retries, ETA).

:mod:`repro.lab.durable` ties these together in the one campaign
driver every fabric runs under; :func:`run_durable_campaign` (the
driver with the local executor) is what
``harness.fault_experiments.fig13_fault_injection`` and
``harness.ablations`` schedule onto.
"""

from .checkpoint import (
    DEFAULT_SHARD_SIZE,
    CampaignSpec,
    ShardPlan,
    build_spec,
    golden_digest,
    module_digest,
    partition,
)
from .durable import DurableCampaign, LabRunInfo, run_durable_campaign
from .events import (
    CampaignInterrupted,
    ConsoleReporter,
    EventBus,
    EventLog,
    JsonlSink,
    LabEvent,
    interrupt_after,
)
from .sampling import Z95, AdaptiveStop, wilson_halfwidth, wilson_interval
from .scheduler import SchedulerPolicy, ShardScheduler
from .store import LAB_SCHEMA, ResultStore, default_store, default_store_path

__all__ = [
    "AdaptiveStop",
    "CampaignInterrupted",
    "CampaignSpec",
    "ConsoleReporter",
    "DEFAULT_SHARD_SIZE",
    "DurableCampaign",
    "EventBus",
    "EventLog",
    "JsonlSink",
    "LAB_SCHEMA",
    "LabEvent",
    "LabRunInfo",
    "ResultStore",
    "SchedulerPolicy",
    "ShardPlan",
    "ShardScheduler",
    "Z95",
    "build_spec",
    "default_store",
    "default_store_path",
    "golden_digest",
    "interrupt_after",
    "module_digest",
    "partition",
    "run_durable_campaign",
    "wilson_halfwidth",
    "wilson_interval",
]
