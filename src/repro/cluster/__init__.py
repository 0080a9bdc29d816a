"""repro.cluster — distributed fault-injection campaigns.

The paper ran its 2500-injections-per-program study on a 25-machine
cluster driven by ad-hoc scripts (§IV-B/C). :mod:`repro.lab` made
those campaigns durable on one host; this package makes them a
networked system:

- :mod:`repro.cluster.proto` — length-prefixed JSON frames over TCP,
  with version-checked handshakes.
- :mod:`repro.cluster.lease` — shard leases: heartbeats, expiry,
  exponential-backoff requeue, at-most-once commit.
- :mod:`repro.cluster.coordinator` — asyncio coordinator that leases
  :class:`~repro.lab.checkpoint.ShardPlan`s to workers and merges
  results into the content-addressed store through a backpressured
  writer; :func:`run_distributed_campaign` is the lab's campaign
  driver (:mod:`repro.lab.durable`) with the cluster as its executor.
- :mod:`repro.cluster.worker` — the worker agent: handshake (protocol
  version, IR digest, fault-model ``cache_key``), its own golden-run
  cache, heartbeats between injections.
- :mod:`repro.cluster.cells` — the cell recipe both ends rebuild
  modules from (modules never cross the wire), and the handshake
  values both ends compute from their builds.
- :mod:`repro.cluster.cli` — ``python -m repro cluster
  coordinator|worker``; the one-command local mode is ``python -m
  repro campaign --cluster N``.

The invariant everything rests on: **shard plans are the unit of
distribution and are never re-drawn**, so a campaign's outcome counts
are bit-identical whether its shards run serially, on forked workers,
or scattered across a cluster — and whichever machine a re-leased
shard lands on.
"""

from .._lazy import lazy_exports

__all__ = [
    "CellJob",
    "ClusterCoordinator",
    "ClusterWorker",
    "LeasePolicy",
    "LeaseTable",
    "MAX_FRAME",
    "PROTO_VERSION",
    "ProtocolError",
    "ShardExhausted",
    "VERSIONS",
    "build_cell",
    "plan_from_wire",
    "plan_to_wire",
    "run_distributed_campaign",
    "shard_from_wire",
    "shard_to_wire",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cells": ("VERSIONS", "build_cell"),
    ".coordinator": (
        "CellJob", "ClusterCoordinator", "run_distributed_campaign",
    ),
    ".lease": ("LeasePolicy", "LeaseTable", "ShardExhausted"),
    ".proto": (
        "MAX_FRAME", "PROTO_VERSION", "ProtocolError", "plan_from_wire",
        "plan_to_wire", "shard_from_wire", "shard_to_wire",
    ),
    ".worker": ("ClusterWorker",),
})
