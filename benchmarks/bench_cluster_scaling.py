#!/usr/bin/env python
"""Campaign fabrics at equal width: forked lab workers against local
cluster agents, at 1/2/4 workers.

Not a paper figure — this measures the distribution machinery itself,
to answer whether local agents over the cluster protocol come close
enough to forked workers to replace them. Every configuration runs the
identical campaign (same seed, same pre-drawn shard plans) against its
own fresh store, so each one really executes all its injections; the
outcome counts must be bit-identical across every fabric and width
(the determinism invariant docs/CLUSTER.md is built on, asserted
here).

Columns per configuration:

- ``ready_s`` — agent spawn until every agent has handshaken with the
  coordinator (0 for forked workers, which fork per shard inside the
  campaign);
- ``campaign_s`` — the campaign call itself. Agents rebuild the cell
  and run their own golden run on their first lease, so that
  preparation is inside this column;
- ``end_to_end_s`` — ``ready_s + campaign_s``, with injections/second
  and the ratio to ``forked`` at the same width over it.

``forked-1`` runs the shards in-process (the scheduler forks only for
two or more workers). An untimed warm-up campaign first puts the
golden run, checkpoint set and compiled code into this process, and
into the on-disk caches the agents read.

Writes ``BENCH_cluster.json``.

Run:  PYTHONPATH=src python benchmarks/bench_cluster_scaling.py
Env:  REPRO_SCALE ("perf" default -> fi-scale inputs, "test" for smoke)
"""

import json
import os
import sys
import tempfile
import time

from repro.cluster.cli import reap_workers, spawn_local_workers
from repro.cluster.coordinator import (
    ClusterCoordinator,
    run_distributed_campaign,
)
from repro.cluster.lease import LeasePolicy
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.lab.durable import run_durable_campaign
from repro.lab.store import ResultStore
from repro.toolchain import default_toolchain

_SCALES = {
    # build scale, injections, shard size
    "perf": ("fi", 200, 10),
    "test": ("test", 40, 5),
}

_WIDTHS = (1, 2, 4)

#: Seconds to wait for spawned agents to handshake.
_READY_TIMEOUT = 120.0


def _wait_ready(coordinator: ClusterCoordinator, width: int) -> None:
    deadline = time.monotonic() + _READY_TIMEOUT
    while coordinator.worker_count < width:
        if time.monotonic() > deadline:
            raise RuntimeError(f"only {coordinator.worker_count} of {width} "
                               "agents connected")
        time.sleep(0.005)


def main() -> int:
    scale = os.environ.get("REPRO_SCALE", "perf")
    build_scale, injections, shard_size = _SCALES[scale]

    # The toolchain build is the one the agents rebuild from the recipe.
    built = default_toolchain().build("histogram", build_scale, "elzar")
    cell = (built.module, built.entry, built.args, "histogram", "elzar")
    run_campaign(*cell, CampaignConfig(injections=shard_size, seed=2016))

    runs = []
    reference_counts = None

    def record(fabric, width, ready, seconds, counts):
        nonlocal reference_counts
        wire = {o.value: int(n) for o, n in sorted(
            counts.items(), key=lambda kv: kv[0].value)}
        if reference_counts is None:
            reference_counts = wire
        assert wire == reference_counts, \
            f"{fabric}-{width}: counts diverged from baseline — {wire}"
        end_to_end = ready + seconds
        runs.append({
            "fabric": fabric,
            "width": width,
            "ready_s": round(ready, 4),
            "campaign_s": round(seconds, 4),
            "end_to_end_s": round(end_to_end, 4),
            "injections_per_second": round(
                injections / max(end_to_end, 1e-9), 1),
        })
        print(f"{fabric:>8}-{width}: ready {ready:6.2f}s  campaign "
              f"{seconds:6.2f}s  end-to-end {end_to_end:6.2f}s "
              f"({runs[-1]['injections_per_second']} inj/s)")

    with tempfile.TemporaryDirectory() as tmp:
        for width in _WIDTHS:
            config = CampaignConfig(injections=injections, seed=2016,
                                    workers=width)
            store = ResultStore(os.path.join(tmp, f"forked{width}.sqlite"))
            try:
                start = time.perf_counter()
                forked = run_durable_campaign(*cell, config, store=store,
                                              shard_size=shard_size)
                record("forked", width, 0.0, time.perf_counter() - start,
                       forked.result.counts)
            finally:
                store.close()

            store = ResultStore(os.path.join(tmp, f"cluster{width}.sqlite"))
            coordinator = ClusterCoordinator(
                store_path=store.path, policy=LeasePolicy(),
                host="127.0.0.1", port=0,
            )
            _, port = coordinator.start()
            start = time.perf_counter()
            procs = spawn_local_workers("127.0.0.1", port, width)
            try:
                _wait_ready(coordinator, width)
                ready = time.perf_counter() - start
                start = time.perf_counter()
                outcome = run_distributed_campaign(
                    *cell, config, coordinator=coordinator,
                    build_scale=build_scale, store=store,
                    shard_size=shard_size,
                )
                record("cluster", width, ready, time.perf_counter() - start,
                       outcome.result.counts)
            finally:
                coordinator.stop()
                reap_workers(procs)
                store.close()

    forked_s = {r["width"]: r["end_to_end_s"] for r in runs
                if r["fabric"] == "forked"}
    for run in runs:
        run["vs_forked_same_width"] = round(
            run["end_to_end_s"] / max(forked_s[run["width"]], 1e-9), 2)

    report = {
        "benchmark": "cluster_scaling",
        "scale": scale,
        "cpus": os.cpu_count(),
        "injections": injections,
        "shard_size": shard_size,
        "counts": reference_counts,
        "runs": runs,
    }
    out = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir,
                                        "BENCH_cluster.json"))
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"-- all fabrics bit-identical: {json.dumps(reference_counts)}")
    print(f"-- wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
