"""``python -m repro campaign`` — durable fault-injection campaigns.

Examples::

    # A tiny end-to-end campaign (CI smoke); rerunning it is ~free —
    # every shard is served from the store.
    python -m repro campaign --scale test

    # The Figure-13 cells, 8 workers, stop each cell once every
    # outcome rate is known to ±2 points (95% CI), cap at 2500:
    python -m repro campaign --injections 2500 --workers 8 --ci-target 0.02

    # Interrupted? Completed shards are already persisted:
    python -m repro campaign --resume

The store lives at ``--store`` / ``$REPRO_LAB_STORE`` / the user cache
dir; see docs/LAB.md for the schema and replay rules.
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional

from ..faults.campaign import CampaignConfig
from ..faults.models import DEFAULT_MODEL, model_names
from ..faults.outcomes import Outcome
from ..harness.base import Experiment
from ..service.runner import CampaignRunner
from ..toolchain import default_toolchain, get_variant, variant_names
from ..workloads.registry import FI_BENCHMARKS, SHORT_NAMES
from .events import CampaignInterrupted, ConsoleReporter, EventBus, \
    JsonlSink, interrupt_after
from .store import ResultStore, default_store_path

#: Defaults per ``--scale``: (benchmarks, injections, shard_size).
_SCALE_DEFAULTS = {
    "test": (("histogram", "blackscholes"), 40, 10),
    "perf": (tuple(w.name for w in FI_BENCHMARKS), 150, 25),
}

#: Every registry variant is a valid ``--versions`` entry: the variant
#: vocabulary lives in repro.toolchain.registry, shared with the
#: harness figures and cluster workers, so all three cannot disagree
#: about what ``elzar-detect`` means.
_VERSIONS = variant_names()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Run a durable, resumable fault-injection campaign.",
    )
    parser.add_argument("--scale", default="perf", choices=("perf", "test"),
                        help="perf = fi-scale inputs; test = tiny smoke run")
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated workload names "
                             "(default depends on --scale)")
    parser.add_argument("--versions", default="native,elzar",
                        help="comma-separated subset of the variant "
                             f"registry: {', '.join(_VERSIONS)} "
                             "(see `python -m repro variants`)")
    parser.add_argument("--injections", type=int, default=None,
                        help="injection cap per cell (paper: 2500; "
                             "default 150, or 40 at --scale test)")
    parser.add_argument("--fault-model", default=DEFAULT_MODEL,
                        choices=model_names(),
                        help="fault shape to inject (see docs/FAULTS.md); "
                             "each model keys its own store rows")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--workers", type=int, default=1,
                        help="forked campaign workers (0 = all CPUs)")
    parser.add_argument("--cluster", type=int, default=None, metavar="N",
                        help="distribute shards over N local worker agents "
                             "(TCP, not fork) — counts are bit-identical to "
                             "--workers N; see docs/CLUSTER.md")
    parser.add_argument("--events-log", metavar="PATH", default=None,
                        help="append every campaign event to PATH as JSONL "
                             "(one event per line, wall + monotonic stamps)")
    parser.add_argument("--lease-timeout", type=float, default=30.0,
                        help="cluster modes: seconds without a worker "
                             "heartbeat before a shard is re-leased")
    # Set by `python -m repro cluster coordinator`: listen on HOST:PORT
    # for external workers instead of spawning local ones.
    parser.add_argument("--serve-cluster", metavar="HOST:PORT", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--ci-target", type=float, default=None,
                        help="adaptive stop: max Wilson 95%% CI half-width "
                             "per outcome class, in proportion units "
                             "(e.g. 0.02)")
    parser.add_argument("--shard-size", type=int, default=None,
                        help="injections per shard (the checkpoint/replay "
                             "unit; default 25, or 10 at --scale test)")
    parser.add_argument("--resume", action="store_true",
                        help="continue the latest interrupted campaign "
                             "recorded in the store (reuses its parameters)")
    parser.add_argument("--store", default=None,
                        help="store path (default: $REPRO_LAB_STORE or "
                             "the user cache dir)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the report as JSON")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-shard progress lines")
    # Test/CI hook: abort (as Ctrl-C would) after N completed shards.
    parser.add_argument("--interrupt-after-shards", type=int, default=None,
                        help=argparse.SUPPRESS)
    return parser


def _spec_from_args(args: argparse.Namespace) -> Dict:
    benchmarks, injections, shard_size = _SCALE_DEFAULTS[args.scale]
    if args.benchmarks:
        benchmarks = tuple(
            name.strip() for name in args.benchmarks.split(",") if name.strip()
        )
    return {
        "scale": args.scale,
        "benchmarks": list(benchmarks),
        "versions": [v.strip() for v in args.versions.split(",") if v.strip()],
        "injections": args.injections if args.injections is not None
        else injections,
        "seed": args.seed,
        "workers": args.workers,
        "ci_target": args.ci_target,
        "shard_size": args.shard_size if args.shard_size is not None
        else shard_size,
        "fault_model": args.fault_model,
        "cluster": args.cluster or 0,
    }


def _run_cells(spec: Dict, store: ResultStore, events: EventBus,
               cell_runner):
    """Execute every benchmark × version cell; returns (rows, cells,
    totals) where rows feed the text table and cells the JSON report.

    ``cell_runner(module, built, name, version, config, build_scale)``
    is the execution fabric for one cell — ``main`` builds it from
    :class:`repro.service.runner.CampaignRunner`, which schedules onto
    local forked workers or leases shards to networked worker agents.
    Either way the cell's outcome counts are bit-identical."""
    build_scale = "fi" if spec["scale"] == "perf" else "test"
    # Resume manifests written before the fault-model flag existed lack
    # its key; default it like a fresh campaign. Keys of retired knobs
    # (``batch``, ``engine``) are ignored.
    fault_model = spec.get("fault_model", DEFAULT_MODEL)
    rows: List[tuple] = []
    cells: List[Dict] = []
    totals = {"shards_total": 0, "shards_from_store": 0,
              "injections_executed": 0, "injections_from_store": 0}
    toolchain = default_toolchain()
    for name in spec["benchmarks"]:
        for version in spec["versions"]:
            try:
                get_variant(version)
            except KeyError as exc:
                raise SystemExit(str(exc.args[0]))
            built = toolchain.build(name, build_scale, version)
            module = built.module
            config = CampaignConfig(
                injections=spec["injections"], seed=spec["seed"],
                workers=spec["workers"], fault_model=fault_model,
            )
            try:
                outcome = cell_runner(module, built, name, version, config,
                                      build_scale)
            except ValueError as exc:
                # Empty target stream for this model × version (e.g.
                # checker-fault against native code): an expected hole
                # in the matrix, not an error.
                print(f"-- skipping {name}/{version}: {exc}")
                cells.append({"workload": name, "version": version,
                              "fault_model": fault_model,
                              "skipped": str(exc)})
                continue
            result, info = outcome.result, outcome.info
            rows.append((
                SHORT_NAMES.get(name, name), version, result.total,
                result.crash_rate, result.correct_rate, result.sdc_rate,
                result.rate(Outcome.CORRECTED),
                100.0 * info.shards_from_store / max(1, info.shards_total),
            ))
            cells.append({
                "workload": name,
                "version": version,
                "fault_model": result.fault_model,
                "injections_used": info.injections_used,
                "stopped_early": info.stopped_early,
                "ci_halfwidth": info.ci_halfwidth,
                "counts": {o.value: int(result.counts[o]) for o in Outcome},
                "rates": result.as_dict(),
                "shards_total": info.shards_total,
                "shards_from_store": info.shards_from_store,
                "injections_executed": info.injections_executed,
                "injections_from_store": info.injections_from_store,
            })
            totals["shards_total"] += info.shards_total
            totals["shards_from_store"] += info.shards_from_store
            totals["injections_executed"] += info.injections_executed
            totals["injections_from_store"] += info.injections_from_store
    return rows, cells, totals


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    store_path = args.store or default_store_path()
    store = ResultStore(store_path)

    spec = _spec_from_args(args)
    run_id = None
    if args.resume:
        latest = store.latest_incomplete_run()
        if latest is not None:
            run_id, spec = latest
            print(f"-- resuming interrupted campaign run {run_id} "
                  f"({len(spec['benchmarks'])} benchmark(s), "
                  f"{spec['injections']} injections/cell)")
        else:
            print("-- nothing to resume; starting a fresh campaign")
    if run_id is None:
        run_id = store.begin_run(spec)

    events = EventBus()
    if not args.quiet:
        events.subscribe(ConsoleReporter())
    events_sink = None
    if args.events_log:
        events_sink = JsonlSink(args.events_log)
        events.subscribe(events_sink)
    if args.interrupt_after_shards is not None:
        events.subscribe(interrupt_after(args.interrupt_after_shards))

    cluster_n = int(spec.get("cluster") or 0)
    coordinator = None
    worker_procs: List = []
    if cluster_n or args.serve_cluster:
        from ..cluster.cli import reap_workers, spawn_local_workers
        from ..cluster.coordinator import ClusterCoordinator
        from ..cluster.lease import LeasePolicy

        if args.serve_cluster:
            listen_host, _, port_text = args.serve_cluster.rpartition(":")
            listen = (listen_host or "0.0.0.0", int(port_text))
        else:
            listen = ("127.0.0.1", 0)
        coordinator = ClusterCoordinator(
            store_path=store_path, events=events,
            policy=LeasePolicy(lease_timeout=args.lease_timeout),
            host=listen[0], port=listen[1],
        )
        bound_host, bound_port = coordinator.start()
        print(f"-- cluster coordinator listening on "
              f"{bound_host}:{bound_port}")
        if cluster_n:
            worker_procs = spawn_local_workers(
                "127.0.0.1", bound_port, cluster_n)
            print(f"-- spawned {cluster_n} local worker agent(s)")

    # Both fabrics run through the same embeddable executor the
    # service uses, so the CLI and the API cannot drift apart.
    runner = CampaignRunner(store_path, coordinator=coordinator)

    def cell_runner(module, built, name, version, config, build_scale):
        return runner.run_cell(
            module, built.entry, built.args, name, version, config,
            build_scale=build_scale, shard_size=spec["shard_size"],
            ci_target=spec["ci_target"], store=store, events=events,
        )

    try:
        rows, cells, totals = _run_cells(spec, store, events, cell_runner)
    except (CampaignInterrupted, KeyboardInterrupt):
        if coordinator is not None:
            coordinator.request_drain()
        print(f"-- interrupted; completed shards are stored in {store_path}. "
              "Rerun with --resume to continue.")
        return 130
    finally:
        if coordinator is not None:
            coordinator.stop()
        if worker_procs:
            reap_workers(worker_procs)
        if events_sink is not None:
            events_sink.close()

    store.finish_run(run_id)

    exp = Experiment(
        id="campaign",
        title=(f"Durable campaign, "
               f"{spec.get('fault_model', DEFAULT_MODEL)} faults, "
               f"cap {spec['injections']}/cell"
               + (f", CI target ±{spec['ci_target']}" if spec["ci_target"]
                  else "")),
        headers=("benchmark", "version", "injections", "crashed", "correct",
                 "corrupted(SDC)", "corrected", "store_hit%"),
        rows=rows,
        digits=1,
    )
    print(exp.render())
    hit_rate = (totals["shards_from_store"] / totals["shards_total"]
                if totals["shards_total"] else 0.0)
    print(f"-- store {store_path}")
    print(f"-- store-hits: {totals['shards_from_store']}/"
          f"{totals['shards_total']} shards ({hit_rate:.0%}); "
          f"executed {totals['injections_executed']} new injection(s), "
          f"reused {totals['injections_from_store']}")

    if args.json:
        report = {
            "command": "campaign",
            "run_id": run_id,
            "spec": spec,
            "store": {
                "path": store_path,
                "hit_rate": hit_rate,
                **totals,
            },
            "cells": cells,
        }
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"-- wrote {args.json}")
    return 0
