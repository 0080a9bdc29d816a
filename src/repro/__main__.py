"""Command-line driver: regenerate paper tables/figures.

Usage::

    python -m repro list
    python -m repro fig11 [--scale test|perf]
    python -m repro fig13 [--injections N] [--workers N]
    python -m repro all [--scale test|perf] [--injections N]
    python -m repro bench [--suite engine|snap|all] [--json PATH]
    python -m repro campaign [--resume] [--workers N] [--ci-target F]
    python -m repro chaos run --scenario S --seed N
    python -m repro cluster coordinator|worker ...
    python -m repro serve [--port P] [--cluster N]
    python -m repro snap build|ls|stats
    python -m repro submit --workload W --version V [--wait]
    python -m repro variants [--workloads W1,W2|all] [--scale S] [--gc]
"""

from __future__ import annotations

import argparse
import sys
import time

# The package only: its entry points load on first use, so the
# subcommands dispatched below never import the harness.
from . import harness

_EXPERIMENTS = {
    "fig1": lambda s, a, n, w: harness.fig01_simd_speedup(s, a),
    "fig11": lambda s, a, n, w: harness.fig11_overhead(s),
    "fig12": lambda s, a, n, w: harness.fig12_checks_breakdown(s),
    "fig13": lambda s, a, n, w: harness.fig13_fault_injection(
        injections=n, scale="fi" if s.scale == "perf" else "test", workers=w
    ),
    "fault-models": lambda s, a, n, w: harness.fault_model_matrix(
        injections=n, scale="fi" if s.scale == "perf" else "test", workers=w
    ),
    "fig14": lambda s, a, n, w: harness.fig14_swiftr_comparison(s),
    "fig15": lambda s, a, n, w: harness.fig15_case_studies(a),
    "fig17": lambda s, a, n, w: harness.fig17_proposed_avx(s),
    "table2": lambda s, a, n, w: harness.table2_native_stats(s),
    "table3": lambda s, a, n, w: harness.table3_ilp(s),
    "table4": lambda s, a, n, w: harness.table4_micro(s),
    "fp-only": lambda s, a, n, w: harness.fp_only_overhead(s),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "campaign":
        # The durable campaign runner has its own flag set (resume,
        # adaptive sampling, store location); see repro.lab.cli.
        from .lab.cli import main as campaign_main

        return campaign_main(argv[1:])
    if argv and argv[0] == "cluster":
        # Distributed campaigns (coordinator/worker); see repro.cluster.
        from .cluster.cli import main as cluster_main

        return cluster_main(argv[1:])
    if argv and argv[0] == "serve":
        # The always-on campaign service (HTTP API, tenant quotas);
        # see repro.service and docs/SERVICE.md.
        from .service.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "submit":
        # Client side of the campaign service.
        from .service.cli import submit_main

        return submit_main(argv[1:])
    if argv and argv[0] == "chaos":
        # Deterministic infrastructure-chaos campaigns against the
        # injector's own recovery machinery; see repro.chaos and
        # docs/CHAOS.md.
        from .chaos.cli import main as chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "variants":
        # The toolchain variant registry + per-cell IR digests; see
        # repro.toolchain.cli.
        from .toolchain.cli import main as variants_main

        return variants_main(argv[1:])
    if argv and argv[0] == "snap":
        # Mid-run checkpoint sets for O(tail) fault injection; see
        # repro.snap and docs/CHECKPOINT.md.
        from .snap.cli import main as snap_main

        return snap_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures of the ELZAR paper.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see `list`), or 'all', or 'list'",
    )
    parser.add_argument("--scale", default="perf", choices=("perf", "test"))
    parser.add_argument("--injections", type=int, default=150,
                        help="SEUs per program for fig13 (paper: 2500)")
    parser.add_argument("--workers", type=int, default=1,
                        help="campaign worker processes for fig13 "
                             "(0 = all CPUs)")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write each experiment as DIR/<id>.csv")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="for 'bench': also write results as JSON")
    parser.add_argument("--suite", default="engine",
                        choices=("engine", "snap", "all"),
                        help="for 'bench': which benchmark suite(s) to "
                             "run (engine throughput, checkpointed "
                             "injection, or both)")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in _EXPERIMENTS:
            print(name)
        print("scorecard")
        print("bench")
        print("campaign")
        print("chaos")
        print("cluster")
        print("serve")
        print("snap")
        print("submit")
        print("variants")
        return 0

    if args.experiment == "bench":
        from .bench import run_suites

        # Same scale convention as fig13: full measurement runs at the
        # fault-injection scale, --scale test is the fast smoke pass.
        return run_suites(
            args.suite,
            scale="fi" if args.scale == "perf" else "test",
            json_path=args.json,
        )

    if args.experiment == "scorecard":
        session = harness.Session(args.scale)
        apps = harness.AppSession(args.scale)
        card = harness.compute_scorecard(session, apps, fi_injections=0)
        print(card.render())
        return 0 if card.failed == 0 else 1

    names = list(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in _EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'list'", file=sys.stderr)
        return 2

    session = harness.Session(args.scale)
    apps = harness.AppSession(args.scale)
    start = time.time()
    for name in names:
        experiment = _EXPERIMENTS[name](session, apps, args.injections,
                                        args.workers)
        print(experiment.render())
        if args.csv:
            import os

            os.makedirs(args.csv, exist_ok=True)
            path = os.path.join(args.csv, f"{experiment.id}.csv")
            experiment.save(path)
            print(f"-- wrote {path}")
        print(f"-- elapsed {time.time() - start:.0f}s\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
