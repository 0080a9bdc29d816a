"""``python -m repro variants`` — inspect the variant registry.

The debugging tool for cross-checkout drift: the cluster handshake can
only say "digest mismatch"; this command shows *which* (workload,
variant) cell disagrees. Run it on both machines and diff the output::

    python -m repro variants                       # registry table
    python -m repro variants --workloads histogram # + IR digest matrix
    python -m repro variants --workloads all --scale fi --json out.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from typing import List, Optional

from .build import (
    TOOLCHAIN_VERSION,
    Toolchain,
    pipeline_digest,
    toolchain_digest,
)
from .digest import digest_of
from .registry import REGISTRY


def _options_text(spec) -> str:
    options = spec.options
    if options is None:
        return "-"
    defaults = type(options)()
    parts = [
        f"{f.name}={getattr(options, f.name)!r}"
        for f in dataclasses.fields(options)
        if getattr(options, f.name) != getattr(defaults, f.name)
    ]
    return ", ".join(parts) if parts else "defaults"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro variants",
        description="List the toolchain variant registry (and, with "
                    "--workloads, per-cell IR digests for drift debugging).",
    )
    parser.add_argument("--workloads", default=None, metavar="W1,W2|all",
                        help="also print the IR digest of every listed "
                             "workload x variant cell")
    parser.add_argument("--scale", default="test",
                        choices=("test", "fi", "perf"),
                        help="build scale for the digest matrix "
                             "(default: test)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the report as JSON")
    parser.add_argument("--gc", action="store_true",
                        help="LRU-evict the on-disk artifact cache (build "
                             "artifacts and checkpoint sets) down to "
                             "--gc-max-mb")
    parser.add_argument("--gc-max-mb", type=int, default=512,
                        metavar="MB",
                        help="cache size budget for --gc (default: 512)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    print(f"toolchain v{TOOLCHAIN_VERSION}  "
          f"pipeline {pipeline_digest()[:12]}  "
          f"toolchain {toolchain_digest()[:12]}")
    print()
    rows = []
    for spec in REGISTRY.values():
        rows.append((spec.name, spec.kind, spec.cost_profile,
                     digest_of(spec.cache_key())[:12], _options_text(spec)))
    name_w = max(len(r[0]) for r in rows)
    kind_w = max(len(r[1]) for r in rows)
    cost_w = max(len(r[2]) for r in rows)
    header = (f"{'variant':<{name_w}}  {'kind':<{kind_w}}  "
              f"{'cost':<{cost_w}}  {'digest':<12}  options")
    print(header)
    print("-" * len(header))
    for name, kind, cost, dig, options in rows:
        print(f"{name:<{name_w}}  {kind:<{kind_w}}  {cost:<{cost_w}}  "
              f"{dig:<12}  {options}")
    aliased = [(s.name, s.aliases) for s in REGISTRY.values() if s.aliases]
    if aliased:
        print()
        for name, aliases in aliased:
            print(f"aliases: {', '.join(aliases)} -> {name}")

    report = {
        "toolchain_version": TOOLCHAIN_VERSION,
        "pipeline_digest": pipeline_digest(),
        "toolchain_digest": toolchain_digest(),
        "variants": [
            {
                "name": spec.name,
                "kind": spec.kind,
                "cost_profile": spec.cost_profile,
                "aliases": list(spec.aliases),
                "digest": digest_of(spec.cache_key()),
                "options": _options_text(spec),
                "description": spec.description,
            }
            for spec in REGISTRY.values()
        ],
    }

    if args.workloads:
        # Only the digest matrix needs the workload generators.
        from ..workloads.registry import ALL

        if args.workloads.strip() == "all":
            names = sorted(ALL)
        else:
            names = [w.strip() for w in args.workloads.split(",") if w.strip()]
        unknown = [n for n in names if n not in ALL]
        if unknown:
            print(f"unknown workload(s): {unknown}; have {sorted(ALL)}")
            return 2
        toolchain = Toolchain()
        print()
        print(f"IR digests at scale {args.scale!r} "
              "(compare across checkouts to localize drift):")
        matrix = {}
        for workload in names:
            matrix[workload] = {}
            for spec in REGISTRY.values():
                digest = toolchain.ir_digest(workload, args.scale, spec)
                matrix[workload][spec.name] = digest
                print(f"  {workload:<18} {spec.name:<16} {digest[:16]}")
        stats = toolchain.cache.stats
        print(f"  artifact cache: {stats.hits} hits, {stats.misses} misses, "
              f"{stats.stores} stores")
        report["scale"] = args.scale
        report["ir_digests"] = matrix
        report["cache"] = {
            "enabled": toolchain.cache.enabled,
            "hits": stats.hits,
            "misses": stats.misses,
            "stores": stats.stores,
        }

    if args.gc:
        from .cache import ArtifactCache

        cache = ArtifactCache()
        if not cache.enabled:
            print("cache gc: artifact cache disabled, nothing to collect")
            report["gc"] = None
        else:
            gc_stats = cache.gc(args.gc_max_mb * 1024 * 1024)
            print()
            print(gc_stats.render())
            report["gc"] = gc_stats.as_dict()

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"-- wrote {args.json}")
    return 0
