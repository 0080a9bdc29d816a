"""``python -m repro snap`` — build and inspect mid-run checkpoints.

::

    python -m repro snap build                 # default FI cells
    python -m repro snap build --workloads histogram --variants elzar
    python -m repro snap ls                    # stored sets + meta
    python -m repro snap stats                 # store totals

``build`` warms the content-addressed store with one golden profile
and one checkpoint set per (workload, variant) cell — the set every
fault model's campaign on that cell resumes from, exactly what it
would build lazily on first injection — so lab shards, cluster
workers and the service all start warm. A second
``build`` is a pure cache pass (100% hits, zero golden and capture
runs, zero states decoded); CI asserts that.
Its ``--json`` report lists each cell's key, marks and the sha256 of
every state blob, so two processes' sets can be compared byte for
byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from typing import List, Optional

from ..faults import campaign as fc
from ..toolchain.build import default_toolchain
from ..toolchain.cache import ArtifactCache
from ..workloads.registry import FI_BENCHMARKS
from .build import build_checkpoints
from .store import GOLDEN_SUFFIX, SNAPSET_SUFFIX, parse_set


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro snap",
        description="Build and inspect mid-run injection checkpoints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build (or warm-load) checkpoint "
                                         "sets for campaign cells")
    build.add_argument("--workloads", default=None, metavar="W1,W2|all",
                       help="workloads to build (default: the FI benchmark "
                            "set)")
    build.add_argument("--variants", default="native,elzar",
                       metavar="V1,V2", help="variants per workload "
                                             "(default: native,elzar)")
    build.add_argument("--scale", default="test",
                       choices=("test", "fi", "perf"))
    build.add_argument("--json", metavar="PATH", default=None)

    ls = sub.add_parser("ls", help="list stored checkpoint sets")
    ls.add_argument("--json", metavar="PATH", default=None)

    stats = sub.add_parser("stats", help="store totals")
    stats.add_argument("--json", metavar="PATH", default=None)
    return parser


def _cmd_build(args) -> int:
    if args.workloads is None:
        names = [w.name for w in FI_BENCHMARKS]
    elif args.workloads.strip() == "all":
        from ..workloads.registry import ALL
        names = sorted(ALL)
    else:
        names = [w.strip() for w in args.workloads.split(",") if w.strip()]
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    toolchain = default_toolchain()
    cache = ArtifactCache()
    config = fc.CampaignConfig()
    golden_runs = fc.GOLDEN_RUNS
    decoded = 0
    rows = []
    for name in names:
        for variant in variants:
            built = toolchain.build(name, args.scale, variant)
            _, profile = fc.golden_profile(built.module, built.entry,
                                           built.args, cache=cache)
            budget = fc.hang_budget(profile.executed, config.hang_factor)
            cset = build_checkpoints(
                built.module, built.entry, built.args, budget=budget,
                eligible=profile.eligible, cache=cache,
            )
            if cset is None:
                rows.append({"workload": name, "variant": variant,
                             "skipped": True,
                             "eligible": profile.eligible})
                print(f"  {name:<18} {variant:<12} skipped "
                      f"(eligible={profile.eligible})")
                continue
            decoded += cset.decoded
            rows.append({
                "workload": name, "variant": variant,
                "key": cset.key, "states": len(cset.states),
                "marks": cset.marks, "from_cache": cset.from_cache,
                "eligible": profile.eligible,
                "state_sha256": [hashlib.sha256(cset.blob(i)).hexdigest()
                                 for i in range(len(cset.states))],
            })
            source = "cache" if cset.from_cache else "built"
            print(f"  {name:<18} {variant:<12} {len(cset.states):>3} "
                  f"checkpoints  {source}  key {cset.key[:12]}")
    s = cache.stats_for(SNAPSET_SUFFIX)
    g = cache.stats_for(GOLDEN_SUFFIX)
    golden_runs = fc.GOLDEN_RUNS - golden_runs
    print(f"  snap store: {s.hits} hits, {s.misses} misses, "
          f"{s.stores} stores; golden profiles: {g.hits} hits, "
          f"{g.misses} misses, {golden_runs} runs; {decoded} states "
          "decoded")
    report = {"scale": args.scale, "cells": rows,
              "store": s.as_dict(), "golden": g.as_dict(),
              "golden_runs": golden_runs, "decoded_states": decoded}
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"-- wrote {args.json}")
    return 0


def _stored_sets(cache: ArtifactCache) -> List[dict]:
    """Meta + size of every stored set. A set that fails to read is
    listed as invalid (and, like any invalid entry, dropped)."""
    rows = []
    for key, size in cache.entries(SNAPSET_SUFFIX):
        row = {"key": key, "bytes": size}
        parsed = cache.get(key, SNAPSET_SUFFIX, parse_set)
        if parsed is None:
            row["invalid"] = True
        else:
            blobs, meta = parsed
            row.update(meta)
            row["states"] = len(blobs)
        rows.append(row)
    return rows


def _cmd_ls(args) -> int:
    cache = ArtifactCache()
    entries = _stored_sets(cache)
    if not entries:
        print("no checkpoint sets stored"
              + ("" if cache.enabled else " (store disabled)"))
    for row in entries:
        if row.get("invalid"):
            print(f"  {row['key'][:16]}  INVALID  {row['bytes']} bytes")
            continue
        marks = row.get("streams", {}).get("eligible", [])
        span = f"{marks[0]}..{marks[-1]}" if marks else "-"
        print(f"  {row['key'][:16]}  {row.get('module', '?'):<24} "
              f"@{row.get('entry', '?'):<16} "
              f"{row.get('states', 0):>3} states  eligible {span}  "
              f"{row['bytes'] / 1e3:.0f} kB")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"sets": entries}, fh, indent=2)
            fh.write("\n")
        print(f"-- wrote {args.json}")
    return 0


def _cmd_stats(args) -> int:
    cache = ArtifactCache()
    entries = _stored_sets(cache)
    total_bytes = sum(r["bytes"] for r in entries)
    total_states = sum(r.get("states", 0) for r in entries)
    invalid = sum(1 for r in entries if r.get("invalid"))
    print(f"checkpoint store: {cache.root or '(disabled)'}")
    print(f"  {len(entries)} sets, {total_states} states, "
          f"{total_bytes / 1e6:.1f} MB, {invalid} invalid")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"root": cache.root, "sets": len(entries),
                       "states": total_states, "bytes": total_bytes,
                       "invalid": invalid}, fh, indent=2)
            fh.write("\n")
        print(f"-- wrote {args.json}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "build":
        return _cmd_build(args)
    if args.command == "ls":
        return _cmd_ls(args)
    return _cmd_stats(args)
