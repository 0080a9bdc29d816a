"""Checkpoint-set keys and framing.

Serialized checkpoint sets are ``.snapset`` entries of the toolchain
:class:`~repro.toolchain.cache.ArtifactCache` (same root, same
sealed get/put as build artifacts and compiled code), so one ``--gc``
budget governs them all and every fabric — lab shards, cluster
workers, the campaign service — shares a single set per cell instead
of each re-executing golden prefixes.

The key digests everything that could change the bytes of the set:

* the toolchain pipeline digest and the module's IR digest (workload +
  scale + variant are subsumed by the latter — any pass change or
  version bump invalidates cleanly to a miss, never a wrong state);
* the run coordinates: entry, args key, eligibility-predicate key;
* the machine geometry (engine, budget, cache sizes, heap/stack
  capacity, call depth, counter mode) — a checkpoint is only resumable
  on the machine shape that produced it;
* the fault model and placement config, which choose the capture
  points;
* the checkpoint serialization format version.

A set body is ``RSST`` + version + meta JSON + length-prefixed state
blobs (:func:`render_set`); the cache seals it. :func:`parse_set`
raises :class:`SnapFormatError` on any framing error, so the cache
counts such a set (like one whose blobs the builder cannot decode) as
invalid, removes it, and reads it as a miss.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Sequence, Tuple

from ..toolchain.digest import digest_of
from .format import SNAP_VERSION, SnapFormatError

SNAPSET_MAGIC = b"RSST"
SNAPSET_SUFFIX = ".snapset"
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def checkpoint_key(module, entry: str, args_key, ekey, model: str,
                   budget: int, machine_key: tuple,
                   placement_key: tuple) -> str:
    """The content address of one checkpoint set."""
    from ..toolchain.build import module_digest, toolchain_digest

    return digest_of([
        "snap-set", SNAP_VERSION,
        toolchain_digest(),
        module_digest(module),
        entry,
        list(args_key) if isinstance(args_key, tuple) else args_key,
        list(ekey) if isinstance(ekey, tuple) else ekey,
        model,
        budget,
        list(machine_key),
        list(placement_key),
    ])


def machine_key(config) -> tuple:
    """The machine-geometry component of :func:`checkpoint_key`."""
    return (
        config.engine,
        config.cost_model.name,
        bool(config.collect_timing),
        bool(config.cache_enabled),
        config.l1_size, config.l2_size, config.l3_size,
        config.max_instructions,
        config.heap_capacity, config.stack_capacity,
        bool(config.collect_by_opcode),
        config.max_call_depth,
    )


def render_set(blobs: Sequence[bytes], meta: Dict) -> bytes:
    """The body of one ``.snapset`` entry."""
    meta_json = json.dumps(meta, sort_keys=True).encode("utf-8")
    parts = [SNAPSET_MAGIC, _U32.pack(SNAP_VERSION),
             _U32.pack(len(meta_json)), meta_json,
             _U32.pack(len(blobs))]
    for blob in blobs:
        parts.append(_U64.pack(len(blob)))
        parts.append(blob)
    return b"".join(parts)


def parse_set(body: bytes) -> Tuple[List[bytes], Dict]:
    """``(state blobs, meta)`` of a :func:`render_set` body; raises
    :class:`SnapFormatError` when the body is not one of this format
    version."""
    if len(body) < 12 or body[:4] != SNAPSET_MAGIC:
        raise SnapFormatError("not a checkpoint set")
    (version,) = _U32.unpack_from(body, 4)
    (meta_len,) = _U32.unpack_from(body, 8)
    if version != SNAP_VERSION:
        raise SnapFormatError(f"checkpoint set version {version}")
    try:
        pos = 12
        meta = json.loads(body[pos:pos + meta_len].decode("utf-8"))
        pos += meta_len
        (count,) = _U32.unpack_from(body, pos)
        pos += 4
        blobs = []
        for _ in range(count):
            (n,) = _U64.unpack_from(body, pos)
            pos += 8
            blobs.append(body[pos:pos + n])
            pos += n
    except (struct.error, ValueError) as exc:
        raise SnapFormatError(f"malformed checkpoint set: {exc}") from exc
    if pos != len(body):
        raise SnapFormatError("trailing bytes after checkpoint set")
    return blobs, meta
