"""Keys and framing of the two entry kinds a golden run leaves behind.

Serialized checkpoint sets are ``.snapset`` entries of the toolchain
:class:`~repro.toolchain.cache.ArtifactCache` (same root, same
sealed get/put as build artifacts and compiled code), so one ``--gc``
budget governs them all and every fabric — lab shards, cluster
workers, the campaign service — shares a single set per (workload,
variant) cell, for every fault model, instead of each re-executing
golden prefixes.

The key digests everything that could change the bytes of the set:

* the toolchain pipeline digest and the module's IR digest (workload +
  scale + variant are subsumed by the latter — any pass change or
  version bump invalidates cleanly to a miss, never a wrong state);
* the machine-semantics digest (the sources of ``repro.cpu``,
  ``repro.avx`` and the checkpoint format): a state captured under
  other instruction semantics or another state layout never resumes;
* the run coordinates: entry, args key, eligibility-predicate key;
* the machine geometry (engine, budget, cache sizes, heap/stack
  capacity, call depth, counter mode) — a checkpoint is only resumable
  on the machine shape that produced it;
* the capture spacing constants of :mod:`repro.snap.build`;
* the checkpoint serialization format version.

A set body is ``RSST`` + version + meta JSON + length-prefixed state
blobs (:func:`render_set`); the cache seals it. The meta records every
state's four stream counters (:func:`set_marks`), so a reader chooses
among states without decoding any. :func:`parse_set` and
:func:`set_marks` raise :class:`SnapFormatError` on any framing error
or missing marks, so the cache counts such a set as invalid, removes
it, and reads it as a miss.

A cell's golden profile — the fault-free output and the five stream
totals a campaign draws its plans from — is a ``.golden`` entry
(:func:`golden_key`, :func:`render_golden`): ``RGLD`` + the checkpoint
value encoding, so float outputs stay bit-exact.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, NamedTuple, Sequence, Tuple

from ..toolchain.digest import digest_of
from .format import SNAP_VERSION, SnapFormatError, decode_value, encode_value

SNAPSET_MAGIC = b"RSST"
SNAPSET_SUFFIX = ".snapset"
GOLDEN_MAGIC = b"RGLD"
GOLDEN_SUFFIX = ".golden"
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def checkpoint_key(module, entry: str, args_key, ekey,
                   machine_key: tuple) -> str:
    """The content address of one checkpoint set."""
    from ..toolchain.build import module_digest, semantics_digest, \
        toolchain_digest
    from .build import CAPTURES, MIN_INTERVAL

    return digest_of([
        "snap-set", SNAP_VERSION,
        toolchain_digest(),
        semantics_digest(),
        module_digest(module),
        entry,
        list(args_key) if isinstance(args_key, tuple) else args_key,
        list(ekey) if isinstance(ekey, tuple) else ekey,
        list(machine_key),
        CAPTURES, MIN_INTERVAL,
    ])


def golden_key(module, entry: str, args_key, ekey,
               machine_key: tuple) -> str:
    """The content address of one golden profile: the run coordinates
    :func:`checkpoint_key` hashes, less the capture spacing."""
    from ..toolchain.build import module_digest, semantics_digest, \
        toolchain_digest

    return digest_of([
        "golden", SNAP_VERSION,
        toolchain_digest(),
        semantics_digest(),
        module_digest(module),
        entry,
        args_key,
        ekey,
        list(machine_key),
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


class StreamMarks(NamedTuple):
    """A checkpoint's four stream counters, as its set's meta records
    them. Field names match :class:`~repro.cpu.resumable.ResumeState`,
    so :func:`~repro.cpu.resumable.stream_mark` reads either."""

    eligible: int
    mem_accesses: int
    cond_branches: int
    checker_sites: int


def marks_meta(states) -> Dict[str, List[int]]:
    """The ``streams`` meta of a set of states (or marks): one list
    per stream, one entry per state."""
    return {name: [getattr(s, name) for s in states]
            for name in StreamMarks._fields}


def set_marks(meta: Dict, count: int) -> Tuple[StreamMarks, ...]:
    """The per-state marks of a set's meta; raises
    :class:`SnapFormatError` when the meta has none (a set written
    before they were recorded), they do not cover ``count`` states, or
    a stream's marks decrease along the set (states are stored in
    capture order)."""
    streams = meta.get("streams")
    if not isinstance(streams, dict):
        raise SnapFormatError("checkpoint set without stream marks")
    columns = [streams.get(name) for name in StreamMarks._fields]
    if any(not isinstance(col, list) or len(col) != count
           or not all(type(v) is int and v >= 0 for v in col)
           or any(a > b for a, b in zip(col, col[1:]))
           for col in columns):
        raise SnapFormatError("malformed checkpoint stream marks")
    return tuple(StreamMarks(*row) for row in zip(*columns))


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


def render_golden(output: Sequence, totals: Sequence[int]) -> bytes:
    """The body of one ``.golden`` entry: the golden output and the
    profile's stream totals, in the checkpoint value encoding."""
    return GOLDEN_MAGIC + encode_value((tuple(output), tuple(totals)))


def parse_golden(body: bytes) -> Tuple[tuple, Tuple[int, ...]]:
    """``(output, totals)`` of a :func:`render_golden` body; raises
    :class:`SnapFormatError` when the body is not one."""
    if body[:4] != GOLDEN_MAGIC:
        raise SnapFormatError("not a golden profile")
    value = decode_value(body[4:])
    if (type(value) is not tuple or len(value) != 2
            or type(value[0]) is not tuple or type(value[1]) is not tuple
            or not all(type(v) is int and v >= 0 for v in value[1])):
        raise SnapFormatError("malformed golden profile")
    return value
