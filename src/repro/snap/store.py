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
  ``repro.avx`` and the checkpoint format, its marshal version
  included): a state captured under other instruction semantics or
  another state layout never resumes;
* the run coordinates: entry, args key, eligibility-predicate key;
* the machine geometry (engine, budget, cache sizes, heap/stack
  capacity, call depth, counter mode) — a checkpoint is only resumable
  on the machine shape that produced it;
* the capture spacing constants of :mod:`repro.snap.build`;
* the checkpoint serialization format version.

A set body is ``RSST`` + one encoded ``(version, meta, state blobs)``
tree (:func:`render_set`, the value encoding of
:mod:`repro.snap.format`); the cache seals it. The meta records every
state's four stream counters (:func:`set_marks`), so a reader chooses
among states without decoding any, and where the golden run ends
(:func:`set_end`), which the reconvergence poll derives outcomes from.
:func:`parse_set`, :func:`set_marks` and :func:`set_end` raise
:class:`SnapFormatError` on any framing error or missing meta, so the
cache counts such a set as invalid, removes it, and reads it as a
miss.

A cell's golden profile — the fault-free output and the five stream
totals a campaign draws its plans from — is a ``.golden`` entry
(:func:`golden_key`, :func:`render_golden`): ``RGLD`` + the same value
encoding, so float outputs stay bit-exact.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from ..toolchain.digest import digest_of
from .format import SNAP_VERSION, SnapFormatError, decode_value, encode_value

SNAPSET_MAGIC = b"RSST"
SNAPSET_SUFFIX = ".snapset"
GOLDEN_MAGIC = b"RGLD"
GOLDEN_SUFFIX = ".golden"


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


class GoldenEnd(NamedTuple):
    """Where the golden run a set was captured from ends: its dynamic
    instruction count and the corrections it made, as the set's meta
    records them (``end``)."""

    executed: int
    corrections: int


def set_end(meta: Dict) -> GoldenEnd:
    """The golden end of a set's meta; raises :class:`SnapFormatError`
    when the meta has none (a set written before it was recorded) or
    it is not two non-negative counts."""
    end = meta.get("end")
    if (not isinstance(end, list) or len(end) != 2
            or not all(type(v) is int and v >= 0 for v in end)):
        raise SnapFormatError("checkpoint set without its golden end")
    return GoldenEnd(*end)


def render_set(blobs: Sequence[bytes], meta: Dict) -> bytes:
    """The body of one ``.snapset`` entry."""
    return SNAPSET_MAGIC + encode_value((SNAP_VERSION, meta, list(blobs)))


def parse_set(body: bytes) -> Tuple[List[bytes], Dict]:
    """``(state blobs, meta)`` of a :func:`render_set` body; raises
    :class:`SnapFormatError` when the body is not one of this format
    version."""
    if body[:4] != SNAPSET_MAGIC:
        raise SnapFormatError("not a checkpoint set")
    value = decode_value(body, 4)
    if type(value) is not tuple or len(value) != 3:
        raise SnapFormatError("malformed checkpoint set")
    version, meta, blobs = value
    if version != SNAP_VERSION:
        raise SnapFormatError(f"checkpoint set version {version}")
    if (type(meta) is not dict or type(blobs) is not list
            or not all(type(blob) is bytes for blob in blobs)):
        raise SnapFormatError("malformed checkpoint set")
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
    value = decode_value(body, 4)
    if (type(value) is not tuple or len(value) != 2
            or type(value[0]) is not tuple or type(value[1]) is not tuple
            or not all(type(v) is int and v >= 0 for v in value[1])):
        raise SnapFormatError("malformed golden profile")
    return value
