"""Content-addressed checkpoint store.

Serialized checkpoint sets land *in the toolchain artifact cache
directory* (same root, same two-level fanout, a ``.snapset`` suffix
instead of ``.json``), so one ``--gc`` budget governs build artifacts
and checkpoints together and every fabric — lab shards, cluster
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

A set file is ``RSST`` + version + meta JSON + length-prefixed state
blobs + a blake2b trailer over everything before it; a bad trailer (or
any parse error, the loader's own decode of the blobs included) counts
as invalid, removes the file, and reads as a miss. Loads touch mtime,
so :meth:`ArtifactCache.gc` LRU-evicts cold sets exactly like cold
build artifacts.
"""

from __future__ import annotations

import json
import os
import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..toolchain.cache import CacheStats, _quietly_remove, _touch, \
    atomic_write, cache_disabled, default_cache_path, entry_path, seal, \
    unseal
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


class SnapStore:
    """Persistent checkpoint-set store beside the artifact cache."""

    def __init__(self, root: Optional[str] = None):
        if root is None:
            self._root = None if cache_disabled() else default_cache_path()
        else:
            self._root = root
        self.stats = CacheStats()

    @classmethod
    def disabled(cls) -> "SnapStore":
        store = cls(root="")
        store._root = None
        return store

    @property
    def root(self) -> Optional[str]:
        return self._root

    @property
    def enabled(self) -> bool:
        return self._root is not None

    def _path(self, key: str) -> str:
        return entry_path(self._root, key, SNAPSET_SUFFIX)

    # Lookup ------------------------------------------------------------------

    def load(self, key: str, decode: Callable[[List[bytes]], object]
             ) -> Optional[Tuple[object, Dict]]:
        """``(decode(state blobs), meta)`` for the set stored under
        ``key``, or None. Validates the digest trailer; corrupt sets are
        discarded, and so is a set whose ``decode`` raises
        :class:`SnapFormatError` (one written in a layout this build no
        longer reads)."""
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                parsed = _parse_set(fh.read())
        except OSError:
            self.stats.misses += 1
            return None
        if parsed is not None:
            try:
                parsed = (decode(parsed[0]), parsed[1])
            except SnapFormatError:
                parsed = None
        if parsed is None:
            self.stats.misses += 1
            self.stats.invalid += 1
            _quietly_remove(path)
            return None
        self.stats.hits += 1
        _touch(path)
        return parsed

    # Store -------------------------------------------------------------------

    def store(self, key: str, blobs: Sequence[bytes], meta: Dict) -> bool:
        """Persist a checkpoint set atomically; False when disabled or
        unwritable (the campaign simply stays cold)."""
        if not self.enabled:
            return False
        if not atomic_write(self._path(key), _render_set(blobs, meta)):
            return False
        self.stats.stores += 1
        return True

    # Introspection -----------------------------------------------------------

    def entries(self) -> List[Dict]:
        """Meta + size for every stored set (``python -m repro snap
        ls``). Unreadable sets are listed as invalid, not raised."""
        out: List[Dict] = []
        if not self.enabled or not os.path.isdir(self._root):
            return out
        for dirpath, _dirnames, filenames in os.walk(self._root):
            for name in sorted(filenames):
                if not name.endswith(SNAPSET_SUFFIX):
                    continue
                path = os.path.join(dirpath, name)
                key = name[:-len(SNAPSET_SUFFIX)]
                try:
                    with open(path, "rb") as fh:
                        data = fh.read()
                    parsed = _parse_set(data)
                except OSError:
                    continue
                row = {"key": key, "bytes": len(data)}
                if parsed is None:
                    row["invalid"] = True
                else:
                    blobs, meta = parsed
                    row.update(meta)
                    row["states"] = len(blobs)
                out.append(row)
        return out


def _render_set(blobs: Sequence[bytes], meta: Dict) -> bytes:
    meta_json = json.dumps(meta, sort_keys=True).encode("utf-8")
    parts = [SNAPSET_MAGIC, _U32.pack(SNAP_VERSION),
             _U32.pack(len(meta_json)), meta_json,
             _U32.pack(len(blobs))]
    for blob in blobs:
        parts.append(_U64.pack(len(blob)))
        parts.append(blob)
    return seal(b"".join(parts))


def _parse_set(data: bytes) -> Optional[Tuple[List[bytes], Dict]]:
    body = unseal(data)
    if body is None or len(body) < 12 or body[:4] != SNAPSET_MAGIC:
        return None
    try:
        (version,) = _U32.unpack_from(body, 4)
        if version != SNAP_VERSION:
            return None
        (meta_len,) = _U32.unpack_from(body, 8)
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
        if pos != len(body):
            return None
    except (struct.error, ValueError):
        return None
    return blobs, meta
