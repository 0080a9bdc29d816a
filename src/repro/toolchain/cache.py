"""Persistent content-addressed build-artifact cache.

A built variant is stored as one JSON file holding its *printed IR*
(the round-trippable textual form — the same text whose digest the
cluster handshake compares) plus the run metadata a consumer needs
without re-running ``build_at`` (entry, args, expected output, rtol).
Artifacts are addressed by a content key digested from (workload,
scale, variant-spec digest, toolchain pipeline digest), so:

- a variant-spec change (different options, new lanes default) or a
  pipeline change (``TOOLCHAIN_VERSION`` bump) degrades every old
  artifact to a miss, never to a wrong module;
- two processes on the same checkout share artifacts; writes are
  atomic (write-to-temp + rename), so concurrent builders race
  benignly — last writer wins with identical bytes.

An artifact is only trusted after rehydration re-digests the parsed
module and matches the recorded IR digest; mismatches (truncated file,
hand-edited artifact) are treated as misses and rebuilt.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, Optional

from ..ir.module import Module
from ..ir.parser import ParseError, parse_module
from ..ir.printer import format_module


def default_cache_path() -> str:
    """``$REPRO_TOOLCHAIN_CACHE`` if set, else a per-user cache dir
    (sibling of the lab result store)."""
    env = os.environ.get("REPRO_TOOLCHAIN_CACHE")
    if env:
        return env
    cache_root = os.environ.get(
        "XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache")
    )
    return os.path.join(cache_root, "repro-lab", "toolchain")


def cache_disabled() -> bool:
    """``$REPRO_TOOLCHAIN_CACHE`` set to ``0``/``off`` disables the
    on-disk cache entirely (cold builds every process)."""
    return os.environ.get("REPRO_TOOLCHAIN_CACHE", "").lower() in ("0", "off")


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Artifacts that existed but failed validation (parse error or
    #: digest mismatch) and were discarded.
    invalid: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "invalid": self.invalid}


@dataclass
class GCStats:
    """One :meth:`ArtifactCache.gc` sweep."""

    scanned_files: int = 0
    scanned_bytes: int = 0
    evicted_files: int = 0
    evicted_bytes: int = 0

    @property
    def kept_bytes(self) -> int:
        return self.scanned_bytes - self.evicted_bytes

    def as_dict(self) -> Dict[str, int]:
        return {"scanned_files": self.scanned_files,
                "scanned_bytes": self.scanned_bytes,
                "evicted_files": self.evicted_files,
                "evicted_bytes": self.evicted_bytes,
                "kept_bytes": self.kept_bytes}

    def render(self) -> str:
        return (f"cache gc: scanned {self.scanned_files} files "
                f"({self.scanned_bytes / 1e6:.1f} MB), evicted "
                f"{self.evicted_files} ({self.evicted_bytes / 1e6:.1f} MB), "
                f"kept {self.kept_bytes / 1e6:.1f} MB")


@dataclass
class Artifact:
    """One rehydrated cache entry."""

    module: Module
    meta: Dict


class ArtifactCache:
    """Content-addressed on-disk store of built variants.

    ``root=None`` resolves :func:`default_cache_path` (honouring the
    ``$REPRO_TOOLCHAIN_CACHE`` off switch); pass an explicit directory
    to pin one (tests), or construct with ``root=False`` semantics via
    :meth:`disabled` for a no-op cache.
    """

    def __init__(self, root: Optional[str] = None):
        if root is None:
            self._root = None if cache_disabled() else default_cache_path()
        else:
            self._root = root
        self.stats = CacheStats()

    @classmethod
    def disabled(cls) -> "ArtifactCache":
        cache = cls(root="")
        cache._root = None
        return cache

    @property
    def root(self) -> Optional[str]:
        return self._root

    @property
    def enabled(self) -> bool:
        return self._root is not None

    def _path(self, key: str) -> str:
        return entry_path(self._root, key, ".json")

    # Lookup ------------------------------------------------------------------

    def load(self, key: str, ir_digest) -> Optional[Artifact]:
        """Rehydrate the artifact at ``key``, or None on miss.

        ``ir_digest`` is the digest function (text -> digest) used to
        validate the parsed module against the recorded digest — the
        cache never returns a module whose IR does not re-print to the
        bytes it was stored under.
        """
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            module = parse_module(payload["ir"])
        except (OSError, ValueError, KeyError, ParseError):
            self.stats.misses += 1
            if os.path.exists(path):
                self.stats.invalid += 1
                _quietly_remove(path)
            return None
        meta = payload.get("meta", {})
        if ir_digest(format_module(module)) != meta.get("ir_digest"):
            # Printed form drifted (printer changed without a pipeline
            # bump, or the file was tampered with): rebuild.
            self.stats.misses += 1
            self.stats.invalid += 1
            _quietly_remove(path)
            return None
        self.stats.hits += 1
        _touch(path)
        return Artifact(module=module, meta=meta)

    # Store -------------------------------------------------------------------

    def store(self, key: str, module: Module, meta: Dict) -> bool:
        """Persist a built variant; returns False when disabled or the
        artifact cannot be written (read-only cache dir is non-fatal —
        the build simply stays cold)."""
        if not self.enabled:
            return False
        payload = {"meta": meta, "ir": format_module(module)}
        if not atomic_write(self._path(key),
                            json.dumps(payload).encode("utf-8")):
            return False
        self.stats.stores += 1
        return True

    # Garbage collection ------------------------------------------------------

    def gc(self, max_bytes: int) -> GCStats:
        """Evict least-recently-used entries until the cache fits in
        ``max_bytes``. Covers every regular file under the root —
        build artifacts (``.json``), the checkpoint sets
        :mod:`repro.snap` keys beside them (``.snapset``) and the
        compiled segment code :mod:`repro.cpu.compiled` persists
        (``.code``) — using mtime as the LRU clock (every loader
        touches on hit). Safe to run concurrently with readers:
        eviction is plain unlink, and a reader that loses the race
        just sees a miss and rebuilds."""
        stats = GCStats()
        if not self.enabled or not os.path.isdir(self._root):
            return stats
        entries = []
        for dirpath, _dirnames, filenames in os.walk(self._root):
            for name in filenames:
                path = os.path.join(dirpath, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                entries.append((st.st_mtime, st.st_size, path))
        stats.scanned_files = len(entries)
        stats.scanned_bytes = sum(size for _, size, _ in entries)
        excess = stats.scanned_bytes - max(0, max_bytes)
        if excess <= 0:
            return stats
        entries.sort()  # oldest mtime first
        for _mtime, size, path in entries:
            if stats.evicted_bytes >= excess:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            stats.evicted_files += 1
            stats.evicted_bytes += size
            parent = os.path.dirname(path)
            try:  # drop empty fanout dirs, best-effort
                os.rmdir(parent)
            except OSError:
                pass
        return stats


def entry_path(root: str, key: str, suffix: str) -> str:
    """Where the entry ``key`` of one kind (``suffix``) lives under
    ``root``. Two-level fanout keeps directories small at 14 workloads
    x 12 variants x scales but scales to thousands of entries."""
    return os.path.join(root, key[:2], f"{key}{suffix}")


def atomic_write(path: str, data: bytes) -> bool:
    """Write ``data`` to ``path`` via a temp file in the same directory
    and a rename, so readers see the old entry or the new one, never a
    partial one, and concurrent writers race benignly. False when the
    directory is unwritable (callers stay cold, they do not fail)."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            _quietly_remove(tmp)
            raise
    except OSError:
        return False
    return True


_TRAILER_LEN = 16


def _trailer(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=_TRAILER_LEN).digest()


def seal(body: bytes) -> bytes:
    """``body`` plus its blake2b trailer: the framing of binary cache
    entries (``.snapset``, ``.code``)."""
    return body + _trailer(body)


def unseal(data: bytes) -> Optional[bytes]:
    """The body of a :func:`seal`-ed entry, or None when the trailer
    does not match (truncated or corrupted file). The trailer catches
    damage, not tampering: anyone who can write the cache dir can
    write a matching trailer."""
    if len(data) < _TRAILER_LEN:
        return None
    body = data[:-_TRAILER_LEN]
    if _trailer(body) != data[-_TRAILER_LEN:]:
        return None
    return body


def _touch(path: str) -> None:
    """Best-effort mtime bump — the LRU clock for :meth:`gc`."""
    try:
        os.utime(path, None)
    except OSError:
        pass


def _quietly_remove(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass
