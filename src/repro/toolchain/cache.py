"""Persistent content-addressed cache: the one on-disk store of every
build product.

Four kinds of entry share one directory, told apart by suffix:

* ``.json`` — a built variant's printed IR plus run metadata, written
  by :class:`~repro.toolchain.build.Toolchain` (:meth:`ArtifactCache.load`
  / :meth:`ArtifactCache.store`);
* ``.snapset`` — a cell's checkpoint set (:mod:`repro.snap.build`);
* ``.golden`` — a cell's golden output and stream totals
  (:func:`repro.faults.campaign.golden_profile`);
* ``.code`` — one function's marshalled code (:mod:`repro.cpu.compiled`).

Every entry goes through one pair: :meth:`ArtifactCache.put` seals the
body with a blake2b trailer and writes it atomically (write-to-temp +
rename, so concurrent writers race benignly — last writer wins with
identical bytes); :meth:`ArtifactCache.get` reads, unseals and decodes
it. A bad trailer (truncated or damaged file) or a ``decode`` that
raises a format error (an entry in a layout this build no longer
reads, :data:`DECODE_ERRORS`) is a counted ``invalid`` miss, and the
file is removed, so the caller rebuilds.

Keys are content digests chosen by each kind's owner: a changed input
(variant spec, pipeline version, IR package source, machine
geometry, emitted source) degrades to a miss, never to a wrong entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from ..chaos.hooks import chaos_point
from ..ir.module import Module
from ..ir.parser import ParseError, parse_module
from ..ir.printer import format_module

#: The suffix of build artifacts (the kind :attr:`ArtifactCache.stats`
#: counts).
ARTIFACT_SUFFIX = ".json"

_V = TypeVar("_V")

#: What a ``decode`` raises on an entry in a layout this build does not
#: read: malformed JSON, IR text, marshal data or checkpoint framing
#: (``SnapFormatError`` is a ``ValueError``). :meth:`ArtifactCache.get`
#: turns these into an invalid miss; any other exception is a bug and
#: propagates.
DECODE_ERRORS = (ValueError, KeyError, TypeError, EOFError, ParseError)


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
    """Lookup totals of one entry kind."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries that existed but failed validation (bad trailer or a
    #: decode error) and were discarded.
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
    """One rehydrated build artifact."""

    module: Module
    meta: Dict


def _decode_artifact(body: bytes) -> Artifact:
    payload = json.loads(body.decode("utf-8"))
    meta = payload["meta"]
    if not isinstance(meta, dict) or not isinstance(meta.get("ir_digest"),
                                                    str):
        raise ValueError("artifact without an IR digest")
    return Artifact(module=parse_module(payload["ir"]), meta=meta)


class ArtifactCache:
    """Content-addressed on-disk store of built variants, checkpoint
    sets and compiled code.

    ``root=None`` resolves :func:`default_cache_path` (honouring the
    ``$REPRO_TOOLCHAIN_CACHE`` off switch); pass an explicit directory
    to pin one (tests), or use :meth:`disabled` for a no-op cache.
    Statistics are kept per kind (:meth:`stats_for`).
    """

    def __init__(self, root: Optional[str] = None):
        if root is None:
            self._root = None if cache_disabled() else default_cache_path()
        else:
            self._root = root
        self._stats: Dict[str, CacheStats] = {}

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

    def stats_for(self, suffix: str) -> CacheStats:
        """The lookup totals of one entry kind."""
        return self._stats.setdefault(suffix, CacheStats())

    @property
    def stats(self) -> CacheStats:
        """Build-artifact (``.json``) totals."""
        return self.stats_for(ARTIFACT_SUFFIX)

    def _path(self, key: str, suffix: str = ARTIFACT_SUFFIX) -> str:
        return os.path.join(self._root, key[:2], f"{key}{suffix}")

    # The one get/put pair ----------------------------------------------------

    def get(self, key: str, suffix: str,
            decode: Callable[[bytes], _V]) -> Optional[_V]:
        """``decode(body)`` of the entry stored under ``key``, or None
        on a miss. A bad trailer or a ``decode`` that raises one of
        :data:`DECODE_ERRORS` counts as invalid and removes the file;
        any other exception from ``decode`` propagates. A hit touches the mtime, the LRU
        clock of :meth:`gc`."""
        if not self.enabled:
            return None
        stats = self.stats_for(suffix)
        path = self._path(key, suffix)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            stats.misses += 1
            return None
        rule = chaos_point("toolchain.cache.read", suffix=suffix)
        if rule is not None and rule.action == "corrupt" and data:
            data = data[:-1] + bytes([data[-1] ^ 0x01])  # a flipped bit
        body = _unseal(data)
        if body is not None:
            try:
                value = decode(body)
            except DECODE_ERRORS:
                body = None
        if body is None:
            stats.misses += 1
            stats.invalid += 1
            _quietly_remove(path)
            return None
        stats.hits += 1
        _touch(path)
        return value

    def put(self, key: str, suffix: str, body: bytes) -> bool:
        """Seal ``body`` and write it atomically under ``key``; False
        when disabled or unwritable (a read-only cache dir is
        non-fatal — the caller simply stays cold)."""
        if not self.enabled:
            return False
        if not _atomic_write(self._path(key, suffix), _seal(body)):
            return False
        self.stats_for(suffix).stores += 1
        return True

    def invalidate(self, key: str, suffix: str) -> None:
        """Count the entry at ``key`` invalid and remove it: for damage
        :meth:`get` cannot see because its caller decodes the body in
        parts, after the get (checkpoint sets decode a state on first
        use)."""
        if not self.enabled:
            return
        self.stats_for(suffix).invalid += 1
        _quietly_remove(self._path(key, suffix))

    def entries(self, suffix: str) -> List[Tuple[str, int]]:
        """``(key, size in bytes)`` of every stored entry of one kind,
        sorted by key."""
        out: List[Tuple[str, int]] = []
        if not self.enabled or not os.path.isdir(self._root):
            return out
        for dirpath, _dirnames, filenames in os.walk(self._root):
            for name in filenames:
                if not name.endswith(suffix):
                    continue
                try:
                    size = os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    continue
                out.append((name[:-len(suffix)], size))
        return sorted(out)

    # Build artifacts ---------------------------------------------------------

    def load(self, key: str) -> Optional[Artifact]:
        """Rehydrate the build artifact at ``key``, or None on a miss.
        The module is parsed, never printed again: the trailer rules
        out damage, and the key (which digests the sources of the IR
        package) rules out format drift."""
        return self.get(key, ARTIFACT_SUFFIX, _decode_artifact)

    def store(self, key: str, module: Module, meta: Dict) -> bool:
        """Persist a built variant (see :meth:`put`)."""
        if not self.enabled:
            return False
        payload = {"meta": meta, "ir": format_module(module)}
        return self.put(key, ARTIFACT_SUFFIX,
                        json.dumps(payload).encode("utf-8"))

    # Garbage collection ------------------------------------------------------

    def gc(self, max_bytes: int) -> GCStats:
        """Evict least-recently-used entries until the cache fits in
        ``max_bytes``. Covers every regular file under the root, of
        every kind, using mtime as the LRU clock (:meth:`get` touches
        on hit). Safe to run concurrently with readers: eviction is
        plain unlink, and a reader that loses the race just sees a
        miss and rebuilds."""
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


def _atomic_write(path: str, data: bytes) -> bool:
    """Write ``data`` to ``path`` via a temp file in the same directory
    and a rename, so readers see the old entry or the new one, never a
    partial one. False when the directory is unwritable."""
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


def _seal(body: bytes) -> bytes:
    """``body`` plus its blake2b trailer: the framing of every entry."""
    return body + _trailer(body)


def _unseal(data: bytes) -> Optional[bytes]:
    """The body of a :func:`_seal`-ed entry, or None when the trailer
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
