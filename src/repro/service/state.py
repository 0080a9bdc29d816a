"""Service-side campaign state: records, event feeds, restart manifest.

A :class:`Campaign` is the service's ledger entry for one submission —
who asked (tenant), what they asked for (the validated
:class:`~repro.service.spec.CampaignRequest` and its digest), where it
is in its lifecycle, and what came out. All mutation happens on the
service's event loop thread; runner threads report back through
:meth:`~repro.service.app.ReproService` callbacks that are marshalled
onto the loop, so records need no locks.

The :class:`CampaignFeed` is the one genuinely cross-thread piece: lab
:class:`~repro.lab.events.EventBus` subscribers fire on whichever
thread executes the campaign, while HTTP streaming consumers await on
the loop. The feed keeps a bounded replay ring (late subscribers see
recent history) and fans out to per-subscriber asyncio queues via
``call_soon_threadsafe`` — the only loop-safe way in from a foreign
thread.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from .spec import CampaignRequest

#: Lifecycle: ``queued`` (admitted, awaiting a scheduler slot) ->
#: ``running`` -> one of the terminal states. ``interrupted`` means the
#: service drained before the campaign finished; completed shards are
#: in the store and an identical resubmission resumes from them.
QUEUED = "queued"
RUNNING = "running"
SUCCEEDED = "succeeded"
FAILED = "failed"
INTERRUPTED = "interrupted"
TERMINAL = (SUCCEEDED, FAILED, INTERRUPTED)

#: Events replayed to a late ``/events`` subscriber.
FEED_RING = 2048

#: A queued sentinel that means "feed closed, stop streaming".
_CLOSE = None


class CampaignFeed:
    """Bounded-replay, multi-subscriber bridge from EventBus threads to
    asyncio consumers."""

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._lock = threading.Lock()
        self._ring: Deque[Dict] = deque(maxlen=FEED_RING)
        self._dropped = 0
        self._queues: List[asyncio.Queue] = []
        self._closed = False

    def publish(self, event: Dict) -> None:
        """Append an event; any thread."""
        with self._lock:
            if self._closed:
                return
            if len(self._ring) == self._ring.maxlen:
                self._dropped += 1
            self._ring.append(event)
            queues = list(self._queues)
        for queue in queues:
            self._loop.call_soon_threadsafe(queue.put_nowait, event)

    def close(self) -> None:
        """No more events will arrive; wake every subscriber."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            queues = list(self._queues)
        for queue in queues:
            self._loop.call_soon_threadsafe(queue.put_nowait, _CLOSE)

    def subscribe(self) -> Tuple[List[Dict], Optional[asyncio.Queue]]:
        """(replayable history, live queue or None if already closed).
        Loop thread only."""
        with self._lock:
            history = list(self._ring)
            if self._closed:
                return history, None
            queue: asyncio.Queue = asyncio.Queue()
            self._queues.append(queue)
            return history, queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        with self._lock:
            if queue in self._queues:
                self._queues.remove(queue)

    @property
    def dropped(self) -> int:
        return self._dropped


@dataclass
class Campaign:
    """One admitted submission and everything the API reports about it."""

    id: str
    tenant: str
    request: CampaignRequest
    digest: str
    feed: CampaignFeed
    status: str = QUEUED
    submitted: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    #: Leader campaign id when this submission was coalesced onto an
    #: identical in-flight one (same digest): it runs no injections of
    #: its own, it adopts the leader's outcome.
    coalesced_with: Optional[str] = None
    #: Structured error (``SpecError``/exception form) on FAILED.
    error: Optional[Dict] = None
    #: Final counts + provenance on SUCCEEDED (see ``result_summary``).
    result: Optional[Dict] = None
    #: Live partial counters (shards/injections done vs total),
    #: updated by the campaign's event subscriber as shards land.
    progress: Dict = field(default_factory=dict)
    #: Manifest campaign id this record was recovered from, when the
    #: service resubmitted it on cold start after a drain/crash.
    resumed_from: Optional[str] = None

    def as_dict(self) -> Dict:
        out = {
            "id": self.id,
            "tenant": self.tenant,
            "status": self.status,
            "digest": self.digest,
            "spec": self.request.as_dict(),
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
        }
        if self.progress:
            out["progress"] = dict(self.progress)
        if self.coalesced_with:
            out["coalesced_with"] = self.coalesced_with
        if self.resumed_from:
            out["resumed_from"] = self.resumed_from
        if self.error is not None:
            out["error"] = self.error
        if self.result is not None:
            out["result"] = self.result
        return out


def result_summary(outcome) -> Dict:
    """Flatten a :class:`~repro.lab.durable.DurableCampaign` into the
    JSON shape ``GET /campaigns/{id}/results`` serves."""
    from ..faults.outcomes import Outcome

    result, info = outcome.result, outcome.info
    return {
        # Every outcome class, zeros included — the same shape as the
        # campaign CLI's JSON report, so the two are diffable.
        "counts": {o.value: int(result.counts[o]) for o in Outcome},
        "rates": result.as_dict(),
        "injections_used": info.injections_used,
        "injections_executed": info.injections_executed,
        "injections_from_store": info.injections_from_store,
        "shards_total": info.shards_total,
        "shards_from_store": info.shards_from_store,
        "shards_executed": info.shards_executed,
        "stopped_early": info.stopped_early,
        "ci_halfwidth": info.ci_halfwidth,
        "spec_key": outcome.spec.spec_key if outcome.spec else None,
    }


# Restart manifest -----------------------------------------------------------
#
# Written on graceful drain (and after every terminal transition while
# draining): enough for a restarted service to resubmit whatever was
# cut short (interrupted/queued rows — see
# ``ReproService._recover_from_manifest``) and for operators to audit
# what finished. Durability discipline: the payload is checksummed,
# written to a temp file, fsync'd, and renamed into place — a torn or
# tampered manifest fails its checksum on load and degrades to "no
# manifest" (a fresh start), never to resubmitting garbage.

MANIFEST_VERSION = 1


def _manifest_checksum(payload: Dict) -> str:
    import hashlib

    body = json.dumps({k: v for k, v in payload.items() if k != "checksum"},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def write_manifest(path: str, campaigns: List[Campaign],
                   reason: str) -> None:
    payload = {
        "version": MANIFEST_VERSION,
        "written": time.time(),
        "reason": reason,
        "campaigns": [c.as_dict() for c in campaigns],
    }
    payload["checksum"] = _manifest_checksum(payload)
    tmp = f"{path}.tmp"
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_manifest(path: str) -> Optional[Dict]:
    """The manifest at ``path``, or None when it is absent, torn
    (checksum mismatch), or from a different schema version."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    if payload.get("version") != MANIFEST_VERSION:
        return None
    if payload.get("checksum") != _manifest_checksum(payload):
        return None
    return payload
