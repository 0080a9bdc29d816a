"""Campaign telemetry: the lab's event stream.

Everything the lab does — shard completions, store hits, worker
retries, degradation to serial, adaptive stopping — is narrated as
:class:`LabEvent`s on an :class:`EventBus`. Consumers range from the
``python -m repro campaign`` progress reporter to tests that subscribe
in order to interrupt a campaign mid-flight: resume equivalence is
exercised through the same seam the Ctrl-C path uses.

Subscribers run synchronously on the emitting side, *after* the state
they describe has been persisted (a ``shard-completed`` event fires
only once the shard's counts are in the result store). An exception
raised by a subscriber therefore aborts the campaign without losing
completed work — that is the supported way to interrupt a run
programmatically (see :func:`interrupt_after`).

Event kinds emitted today:

================== ====================================================
``campaign-started``   workload, version, shards, injections, from_store
``shard-store-hit``    index, n
``shard-completed``    index, n, seconds, counts (by outcome value)
``shard-retry``        index, attempt, reason
``shard-degraded``     index, reason (runs in-process from here on)
``engine-compile``     digest, digest_unavailable, variant,
                       functions, blocks, segments, compile_ms,
                       code_hits (in-process + disk), code_misses
                       (real ``compile()`` calls), code_disk_hits,
                       code_invalid (the compiled engine translated
                       this campaign's module; cache-warm campaigns
                       emit none)
``store-stale``        purged (stale shard rows dropped for this cell)
``store-disabled``     reason (unkeyable eligibility predicate)
``adaptive-stop``      injections, halfwidth, target
``campaign-finished``  workload, version, injections, executed, from_store
================== ====================================================
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


class CampaignInterrupted(KeyboardInterrupt):
    """Raised (by a subscriber) to abort a campaign between shards.

    Subclasses :class:`KeyboardInterrupt` so the simulated interrupt of
    the test suite and a real Ctrl-C take the identical path through
    the orchestrator and the CLI.
    """


@dataclass
class LabEvent:
    kind: str
    data: Dict[str, object] = field(default_factory=dict)
    ts: float = 0.0
    #: Monotonic stamp (``time.monotonic()``) taken at emit time, so
    #: inter-event latencies in a JSONL trace survive wall-clock jumps.
    mono: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        out = {"kind": self.kind, "ts": self.ts, "mono": self.mono}
        out.update(self.data)
        return out


class EventBus:
    """Synchronous fan-out of :class:`LabEvent`s to subscribers."""

    def __init__(self):
        self._subscribers: List[Callable[[LabEvent], None]] = []

    def subscribe(self, fn: Callable[[LabEvent], None]) -> None:
        self._subscribers.append(fn)

    def emit(self, kind: str, **data) -> LabEvent:
        event = LabEvent(kind, data, time.time(), time.monotonic())
        for fn in self._subscribers:
            fn(event)
        return event


class EventLog:
    """Subscriber that records every event (tests, post-hoc stats)."""

    def __init__(self):
        self.events: List[LabEvent] = []

    def __call__(self, event: LabEvent) -> None:
        self.events.append(event)

    def kinds(self) -> List[str]:
        return [e.kind for e in self.events]

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def of(self, kind: str) -> List[LabEvent]:
        return [e for e in self.events if e.kind == kind]


class JsonlSink:
    """Subscriber that appends every event to a JSONL file — one JSON
    object per line, carrying both the wall-clock (``ts``) and the
    monotonic (``mono``) emit stamp. Both local (``--events-log``) and
    cluster campaigns leave the same inspectable trace format.

    Each line is flushed as it is written, so readers tailing the file
    (``GET /campaigns/{id}/events``, ``tail -f`` on ``--events-log``)
    never see a torn or stale line, and a trace is complete up to
    the moment of an interrupt or crash. Values that JSON cannot encode
    degrade to ``repr`` rather than aborting the campaign.

    ``fsync=True`` additionally forces every line to stable storage
    before the emitter proceeds — for audit trails that must survive a
    machine (not just process) crash. It costs a syscall per event;
    the default is the plain flush.
    """

    def __init__(self, path: str, fsync: bool = False):
        self.path = path
        self.fsync = fsync
        self._fh = open(path, "a", encoding="utf-8")

    def __call__(self, event: LabEvent) -> None:
        try:
            line = json.dumps(event.as_dict(), sort_keys=True)
        except TypeError:
            line = json.dumps(
                {k: repr(v) for k, v in event.as_dict().items()},
                sort_keys=True,
            )
        self._fh.write(line + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()


def interrupt_after(n: int, kind: str = "shard-completed"):
    """Subscriber that raises :class:`CampaignInterrupted` once ``n``
    events of ``kind`` have fired — completed shards stay persisted, so
    the next identical invocation resumes from the store."""
    state = {"seen": 0}

    def subscriber(event: LabEvent) -> None:
        if event.kind != kind:
            return
        state["seen"] += 1
        if state["seen"] >= n:
            raise CampaignInterrupted(
                f"simulated interrupt after {state['seen']} {kind} event(s)"
            )

    return subscriber


class ConsoleReporter:
    """Render lab events as terse per-shard progress lines with an ETA
    (moving average of completed-shard latency times shards left)."""

    def __init__(self, stream=None):
        self._stream = stream if stream is not None else sys.stdout
        self._label = ""
        self._total = 0
        self._done = 0
        self._latencies: List[float] = []

    def _say(self, text: str) -> None:
        print(text, file=self._stream, flush=True)

    def _eta(self) -> Optional[float]:
        if not self._latencies:
            return None
        remaining = self._total - self._done
        return remaining * (sum(self._latencies) / len(self._latencies))

    def __call__(self, event: LabEvent) -> None:
        data = event.data
        if event.kind == "campaign-started":
            self._label = f"{data.get('workload')}/{data.get('version')}"
            self._total = int(data.get("shards", 0))
            self._done = int(data.get("from_store", 0))
            self._latencies = []
            self._say(
                f"[lab] {self._label}: {data.get('injections')} injections "
                f"in {self._total} shard(s), {self._done} from store"
            )
        elif event.kind == "shard-completed":
            self._done += 1
            self._latencies.append(float(data.get("seconds", 0.0)))
            eta = self._eta()
            eta_text = f"  eta {eta:.1f}s" if eta and eta > 0.05 else ""
            self._say(
                f"[lab]   shard {data.get('index')} done "
                f"({self._done}/{self._total}) in "
                f"{float(data.get('seconds', 0.0)):.2f}s{eta_text}"
            )
        elif event.kind == "shard-retry":
            self._say(
                f"[lab]   shard {data.get('index')} retry "
                f"{data.get('attempt')}: {data.get('reason')}"
            )
        elif event.kind == "shard-degraded":
            self._say(
                f"[lab]   shard {data.get('index')} degraded to in-process "
                f"run: {data.get('reason')}"
            )
        elif event.kind == "store-stale":
            self._say(
                f"[lab]   dropped {data.get('purged')} stale shard row(s) "
                "(golden digest changed)"
            )
        elif event.kind == "adaptive-stop":
            self._say(
                f"[lab]   adaptive stop at {data.get('injections')} "
                f"injections (CI half-width "
                f"{float(data.get('halfwidth', 0.0)):.4f} <= "
                f"{float(data.get('target', 0.0)):.4f})"
            )
        elif event.kind == "campaign-finished":
            self._say(
                f"[lab] {self._label}: {data.get('injections')} injections "
                f"counted, {data.get('executed')} executed, "
                f"{data.get('from_store')} from store"
            )
