"""In-memory span recorder and the per-layer instrumentation of the
traced run.

A span is (name, start, end, parent, cell). Spans nest through a stack,
a child inherits its parent's cell id and its root's phase name, and
the whole list is written out once the run ends. A layer's *self time*
is its span's duration minus the part of that interval its children
cover (:func:`self_time`).

:func:`instrument` wraps the public calls into each layer of ``repro``
from the outside -- class attributes are replaced on the class, and
module-level functions are replaced in every ``repro`` module that
imported them by name -- and returns a callable that puts every
original back. Nothing under ``src/`` is edited. Spans recorded inside
forked shard workers stay in those workers and are lost.

This module imports nothing from ``repro`` at import time, so the
self-test can exercise the arithmetic without the program.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    cell: Optional[str]
    #: Name of the root span this span descends from.
    phase: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(span: Span, children: Iterable[Span]) -> float:
    """Length of the union of ``children``'s intervals, clipped to
    ``span``'s own interval."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """Duration minus child coverage."""
    return span.duration - covered(span, children)


def children_index(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    index: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            index[span.parent].append(span)
    return index


class Recorder:
    """Spans, counters and samples, all kept in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: (phase, name) -> summed value
        self.counters: Dict[tuple, float] = defaultdict(float)
        #: (phase, name) -> list of values
        self.samples: Dict[tuple, List[float]] = defaultdict(list)

    @property
    def phase(self) -> str:
        return self._stack[0].name if self._stack else ""

    @contextlib.contextmanager
    def span(self, name: str, cell: Optional[str] = None):
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans), name=name, start=time.perf_counter(),
            end=0.0, parent=parent.id if parent else None,
            cell=cell if cell is not None else (parent.cell if parent else None),
            phase=parent.phase if parent else name,
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[(self.phase, name)] += value

    def sample(self, name: str, value: float) -> None:
        self.samples[(self.phase, name)].append(value)

    def write_jsonl(self, path: str) -> None:
        """One line per span, with its self time."""
        kids = children_index(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "cell": s.cell,
                    "phase": s.phase,
                    "self": self_time(s, kids.get(s.id, ())),
                }) + "\n")


class NullRecorder:
    """What the untraced run passes around: every call is a no-op."""

    def span(self, name: str, cell: Optional[str] = None):
        return contextlib.nullcontext()

    def count(self, name: str, value: float = 1) -> None:
        pass

    def sample(self, name: str, value: float) -> None:
        pass


# --- Instrumentation ---------------------------------------------------------


def _spanned(rec: Recorder, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _patch_function(module_name: str, attr: str, make: Callable,
                    undo: List[Callable]) -> None:
    """Replace function ``module_name.attr`` in every loaded ``repro``
    module that holds it under that name."""
    original = getattr(sys.modules[module_name], attr)
    wrapper = make(original)
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)
            undo.append(lambda m=module, o=original: setattr(m, attr, o))


def _patch_method(cls, attr: str, make: Callable, undo: List[Callable]) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, make(original))
    undo.append(lambda: setattr(cls, attr, original))


def instrument(rec: Recorder) -> Callable[[], None]:
    """Wrap every measured public call; returns the undo callable."""
    import repro.cpu.compiled  # noqa: F401 - load every patched module
    import repro.faults.campaign  # noqa: F401
    import repro.lab.durable  # noqa: F401
    import repro.snap.build  # noqa: F401
    from repro.cpu.engine import DecodedModule
    from repro.cpu.interpreter import Machine
    from repro.cpu.resumable import stream_mark
    from repro.faults.campaign import InjectionSession
    from repro.lab.scheduler import ShardScheduler
    from repro.lab.store import ResultStore
    from repro.snap.build import CheckpointSet
    from repro.toolchain.build import Toolchain
    from repro.toolchain.cache import ArtifactCache

    undo: List[Callable] = []

    def artifact_load(fn):
        def wrapper(self, *args, **kwargs):
            art = fn(self, *args, **kwargs)
            rec.count("artifact.loads")
            rec.count("artifact.hits", art is not None)
            return art
        return wrapper

    def checkpoints_acquired(cset):
        if cset is None:
            return
        rec.count("snap.sets")
        rec.count("snap.sets_from_disk", bool(cset.from_cache))
        rec.count("snap.states", len(cset.states))

    def nearest(fn):
        def wrapper(self, plan):
            state = fn(self, plan)
            if state is not None and plan.target_index > 0:
                rec.count("snap.resumed")
                rec.sample("snap.skipped_share",
                           min(1.0, stream_mark(state, plan) / plan.target_index))
            return state
        return wrapper

    _patch_method(Toolchain, "build",
                  lambda fn: _spanned(rec, "toolchain.build", fn), undo)
    _patch_method(Toolchain, "base",
                  lambda fn: _spanned(rec, "toolchain.base", fn), undo)
    _patch_method(ArtifactCache, "load", artifact_load, undo)
    _patch_function("repro.toolchain.build", "module_digest",
                    lambda fn: _spanned(rec, "toolchain.digest", fn), undo)
    _patch_method(DecodedModule, "function",
                  lambda fn: _spanned(rec, "cpu.decode", fn), undo)
    _patch_function("repro.cpu.compiled", "ensure_compiled",
                    lambda fn: _spanned(rec, "cpu.compile", fn), undo)
    _patch_method(Machine, "run", lambda fn: _spanned(rec, "cpu.run", fn), undo)
    _patch_function("repro.faults.campaign", "golden_profile",
                    lambda fn: _spanned(rec, "faults.golden", fn), undo)
    _patch_function("repro.faults.campaign", "run_plans",
                    lambda fn: _spanned(rec, "faults.run_plans", fn), undo)
    _patch_method(InjectionSession, "inject",
                  lambda fn: _spanned(rec, "faults.inject", fn), undo)
    _patch_function("repro.snap.build", "build_checkpoints",
                    lambda fn: _spanned(rec, "snap.acquire", fn,
                                        checkpoints_acquired), undo)
    _patch_method(CheckpointSet, "nearest", nearest, undo)
    _patch_method(ResultStore, "put_shard",
                  lambda fn: _spanned(rec, "lab.store_write", fn), undo)
    _patch_function("repro.lab.checkpoint", "load_completed",
                    lambda fn: _spanned(rec, "lab.store_read", fn), undo)
    _patch_method(ShardScheduler, "run",
                  lambda fn: _spanned(rec, "lab.scheduler", fn), undo)

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore


def lab_event_sink(rec) -> Callable:
    """EventBus subscriber feeding lab events into the recorder."""
    def on_event(event) -> None:
        if event.kind == "shard-completed":
            rec.count("lab.shards")
            rec.sample("lab.shard_s", float(event.data["seconds"]))
        elif event.kind == "shard-store-hit":
            rec.count("lab.shards_from_store")
        elif event.kind == "shard-retry":
            rec.count("lab.retries")
        elif event.kind == "shard-degraded":
            rec.count("lab.degraded")
    return on_event
