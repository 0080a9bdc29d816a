"""Deterministic chaos injection: named hook points + seeded rules.

The fault injector injects bit-flips into simulated programs; this
module injects *infrastructure* faults into the injector itself —
worker crashes, torn store writes, dropped protocol frames, service
kills — so the crash-recovery machinery is tested by the same
discipline the paper applies to hardened workloads: under any injected
fault, final results must be bit-identical to a clean run, or the
failure must be loud.

Design rules:

- **Hook points are named seams, not sleeps in product code.** Code
  under test calls ``chaos_point("cluster.worker.pre-commit",
  index=3)``; with no controller armed this is one global read and a
  ``None`` return — nothing to configure, nothing to pay for.
- **Rules are data.** A :class:`ChaosRule` says *where* (point name +
  context match), *when* (``after`` skips the first N matching
  occurrences, ``count`` bounds firings), and *what* (an action).
  A :class:`ChaosSpec` is a seed plus a rule list, JSON-serializable so
  it can ride ``$REPRO_CHAOS`` into worker subprocesses.
- **Determinism is the contract.** Rules are built from
  ``random.Random(seed)`` by the scenario library; the controller
  itself draws nothing. Same spec -> same injected-fault schedule, and
  (for driver-side faults) the same recorded trace.

Generic actions (``crash``, ``stall``, ``error``) are performed here;
site-specific actions (``drop``, ``duplicate``, ``lose-write``,
``corrupt``, ``drain``, ``kill``, ``interrupt``, ...) are returned to
the instrumented call site, which knows how to apply them.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Environment variable carrying a wire-form ChaosSpec into worker
#: subprocesses (cluster agents arm themselves from it on startup;
#: forked lab workers inherit the armed controller directly).
CHAOS_ENV = "REPRO_CHAOS"

#: Exit status of a chaos-crashed process, so a worker-death reason
#: names the injected crash.
CRASH_STATUS = 23


class ChaosCrash(BaseException):
    """A simulated power-loss/crash of the *driver* process, raised at
    a hook point. BaseException (like KeyboardInterrupt) so ordinary
    ``except Exception`` recovery code cannot accidentally swallow the
    "machine died here" signal; the chaos runner catches it at the top
    and restarts the run phase, exactly as an operator would."""


@dataclass
class ChaosRule:
    """One injected fault: fire ``action`` at hook ``point`` on the
    ``after``-th occurrence whose context matches ``match``, at most
    ``count`` times."""

    point: str
    action: str
    #: Context keys that must equal these values for the rule to
    #: consider an occurrence (missing key = no match).
    match: Dict[str, object] = field(default_factory=dict)
    #: Maximum firings (a dropped-frame rule usually wants 1 so the
    #: retried send succeeds).
    count: int = 1
    #: Matching occurrences to skip before the first firing ("fire on
    #: the 2nd commit" = ``after=1``).
    after: int = 0
    #: Stall/delay duration for time-based actions.
    seconds: float = 0.0

    def to_wire(self) -> Dict:
        return {
            "point": self.point, "action": self.action,
            "match": dict(self.match), "count": self.count,
            "after": self.after, "seconds": self.seconds,
        }

    @classmethod
    def from_wire(cls, wire: Dict) -> "ChaosRule":
        return cls(
            point=str(wire["point"]), action=str(wire["action"]),
            match=dict(wire.get("match") or {}),
            count=int(wire.get("count", 1)),
            after=int(wire.get("after", 0)),
            seconds=float(wire.get("seconds", 0.0)),
        )


@dataclass
class ChaosSpec:
    """A named, seeded fault schedule — the reproducible unit a chaos
    campaign runs under. ``seed`` is what the scenario library derived
    ``rules`` from; it rides along so traces are self-describing."""

    scenario: str
    seed: int
    rules: List[ChaosRule] = field(default_factory=list)

    def to_wire(self) -> Dict:
        return {"scenario": self.scenario, "seed": self.seed,
                "rules": [r.to_wire() for r in self.rules]}

    @classmethod
    def from_wire(cls, wire: Dict) -> "ChaosSpec":
        return cls(scenario=str(wire.get("scenario", "")),
                   seed=int(wire.get("seed", 0)),
                   rules=[ChaosRule.from_wire(r)
                          for r in wire.get("rules", [])])

    def to_env(self) -> str:
        return json.dumps(self.to_wire(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_env(cls, text: str) -> "ChaosSpec":
        return cls.from_wire(json.loads(text))


class ChaosController:
    """Matches hook-point occurrences against one spec's rules and
    records every firing. Thread-safe: hook points fire from the
    coordinator loop thread, service runner threads, and the main
    thread at once."""

    def __init__(self, spec: ChaosSpec):
        self.spec = spec
        self._lock = threading.Lock()
        self._remaining = [max(0, r.count) for r in spec.rules]
        self._skipped = [0] * len(spec.rules)
        self.trace: List[Dict] = []

    def consult(self, point: str, ctx: Dict) -> Optional[ChaosRule]:
        """The rule that fires for this occurrence, or None. Consumes
        ``after`` skips and ``count`` budget; records the firing."""
        with self._lock:
            for i, rule in enumerate(self.spec.rules):
                if rule.point != point or self._remaining[i] <= 0:
                    continue
                if any(ctx.get(k) != v for k, v in rule.match.items()):
                    continue
                if self._skipped[i] < rule.after:
                    self._skipped[i] += 1
                    continue
                self._remaining[i] -= 1
                self.trace.append({
                    "point": point, "action": rule.action,
                    **{k: v for k, v in sorted(ctx.items())
                       if isinstance(v, (bool, int, float, str))},
                })
                return rule
        return None

    def fired(self) -> int:
        with self._lock:
            return len(self.trace)


_active: Optional[ChaosController] = None


def activate(controller: ChaosController) -> ChaosController:
    global _active
    _active = controller
    return controller


def deactivate() -> None:
    global _active
    _active = None


def active() -> Optional[ChaosController]:
    return _active


def activate_from_env(environ=None) -> Optional[ChaosController]:
    """Arm a controller from ``$REPRO_CHAOS`` (worker subprocesses call
    this on startup); None when unset or unparsable — a worker must
    never die because the chaos env was malformed."""
    text = (environ if environ is not None else os.environ).get(CHAOS_ENV)
    if not text:
        return None
    try:
        spec = ChaosSpec.from_env(text)
    except (ValueError, KeyError, TypeError):
        return None
    return activate(ChaosController(spec))


@contextmanager
def chaos_active(spec: ChaosSpec):
    """Arm ``spec`` for the duration of a block (the chaos runner's
    driver-side activation)."""
    controller = activate(ChaosController(spec))
    try:
        yield controller
    finally:
        deactivate()


def perform(rule: ChaosRule) -> Optional[ChaosRule]:
    """Apply a rule's generic action. ``crash`` never returns;
    ``stall`` sleeps then returns the rule (the operation proceeds,
    late); ``error`` raises; anything site-specific is returned for
    the call site to interpret."""
    if rule.action == "crash":
        os._exit(CRASH_STATUS)
    if rule.action == "stall":
        time.sleep(rule.seconds)
    elif rule.action == "error":
        raise RuntimeError(f"chaos: injected error at {rule.point}")
    return rule


def chaos_point(point: str, **ctx) -> Optional[ChaosRule]:
    """Declare a named injection point. Near-free when no controller
    is armed; otherwise consult-and-perform. Returns the fired rule
    (site-specific actions) or None (nothing fired / generic action
    already applied in-line)."""
    controller = _active
    if controller is None:
        return None
    rule = controller.consult(point, ctx)
    if rule is None:
        return None
    return perform(rule)
