"""Cluster worker agent: a synchronous lease-execute-report loop.

One process, one TCP connection, no threads: the worker connects,
handshakes (protocol version + lab schema + toolchain digest), and
then serves whatever
the coordinator sends. For each cell it *prepares* — rebuilds the
module from the cell recipe (:mod:`repro.cluster.cells`), runs the
golden execution through its own cache, and reports content digests so
the coordinator can refuse a drifted checkout before leasing work.
For each lease it executes the shard's fault plans exactly as shipped
(plans are never re-drawn — that is the determinism invariant) and
streams back the outcome counts.

Heartbeats ride inside the injection loop: between injections the
worker checks a monotonic clock and sends a ``heartbeat`` frame every
``heartbeat_interval`` seconds, so liveness costs no extra thread. A
worker that dies mid-shard simply stops heartbeating (or drops the
connection) and the coordinator re-leases the shard elsewhere.

Failure injection goes through :mod:`repro.chaos`: the worker arms a
chaos controller from ``$REPRO_CHAOS`` on startup. Hook points:
``cluster.worker.lease`` (start of shard execution; ``crash`` kills
the agent, ``stall`` silences it past the lease timeout),
``cluster.worker.pre-commit`` (between execute and result send — the
agent-crash-before-commit seam), and every outgoing frame via
:func:`repro.cluster.proto.send_message`.
"""

from __future__ import annotations

import os
import random
import socket
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional

from ..chaos import hooks as chaos
from ..chaos.policy import RESULT_RESEND, WORKER_CONNECT, RetryPolicy
from ..faults.campaign import golden_profile, hang_budget, run_plans
from ..lab.store import LAB_SCHEMA
from ..toolchain.build import toolchain_digest
from .cells import CellCache, handshake
from .proto import (
    PROTO_VERSION,
    counts_to_wire,
    plan_from_wire,
    recv_message,
    send_message,
)

@dataclass
class _CellRuntime:
    """One prepared cell: the rebuilt module plus everything
    ``run_plans`` needs, golden run already priced."""

    module: object
    entry: str
    args: tuple
    reference: list
    budget: int
    rtol: float


class ClusterWorker:
    """Connect to a coordinator and serve leases until told to stop.

    ``idle_timeout`` bounds how long the worker blocks waiting for the
    next frame; a coordinator that vanishes without closing the
    connection (powered-off machine) ends the worker instead of
    leaking it forever.
    """

    def __init__(self, host: str, port: int, worker_id: Optional[str] = None,
                 idle_timeout: float = 3600.0, quiet: bool = False,
                 connect_policy: Optional[RetryPolicy] = None):
        self.host = host
        self.port = port
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.idle_timeout = idle_timeout
        self.quiet = quiet
        self.connect_policy = connect_policy or WORKER_CONNECT
        self._cells = CellCache()
        self._runtimes: Dict[str, _CellRuntime] = {}
        self._sock: Optional[socket.socket] = None
        #: Jitter source for connect/resend backoff (timing only —
        #: never outcome-affecting).
        self._rng = random.Random()
        chaos.activate_from_env()

    def _say(self, text: str) -> None:
        if not self.quiet:
            print(f"[worker {self.worker_id}] {text}", flush=True)

    def _connect(self) -> socket.socket:
        """Bounded, jitter-backed-off connect. A dead coordinator
        address fails the agent in about a second instead of hanging
        it on the kernel's connect timeout; a restarting one is
        retried without the whole fleet reconnecting in lockstep."""
        policy = self.connect_policy
        last: Optional[OSError] = None
        for attempt in policy.attempts():
            if attempt:
                time.sleep(policy.delay(attempt - 1, self._rng))
            try:
                return socket.create_connection((self.host, self.port),
                                                timeout=policy.timeout)
            except OSError as exc:
                last = exc
        raise last if last is not None else OSError("connect failed")

    def run(self) -> int:
        try:
            self._sock = self._connect()
        except OSError as exc:
            self._say(f"cannot reach coordinator at "
                      f"{self.host}:{self.port}: {exc}")
            return 1
        self._sock.settimeout(self.idle_timeout)
        try:
            return self._serve()
        except OSError as exc:
            self._say(f"lost coordinator connection: {exc}")
            return 1
        finally:
            try:
                self._sock.close()
            except OSError:
                pass

    def _handshake(self) -> bool:
        """hello/welcome over the current socket; updates worker_id
        (the coordinator may uniquify duplicate names)."""
        send_message(self._sock, {
            "kind": "hello", "proto": PROTO_VERSION, "schema": LAB_SCHEMA,
            "toolchain": toolchain_digest(),
            "worker": self.worker_id, "host": socket.gethostname(),
            "pid": os.getpid(),
        })
        welcome = recv_message(self._sock)
        if welcome is None or welcome.get("kind") == "reject":
            reason = (welcome or {}).get("reason", "connection closed")
            self._say(f"rejected: {reason}")
            return False
        self.worker_id = str(welcome.get("worker", self.worker_id))
        return True

    def _serve(self) -> int:
        if not self._handshake():
            return 1
        self._say(f"connected to {self.host}:{self.port}")
        while True:
            try:
                message = recv_message(self._sock)
            except socket.timeout:
                self._say(f"no frame for {self.idle_timeout:.0f}s; exiting")
                return 1
            if message is None:
                self._say("coordinator closed the connection")
                return 0
            kind = message.get("kind")
            if kind == "shutdown":
                self._say("shutdown requested")
                return 0
            if kind == "mismatch":
                self._say(f"refused by coordinator: {message.get('reason')}")
                return 1
            if kind == "prepare":
                self._prepare(message)
            elif kind == "lease":
                self._execute(message)
            # Unknown kinds are ignored: a newer coordinator may emit
            # informational frames an older worker can safely skip.

    # Cell preparation --------------------------------------------------------

    def _prepare(self, message: Dict) -> None:
        cell_id = str(message["cell"])
        started = time.perf_counter()
        try:
            module, entry, args = self._cells.get(
                str(message["workload"]), str(message["build_scale"]),
                str(message["version"]))
            fault_model = str(message["fault_model"])
            reference, profile = golden_profile(module, entry, args)
            ours = handshake(module, reference, profile, fault_model)
            runtime = _CellRuntime(
                module=module, entry=entry, args=args, reference=reference,
                budget=hang_budget(profile.executed,
                                   float(message["hang_factor"])),
                rtol=float(message["rtol"]),
            )
        except Exception as exc:
            self._say(f"cannot prepare cell: {exc!r}")
            send_message(self._sock, {
                "kind": "prepare-error", "cell": cell_id,
                "error": repr(exc),
            })
            return
        self._runtimes[cell_id] = runtime
        send_message(self._sock, {
            "kind": "prepared",
            "cell": cell_id,
            **ours,
            "eligible": profile.eligible,
            "executed": profile.executed,
            "golden_seconds": time.perf_counter() - started,
        })
        self._say(f"prepared {message['workload']}/{message['version']} "
                  f"({profile.eligible} eligible sites)")

    # Shard execution ---------------------------------------------------------

    def _chaos(self, point: str, **ctx) -> None:
        """Consult the armed chaos controller at ``point``. A firing is
        announced to the coordinator as a ``chaos-fired`` event frame
        *before* it is performed, so even a crash firing leaves a trace
        in the driver's event log. ``stall`` goes silent past the lease
        timeout (expiry, re-lease, and the late-commit discard);
        ``crash`` dies like a power loss (exit 23)."""
        controller = chaos.active()
        if controller is None:
            return
        rule = controller.consult(point, ctx)
        if rule is None:
            return
        try:
            send_message(self._sock, {
                "kind": "event", "name": "chaos-fired",
                "data": {"point": point, "action": rule.action, **ctx},
            })
        except OSError:
            pass
        chaos.perform(rule)

    def _execute(self, lease: Dict) -> None:
        cell_id = str(lease["cell"])
        index = int(lease["index"])
        attempt = int(lease.get("attempt", 0))
        runtime = self._runtimes.get(cell_id)
        if runtime is None:
            send_message(self._sock, {
                "kind": "shard-error", "cell": cell_id, "index": index,
                "error": "lease for a cell this worker never prepared",
            })
            return
        interval = float(lease.get("heartbeat_interval", 1.0))
        plans = [plan_from_wire(p) for p in lease["plans"]]
        self._chaos("cluster.worker.lease", index=index, attempt=attempt)
        started = time.perf_counter()
        last_beat = time.monotonic()

        def beat() -> None:
            # run_plans ticks after every injection, which
            # keeps the lease alive without a heartbeat thread.
            nonlocal last_beat
            now = time.monotonic()
            if now - last_beat >= interval:
                send_message(self._sock, {
                    "kind": "heartbeat", "cell": cell_id, "index": index,
                })
                last_beat = now

        try:
            outcomes = run_plans(
                runtime.module, runtime.entry, runtime.args, plans,
                runtime.reference, runtime.budget, runtime.rtol, None,
                tick=beat,
            )
        except Exception as exc:
            send_message(self._sock, {
                "kind": "shard-error", "cell": cell_id, "index": index,
                "error": repr(exc),
            })
            return
        # The agent-crash-before-commit seam: work done, result not yet
        # reported. A crash here must cost one re-execution (lease
        # expiry) and nothing else — never a double count.
        self._chaos("cluster.worker.pre-commit", index=index, attempt=attempt)
        self._send_result({
            "kind": "result",
            "cell": cell_id,
            "index": index,
            "n": len(plans),
            "counts": counts_to_wire(Counter(outcomes)),
            "reconverged": outcomes.reconverged,
            "seconds": time.perf_counter() - started,
        })

    def _send_result(self, frame: Dict) -> None:
        """Deliver a finished shard's result, reconnecting if the
        connection died while we were executing. Safe to retry: the
        coordinator's commit is at-most-once (first result per shard
        wins, duplicates are discarded), so resending can only turn
        wasted work into a commit — never into a double count."""
        try:
            send_message(self._sock, frame)
            return
        except OSError as exc:
            self._say(f"connection lost with shard {frame['index']} "
                      f"finished: {exc}")
        for attempt in RESULT_RESEND.attempts():
            time.sleep(RESULT_RESEND.delay(attempt, self._rng))
            try:
                sock = self._connect()
            except OSError:
                continue
            old, self._sock = self._sock, sock
            self._sock.settimeout(self.idle_timeout)
            try:
                old.close()
            except OSError:
                pass
            try:
                if not self._handshake():
                    return
                send_message(self._sock, frame)
            except OSError:
                continue
            self._say(f"resent result for shard {frame['index']} "
                      "after reconnect")
            return
        self._say(f"giving up on shard {frame['index']}: coordinator "
                  "unreachable (lease expiry will re-execute it)")
