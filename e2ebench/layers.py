"""Per-layer metrics of the traced run, computed from its spans.

Phases are the root spans the run opens:

- ``setup.cold``: one set-up from empty artifact, snap and code caches;
- ``setup.warm``: one set-up with full on-disk caches and empty
  in-process caches (what ``setup_s`` measures);
- ``pass``: one traced pass of the timed phase (several);
- ``replay``: one traced store replay (``fig13`` only);
- ``differential``: the ``Machine.run`` split (see
  :func:`workloads.differential`).

Set-up metrics are totals over one warm set-up, pass metrics are per
pass, replay metrics per replay. A metric of a layer the workload
bypasses reads 0.
"""

from __future__ import annotations

from typing import Dict, List

from spans import Recorder, Span, children_index, covered

#: name -> (unit, better); the ``per_layer`` list of BENCHMARK.json.
PER_LAYER = {
    "toolchain.build_s": ("s", "lower"),
    "toolchain.hit_ratio": ("ratio", "higher"),
    "toolchain.digest_s": ("s", "lower"),
    "passes.harden_s": ("s", "lower"),
    "cpu.decode_s": ("s", "lower"),
    "cpu.compile_s": ("s", "lower"),
    "cpu.segments": ("count", "higher"),
    "cpu.code_hit_ratio": ("ratio", "higher"),
    "cpu.exec_s": ("s", "lower"),
    "cpu.timing_s": ("s", "lower"),
    "cpu.cache_sim_s": ("s", "lower"),
    "cpu.instructions": ("count", "lower"),
    "faults.golden_s": ("s", "lower"),
    "faults.golden_runs": ("count", "lower"),
    "faults.inject_ms_p50": ("ms", "lower"),
    "faults.inject_ms_p99": ("ms", "lower"),
    "faults.injections": ("count", "higher"),
    "faults.run_plans_s": ("s", "lower"),
    "snap.acquire_s": ("s", "lower"),
    "snap.hit_ratio": ("ratio", "higher"),
    "snap.checkpoints": ("count", "higher"),
    "snap.resume_frac": ("ratio", "higher"),
    "snap.prefix_skipped_frac": ("ratio", "higher"),
    "lab.store_write_s": ("s", "lower"),
    "lab.store_read_s": ("s", "lower"),
    "lab.shards": ("count", "higher"),
    "lab.shards_from_store": ("count", "higher"),
    "lab.shard_s_p50": ("s", "lower"),
    "lab.shard_s_p99": ("s", "lower"),
    "lab.fabric_busy_frac": ("ratio", "higher"),
    "lab.retries": ("count", "lower"),
    "lab.degraded": ("count", "lower"),
    "harness.assemble_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Layers:
    """Span queries over one recorder."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.kids = children_index(rec.spans)
        self.by_id = {s.id: s for s in rec.spans}

    def roots(self, phase: str) -> List[Span]:
        return [s for s in self.rec.spans if s.parent is None and s.name == phase]

    def outermost(self, name: str, phase: str) -> List[Span]:
        """Spans called ``name`` in ``phase`` with no ancestor of the
        same name (so recursive calls are not counted twice)."""
        out = []
        for s in self.rec.spans:
            if s.name != name or s.phase != phase:
                continue
            parent = self.by_id.get(s.parent)
            while parent is not None and parent.name != name:
                parent = self.by_id.get(parent.parent)
            if parent is None:
                out.append(s)
        return out

    def total(self, name: str, phase: str) -> float:
        return sum(s.duration for s in self.outermost(name, phase))

    def has_descendant(self, span: Span, name: str) -> bool:
        stack = list(self.kids.get(span.id, ()))
        while stack:
            s = stack.pop()
            if s.name == name:
                return True
            stack.extend(self.kids.get(s.id, ()))
        return False

    def counter(self, name: str, phase: str) -> float:
        return self.rec.counters.get((phase, name), 0.0)

    def samples(self, name: str, phase: str) -> List[float]:
        return self.rec.samples.get((phase, name), [])


def layer_metrics(rec: Recorder, *, workload: str, workers: int,
                  compile_delta: Dict[str, float],
                  untraced_run_s: float, traced_run_s: float,
                  ) -> Dict[str, float]:
    L = Layers(rec)
    warm, cold = "setup.warm", "setup.cold"
    n_pass = max(1, len(L.roots("pass")))
    n_replay = len(L.roots("replay"))
    m: Dict[str, float] = {}

    # toolchain / passes
    m["toolchain.build_s"] = L.total("toolchain.build", warm)
    m["toolchain.hit_ratio"] = _ratio(L.counter("artifact.hits", warm),
                                      L.counter("artifact.loads", warm))
    m["toolchain.digest_s"] = L.total("toolchain.digest", warm)
    m["passes.harden_s"] = sum(
        s.duration - covered(s, [c for c in L.kids.get(s.id, ())
                                 if c.name == "toolchain.base"])
        for s in L.outermost("toolchain.build", cold))

    # cpu
    m["cpu.decode_s"] = L.total("cpu.decode", warm)
    m["cpu.compile_s"] = L.total("cpu.compile", warm)
    m["cpu.segments"] = compile_delta.get("segments", 0)
    m["cpu.code_hit_ratio"] = _ratio(
        compile_delta.get("code_hits", 0),
        compile_delta.get("code_hits", 0) + compile_delta.get("code_misses", 0))
    for name in ("cpu.exec_s", "cpu.timing_s", "cpu.cache_sim_s",
                 "cpu.instructions"):
        m[name] = L.counter(name, "differential")

    # faults
    goldens = L.outermost("faults.golden", warm)
    m["faults.golden_s"] = sum(s.duration for s in goldens)
    m["faults.golden_runs"] = sum(1 for s in goldens
                                  if L.has_descendant(s, "cpu.run"))
    injects = [s.duration * 1000.0
               for s in L.outermost("faults.inject", "pass")]
    m["faults.inject_ms_p50"] = percentile(injects, 50)
    m["faults.inject_ms_p99"] = percentile(injects, 99)
    m["faults.injections"] = len(injects) / n_pass
    m["faults.run_plans_s"] = L.total("faults.run_plans", "pass") / n_pass

    # snap
    m["snap.acquire_s"] = L.total("snap.acquire", warm)
    m["snap.hit_ratio"] = _ratio(L.counter("snap.sets_from_disk", warm),
                                 L.counter("snap.sets", warm))
    m["snap.checkpoints"] = L.counter("snap.states", warm)
    m["snap.resume_frac"] = _ratio(L.counter("snap.resumed", "pass"),
                                   len(injects))
    m["snap.prefix_skipped_frac"] = _ratio(
        sum(L.samples("snap.skipped_share", "pass")), len(injects))

    # lab
    read_phase = "replay" if n_replay else "pass"
    m["lab.store_write_s"] = L.total("lab.store_write", "pass") / n_pass
    m["lab.store_read_s"] = (L.total("lab.store_read", read_phase)
                             / (n_replay or n_pass))
    m["lab.shards"] = L.counter("lab.shards", "pass") / n_pass
    m["lab.shards_from_store"] = (
        L.counter("lab.shards_from_store", "replay") / n_replay
        if n_replay else 0.0)
    shard_s = L.samples("lab.shard_s", "pass")
    m["lab.shard_s_p50"] = percentile(shard_s, 50)
    m["lab.shard_s_p99"] = percentile(shard_s, 99)
    m["lab.fabric_busy_frac"] = _ratio(
        sum(shard_s), workers * L.total("lab.scheduler", "pass"))
    m["lab.retries"] = sum(v for (_, k), v in rec.counters.items()
                           if k == "lab.retries")
    m["lab.degraded"] = sum(v for (_, k), v in rec.counters.items()
                            if k == "lab.degraded")

    # harness: the timed pass outside Machine.run (perf-figures only; the
    # campaign passes run their tails through checkpoint resumes).
    if workload == "perf-figures":
        m["harness.assemble_s"] = sum(
            p.duration - sum(s.duration for s in L.outermost("cpu.run", "pass")
                             if _within(s, p))
            for p in L.roots("pass")) / n_pass
    else:
        m["harness.assemble_s"] = 0.0

    m["trace.overhead_frac"] = _ratio(traced_run_s, untraced_run_s) - 1.0
    missing = set(PER_LAYER) - set(m)
    assert not missing, missing
    return m


def _within(span: Span, root: Span) -> bool:
    return root.start <= span.start and span.end <= root.end
