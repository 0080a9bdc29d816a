"""The benchmark's three workloads.

Each workload has the same shape:

- ``setup(rec, tally, tick)``: everything before the first timed call
  -- toolchain builds, golden runs, checkpoint sets, decode and compile.
  Run in fresh processes for ``setup_s``/``cold_setup_s`` and once more
  in the measuring process.
- ``run_pass(state, index, rec, tally, tick)``: one pass over the
  workload's grid, the unit the timed phase repeats.

Both call ``tick()`` before each cell: the gated runs sample the host's
speed there (:mod:`hostclock`).
- ``verify(state, passes, tally)``: correctness checks outside the timed
  region.
- ``modules(state)``: the distinct built modules, for the traced run's
  per-layer split of ``Machine.run`` (:func:`differential`).

Every call into ``repro`` goes through a module attribute (``fc.run_plans``
rather than a name bound at import), so the traced run's wrappers from
:mod:`spans` see it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import harness
from repro.cpu import compiled as cpu_compiled
from repro.cpu import engine as cpu_engine
from repro.cpu import interpreter as cpu
from repro.faults import campaign as fc
from repro.faults.models import model_names
from repro.lab import durable, events, store as lab_store
from repro.snap import build as snap_build
from repro.toolchain import Toolchain
from repro.workloads.common import outputs_match

from spans import NullRecorder, lab_event_sink

#: Paper's Figure 11 mean ELZAR overhead at one thread, and the value
#: this reproduction recorded for it (EXPERIMENTS.md, all 14 benchmarks,
#: arithmetic mean of normalized runtime).
PAPER_ELZAR_OVERHEAD = 4.1
RECORDED_ELZAR_OVERHEAD = 3.34


class Tally:
    """Attempted cell units and the ones that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
            print(f"[e2ebench] FAILED {what} {detail}", file=sys.stderr)
        return ok

    def run(self, what: str, fn, *args):
        """Call ``fn``; an exception counts as one failed unit."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a cell that raises is a failure, not a crash
            self.failures.append(f"{what}: raised")
            print(f"[e2ebench] FAILED {what} raised:\n"
                  + traceback.format_exc(), file=sys.stderr)
            return None


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def no_tick() -> None:
    pass


def check_repeats(passes, tally: Tally) -> None:
    """Passes on the same plan seed repeat the same work, so every
    cell's result must equal the first such pass's."""
    first = {}
    for index, p in enumerate(passes):
        ref = first.setdefault(p.seed, p)
        if ref is p:
            continue
        for label, got in p.cells.items():
            tally.check(f"repeat {index} {label}",
                        got == ref.cells.get(label),
                        f"differs from the first pass on plan seed {p.seed}")


@dataclass
class PassResult:
    #: wall seconds, calibration loops taken out
    seconds: float = 0.0
    #: ``seconds`` on a quiet host (:mod:`hostclock`)
    normalized_s: float = 0.0
    injections: int = 0
    instructions: int = 0
    #: the seed the pass drew its fault plans from (campaigns)
    seed: int = 0
    #: cell label -> outcome counts (campaigns) or (cycles, counters) (perf)
    cells: Dict[str, object] = field(default_factory=dict)


# --- Campaign workloads ----------------------------------------------------------


@dataclass
class CampaignCell:
    bench: str
    version: str
    model: str
    built: object = None
    reference: list = None
    profile: object = None
    budget: int = 0

    @property
    def label(self) -> str:
        return f"{self.bench}/{self.version}/{self.model}"


class CampaignWorkload:
    """A grid of (benchmark, version, fault model) cells, each run with
    ``run_durable_campaign`` into an empty result store per pass."""

    name = ""
    scale = ""
    workers = 1
    injections = 0
    shard_size = 25

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir

    def grid(self) -> List[Tuple[str, str, str]]:
        raise NotImplementedError

    def plan_seed(self, index: int) -> int:
        """The seed pass ``index`` draws its fault plans from. An
        injection costs the tail of the run after its fault's nearest
        checkpoint, so a pass's cost depends on where its faults land:
        each pass draws plans of its own, and the median pass covers
        several plan sets instead of one."""
        return self.seed * 1000 + index

    def config(self, cell: CampaignCell, seed: int) -> fc.CampaignConfig:
        return fc.CampaignConfig(injections=self.injections, seed=seed,
                                 workers=self.workers, fault_model=cell.model)

    # Set-up ------------------------------------------------------------------

    def setup(self, rec, tally: Tally, tick=no_tick):
        toolchain = Toolchain()
        cells: List[CampaignCell] = []
        goldens: Dict[Tuple[str, str], tuple] = {}
        for bench, version, model in self.grid():
            tick()
            cell = CampaignCell(bench, version, model)
            with rec.span("cell", cell=cell.label):
                cell.built = toolchain.build(bench, self.scale, version)
                key = (bench, version)
                if key not in goldens:
                    built = cell.built
                    goldens[key] = fc.golden_profile(
                        built.module, built.entry, built.args)
                    if built.expected is not None:
                        tally.check(
                            f"golden {bench}/{version}",
                            outputs_match(goldens[key][0], built.expected,
                                          built.rtol),
                            "golden output differs from expected")
                cell.reference, cell.profile = goldens[key]
                if model == "checker-fault" and cell.profile.checker_sites == 0:
                    # No checker sites in unhardened code: a hole in the
                    # matrix by design, as in fault_model_matrix.
                    continue
                cfg = self.config(cell, self.plan_seed(0))
                cell.budget = (int(cell.profile.executed * cfg.hang_factor)
                               + 10_000)
                snap_build.build_checkpoints(
                    cell.built.module, cell.built.entry, cell.built.args,
                    budget=cell.budget, model=model,
                    eligible=cell.profile.eligible)
            cells.append(cell)
        return {"toolchain": toolchain, "cells": cells, "stores": []}

    # Timed pass --------------------------------------------------------------

    def _campaign(self, cell: CampaignCell, built, store, rec, seed: int):
        bus = events.EventBus()
        bus.subscribe(lab_event_sink(rec))
        return durable.run_durable_campaign(
            built.module, built.entry, built.args, cell.bench, cell.version,
            self.config(cell, seed), store=store, events=bus,
            shard_size=self.shard_size)

    def run_pass(self, state, index: int, rec, tally: Tally,
                 tick=no_tick) -> PassResult:
        # A fresh, empty store for every pass (traced passes repeat the
        # untraced passes' indices, so the index alone is not unique).
        path = os.path.join(self.tmpdir,
                            f"store-{self.name}-{len(state['stores'])}.sqlite")
        store = lab_store.ResultStore(path)
        out = PassResult(seed=self.plan_seed(index))
        try:
            for cell in state["cells"]:
                tick()
                with rec.span("cell", cell=cell.label):
                    dc = tally.run(f"pass {index} {cell.label}", self._campaign,
                                   cell, cell.built, store, rec, out.seed)
                if dc is None:
                    continue
                out.injections += dc.info.injections_executed
                out.cells[cell.label] = {
                    o.value: int(n) for o, n in dc.result.counts.items()}
                tally.check(f"pass {index} {cell.label} classified",
                            dc.result.total == self.injections
                            and dc.info.injections_executed == self.injections,
                            f"{dc.result.total} of {self.injections}")
        finally:
            store.close()
        state["stores"].append(path)
        state["last"] = out
        return out

    # Checks ------------------------------------------------------------------

    def verify(self, state, passes: List[PassResult], tally: Tally) -> None:
        """Passes on the same plan seed agree; the first pass, re-run
        untimed on its seed, gives the same counts again."""
        again = self.run_pass(state, 0, NullRecorder(), tally)
        check_repeats(passes + [again], tally)

    # Differential ------------------------------------------------------------

    def modules(self, state):
        seen = {}
        for cell in state["cells"]:
            seen.setdefault((cell.bench, cell.version), cell.built)
        return list(seen.items())

    def model_report(self, state, passes: List[PassResult]) -> List[str]:
        lines = []
        first = passes[0].cells if passes else {}
        for label, counts in sorted(first.items()):
            total = sum(counts.values()) or 1
            lines.append(
                f"model.rates {label}: sdc {100 * counts.get('sdc', 0) / total:.1f}% "
                f"corrected {100 * counts.get('corrected', 0) / total:.1f}% "
                f"(plan seed {self.plan_seed(0)}, n={total})")
        lines.append(f"model.outcome_digest {digest(first)} "
                     f"(plan seed {self.plan_seed(0)})")
        return lines


class Fig13(CampaignWorkload):
    """Figure 13: register bit flips, native vs ELZAR, uniform sites,
    checkpoints on, one in-process worker, then a store replay."""

    name = "fig13"
    scale = "fi"
    workers = 1
    injections = 25
    #: Integer (histogram, dedup) and float (blackscholes) cells.
    benchmarks = ("histogram", "dedup", "blackscholes")
    #: Plans per cell re-run on the reference interpreter.
    oracle_positions = (0, -1)

    def grid(self):
        return [(b, v, "register-bitflip") for b in self.benchmarks
                for v in ("native", "elzar")]

    def replay(self, state, index: int, rec, tally: Tally) -> None:
        """A fresh toolchain (new module objects, empty golden caches)
        re-runs the grid against the last pass's now-full store; it must
        execute nothing and reproduce that pass's counts."""
        path = state["stores"][-1]
        last = state["last"]
        toolchain = Toolchain()
        store = lab_store.ResultStore(path)
        try:
            for cell in state["cells"]:
                with rec.span("cell", cell=cell.label):
                    built = toolchain.build(cell.bench, self.scale, cell.version)
                    dc = tally.run(f"replay {index} {cell.label}",
                                   self._campaign, cell, built, store, rec,
                                   last.seed)
                if dc is None:
                    continue
                counts = {o.value: int(n) for o, n in dc.result.counts.items()}
                tally.check(
                    f"replay {index} {cell.label} from store",
                    dc.info.injections_executed == 0
                    and dc.info.shards_from_store == dc.info.shards_total
                    and counts == last.cells.get(cell.label),
                    f"{dc.info.injections_executed} executed, "
                    f"{dc.info.shards_from_store}/{dc.info.shards_total} hits, "
                    f"counts {counts}")
        finally:
            store.close()

    def verify(self, state, passes, tally) -> None:
        """Also: the reference interpreter re-runs a fixed sample of
        each cell's plans; outcomes must match the compiled engine's."""
        super().verify(state, passes, tally)
        for cell in state["cells"]:
            built = cell.built
            cfg = self.config(cell, self.plan_seed(0))
            plans = fc.draw_model_plans(cell.profile, cfg)
            for pos in self.oracle_positions:
                plan = plans[pos]

                def compare(plan=plan):
                    fast = fc.run_plans(
                        built.module, built.entry, built.args, [plan],
                        cell.reference, cell.budget, cfg.rtol,
                        fault_model=cell.model)[0]
                    oracle = fc.inject_once(
                        built.module, built.entry, built.args, plan,
                        cell.reference, cell.budget, cfg.rtol,
                        engine="reference")
                    return fast, oracle

                got = tally.run(f"oracle {cell.label} plan {pos}", compare)
                if got is not None:
                    tally.check(f"oracle {cell.label} plan {pos}",
                                got[0] == got[1],
                                f"compiled {got[0].value} vs reference "
                                f"{got[1].value}")


class FaultMatrix(CampaignWorkload):
    """Every fault model against every hardening scheme, on the forked
    lab scheduler with two workers."""

    name = "fault-matrix"
    scale = "test"
    workers = 2
    injections = 20
    #: Two shards per cell.
    shard_size = 10
    benchmarks = ("histogram", "blackscholes")
    versions = ("noavx", "swiftr", "elzar-detect", "elzar")

    def grid(self):
        """One cell per fault model: the versions rotate, so each meets
        one or two models, and every version but ``elzar`` meets both
        benchmarks. The full 7 x 4 x 2 matrix takes about ten times as
        long as the run's time budget."""
        cells = []
        for i, model in enumerate(model_names()):
            version = self.versions[i % len(self.versions)]
            cells.append((self.benchmarks[(i + i // 4) % 2], version, model))
        return cells


# --- Performance figures ------------------------------------------------------------


class PerfFigures:
    """Timed ``harness.Session`` runs with the cycle model, caches and
    branch predictor on: Fig. 11 (native, elzar) for four benchmarks,
    and the Figs. 12/14/17 variants for one of them."""

    name = "perf-figures"
    scale = "perf"
    workers = 1
    cells = tuple(
        [(b, v) for b in ("histogram", "linear_regression", "blackscholes",
                          "dedup") for v in ("native", "elzar")]
        + [("blackscholes", v)
           for v in ("swiftr", "elzar_proposed", "elzar_nochecks")])

    def __init__(self, seed: int, tmpdir: str):
        # Fixed datasets: the seed selects nothing.
        self.seed = seed
        self.tmpdir = tmpdir

    def setup(self, rec, tally: Tally, tick=no_tick):
        toolchain = Toolchain()
        for bench, variant in self.cells:
            tick()
            with rec.span("cell", cell=f"{bench}/{variant}"):
                warm_machine(toolchain.build(bench, self.scale, variant))
        return {"toolchain": toolchain}

    def run_pass(self, state, index: int, rec, tally: Tally,
                 tick=no_tick) -> PassResult:
        session = harness.Session(self.scale)
        session.toolchain = state["toolchain"]
        out = PassResult()
        for bench, variant in self.cells:
            label = f"{bench}/{variant}"
            tick()
            with rec.span("cell", cell=label):
                result = tally.run(f"pass {index} {label}", session.run,
                                   bench, variant)
            if result is None:
                continue
            out.instructions += result.instructions
            out.cells[label] = [result.cycles, result.counters.as_dict()]
        return out

    def verify(self, state, passes: List[PassResult], tally: Tally) -> None:
        check_repeats(passes, tally)

    def modules(self, state):
        tc = state["toolchain"]
        return [((b, v), tc.build(b, self.scale, v)) for b, v in self.cells]

    def model_report(self, state, passes: List[PassResult]) -> List[str]:
        if not passes:
            return []
        cells = passes[0].cells
        benchmarks = [b for b, v in self.cells if v == "native"]
        ratios = [cells[f"{b}/elzar"][0] / cells[f"{b}/native"][0]
                  for b in benchmarks
                  if f"{b}/elzar" in cells and f"{b}/native" in cells]
        lines = []
        if ratios:
            geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
            lines.append(
                f"model.elzar_overhead {geo:.3f}x (geomean of simulated cycles "
                f"elzar/native over {len(ratios)} benchmarks at t=1; paper "
                f"{PAPER_ELZAR_OVERHEAD}x, EXPERIMENTS.md "
                f"{RECORDED_ELZAR_OVERHEAD}x)")
        for label, (cycles, _counters) in sorted(cells.items()):
            lines.append(f"model.cycles {label}: {cycles:.1f}")
        lines.append(f"model.cycles_digest {digest(cells)}")
        return lines


WORKLOADS = {w.name: w for w in (Fig13, FaultMatrix, PerfFigures)}


# --- Differential split of Machine.run ----------------------------------------------


def warm_machine(built, **config) -> "cpu.Machine":
    """A machine for ``built`` whose entry function is decoded and
    compiled for the machine's timing variant, so its first run pays
    for neither."""
    machine = cpu.Machine(built.module, cpu.MachineConfig(
        cost_model=built.spec.cost_model, **config))
    dmod = cpu_engine.decoded_module(built.module, machine.config.cost_model,
                                     machine.globals_addr)
    dmod.function(built.module.get_function(built.entry))
    cpu_compiled.ensure_compiled(dmod, 0 if machine.timing is not None else 1)
    return machine


def differential(workload, state, rec) -> None:
    """Run every distinct module once per configuration: timing off,
    timing on without caches, everything on."""
    configs = (("exec", dict(collect_timing=False)),
               ("nocache", dict(cache_enabled=False)),
               ("full", dict()))
    for (bench, variant), built in workload.modules(state):
        times = {}
        with rec.span("cell", cell=f"{bench}/{variant}"):
            for name, kwargs in configs:
                machine = warm_machine(built, **kwargs)
                start = time.perf_counter()
                result = machine.run(built.entry, built.args)
                times[name] = time.perf_counter() - start
        rec.count("cpu.exec_s", times["exec"])
        rec.count("cpu.timing_s", times["nocache"] - times["exec"])
        rec.count("cpu.cache_sim_s", times["full"] - times["nocache"])
        rec.count("cpu.instructions", result.instructions)
