"""Checkpoint sets read from the cache decode a state only when a plan
first selects it.

The differential: per-plan outcome lists from a lazily loaded set (a
fresh module over a warm cache) must equal those from the set a
capture run holds in memory, and the reference interpreter's on the
first and last plans, for every fault model — all resuming from the
cell's one shared set. The counts: loading decodes nothing, campaigns
decode exactly the distinct states ``nearest`` returns, and a forked campaign decodes in the parent
exactly the states its missing shards resolve to. A stale or damaged
set never resumes: a set without per-state marks is an invalid miss
that rebuilds, and a blob that fails to decode raises.
"""

from collections import Counter

import pytest

from repro.faults import campaign as fc
from repro.faults.campaign import (
    CampaignConfig,
    _SESSION_TLS,
    _cell_checkpoints,
    draw_model_plans,
    golden_profile,
    hang_budget,
    inject_once,
    run_plans,
)
from repro.faults.models import model_names
from repro.lab.durable import run_durable_campaign
from repro.snap import SnapFormatError
from repro.snap.store import SNAPSET_SUFFIX, parse_set, render_set
from repro.toolchain import ArtifactCache, Toolchain

CELLS = [("histogram", "elzar"), ("blackscholes", "native")]
INJECTIONS = 12


@pytest.fixture(autouse=True)
def _own_cache(tmp_path, monkeypatch):
    """A cache of this test's own, so the first build is cold."""
    monkeypatch.setenv("REPRO_TOOLCHAIN_CACHE", str(tmp_path))
    _SESSION_TLS.slot = None
    yield
    _SESSION_TLS.slot = None


def _fresh(name, version):
    """The cell on new module objects rehydrated from the cache: empty
    in-process memos, so golden profile and checkpoint sets come from
    the cache, as in a fresh process. (The first build of a cold cache
    stores the artifact; the cell is always taken from a second.)"""
    Toolchain().build(name, "test", version)
    built = Toolchain().build(name, "test", version)
    reference, profile = golden_profile(built.module, built.entry,
                                        built.args)
    return built, reference, profile, hang_budget(
        profile.executed, CampaignConfig.hang_factor)


def _plans(profile, model):
    config = CampaignConfig(injections=INJECTIONS, seed=41,
                            fault_model=model)
    try:
        return draw_model_plans(profile, config)
    except ValueError:
        return None  # empty target stream for this cell


def _checkpoints(built, budget):
    return _cell_checkpoints(built.module, built.entry, built.args, budget,
                             None)


def _outcomes(built, reference, budget, plans):
    _SESSION_TLS.slot = None
    return run_plans(built.module, built.entry, built.args, plans,
                     reference, budget)


@pytest.mark.parametrize("name,version", CELLS)
def test_lazy_set_outcomes_equal_captured_and_reference(name, version):
    captured_cell = _fresh(name, version)
    models = [m for m in model_names()
              if _plans(captured_cell[2], m) is not None]
    assert len(models) >= 6
    built, reference, profile, budget = captured_cell
    cset = _checkpoints(built, budget)
    assert cset is not None and not cset.from_cache
    captured = {}
    for model in models:
        captured[model] = _outcomes(built, reference, budget,
                                    _plans(profile, model))
        assert _checkpoints(built, budget) is cset

    before = fc.GOLDEN_RUNS
    built, reference, profile, budget = _fresh(name, version)
    assert fc.GOLDEN_RUNS == before  # the golden profile came from disk
    cset = _checkpoints(built, budget)
    assert cset.from_cache
    assert len(cset.states) > 0
    assert cset.decoded == 0
    resumed = set()
    for model in models:
        plans = _plans(profile, model)
        resumed |= {id(s) for s in map(cset.nearest, plans)
                    if s is not None}
        assert cset.decoded == len(resumed)
        lazy = _outcomes(built, reference, budget, plans)
        assert _checkpoints(built, budget) is cset
        assert cset.decoded == len(resumed)
        assert lazy == captured[model], model
        for pos in (0, -1):
            assert lazy[pos] == inject_once(
                built.module, built.entry, built.args, plans[pos],
                reference, budget, engine="reference"), (model, pos)


def test_forked_campaign_decodes_in_parent_what_its_shards_resolve_to():
    config = CampaignConfig(injections=24, seed=5, workers=2)
    built, _, _, budget = _fresh("histogram", "elzar")
    assert not _checkpoints(built, budget).from_cache
    built, reference, profile, budget = _fresh("histogram", "elzar")
    cset = _checkpoints(built, budget)
    assert cset.from_cache and cset.decoded == 0
    plans = draw_model_plans(profile, config)
    wanted = {id(s) for s in map(cset.nearest, plans) if s is not None}
    # ``nearest`` just decoded them; start over on another fresh module.
    built, reference, profile, budget = _fresh("histogram", "elzar")
    forked = run_durable_campaign(built.module, built.entry, built.args,
                                  config=config, store=False, shard_size=6)
    cset = _checkpoints(built, budget)
    assert cset.from_cache
    assert cset.decoded == len(wanted) > 0
    serial = Counter(_outcomes(built, reference, budget, plans))
    assert forked.result.counts == serial
    assert cset.decoded == len(wanted)


def _corrupt_stored_set(key, rewrite):
    """Re-store the set at ``key`` with its body rewritten."""
    cache = ArtifactCache()
    blobs, meta = cache.get(key, SNAPSET_SUFFIX, parse_set)
    cache.put(key, SNAPSET_SUFFIX, render_set(*rewrite(blobs, meta)))


def test_set_without_stream_marks_is_an_invalid_miss_that_rebuilds():
    """A set written before per-state marks were recorded (its meta has
    only the eligible ``marks``) reads as invalid and is rebuilt."""
    built, _, _, budget = _fresh("histogram", "elzar")
    cset = _checkpoints(built, budget)
    old_meta = {"module": built.module.name, "entry": built.entry,
                "budget": budget, "marks": cset.marks}
    _corrupt_stored_set(cset.key, lambda blobs, meta: (blobs, old_meta))

    built, _, _, budget = _fresh("histogram", "elzar")
    cache = ArtifactCache()
    from repro.snap.build import build_checkpoints

    rebuilt = build_checkpoints(built.module, built.entry, built.args,
                                budget=budget,
                                eligible=golden_profile(
                                    built.module, built.entry,
                                    built.args)[1].eligible,
                                cache=cache)
    assert not rebuilt.from_cache
    assert rebuilt.key == cset.key and rebuilt.marks == cset.marks
    assert cache.stats_for(SNAPSET_SUFFIX).as_dict() == {
        "hits": 0, "misses": 1, "stores": 1, "invalid": 1}
    built, _, _, budget = _fresh("histogram", "elzar")
    assert _checkpoints(built, budget).from_cache


def test_undecodable_blob_raises_and_removes_the_set():
    """A state whose blob no longer decodes is never resumed: first use
    removes the entry (counted invalid) and raises naming the key; the
    next acquisition rebuilds the set."""
    built, reference, profile, budget = _fresh("histogram", "elzar")
    model = CampaignConfig.fault_model
    key = _checkpoints(built, budget).key
    _corrupt_stored_set(key, lambda blobs, meta: (
        [blob[:len(blob) // 2] for blob in blobs], meta))

    built, reference, profile, budget = _fresh("histogram", "elzar")
    cset = _checkpoints(built, budget)
    assert cset.from_cache
    plans = _plans(profile, model)
    late = max(plans, key=lambda p: p.target_index)
    with pytest.raises(SnapFormatError, match=key):
        cset.nearest(late)
    assert cset._cache.stats_for(SNAPSET_SUFFIX).invalid == 1
    assert ArtifactCache().entries(SNAPSET_SUFFIX) == []
    rebuilt = _checkpoints(built, budget)
    assert rebuilt is not cset and not rebuilt.from_cache
    assert _outcomes(built, reference, budget, [late]) == [
        inject_once(built.module, built.entry, built.args, late, reference,
                    budget, engine="reference")]


def test_state_disagreeing_with_its_marks_raises():
    """Marks choose the state; a blob that decodes to a state at other
    stream counters must not be resumed in its place."""
    built, _, profile, budget = _fresh("histogram", "elzar")
    model = CampaignConfig.fault_model
    key = _checkpoints(built, budget).key
    _corrupt_stored_set(key, lambda blobs, meta: (
        [blobs[0]] * len(blobs), meta))

    built, _, profile, budget = _fresh("histogram", "elzar")
    cset = _checkpoints(built, budget)
    late = max(_plans(profile, model), key=lambda p: p.target_index)
    with pytest.raises(SnapFormatError, match=key):
        cset.nearest(late)


def test_warm_snap_build_runs_and_decodes_nothing(tmp_path, monkeypatch):
    """``snap build`` over a warm cache, in a fresh toolchain: every
    golden profile and checkpoint set is a hit, with no golden run and
    no state decoded (the contract CI checks across processes)."""
    import importlib
    import json

    from repro.snap.cli import main as snap_main

    toolchain_build = importlib.import_module("repro.toolchain.build")

    reports = []
    for name in ("cold", "warm"):
        monkeypatch.setattr(toolchain_build, "_DEFAULT_TOOLCHAIN", None)
        path = tmp_path / f"snap-{name}.json"
        assert snap_main(["build", "--scale", "test", "--workloads",
                          "histogram", "--json", str(path)]) == 0
        reports.append(json.loads(path.read_text()))
    cold, warm = reports
    assert cold["golden_runs"] == len(cold["cells"]) == 2
    assert warm["golden"] == {"hits": 2, "misses": 0, "stores": 0,
                              "invalid": 0}
    assert warm["store"]["hits"] == 2 and warm["store"]["misses"] == 0
    assert warm["golden_runs"] == 0
    assert warm["decoded_states"] == 0
    assert [c["marks"] for c in warm["cells"]] == \
        [c["marks"] for c in cold["cells"]]


def test_nearest_is_the_latest_covering_state():
    """``nearest`` bisects the marks; it must pick what a scan of the
    states picks: the latest state that covers the plan, the first of
    several at the same mark, or None — at every mark and either side
    of it, on every stream."""
    from dataclasses import replace

    from repro.cpu.resumable import stream_mark

    built, _, profile, budget = _fresh("histogram", "elzar")
    cset = _checkpoints(built, budget)
    states = list(cset.states)
    for model in model_names():
        plans = _plans(profile, model)
        if plans is None:
            continue
        marks = {stream_mark(s, plans[0]) for s in states}
        probes = plans + [replace(plans[0], target_index=t)
                          for m in marks for t in (m - 1, m, m + 1)
                          if t >= 0]
        for plan in probes:
            best, best_mark = None, -1
            for state in states:
                mark = stream_mark(state, plan)
                if best_mark < mark <= plan.target_index:
                    best, best_mark = state, mark
            assert cset.nearest(plan) is best, (model, plan)


def test_nearest_takes_the_first_state_at_a_tied_mark():
    """Two states at the same mark (no event of the plan's stream
    between them): the earlier one resumes, as a scan keeps it."""
    from repro.cpu.interpreter import FaultPlan
    from repro.snap.build import CheckpointSet
    from repro.snap.store import StreamMarks

    marks = [StreamMarks(e, 0, b, 0) for e, b in
             [(5, 1), (10, 2), (10, 2), (20, 2), (30, 3)]]
    cset = CheckpointSet("k", marks, slots=["s0", "s1", "s2", "s3", "s4"],
                         from_cache=False)
    want = {4: None, 5: "s0", 9: "s0", 10: "s1", 19: "s1", 20: "s3",
            99: "s4"}
    for target, state in want.items():
        assert cset.nearest(FaultPlan(target_index=target, bit=0)) == state
    branch = {0: None, 1: "s0", 2: "s1", 3: "s4"}
    for target, state in branch.items():
        plan = FaultPlan(target_index=target, bit=0, kind="branch")
        assert cset.nearest(plan) == state
