"""Fault-injection machines simulate the architecture only.

An untimed machine (``collect_timing=False``, as every campaign builds
it) has no cache hierarchy, prefetcher or branch predictor, and its
checkpoint states carry none. A Table-I outcome depends only on the
output, traps, corrections and the instruction count, so none of those
components may ever steer a program: a campaign's per-plan outcomes
equal those of a timed machine with the cache, prefetcher and predictor
on, and those of the reference interpreter.
"""

import dataclasses
import importlib

import pytest

from repro.cpu import Machine, MachineConfig
from repro.cpu.branch_predictor import GSharePredictor
from repro.cpu.cache import CacheHierarchy
from repro.cpu.compiled import restore_payload
from repro.faults.campaign import (
    CampaignConfig,
    _SESSION_TLS,
    _cell_checkpoints,
    _classify,
    _fresh_machine,
    draw_model_plans,
    golden_profile,
    hang_budget,
    inject_once,
    run_plans,
)
from repro.faults.models import model_names
from repro.snap.build import build_checkpoints
from repro.snap.format import deserialize_state, serialize_state
from repro.snap.store import SNAPSET_SUFFIX, marks_meta, render_set
from repro.toolchain import default_toolchain
from repro.toolchain.cache import ArtifactCache

RTOL = 1e-9


@pytest.fixture(autouse=True)
def _fresh_session():
    # The session TLS pins a Machine per cell; model sweeps in one
    # process must not inherit a stale checkpoint attachment.
    _SESSION_TLS.slot = None
    yield
    _SESSION_TLS.slot = None


def _cell(name, version="elzar"):
    built = default_toolchain().build(name, "test", version)
    reference, profile = golden_profile(built.module, built.entry,
                                        built.args)
    budget = hang_budget(profile.executed, CampaignConfig.hang_factor)
    return built, reference, profile, budget


def _drop_sets(module):
    """Forget the checkpoint sets other tests left on a shared module,
    so the next :func:`build_checkpoints` goes to the given cache."""
    for slot in [k for k in module._golden_cache
                 if isinstance(k, tuple) and k and k[0] == "snap-set"]:
        module._golden_cache.pop(slot)


def _timed_outcome(built, plan, reference, budget):
    """One injection on a fresh timed machine with the cache, stream
    prefetcher and branch predictor on, classified like a campaign's."""
    machine = Machine(built.module, MachineConfig(max_instructions=budget))
    assert machine.cache.prefetcher is not None
    assert machine.predictor is not None
    machine.arm_fault(plan)
    return _classify(lambda: machine.run(built.entry, built.args),
                     reference, RTOL)


class TestMicroarchitectureNeverSteers:
    @pytest.mark.parametrize("model", model_names())
    @pytest.mark.parametrize("version", ["native", "elzar"])
    @pytest.mark.parametrize("name", ["histogram", "blackscholes"])
    def test_campaign_equals_timed_machine_and_reference(self, name,
                                                         version, model):
        built, reference, profile, budget = _cell(name, version)
        try:
            plans = draw_model_plans(profile, CampaignConfig(
                injections=6, seed=41, fault_model=model))
        except ValueError:
            pytest.skip(f"{model} has no targets in {name}/{version}")
        assert _cell_checkpoints(built.module, built.entry, built.args,
                                 budget, None) is not None
        campaign = run_plans(built.module, built.entry, built.args, plans,
                             reference, budget)
        timed = [_timed_outcome(built, plan, reference, budget)
                 for plan in plans]
        oracle = [inject_once(built.module, built.entry, built.args, plan,
                              reference, budget, engine="reference")
                  for plan in plans]
        assert list(campaign) == timed == oracle


class TestArchitectureOnlyState:
    def test_untimed_machine_has_no_cache_or_predictor(self):
        built, _, _, _ = _cell("histogram")
        for engine in ("compiled", "reference"):
            machine = Machine(built.module, MachineConfig(
                collect_timing=False, engine=engine))
            assert machine.cache is None and machine.predictor is None
            assert machine.timing is None
            machine.run(built.entry, built.args)
            assert machine.cache is None and machine.predictor is None
        timed = Machine(built.module, MachineConfig(cache_enabled=False))
        assert timed.cache is None and timed.predictor is not None

    def test_restore_from_a_stored_set_keeps_the_machine_untimed(
            self, tmp_path):
        built, _, profile, budget = _cell("histogram")
        _drop_sets(built.module)
        cache = ArtifactCache(root=str(tmp_path))

        def build():
            return build_checkpoints(built.module, built.entry, built.args,
                                     budget=budget,
                                     eligible=profile.eligible, cache=cache)

        cold = build()
        assert cold is not None and not cold.from_cache
        _drop_sets(built.module)
        warm = build()
        assert warm.from_cache and len(warm.states) == len(cold.states)
        machine = _fresh_machine(built.module, max_instructions=budget)
        for i in range(len(warm.states)):
            state = warm.state(i)
            assert state.cache is None and state.predictor is None
            restore_payload(machine, state)
            assert machine.cache is None and machine.predictor is None
            assert machine.timing is None
        _drop_sets(built.module)

    def test_untimed_blobs_hold_no_cache_or_predictor_payload(self):
        built, _, profile, budget = _cell("blackscholes")
        cset = build_checkpoints(built.module, built.entry, built.args,
                                 budget=budget, eligible=profile.eligible)
        assert cset is not None and len(cset.states) > 0
        machine = _fresh_machine(built.module, max_instructions=budget)
        for i in range(len(cset.states)):
            blob = cset.blob(i)
            for name in (b"CacheHierarchy", b"StreamPrefetcher",
                         b"GSharePredictor", b"TimingModel"):
                assert name not in blob
            state = deserialize_state(blob, machine)
            assert state.cache is state.predictor is state.timing is None
            assert state.branch_pcs == {}

    def test_set_of_a_microarchitectural_machine_is_never_read(
            self, tmp_path, monkeypatch):
        """Untimed states used to carry a cache and a predictor. The
        layout did not change, so ``SNAP_VERSION`` stays; what retires
        such sets is the semantics digest (the sources of
        ``repro.cpu``) in the set's key. A set stored under the key of
        other semantics is a miss, and the rebuilt one carries
        neither component."""
        build_mod = importlib.import_module("repro.toolchain.build")
        built, _, profile, budget = _cell("histogram")
        _drop_sets(built.module)
        cache = ArtifactCache(root=str(tmp_path))

        def build():
            return build_checkpoints(built.module, built.entry, built.args,
                                     budget=budget,
                                     eligible=profile.eligible, cache=cache)

        with monkeypatch.context() as patch:
            patch.setattr(build_mod, "_SEMANTICS_DIGEST", "0" * 64)
            other = build()
            machine = _fresh_machine(built.module, max_instructions=budget)
            stale = [serialize_state(dataclasses.replace(
                state, cache=CacheHierarchy(), predictor=GSharePredictor()),
                machine) for state in other.states]
            cache.put(other.key, SNAPSET_SUFFIX, render_set(stale, {
                "streams": marks_meta(other.states),
                "end": list(other.end)}))
        _drop_sets(built.module)
        rebuilt = build()
        assert rebuilt.key != other.key
        assert not rebuilt.from_cache
        assert cache.stats_for(SNAPSET_SUFFIX).invalid == 0
        assert all(s.cache is None and s.predictor is None
                   for s in rebuilt.states)
        _drop_sets(built.module)
