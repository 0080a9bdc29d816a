"""Checkpoint sets in the content-addressed cache: keying, framing,
corruption, sharing with build artifacts, and LRU garbage collection
(the ``--gc`` satellite).
"""

import os
import time

import pytest

from repro.cpu.resumable import start_state
from repro.snap.build import build_checkpoints
from repro.snap.format import SnapFormatError
from repro.snap.store import SNAPSET_SUFFIX, checkpoint_key, machine_key, \
    parse_set, render_set
from repro.toolchain import Toolchain, default_toolchain
from repro.toolchain.cache import ArtifactCache

from .test_format import old_layout_blob


def _built():
    return default_toolchain().build("histogram", "test", "elzar")


class TestSetFraming:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path))
        blobs = [b"alpha", b"beta" * 100, b""]
        meta = {"module": "m", "marks": [1, 2, 3]}
        key = "ab" + "0" * 30
        assert cache.put(key, SNAPSET_SUFFIX, render_set(blobs, meta))
        assert cache.get(key, SNAPSET_SUFFIX, parse_set) == (blobs, meta)
        stats = cache.stats_for(SNAPSET_SUFFIX)
        assert stats.hits == 1 and stats.stores == 1
        # Per-kind statistics: build artifacts saw nothing.
        assert cache.stats.as_dict() == {"hits": 0, "misses": 0,
                                         "stores": 0, "invalid": 0}

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path))
        assert cache.get("cd" + "1" * 30, SNAPSET_SUFFIX, parse_set) is None
        assert cache.stats_for(SNAPSET_SUFFIX).misses == 1

    def test_corrupt_set_is_discarded(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path))
        key = "ef" + "2" * 30
        cache.put(key, SNAPSET_SUFFIX, render_set([b"payload"], {}))
        path = cache._path(key, SNAPSET_SUFFIX)
        with open(path, "r+b") as fh:
            fh.seek(8)
            fh.write(b"\xff")
        assert cache.get(key, SNAPSET_SUFFIX, parse_set) is None
        assert cache.stats_for(SNAPSET_SUFFIX).invalid == 1
        assert not os.path.exists(path)

    @pytest.mark.parametrize("body", [
        b"", b"XXXX" + bytes(8),
        render_set([b"x"], {})[:-1],
        render_set([b"x"], {}) + b"tail",
    ])
    def test_malformed_bodies_raise_format_errors(self, body):
        with pytest.raises(SnapFormatError):
            parse_set(body)

    def test_disabled_cache_is_inert(self):
        cache = ArtifactCache.disabled()
        assert not cache.enabled
        assert not cache.put("k", SNAPSET_SUFFIX, render_set([b"x"], {}))
        assert cache.get("k", SNAPSET_SUFFIX, parse_set) is None
        assert cache.entries(SNAPSET_SUFFIX) == []

    def test_entries_list_one_kind(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path))
        key = "aa" + "3" * 30
        body = render_set([b"x", b"y"], {"model": "m1"})
        cache.put(key, SNAPSET_SUFFIX, body)
        cache.put("bb" + "4" * 30, ".json", b"{}")
        [(listed, size)] = cache.entries(SNAPSET_SUFFIX)
        assert listed == key
        assert size == os.path.getsize(cache._path(key, SNAPSET_SUFFIX))


class TestStoredSets:
    """What ``snap ls`` and ``snap stats`` list: one row per stored
    set with its size, state count and meta."""

    def test_entries_report_states_and_meta(self, tmp_path):
        from repro.snap.cli import _stored_sets

        cache = ArtifactCache(root=str(tmp_path))
        key = "aa" + "3" * 30
        cache.put(key, SNAPSET_SUFFIX,
                  render_set([b"x", b"y"], {"model": "m1"}))
        cache.put("bb" + "4" * 30, ".json", b"{}")
        [row] = _stored_sets(cache)
        assert row["key"] == key
        assert row["states"] == 2
        assert row["model"] == "m1"
        assert row["bytes"] == os.path.getsize(
            cache._path(key, SNAPSET_SUFFIX))
        assert "invalid" not in row

    def test_damaged_set_is_listed_once_as_invalid(self, tmp_path):
        from repro.snap.cli import _stored_sets

        cache = ArtifactCache(root=str(tmp_path))
        good, bad = "aa" + "5" * 30, "cc" + "6" * 30
        cache.put(good, SNAPSET_SUFFIX, render_set([b"x"], {"model": "m"}))
        cache.put(bad, SNAPSET_SUFFIX, render_set([b"x"], {"model": "m"}))
        path = cache._path(bad, SNAPSET_SUFFIX)
        with open(path, "r+b") as fh:
            fh.seek(8)
            fh.write(b"\xff")
        size = os.path.getsize(path)
        rows = _stored_sets(cache)
        assert [r["key"] for r in rows] == [good, bad]
        assert rows[1] == {"key": bad, "bytes": size, "invalid": True}
        assert not os.path.exists(path)
        assert cache.stats_for(SNAPSET_SUFFIX).invalid == 1
        assert [r["key"] for r in _stored_sets(cache)] == [good]


class TestCheckpointKey:
    def test_key_covers_machine_geometry(self):
        built = _built()
        from repro.cpu.interpreter import MachineConfig

        keys = {
            checkpoint_key(built.module, built.entry, ("a",), (),
                           machine_key(config))
            for config in (MachineConfig(), MachineConfig(max_instructions=7),
                           MachineConfig(cache_enabled=False))
        }
        assert len(keys) == 3

    def test_key_is_stable_across_calls(self):
        built = _built()
        from repro.cpu.interpreter import MachineConfig

        mkey = machine_key(MachineConfig())
        k1 = checkpoint_key(built.module, built.entry, (), (), mkey)
        k2 = checkpoint_key(built.module, built.entry, (), (), mkey)
        assert k1 == k2

    @pytest.mark.parametrize("constant", ["CAPTURES", "MIN_INTERVAL"])
    def test_key_covers_capture_spacing(self, constant, monkeypatch):
        """Sets captured under another spacing rule are not served."""
        from repro.cpu.interpreter import MachineConfig
        from repro.snap import build as snap_build

        built = _built()
        mkey = machine_key(MachineConfig())
        before = checkpoint_key(built.module, built.entry, (), (), mkey)
        monkeypatch.setattr(snap_build, constant,
                            getattr(snap_build, constant) + 1)
        after = checkpoint_key(built.module, built.entry, (), (), mkey)
        assert before != after

    def test_one_key_and_one_stored_set_for_every_model(self, tmp_path,
                                                        monkeypatch):
        """Every fault model's campaign on a cell resumes from the same
        set: one key, one ``.snapset`` entry."""
        from repro.faults.campaign import (CampaignConfig, _SESSION_TLS,
                                           draw_model_plans, golden_profile,
                                           hang_budget, run_plans)
        from repro.faults.models import model_names

        monkeypatch.setenv("REPRO_TOOLCHAIN_CACHE", str(tmp_path))
        built = Toolchain(cache=ArtifactCache.disabled()).build(
            "histogram", "test", "elzar")
        reference, profile = golden_profile(built.module, built.entry,
                                            built.args)
        budget = hang_budget(profile.executed, CampaignConfig.hang_factor)
        for model in model_names():
            _SESSION_TLS.slot = None
            run_plans(built.module, built.entry, built.args,
                      draw_model_plans(profile, CampaignConfig(
                          injections=2, seed=3, fault_model=model)),
                      reference, budget)
        _SESSION_TLS.slot = None
        keys = [slot[1] for slot in built.module._golden_cache
                if isinstance(slot, tuple) and slot[0] == "snap-set"]
        assert len(keys) == 1
        assert [key for key, _ in ArtifactCache().entries(SNAPSET_SUFFIX)] \
            == keys


class TestBuilderStoreSharing:
    def test_cold_build_then_warm_load(self, tmp_path):
        built = _built()
        from repro.faults.campaign import golden_profile

        # The toolchain build cache shares module objects across tests;
        # drop any checkpoint sets other tests left in the module cache
        # so this build is genuinely cold.
        for slot in [k for k in built.module._golden_cache
                     if isinstance(k, tuple) and k and k[0] == "snap-set"]:
            built.module._golden_cache.pop(slot)
        _, profile = golden_profile(built.module, built.entry, built.args)
        budget = int(profile.executed * 4.0) + 10_000
        cache = ArtifactCache(root=str(tmp_path))
        cset = build_checkpoints(built.module, built.entry, built.args,
                                 budget=budget, eligible=profile.eligible,
                                 cache=cache)
        assert cset is not None and not cset.from_cache
        assert cache.stats_for(SNAPSET_SUFFIX).stores == 1
        # A second process would miss the in-module cache but hit the
        # disk; simulate by clearing the module-side slot.
        built.module._golden_cache.pop(("snap-set", cset.key))
        warm = build_checkpoints(built.module, built.entry, built.args,
                                 budget=budget, eligible=profile.eligible,
                                 cache=cache)
        assert warm.from_cache
        assert warm.key == cset.key
        assert warm.marks == cset.marks
        assert cache.stats_for(SNAPSET_SUFFIX).hits == 1

    def test_old_timed_set_is_an_invalid_miss_that_rebuilds(
            self, tmp_path, monkeypatch):
        """A set whose states still carry the deque ROB of the timing
        model's old layout never resumes: it counts as invalid, is
        removed, and the set is rebuilt and stored anew."""
        built = _built()
        from repro.cpu import Machine, MachineConfig
        from repro.faults.campaign import golden_profile

        for slot in [k for k in built.module._golden_cache
                     if isinstance(k, tuple) and k and k[0] == "snap-set"]:
            built.module._golden_cache.pop(slot)
        _, profile = golden_profile(built.module, built.entry, built.args)
        budget = int(profile.executed * 4.0) + 10_000
        timed = Machine(built.module, MachineConfig())
        start = start_state(timed, built.entry, built.args)
        old = old_layout_blob(start, timed, monkeypatch)

        def build(cache):
            return build_checkpoints(
                built.module, built.entry, built.args, budget=budget,
                eligible=profile.eligible, cache=cache)

        cset = build(ArtifactCache(root=str(tmp_path)))
        built.module._golden_cache.pop(("snap-set", cset.key))
        ArtifactCache(root=str(tmp_path)).put(
            cset.key, SNAPSET_SUFFIX, render_set([old], {}))
        cache = ArtifactCache(root=str(tmp_path))
        rebuilt = build(cache)
        assert not rebuilt.from_cache
        assert rebuilt.marks == cset.marks
        assert cache.stats_for(SNAPSET_SUFFIX).as_dict() == {
            "hits": 0, "misses": 1, "stores": 1, "invalid": 1}
        built.module._golden_cache.pop(("snap-set", cset.key))
        assert build(cache).from_cache

    def test_short_runs_and_unkeyable_predicates_skip(self, tmp_path):
        built = _built()
        cache = ArtifactCache(root=str(tmp_path))
        assert build_checkpoints(built.module, built.entry, built.args,
                                 budget=10_000, eligible=100,
                                 cache=cache) is None
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert build_checkpoints(
                built.module, built.entry, built.args, budget=10_000,
                fault_eligible=lambda fn: True,
                eligible=100_000, cache=cache,
            ) is None


class TestArtifactCacheGC:
    def _fill(self, root, names, size=1024):
        paths = []
        for i, name in enumerate(names):
            sub = os.path.join(root, name[:2])
            os.makedirs(sub, exist_ok=True)
            path = os.path.join(sub, name)
            with open(path, "wb") as fh:
                fh.write(b"x" * size)
            # Strictly increasing mtimes make LRU order deterministic.
            stamp = time.time() - len(names) + i
            os.utime(path, (stamp, stamp))
            paths.append(path)
        return paths

    def test_gc_evicts_lru_first(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path))
        paths = self._fill(str(tmp_path),
                           ["aa1.json", "bb2.json", "cc3.snapset",
                            "dd4.json"])
        stats = cache.gc(2 * 1024)
        assert stats.evicted_files == 2
        # The two oldest are gone, the two newest survive.
        assert not os.path.exists(paths[0])
        assert not os.path.exists(paths[1])
        assert os.path.exists(paths[2])
        assert os.path.exists(paths[3])
        assert stats.kept_bytes <= 2 * 1024

    def test_gc_under_budget_is_a_noop(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path))
        paths = self._fill(str(tmp_path), ["aa1.json", "bb2.snapset"])
        stats = cache.gc(1024 * 1024)
        assert stats.evicted_files == 0
        assert all(os.path.exists(p) for p in paths)

    def test_gc_stats_render(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path))
        self._fill(str(tmp_path), ["aa1.json", "bb2.json"])
        stats = cache.gc(1024)
        text = stats.render()
        assert "cache gc:" in text
        assert stats.as_dict()["evicted_files"] == stats.evicted_files

    def test_load_touches_mtime(self, tmp_path):
        # The LRU signal: a loaded artifact must look recently used.
        built = _built()
        cache = ArtifactCache(root=str(tmp_path))
        key = "ab" * 16
        assert cache.store(key, built.module, {"ir_digest": "d1"})
        path = cache._path(key)
        old = time.time() - 10_000
        os.utime(path, (old, old))
        assert cache.load(key) is not None
        assert os.path.getmtime(path) > old + 5_000
