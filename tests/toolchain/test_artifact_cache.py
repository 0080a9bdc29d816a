"""The content-addressed artifact cache: hits, validation, and the
degrade-to-miss guarantees."""

import importlib
import json
import os

from repro.toolchain import ArtifactCache, Toolchain
from repro.toolchain.build import _ir_text_digest


def _one_artifact(root):
    files = []
    for dirpath, _, names in os.walk(root):
        files += [os.path.join(dirpath, n) for n in names
                  if n.endswith(".json")]
    return files


class TestWarmRebuild:
    def test_second_build_is_all_hits_and_bit_identical(
            self, tmp_path, monkeypatch):
        """The CI warm-cache property: a second process rebuilding the
        same cells does zero build/harden work (pure cache hits) and
        reaches bit-identical digests."""
        monkeypatch.setenv("REPRO_TOOLCHAIN_CACHE", str(tmp_path))
        cells = [("histogram", "test", v) for v in ("noavx", "native",
                                                    "elzar", "swiftr")]
        cold = Toolchain()
        digests = {c: cold.build(*c).ir_digest for c in cells}
        assert cold.cache.stats.hits == 0
        assert cold.cache.stats.stores == len(cells)

        warm = Toolchain()
        for cell in cells:
            built = warm.build(*cell)
            assert built.from_cache
            assert built.ir_digest == digests[cell]
        assert warm.cache.stats.misses == 0
        assert warm.cache.stats.hits == len(cells)
        assert warm.cache.stats.stores == 0

    def test_rehydrated_digest_needs_no_second_print(
            self, tmp_path, monkeypatch):
        """A rehydrated module's digest is the one ``load`` already
        validated: ``module_digest`` returns it without printing the
        module again, and it equals a fresh digest of the module."""
        # The package re-exports a ``build`` function over the module.
        build_mod = importlib.import_module("repro.toolchain.build")
        monkeypatch.setenv("REPRO_TOOLCHAIN_CACHE", str(tmp_path))
        cells = [("histogram", "test", v) for v in ("noavx", "elzar")]
        cold = Toolchain()
        for cell in cells:
            cold.build(*cell)
        warm = [Toolchain().build(*cell) for cell in cells]
        fresh = [_ir_text_digest(build_mod.format_module(b.module))
                 for b in warm]

        def no_print(module):
            raise AssertionError("module printed again")

        monkeypatch.setattr(build_mod, "format_module", no_print)
        for built, want in zip(warm, fresh):
            assert built.from_cache
            assert build_mod.module_digest(built.module) == want

    def test_in_process_memoization_returns_same_object(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TOOLCHAIN_CACHE", str(tmp_path))
        tc = Toolchain()
        first = tc.build("histogram", "test", "elzar")
        assert tc.build("histogram", "test", "elzar") is first


class TestValidation:
    def test_corrupt_artifact_degrades_to_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TOOLCHAIN_CACHE", str(tmp_path))
        cold = Toolchain()
        expect = cold.build("histogram", "test", "elzar").ir_digest
        [path] = [p for p in _one_artifact(tmp_path)
                  if json.load(open(p))["meta"]["variant"] == "elzar"]
        with open(path, "w") as fh:
            fh.write('{"meta": {}, "ir": "; module broken\\n"}')

        warm = Toolchain()
        built = warm.build("histogram", "test", "elzar")
        assert not built.from_cache  # rebuilt cold
        assert built.ir_digest == expect
        assert warm.cache.stats.invalid >= 1
        # The bad file was discarded and replaced by the rebuild.
        payload = json.load(open(path))
        assert payload["meta"]["ir_digest"] == expect

    def test_tampered_ir_fails_digest_check(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        tc = Toolchain(cache=cache)
        built = tc.build("histogram", "test", "noavx")
        [path] = _one_artifact(tmp_path)
        payload = json.load(open(path))
        payload["ir"] = payload["ir"].replace("add", "mul", 1)
        with open(path, "w") as fh:
            json.dump(payload, fh)
        fresh = ArtifactCache(str(tmp_path))
        key = Toolchain.artifact_key("histogram", "test", built.spec)
        assert fresh.load(key, _ir_text_digest) is None
        assert fresh.stats.invalid == 1
        assert not os.path.exists(path)  # discarded


class TestDisabling:
    def test_off_switch_disables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TOOLCHAIN_CACHE", "off")
        tc = Toolchain()
        assert not tc.cache.enabled
        built = tc.build("histogram", "test", "noavx")
        assert not built.from_cache
        assert tc.cache.stats.stores == 0

    def test_disabled_cache_never_touches_disk(self):
        cache = ArtifactCache.disabled()
        assert not cache.enabled
        assert cache.load("00" * 32, _ir_text_digest) is None
        assert cache.store("00" * 32, None, {}) is False


class TestKeying:
    def test_key_varies_by_every_component(self):
        from repro.toolchain import get_variant
        base = Toolchain.artifact_key("histogram", "test",
                                      get_variant("elzar"))
        assert Toolchain.artifact_key("kmeans", "test",
                                      get_variant("elzar")) != base
        assert Toolchain.artifact_key("histogram", "fi",
                                      get_variant("elzar")) != base
        assert Toolchain.artifact_key("histogram", "test",
                                      get_variant("elzar_detect")) != base
