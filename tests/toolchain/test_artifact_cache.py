"""The content-addressed artifact cache: hits, validation, and the
degrade-to-miss guarantees."""

import importlib
import json
import os

from repro.toolchain import ArtifactCache, Toolchain, get_variant
from repro.toolchain.digest import digest_of


def _one_artifact(root):
    files = []
    for dirpath, _, names in os.walk(root):
        files += [os.path.join(dirpath, n) for n in names
                  if n.endswith(".json")]
    return files


def _payload(cache, key):
    """The JSON payload of the artifact at ``key`` (a sealed entry)."""
    return cache.get(key, ".json", json.loads)


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
        fresh = [digest_of(["module-ir", build_mod.format_module(b.module)])
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
    def test_load_parses_without_printing(self, tmp_path, monkeypatch):
        """Rehydration never prints the module: the seal and the key
        (which digests the IR package's sources) vouch for the
        stored text."""
        cache_mod = importlib.import_module("repro.toolchain.cache")
        cache = ArtifactCache(str(tmp_path))
        Toolchain(cache=cache).build("histogram", "test", "noavx")
        key = Toolchain.artifact_key("histogram", "test",
                                     get_variant("noavx"))

        def no_print(module):
            raise AssertionError("module printed again")

        monkeypatch.setattr(cache_mod, "format_module", no_print)
        assert ArtifactCache(str(tmp_path)).load(key) is not None

    def test_corrupt_artifact_degrades_to_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TOOLCHAIN_CACHE", str(tmp_path))
        cold = Toolchain()
        expect = cold.build("histogram", "test", "elzar").ir_digest
        key = Toolchain.artifact_key("histogram", "test",
                                     get_variant("elzar"))
        # A well-sealed entry whose payload is not an artifact.
        assert cold.cache.put(key, ".json",
                              b'{"meta": {}, "ir": "; module broken\\n"}')

        warm = Toolchain()
        built = warm.build("histogram", "test", "elzar")
        assert not built.from_cache  # rebuilt cold
        assert built.ir_digest == expect
        assert warm.cache.stats.invalid >= 1
        # The bad entry was discarded and replaced by the rebuild.
        payload = _payload(ArtifactCache(str(tmp_path)), key)
        assert payload["meta"]["ir_digest"] == expect

    def test_tampered_ir_fails_trailer_check(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        tc = Toolchain(cache=cache)
        built = tc.build("histogram", "test", "noavx")
        [path] = _one_artifact(tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data.replace(b"add", b"mul", 1))
        fresh = ArtifactCache(str(tmp_path))
        key = Toolchain.artifact_key("histogram", "test", built.spec)
        assert fresh.load(key) is None
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
        assert cache.load("00" * 32) is None
        assert cache.store("00" * 32, None, {}) is False


class TestKeying:
    def test_key_varies_by_every_component(self):
        base = Toolchain.artifact_key("histogram", "test",
                                      get_variant("elzar"))
        assert Toolchain.artifact_key("kmeans", "test",
                                      get_variant("elzar")) != base
        assert Toolchain.artifact_key("histogram", "fi",
                                      get_variant("elzar")) != base
        assert Toolchain.artifact_key("histogram", "test",
                                      get_variant("elzar_detect")) != base
