"""Build parity: the same (workload, scale, variant) names the same IR
in every subsystem — harness sessions, cluster cells, and the warm
artifact-cache path. This is the divergence the toolchain exists to
kill (cluster cells used to skip inlining; the campaign CLI's "native"
used to mean the unvectorized base)."""

import pytest

from repro.cluster.cells import CellCache, build_cell
from repro.faults import golden_profile, hardened_only
from repro.harness import Session
from repro.ir.printer import format_module
from repro.toolchain import ArtifactCache, Toolchain, VARIANTS
from repro.toolchain.build import module_digest

WORKLOADS = ("histogram", "blackscholes")


@pytest.fixture(scope="module")
def session():
    return Session("test")


class TestSessionVsCells:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_cell_digest_equals_session_digest(self, session, variant):
        """Satellite check from the issue: for every registry variant,
        a cluster cell rebuild is bit-identical to the harness build."""
        for workload in WORKLOADS:
            module, entry, args = build_cell(workload, "test", variant)
            assert module_digest(module) == module_digest(
                session.module(workload, variant))
            built = session.toolchain.build(workload, "test", variant)
            assert entry == built.entry
            assert args == built.args

    def test_cells_inline_like_the_harness(self, session):
        """The historical bug: cells ran mem2reg only, so their modules
        still contained calls the harness had inlined. Same digest ⇒
        same pipeline."""
        module, _, _ = build_cell("histogram", "test", "noavx")
        assert module_digest(module) == module_digest(
            session.built("histogram").module)

    def test_cell_cache_returns_same_cell(self):
        cache = CellCache()
        first = cache.get("histogram", "test", "elzar")
        assert cache.get("histogram", "test", "elzar") is first


class TestWarmPathParity:
    def test_rehydrated_digests_match_cold(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TOOLCHAIN_CACHE", str(tmp_path))
        cold = Toolchain()
        digests = {
            variant: cold.ir_digest("histogram", "test", variant)
            for variant in VARIANTS
        }
        texts = {
            variant: format_module(cold.module("histogram", "test", variant))
            for variant in VARIANTS
        }
        warm = Toolchain()
        for variant in VARIANTS:
            built = warm.build("histogram", "test", variant)
            assert built.from_cache, variant
            assert built.ir_digest == digests[variant], variant
            # The digest of a rehydrated module is the one recorded at
            # store time; print the module itself to check rehydration
            # against the cold text, not against that record.
            assert format_module(built.module) == texts[variant], variant

    def test_rehydrated_functions_keep_their_hardening_scheme(
            self, tmp_path, monkeypatch):
        """``Function.hardened`` survives the artifact cache, so a
        hardened-only campaign on a rehydrated module injects into the
        same instructions as one on the cold build."""
        monkeypatch.setenv("REPRO_TOOLCHAIN_CACHE", str(tmp_path))

        def observe(built):
            _, profile = golden_profile(
                built.module, built.entry, built.args,
                hardened_only(built.module), cache=ArtifactCache.disabled())
            return ([(f.name, f.hardened)
                     for f in built.module.functions.values()],
                    profile.eligible)

        cold = {variant: observe(Toolchain().build("histogram", "test",
                                                   variant))
                for variant in VARIANTS}
        for variant in VARIANTS:
            built = Toolchain().build("histogram", "test", variant)
            assert built.from_cache, variant
            assert observe(built) == cold[variant], variant

    def test_harden_from_rehydrated_base_matches_cold(
            self, tmp_path, monkeypatch):
        """A worker that rehydrates the noavx base but hardens the
        variant cold must reach the exact digest of an all-cold build —
        otherwise a cluster handshake between a warm and a cold checkout
        would refuse its own code."""
        monkeypatch.setenv("REPRO_TOOLCHAIN_CACHE", str(tmp_path))
        cold = Toolchain()
        expect = cold.ir_digest("histogram", "test", "elzar")
        # Fresh toolchain, hardened artifact removed: base comes from
        # the cache, the elzar transform runs cold on the parsed module.
        key = Toolchain.artifact_key(
            "histogram", "test",
            cold.build("histogram", "test", "elzar").spec)
        artifact = tmp_path / key[:2] / f"{key}.json"
        artifact.unlink()
        warm_base = Toolchain()
        built = warm_base.build("histogram", "test", "elzar")
        assert not built.from_cache
        assert warm_base._bases_from_cache  # base did rehydrate
        assert built.ir_digest == expect

    def test_run_meta_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TOOLCHAIN_CACHE", str(tmp_path))
        cold = Toolchain().build("histogram", "test", "native")
        warm = Toolchain().build("histogram", "test", "native")
        assert warm.entry == cold.entry
        assert warm.args == cold.args
        assert warm.expected == cold.expected
        assert warm.rtol == cold.rtol


class TestCostModelPlumbing:
    def test_session_prices_proposed_avx_differently(self, session):
        haswell = session.cycles("histogram", "elzar")
        proposed = session.cycles("histogram", "elzar_proposed")
        assert proposed < haswell  # Figure 17: proposed ISA is cheaper
