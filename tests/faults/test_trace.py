"""Tests for dynamic tracing and fault-region demarcation (§IV-B)."""

import pytest

from repro.faults import (
    CampaignConfig,
    collect_trace,
    functions_only,
    golden_profile,
    hardened_only,
    run_campaign,
)
from repro.passes import elzar_transform, mem2reg
from repro.workloads import get


@pytest.fixture(scope="module")
def smatch():
    built = get("string_match").build_at("test")
    mem2reg(built.module)
    return built


class TestCollectTrace:
    def test_per_function_counts(self, smatch):
        summary = collect_trace(smatch.module, smatch.entry, smatch.args)
        assert summary.total > 0
        assert "main" in summary.per_function
        assert "memset_i8" in summary.per_function  # the bzero hotspot
        assert sum(summary.per_function.values()) == summary.total

    def test_memset_dominates_smatch(self, smatch):
        """§V-B: string_match spends most of its time in bzero."""
        summary = collect_trace(smatch.module, smatch.entry, smatch.args)
        assert summary.fraction("memset_i8") > 0.4
        hottest = summary.hottest(1)[0][0]
        assert hottest == "memset_i8"

    def test_opcode_histogram(self, smatch):
        summary = collect_trace(smatch.module, smatch.entry, smatch.args)
        assert summary.opcodes["load"] > 0
        assert summary.opcodes["icmp"] > 0

    def test_matches_golden_run_count(self, smatch):
        summary = collect_trace(smatch.module, smatch.entry, smatch.args)
        _, profile = golden_profile(smatch.module, smatch.entry,
                                    smatch.args)
        assert summary.total == profile.eligible


class TestRegionRestriction:
    def test_predicate_shrinks_eligible_set(self, smatch):
        full = golden_profile(smatch.module, smatch.entry,
                              smatch.args)[1].eligible
        restricted = golden_profile(
            smatch.module, smatch.entry, smatch.args,
            functions_only(frozenset({"main"})),
        )[1].eligible
        assert 0 < restricted < full

    def test_hardened_only_predicate(self, smatch):
        hardened = elzar_transform(smatch.module)
        predicate = hardened_only(hardened)
        assert predicate(hardened.get_function("main"))
        # Intrinsic declarations are never eligible.
        for fn in hardened.functions.values():
            if fn.is_intrinsic:
                assert not predicate(fn)

    def test_restricted_campaign_runs(self, smatch):
        """Injecting only into main (excluding the 'library' memset,
        like the paper excludes unhardened libraries)."""
        hardened = elzar_transform(smatch.module)
        cfg = CampaignConfig(
            injections=30, seed=9,
            fault_eligible=functions_only(frozenset({"main"})),
        )
        result = run_campaign(
            hardened, smatch.entry, smatch.args, "smatch", "elzar", cfg
        )
        assert result.total == 30
