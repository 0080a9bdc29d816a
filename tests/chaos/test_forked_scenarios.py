"""Forked-fabric chaos scenarios end to end: run the real campaign
stack under an injected fault and hold it to the verifier's standard —
bit-identical recovery, provable firing.

Only the cheapest representatives run here (the full scenario matrix is
CI's ``python -m repro chaos matrix``); what this suite pins is that
the runner/verifier machinery itself works as a pytest citizen."""

import pytest

from repro.chaos.cli import main as chaos_main
from repro.chaos.runner import SHARD_COUNT, run_chaotic, run_reference
from repro.chaos.scenarios import SCENARIOS, get_scenario
from repro.chaos.verify import verify


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos-ref") / "reference.sqlite"
    return run_reference(str(path))


def _run(name, seed, tmp_path, reference):
    scenario = get_scenario(name)
    report = run_chaotic(scenario, seed,
                         str(tmp_path / f"{name}-s{seed}.sqlite"))
    return report, verify(scenario, report, reference)


class TestScenarios:
    def test_worker_kill_recovers_bit_identical(self, tmp_path, reference):
        report, verdict = _run("worker-kill", 1, tmp_path, reference)
        assert verdict.ok, verdict.problems
        assert report["counts"] == reference["counts"]
        assert "shard-retry" in {e["kind"] for e in report["events"]}

    def test_store_lost_write_costs_one_rerun(self, tmp_path, reference):
        report, verdict = _run("store-lost-write", 1, tmp_path, reference)
        assert verdict.ok, verdict.problems
        # The driver died mid-campaign: recovery took a second phase,
        # and the store ended bit-identical anyway.
        assert report["phases"] == 2
        assert report["rows"] == reference["rows"]

    def test_golden_corrupt_purges_instead_of_replaying(self, tmp_path,
                                                        reference):
        report, verdict = _run("golden-corrupt", 1, tmp_path, reference)
        assert verdict.ok, verdict.problems
        assert "store-stale" in {e["kind"] for e in report["events"]}


    def test_golden_entry_corrupt_reruns_the_golden_run(self, tmp_path,
                                                        reference):
        """A damaged ``.golden`` entry read by a fresh driver is one
        counted invalid miss; the golden run executes again and the
        campaign ends bit-identical."""
        report, verdict = _run("golden-entry-corrupt", 1, tmp_path,
                               reference)
        assert verdict.ok, verdict.problems
        [event] = [e for e in report["events"]
                   if e["kind"] == "cache-invalid"]
        assert (event["suffix"], event["invalid"]) == (".golden", 1)
        assert [t["point"] for t in report["trace"]] == [
            "toolchain.cache.read"]


class TestDeterminism:
    def test_same_seed_same_rule_schedule(self):
        for name, scenario in SCENARIOS.items():
            once = scenario.spec(7, SHARD_COUNT).to_wire()
            again = scenario.spec(7, SHARD_COUNT).to_wire()
            assert once == again, name

    def test_different_seed_moves_the_fault(self):
        scenario = get_scenario("worker-kill")
        schedules = {
            str(scenario.spec(seed, SHARD_COUNT).to_wire())
            for seed in range(10)
        }
        assert len(schedules) > 1

    def test_every_scenario_declares_falsifiability(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.evidence or scenario.needs_rerun, (
                f"{name} has no way to prove its fault fired")

    def test_unknown_scenario_is_a_loud_error(self):
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            get_scenario("nope")


class TestCli:
    def test_list_names_every_scenario(self, capsys):
        assert chaos_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_run_single_scenario_exits_zero(self, tmp_path, capsys):
        assert chaos_main(["run", "--scenario", "worker-kill", "--seed", "1",
                           "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "worker-kill seed=1: ok" in out
