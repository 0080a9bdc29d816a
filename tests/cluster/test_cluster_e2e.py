"""End-to-end cluster campaigns (in-process coordinator, subprocess
worker agents) against the hard invariant: outcome counts are
bit-identical to the forked-worker mode, whatever fails mid-run."""

import json

import pytest

from repro.__main__ import main
from repro.chaos.hooks import CHAOS_ENV, ChaosRule, ChaosSpec
from repro.lab.store import _OPEN_STORES

#: One small cell: 40 injections in 4 shards of 10 at --scale test.
_CELL = ("--scale", "test", "--quiet",
         "--benchmarks", "histogram", "--versions", "native")


@pytest.fixture()
def lab_store(monkeypatch, tmp_path):
    path = str(tmp_path / "store.sqlite")
    monkeypatch.setenv("REPRO_LAB_STORE", path)
    yield path
    store = _OPEN_STORES.pop(path, None)
    if store is not None:
        store.close()


def _campaign(*extra):
    return main(["campaign", *_CELL, *extra])


def _report(path):
    with open(path) as fh:
        return json.load(fh)


def _events(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _forked_reference(tmp_path):
    """Counts from the forked scheduler (workers=2) in its own store."""
    ref_json = str(tmp_path / "ref.json")
    assert main(["campaign", *_CELL, "--workers", "2",
                 "--store", str(tmp_path / "ref.sqlite"),
                 "--json", ref_json]) == 0
    return _report(ref_json)


class TestClusterCampaign:
    def test_counts_bit_identical_to_forked_workers(self, lab_store,
                                                    tmp_path, capsys):
        reference = _forked_reference(tmp_path)
        cluster_json = str(tmp_path / "cluster.json")
        assert _campaign("--cluster", "2", "--json", cluster_json) == 0
        capsys.readouterr()
        cluster = _report(cluster_json)
        assert cluster["cells"][0]["counts"] == \
            reference["cells"][0]["counts"]
        assert cluster["cells"][0]["rates"] == reference["cells"][0]["rates"]
        assert cluster["store"]["injections_executed"] == 40

    def test_second_cluster_run_is_all_store_hits(self, lab_store,
                                                  tmp_path, capsys):
        first = str(tmp_path / "first.json")
        second = str(tmp_path / "second.json")
        assert _campaign("--cluster", "2", "--json", first) == 0
        assert _campaign("--cluster", "2", "--json", second) == 0
        capsys.readouterr()
        assert _report(second)["store"]["hit_rate"] == 1.0
        assert _report(second)["store"]["injections_executed"] == 0
        assert _report(second)["cells"][0]["counts"] == \
            _report(first)["cells"][0]["counts"]

    def test_cluster_and_forked_share_store_keys(self, lab_store,
                                                 tmp_path, capsys):
        # A forked run warms the store; the cluster run must replay it
        # (same spec/cell keys — the fabric is not part of the key).
        assert _campaign("--workers", "2") == 0
        report_json = str(tmp_path / "cluster.json")
        assert _campaign("--cluster", "2", "--json", report_json) == 0
        capsys.readouterr()
        assert _report(report_json)["store"]["hit_rate"] == 1.0

    def test_worker_killed_mid_shard_is_released(self, lab_store, tmp_path,
                                                 monkeypatch, capsys):
        reference = _forked_reference(tmp_path)
        # Whichever worker first leases shard 1 hard-exits on attempt
        # 0; the shard must be re-leased and the campaign complete.
        monkeypatch.setenv(CHAOS_ENV, ChaosSpec(
            scenario="kill", seed=0,
            rules=[ChaosRule(point="cluster.worker.lease", action="crash",
                             match={"index": 1, "attempt": 0})],
        ).to_env())
        kill_json = str(tmp_path / "kill.json")
        events_log = str(tmp_path / "events.jsonl")
        assert _campaign("--cluster", "2", "--json", kill_json,
                         "--events-log", events_log) == 0
        capsys.readouterr()

        assert _report(kill_json)["cells"][0]["counts"] == \
            reference["cells"][0]["counts"]

        events = _events(events_log)
        kinds = [e["kind"] for e in events]
        assert "worker-disconnected" in kinds
        assert "lease-requeued" in kinds
        requeued = [e for e in events if e["kind"] == "lease-requeued"]
        assert any(e["index"] == 1 for e in requeued)
        # At-most-once commit: every shard completes exactly once.
        completed = [e["index"] for e in events
                     if e["kind"] == "shard-completed"]
        assert sorted(completed) == [0, 1, 2, 3]

    def test_interrupt_then_resume_matches_fresh_run(self, lab_store,
                                                     tmp_path, capsys):
        reference = _forked_reference(tmp_path)
        assert _campaign("--cluster", "2",
                         "--interrupt-after-shards", "1") == 130
        out = capsys.readouterr().out
        assert "--resume" in out

        resumed_json = str(tmp_path / "resumed.json")
        assert _campaign("--resume", "--cluster", "2",
                         "--json", resumed_json) == 0
        capsys.readouterr()
        resumed = _report(resumed_json)
        assert resumed["cells"][0]["counts"] == reference["cells"][0]["counts"]
        # At least the shard completed before the interrupt replays.
        assert resumed["store"]["shards_from_store"] >= 1


class TestOneDriver:
    def test_cluster_lifecycle_matches_local_and_bridges_compiles(
            self, tmp_path, monkeypatch):
        from repro.cluster.cli import reap_workers, spawn_local_workers
        from repro.cluster.coordinator import (
            ClusterCoordinator,
            run_distributed_campaign,
        )
        from repro.faults.campaign import CampaignConfig
        from repro.lab.durable import run_durable_campaign
        from repro.lab.events import EventBus, EventLog
        from repro.toolchain import Toolchain

        # A fresh toolchain over an empty cache yields a fresh module
        # and no stored golden profile, so the coordinator's golden run
        # compiles in this process.
        monkeypatch.setenv("REPRO_TOOLCHAIN_CACHE", str(tmp_path))
        built = Toolchain().build("histogram", "test", "native")
        cell = (built.module, built.entry, built.args, "histogram", "native",
                CampaignConfig(injections=20, seed=3))
        logs = {"cluster": EventLog(), "local": EventLog()}
        buses = {name: EventBus() for name in logs}
        for name, log in logs.items():
            buses[name].subscribe(log)

        coordinator = ClusterCoordinator(events=buses["cluster"])
        coordinator.start()
        procs = spawn_local_workers("127.0.0.1", coordinator.port, 1)
        try:
            clustered = run_distributed_campaign(
                *cell, coordinator=coordinator, build_scale="test",
                events=buses["cluster"], shard_size=10)
        finally:
            coordinator.stop()
            reap_workers(procs)
        local = run_durable_campaign(*cell, store=False,
                                     events=buses["local"], shard_size=10)

        assert clustered.result.counts == local.result.counts
        assert logs["cluster"].count("engine-compile") > 0
        lifecycle = {"store-disabled", "campaign-started", "shard-store-hit",
                     "shard-completed", "adaptive-stop", "campaign-finished"}
        kinds = {name: [k for k in log.kinds() if k in lifecycle]
                 for name, log in logs.items()}
        assert kinds["cluster"] == kinds["local"]
        assert kinds["local"] == ["campaign-started", "shard-completed",
                                  "shard-completed", "campaign-finished"]
        # The worker reports how many injections the reconvergence poll
        # ended with each shard's result, as the local executor does.
        reconverged = {
            name: sorted((e.data["index"], e.data["reconverged"])
                         for e in log.of("shard-completed"))
            for name, log in logs.items()}
        assert reconverged["cluster"] == reconverged["local"]
        assert all(type(n) is int for _, n in reconverged["local"])


class TestEventsLog:
    def test_jsonl_trace_is_parseable_and_ordered(self, lab_store,
                                                  tmp_path, capsys):
        events_log = str(tmp_path / "events.jsonl")
        assert _campaign("--events-log", events_log) == 0
        capsys.readouterr()
        events = _events(events_log)
        kinds = [e["kind"] for e in events]
        assert "campaign-started" in kinds
        assert "campaign-finished" in kinds
        assert kinds.count("shard-completed") == 4
        monos = [e["mono"] for e in events]
        assert monos == sorted(monos)
        assert all(e["ts"] > 0 for e in events)

    def test_trace_appends_across_invocations(self, lab_store,
                                              tmp_path, capsys):
        events_log = str(tmp_path / "events.jsonl")
        assert _campaign("--events-log", events_log) == 0
        assert _campaign("--events-log", events_log) == 0
        capsys.readouterr()
        events = _events(events_log)
        assert [e["kind"] for e in events].count("campaign-finished") == 2


class TestClusterCli:
    def test_worker_rejects_bad_connect_spec(self, capsys):
        assert main(["cluster", "worker", "--connect", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_worker_fails_fast_when_unreachable(self, capsys):
        # Port 1 on localhost: connection refused, exit 1, no hang.
        assert main(["cluster", "worker", "--connect", "127.0.0.1:1",
                     "--id", "w"]) == 1
        assert "cannot reach coordinator" in capsys.readouterr().out

    def test_list_includes_cluster(self, capsys):
        assert main(["list"]) == 0
        assert "cluster" in capsys.readouterr().out.split()
