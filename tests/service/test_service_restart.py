"""Service crash-recovery: manifest durability and cold-start resume.

The restart manifest is the service's only memory across incarnations;
these tests pin its torn-write behaviour (checksummed, atomic, degrades
to "no manifest") and the recovery loop built on it: a service killed
mid-campaign restarts, resubmits the interrupted spec by itself, and
completes it from the store's banked shard prefix with zero re-executed
shards."""

import json
import time

import pytest

from repro.chaos.hooks import ChaosRule, ChaosSpec, chaos_active
from repro.service import ReproService, ServiceClient, ServiceError
from repro.service.state import (
    Campaign,
    CampaignFeed,
    _manifest_checksum,
    load_manifest,
    write_manifest,
)

_SPEC = {"workload": "histogram", "version": "native", "scale": "test"}


def _start(tmp_path, **kwargs):
    service = ReproService(str(tmp_path / "store.sqlite"), port=0, **kwargs)
    host, port = service.start()
    return service, host, port


class _Loop:
    def call_soon_threadsafe(self, fn, *args):
        fn(*args)


def _campaign(request, cid="c0001-aaaaaaaa", status="interrupted"):
    campaign = Campaign(id=cid, tenant="alice", request=request,
                        digest="aaaaaaaa", feed=CampaignFeed(_Loop()))
    campaign.status = status
    return campaign


class TestManifestDurability:
    def _one(self, tmp_path):
        from repro.service.spec import parse_request

        path = str(tmp_path / "manifest.json")
        write_manifest(path, [_campaign(parse_request(_SPEC))],
                       reason="drain")
        return path

    def test_round_trip(self, tmp_path):
        path = self._one(tmp_path)
        payload = load_manifest(path)
        assert payload is not None and payload["reason"] == "drain"
        assert payload["campaigns"][0]["status"] == "interrupted"

    def test_missing_manifest_is_none(self, tmp_path):
        assert load_manifest(str(tmp_path / "nope.json")) is None

    def test_truncated_manifest_degrades_to_none(self, tmp_path):
        path = self._one(tmp_path)
        body = open(path).read()
        with open(path, "w") as fh:
            fh.write(body[:len(body) // 2])  # torn write
        assert load_manifest(path) is None

    def test_tampered_manifest_fails_checksum(self, tmp_path):
        path = self._one(tmp_path)
        payload = json.load(open(path))
        payload["campaigns"][0]["tenant"] = "mallory"
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert load_manifest(path) is None

    def test_wrong_version_is_none(self, tmp_path):
        path = self._one(tmp_path)
        payload = json.load(open(path))
        payload["version"] = 999
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert load_manifest(path) is None


def _interrupt_after_two_shards(tmp_path):
    """Incarnation 1: the service.event chaos seam drains (SIGTERM
    semantics) at the second completed shard, so exactly 2 of the
    campaign's 4 shards are banked when the manifest is written.
    Returns the interrupted campaign's id."""
    spec = ChaosSpec(scenario="svc-restart", seed=0, rules=[
        ChaosRule(point="service.event", action="drain",
                  match={"kind": "shard-completed"}, after=1),
    ])
    service, host, port = _start(tmp_path, max_running=1)
    client = ServiceClient(host, port, tenant="alice")
    with chaos_active(spec):
        submitted = client.submit(_SPEC)["id"]
        assert service.wait_drained(timeout=120.0)
        service.stop()
    return submitted


def _wait_recovered(client, resumed_from):
    """The row the restarted service resubmitted for ``resumed_from``,
    once it succeeded (or whatever it reached by the deadline)."""
    recovered = None
    deadline = time.time() + 120.0
    while time.time() < deadline:
        rows = client.campaigns()["campaigns"]
        recovered = next(
            (r for r in rows if r.get("resumed_from") == resumed_from),
            None)
        if recovered and recovered["status"] == "succeeded":
            break
        time.sleep(0.1)
    assert recovered is not None, "manifest row was never resubmitted"
    return recovered


class TestColdStartRecovery:
    def test_restart_resumes_interrupted_campaign_from_store(self, tmp_path):
        submitted = _interrupt_after_two_shards(tmp_path)

        manifest = load_manifest(str(tmp_path / "store.sqlite.manifest.json"))
        assert manifest is not None
        row = next(c for c in manifest["campaigns"] if c["id"] == submitted)
        assert row["status"] == "interrupted"
        assert row["progress"]["shards_done"] == 2
        assert row["progress"]["spec_key"]  # recovery's store pointer

        # Incarnation 2: same store, nobody resubmits — the service
        # recovers the manifest row on its own and completes it from
        # the banked prefix, re-executing zero banked shards.
        service2, host2, port2 = _start(tmp_path, max_running=1)
        try:
            client2 = ServiceClient(host2, port2, tenant="alice")
            recovered = _wait_recovered(client2, submitted)
            assert recovered["status"] == "succeeded"
            result = recovered["result"]
            assert result["shards_from_store"] == 2
            assert result["shards_executed"] == 2
            assert result["injections_from_store"] == 20
        finally:
            service2.stop()

    @pytest.mark.parametrize("engine", ["compiled", "reference", "decoded"])
    def test_manifest_with_retired_decoded_engine_resumes_from_store(
            self, tmp_path, engine):
        # Every manifest written while requests had an engine field
        # names one (the retired record-only "decoded" engine included).
        # Recovery drops it; the engine is in no spec or store key, so
        # the banked shards still serve the resume. A live POST naming
        # an engine gets 400.
        submitted = _interrupt_after_two_shards(tmp_path)
        path = tmp_path / "store.sqlite.manifest.json"
        payload = json.loads(path.read_text())
        row = next(c for c in payload["campaigns"] if c["id"] == submitted)
        row["spec"]["engine"] = engine
        payload["checksum"] = _manifest_checksum(payload)
        path.write_text(json.dumps(payload))

        service, host, port = _start(tmp_path, max_running=1)
        try:
            client = ServiceClient(host, port, tenant="alice")
            with pytest.raises(ServiceError) as exc:
                client.submit({**_SPEC, "engine": engine})
            assert exc.value.status == 400
            assert "unknown field" in json.dumps(exc.value.payload)
            recovered = _wait_recovered(client, submitted)
            assert recovered["status"] == "succeeded"
            result = recovered["result"]
            assert result["shards_from_store"] == 2
            assert result["shards_executed"] == 2
        finally:
            service.stop()

    def test_manifest_with_retired_batch_key_is_resubmitted(self, tmp_path):
        # Manifests written before the batch knob was retired carry it
        # in every spec. Recovery drops it; a live POST still gets 400.
        from repro.service.spec import parse_request

        path = tmp_path / "store.sqlite.manifest.json"
        write_manifest(str(path), [_campaign(parse_request(_SPEC))],
                       reason="drain")
        payload = json.loads(path.read_text())
        payload["campaigns"][0]["spec"]["batch"] = 4
        payload["checksum"] = _manifest_checksum(payload)
        path.write_text(json.dumps(payload))

        service, host, port = _start(tmp_path, max_running=1)
        try:
            client = ServiceClient(host, port, tenant="alice")
            with pytest.raises(ServiceError) as exc:
                client.submit({**_SPEC, "batch": 4})
            assert exc.value.status == 400
            assert "unknown field" in json.dumps(exc.value.payload)
            recovered = _wait_recovered(client, "c0001-aaaaaaaa")
            assert recovered["status"] == "succeeded"
        finally:
            service.stop()

    def test_unrecoverable_row_is_skipped_counted_and_printed(
            self, tmp_path, capsys):
        from repro.service.spec import parse_request

        path = tmp_path / "store.sqlite.manifest.json"
        write_manifest(str(path), [_campaign(parse_request(_SPEC))],
                       reason="drain")
        payload = json.loads(path.read_text())
        payload["campaigns"][0]["spec"]["workload"] = "no-such-workload"
        payload["checksum"] = _manifest_checksum(payload)
        path.write_text(json.dumps(payload))

        service, host, port = _start(tmp_path)
        try:
            client = ServiceClient(host, port, tenant="alice")
            deadline = time.time() + 30.0
            while (client.status().get("recovery_skipped") != 1
                   and time.time() < deadline):
                time.sleep(0.05)
            assert client.status()["recovery_skipped"] == 1
            assert client.campaigns()["campaigns"] == []
        finally:
            service.stop()
        out = capsys.readouterr().out
        assert "-- recovery skipped c0001-aaaaaaaa: workload: unknown " \
               "workload 'no-such-workload'" in out

    def test_torn_manifest_starts_fresh_without_crashing(self, tmp_path):
        manifest_path = tmp_path / "store.sqlite.manifest.json"
        manifest_path.write_text('{"version": 1, "campaigns": [{"tr')
        service, host, port = _start(tmp_path)
        try:
            client = ServiceClient(host, port, tenant="alice")
            time.sleep(0.2)  # let the recovery task run (and no-op)
            assert client.campaigns()["campaigns"] == []
            # The service still works end to end.
            record = client.wait(client.submit(_SPEC)["id"])
            assert record["status"] == "succeeded"
        finally:
            service.stop()

    def test_no_resume_flag_restores_explicit_resubmit(self, tmp_path):
        from repro.service.spec import parse_request

        write_manifest(str(tmp_path / "store.sqlite.manifest.json"),
                       [_campaign(parse_request(_SPEC))], reason="drain")
        service, host, port = _start(tmp_path, resume_manifest=False)
        try:
            client = ServiceClient(host, port, tenant="alice")
            time.sleep(0.2)
            assert client.campaigns()["campaigns"] == []
        finally:
            service.stop()
