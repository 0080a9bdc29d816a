"""End-to-end tests of ``python -m repro campaign`` (in-process)."""

import json

import pytest

from repro.__main__ import main
from repro.lab.store import _OPEN_STORES, ResultStore


@pytest.fixture()
def lab_store(monkeypatch, tmp_path):
    """Point the default store at a fresh file for each test."""
    path = str(tmp_path / "store.sqlite")
    monkeypatch.setenv("REPRO_LAB_STORE", path)
    yield path
    store = _OPEN_STORES.pop(path, None)
    if store is not None:
        store.close()


def _campaign(*extra):
    return main(["campaign", "--scale", "test", "--quiet",
                 "--benchmarks", "histogram", "--versions", "native",
                 "--injections", "20", *extra])


def _report(path):
    with open(path) as fh:
        return json.load(fh)


class TestCampaignCommand:
    def test_second_run_is_all_store_hits(self, lab_store, tmp_path, capsys):
        first_json = str(tmp_path / "first.json")
        second_json = str(tmp_path / "second.json")
        assert _campaign("--json", first_json) == 0
        assert _campaign("--json", second_json) == 0
        capsys.readouterr()

        first, second = _report(first_json), _report(second_json)
        assert first["store"]["injections_executed"] == 20
        assert second["store"]["injections_executed"] == 0
        assert second["store"]["hit_rate"] == 1.0
        assert second["cells"][0]["counts"] == first["cells"][0]["counts"]

    def test_interrupt_then_resume_matches_fresh_run(
            self, lab_store, tmp_path, monkeypatch, capsys):
        # Fresh, uninterrupted reference in a separate store.
        ref_json = str(tmp_path / "ref.json")
        assert main(["campaign", "--scale", "test", "--quiet",
                     "--benchmarks", "histogram", "--versions", "native",
                     "--injections", "20",
                     "--store", str(tmp_path / "ref.sqlite"),
                     "--json", ref_json]) == 0

        assert _campaign("--interrupt-after-shards", "1") == 130
        out = capsys.readouterr().out
        assert "--resume" in out

        resumed_json = str(tmp_path / "resumed.json")
        assert _campaign("--resume", "--json", resumed_json) == 0
        out = capsys.readouterr().out
        assert "resuming interrupted campaign" in out

        reference, resumed = _report(ref_json), _report(resumed_json)
        assert resumed["cells"][0]["counts"] == reference["cells"][0]["counts"]
        assert resumed["cells"][0]["rates"] == reference["cells"][0]["rates"]
        assert resumed["store"]["shards_from_store"] == 1

    def test_resume_with_nothing_pending_starts_fresh(self, lab_store, capsys):
        assert _campaign("--resume") == 0
        out = capsys.readouterr().out
        assert "nothing to resume" in out

    def test_unknown_version_fails_cleanly(self, lab_store, capsys):
        with pytest.raises(SystemExit):
            _campaign("--versions", "sgx")

    def test_adaptive_flags_accepted(self, lab_store, tmp_path, capsys):
        report_json = str(tmp_path / "adaptive.json")
        assert _campaign("--ci-target", "0.5", "--json", report_json) == 0
        capsys.readouterr()
        report = _report(report_json)
        assert report["spec"]["ci_target"] == 0.5
        assert report["cells"][0]["ci_halfwidth"] is not None

    def test_resume_manifest_with_retired_batch_key(self, lab_store,
                                                    tmp_path, capsys):
        # A run manifest written before --batch and --engine were
        # retired still resumes, with the same counts.
        ref_json = str(tmp_path / "ref.json")
        assert main(["campaign", "--scale", "test", "--quiet",
                     "--benchmarks", "histogram", "--versions", "native",
                     "--injections", "20",
                     "--store", str(tmp_path / "ref.sqlite"),
                     "--json", ref_json]) == 0
        store = ResultStore(lab_store)
        store.begin_run({
            "scale": "test", "benchmarks": ["histogram"],
            "versions": ["native"], "injections": 20, "seed": 2016,
            "workers": 1, "ci_target": None, "shard_size": 10,
            "fault_model": "register-bitflip", "batch": 4,
            "engine": "reference", "cluster": 0,
        })
        store.close()
        resumed_json = str(tmp_path / "resumed.json")
        assert _campaign("--resume", "--json", resumed_json) == 0
        assert "resuming interrupted campaign" in capsys.readouterr().out
        assert _report(resumed_json)["cells"][0]["counts"] == \
            _report(ref_json)["cells"][0]["counts"]

    def test_batch_option_is_rejected(self, lab_store, capsys):
        for option, value in (("--batch", "4"), ("--engine", "reference")):
            with pytest.raises(SystemExit) as exc:
                _campaign(option, value)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {option}" in \
                capsys.readouterr().err


class TestMainDispatch:
    def test_list_includes_campaign(self, capsys):
        assert main(["list"]) == 0
        assert "campaign" in capsys.readouterr().out.split()

    def test_fig13_accepts_workers(self, lab_store, capsys):
        assert main(["fig13", "--scale", "test", "--injections", "8",
                     "--workers", "1"]) == 0
        assert "fig13" in capsys.readouterr().out
