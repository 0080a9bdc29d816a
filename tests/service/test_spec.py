"""Spec validation + the digest contract: execution knobs must not key
the content address; outcome-determining fields must."""

import pytest

from repro.service.spec import (
    MAX_INJECTIONS,
    SpecError,
    parse_request,
)

_BASE = {"workload": "histogram", "version": "elzar"}


def _parse(**extra):
    return parse_request({**_BASE, **extra})


class TestValidation:
    def test_minimal_spec_gets_scale_defaults(self):
        request = _parse()
        assert request.scale == "test"
        assert request.injections == 40       # test-scale default
        assert request.shard_size == 10
        assert request.seed == 2016
        assert request.build_scale == "test"
        # No engine field: manifests stop carrying one.
        assert "engine" not in request.as_dict()

    def test_perf_scale_defaults(self):
        request = _parse(scale="perf")
        assert request.injections == 150
        assert request.shard_size == 25
        assert request.build_scale == "fi"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SpecError) as exc:
            parse_request({"workload": "nope", "version": "elzar"})
        assert exc.value.field == "workload"
        assert exc.value.as_dict()["code"] == "invalid-spec"

    def test_unknown_variant_rejected(self):
        with pytest.raises(SpecError) as exc:
            parse_request({"workload": "histogram", "version": "nope"})
        assert exc.value.field == "version"

    def test_unknown_fault_model_rejected(self):
        with pytest.raises(SpecError) as exc:
            _parse(fault_model="cosmic-ray")
        assert exc.value.field == "fault_model"

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError) as exc:
            _parse(turbo=True)
        assert exc.value.field == "turbo"
        assert "unknown field" in exc.value.message

    def test_non_object_body_rejected(self):
        with pytest.raises(SpecError) as exc:
            parse_request([1, 2, 3])
        assert exc.value.field == "body"

    def test_injection_bounds(self):
        with pytest.raises(SpecError):
            _parse(injections=0)
        with pytest.raises(SpecError):
            _parse(injections=MAX_INJECTIONS + 1)
        with pytest.raises(SpecError):
            _parse(injections="many")
        with pytest.raises(SpecError):
            _parse(injections=True)  # bools are not budgets

    def test_ci_target_bounds(self):
        assert _parse(ci_target=0.02).ci_target == 0.02
        assert _parse(ci_target=None).ci_target is None
        with pytest.raises(SpecError):
            _parse(ci_target=0.0)
        with pytest.raises(SpecError):
            _parse(ci_target=1.5)
        with pytest.raises(SpecError):
            _parse(ci_target="tight")

    def test_bad_engine_rejected(self):
        # The engine is not a request field: campaigns run one way.
        for engine in ("compiled", "reference", "quantum"):
            with pytest.raises(SpecError) as exc:
                _parse(engine=engine)
            assert exc.value.field == "engine"
            assert exc.value.message == "unknown field"


class TestDigest:
    def test_execution_knobs_do_not_change_digest(self):
        # Counts are bit-identical across workers/priority by the
        # determinism contract, so the digest — which drives
        # coalescing and cache hits — must ignore them.
        base = _parse().digest()
        assert _parse(workers=4).digest() == base
        assert _parse(priority=9).digest() == base

    def test_outcome_fields_change_digest(self):
        base = _parse().digest()
        assert _parse(seed=7).digest() != base
        assert _parse(injections=20).digest() != base
        assert _parse(shard_size=5).digest() != base
        assert _parse(fault_model="multi-bitflip").digest() != base
        assert _parse(ci_target=0.05).digest() != base
        assert parse_request({"workload": "blackscholes",
                              "version": "elzar"}).digest() != base

    def test_digest_is_stable_across_parses(self):
        assert _parse(seed=3).digest() == _parse(seed=3).digest()
