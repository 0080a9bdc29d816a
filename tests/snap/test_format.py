"""Serialization round-trip properties of the checkpoint format.

The contract: ``deserialize(serialize(state))`` yields a state whose
resumed execution is bit-identical to resuming the original — across
machine configs (cache, predictor, timing) — and any corruption is a
:class:`SnapFormatError`, never a silently wrong state.
"""

import dataclasses
from collections import deque

import pytest

import repro.snap.format as snap_format
from repro.cpu import Machine, MachineConfig
from repro.cpu.interpreter import FaultPlan
from repro.cpu.resumable import resume_run, run_resumable
from repro.snap.format import (
    SnapFormatError,
    deserialize_state,
    serialize_state,
)
from repro.toolchain import default_toolchain


class _TakeOnce:
    def __init__(self, at):
        self.next_index = at
        self.states = []

    def take(self, machine, stack, executed):
        from repro.cpu.resumable import capture_state

        self.states.append(capture_state(machine, stack, executed))
        self.next_index = 1 << 62


def _capture(module, entry, args, config, at=400):
    machine = Machine(module, config)
    machine.count_only = True
    policy = _TakeOnce(at)
    run_resumable(machine, entry, args, capture=policy)
    assert policy.states
    return machine, policy.states[0]


class _DequeWriter(snap_format._Writer):
    """The writer as it was while the timing model's ROB was a deque:
    value tag 11, a length, then the items."""

    def value(self, v):
        if type(v) is deque:
            self.u8(11)
            self.varint(len(v))
            for item in v:
                self.value(item)
        else:
            super().value(v)


def old_layout_blob(state, machine, monkeypatch):
    """``state`` serialized the way a timed checkpoint was before the
    ROB became a ring: a deque of retire frontiers, no ring index."""
    timing = state.timing.copy()
    ring = timing._rob
    timing._rob = deque(ring[timing._ri:] + ring[:timing._ri])
    del timing._ri, timing._rob_next
    with monkeypatch.context() as m:
        m.setattr(snap_format, "_Writer", _DequeWriter)
        return serialize_state(dataclasses.replace(state, timing=timing),
                               machine)


CONFIGS = [
    MachineConfig(collect_timing=False),
    MachineConfig(collect_timing=True),
    MachineConfig(cache_enabled=False, collect_timing=False),
    MachineConfig(collect_by_opcode=True, collect_timing=True),
]


class TestRoundTrip:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("version", ["native", "elzar"])
    def test_roundtrip_resumes_bit_identically(self, version, config):
        built = default_toolchain().build("histogram", "test", version)
        machine, state = _capture(built.module, built.entry, built.args,
                                  config)
        blob = serialize_state(state, machine)
        revived = deserialize_state(blob, machine)

        plan = FaultPlan(target_index=state.eligible + 30, bit=13, lane=1)
        m1 = Machine(built.module, config)
        r1 = resume_run(m1, state, (plan,))
        m2 = Machine(built.module, config)
        r2 = resume_run(m2, revived, (plan,))
        assert list(r1.output) == list(r2.output)
        assert r1.counters.as_dict() == r2.counters.as_dict()
        assert r1.cycles == r2.cycles
        assert m1.eligible_executed == m2.eligible_executed

    def test_serialization_is_deterministic(self):
        built = default_toolchain().build("histogram", "test", "elzar")
        machine, state = _capture(
            built.module, built.entry, built.args,
            MachineConfig(collect_timing=False),
        )
        blob = serialize_state(state, machine)
        # serialize(deserialize(blob)) == blob pins both directions.
        assert serialize_state(deserialize_state(blob, machine),
                               machine) == blob

    def test_old_deque_layout_is_rejected(self, monkeypatch):
        built = default_toolchain().build("histogram", "test", "native")
        machine, state = _capture(built.module, built.entry, built.args,
                                  MachineConfig(collect_timing=True))
        with pytest.raises(SnapFormatError):
            deserialize_state(old_layout_blob(state, machine, monkeypatch),
                              machine)

    def test_corruption_raises_not_misresumes(self):
        built = default_toolchain().build("histogram", "test", "native")
        machine, state = _capture(
            built.module, built.entry, built.args,
            MachineConfig(collect_timing=False),
        )
        blob = serialize_state(state, machine)
        # Truncations and a bad magic must all be detected up front.
        with pytest.raises(SnapFormatError):
            deserialize_state(blob[:10], machine)
        with pytest.raises(SnapFormatError):
            deserialize_state(b"XXXX" + blob[4:], machine)
