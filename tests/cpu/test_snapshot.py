"""Round-trip tests for the one restorable machine state,
:class:`~repro.cpu.resumable.ResumeState`: the start of a run
(``start_state``) and mid-run captures (``capture_state``), both
resumed by ``resume_run``.

The injection session leans on one property: resuming a state puts
the machine where a run is *bit-identical* to a run from that point —
outputs, every architectural counter, and cycles. These tests pin that
property across workloads, hardened builds, armed fault plans, and
runs abandoned by traps.

The trampoline (``repro.cpu.resumable``) also runs from *mid-run*
points: an explicit-frame run is bit-identical to the recursive
engine, and a state captured at any eligible-instruction boundary
resumes to the identical completion.
"""

import pytest

from repro.cpu import Machine, MachineConfig
from repro.cpu.errors import Trap
from repro.cpu.interpreter import FaultPlan
from repro.cpu.resumable import (
    capture_state,
    rebuild_frames,
    restore_payload,
    resume_run,
    run_resumable,
    run_stack,
    start_state,
)
from repro.toolchain import default_toolchain

WORKLOADS = [("histogram", "native"), ("histogram", "elzar"),
             ("blackscholes", "native"), ("blackscholes", "elzar")]


def build(name, version):
    built = default_toolchain().build(name, "test", version)
    return built.module, built.entry, built.args


def observe(machine, run):
    try:
        result = run()
    except Trap as exc:
        return ("trap", type(exc).__name__, str(exc),
                machine.counters.as_dict())
    return ("ok", list(result.output), result.counters.as_dict(),
            result.cycles)


def resumed(machine, state, plans=()):
    return observe(machine, lambda: resume_run(machine, state, plans))


def fresh_run(module, entry, args, engine="compiled"):
    machine = Machine(module, MachineConfig(engine=engine))
    return observe(machine, lambda: machine.run(entry, args))


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("name,version", WORKLOADS)
    def test_restore_then_run_is_bit_identical(self, name, version):
        module, entry, args = build(name, version)
        machine = Machine(module, MachineConfig())
        start = start_state(machine, entry, args)
        first = resumed(machine, start)
        # The first run dirtied heap, counters, caches; resuming the
        # start state must erase every trace of it.
        second = resumed(machine, start)
        assert first == second
        assert first == fresh_run(module, entry, args)
        assert first == fresh_run(module, entry, args, "reference")

    def test_restore_equals_fresh_machine(self):
        # A start state taken on one machine resumes on another that
        # already ran a faulted run.
        module, entry, args = build("histogram", "elzar")
        start = start_state(Machine(module, MachineConfig()), entry, args)
        machine = Machine(module, MachineConfig())
        machine.arm_fault(FaultPlan(target_index=40, bit=62, lane=2))
        observe(machine, lambda: machine.run(entry, args))
        assert resumed(machine, start) == fresh_run(module, entry, args)

    def test_repeated_restores_stay_identical(self):
        module, entry, args = build("histogram", "native")
        machine = Machine(module, MachineConfig())
        start = start_state(machine, entry, args)
        runs = [resumed(machine, start) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_restore_after_trap_recovers_golden_run(self):
        # An address flip into the high bits traps mid-run, abandoning
        # the machine with live frames and a half-written heap; resuming
        # the start state must still recover a clean golden run.
        module, entry, args = build("histogram", "native")
        machine = Machine(module, MachineConfig())
        start = start_state(machine, entry, args)
        golden = resumed(machine, start)
        assert golden[0] == "ok"

        plan = FaultPlan(target_index=2, bit=40, kind="addr")
        faulted = resumed(machine, start, (plan,))

        assert resumed(machine, start) == golden
        # The exercise is only meaningful if the fault actually
        # perturbed the first run.
        assert faulted != golden


class _TakeOnce:
    """Minimal capture policy: one state at the first boundary at or
    after ``at`` eligible instructions."""

    def __init__(self, at):
        self.next_index = at
        self.states = []

    def take(self, machine, stack, executed):
        self.states.append(capture_state(machine, stack, executed))
        self.next_index = 1 << 62


def _streams(machine):
    return (machine.eligible_executed, machine.mem_accesses_eligible,
            machine.cond_branches_eligible, machine.checker_sites_executed)


class TestResumableTrampoline:
    """The explicit-frame engine is indistinguishable from recursion."""

    @pytest.mark.parametrize("name,version", WORKLOADS)
    def test_trampoline_matches_recursive(self, name, version):
        module, entry, args = build(name, version)
        rec = Machine(module, MachineConfig())
        tram = Machine(module, MachineConfig())
        r1 = rec.run(entry, args)
        r2 = run_resumable(tram, entry, args)
        assert list(r1.output) == list(r2.output)
        assert r1.counters.as_dict() == r2.counters.as_dict()
        assert r1.cycles == r2.cycles
        assert _streams(rec) == _streams(tram)

    @pytest.mark.parametrize("kwargs", [
        {"collect_timing": False},
        {"cache_enabled": False},
        {"collect_by_opcode": True},
    ])
    def test_trampoline_matches_across_configs(self, kwargs):
        module, entry, args = build("histogram", "elzar")
        rec = Machine(module, MachineConfig(**kwargs))
        tram = Machine(module, MachineConfig(**kwargs))
        r1 = rec.run(entry, args)
        r2 = run_resumable(tram, entry, args)
        assert list(r1.output) == list(r2.output)
        assert r1.counters.as_dict() == r2.counters.as_dict()
        assert r1.cycles == r2.cycles

    @pytest.mark.parametrize("name,version", WORKLOADS)
    def test_trampoline_count_only_streams_match(self, name, version):
        module, entry, args = build(name, version)
        rec = Machine(module, MachineConfig(collect_timing=False))
        rec.count_only = True
        tram = Machine(module, MachineConfig(collect_timing=False))
        tram.count_only = True
        r1 = rec.run(entry, args)
        run_resumable(tram, entry, args)
        assert _streams(rec) == _streams(tram)
        assert list(r1.output) == list(tram.output)

    def test_trampoline_faulted_run_matches_recursive(self):
        module, entry, args = build("histogram", "elzar")
        plan = FaultPlan(target_index=40, bit=62, lane=2)
        rec = Machine(module, MachineConfig())
        rec.arm_fault(plan)
        tram = Machine(module, MachineConfig())
        tram.arm_fault(plan)
        r1 = rec.run(entry, args)
        r2 = run_resumable(tram, entry, args)
        assert list(r1.output) == list(r2.output)
        assert r1.counters.as_dict() == r2.counters.as_dict()

    @pytest.mark.parametrize("at", [1, 500, 3000])
    def test_capture_resume_completes_bit_identically(self, at):
        # Capture mid-run during a count_only golden run (the builder's
        # path), resume with no plans on a second machine: the tail must
        # complete to the golden output with golden counters.
        module, entry, args = build("histogram", "elzar")
        golden = Machine(module, MachineConfig(collect_timing=False))
        reference = golden.run(entry, args)

        cap = Machine(module, MachineConfig(collect_timing=False))
        cap.count_only = True
        policy = _TakeOnce(at)
        run_resumable(cap, entry, args, capture=policy)
        assert len(policy.states) == 1
        state = policy.states[0]
        assert state.eligible >= at

        resumed = Machine(module, MachineConfig(collect_timing=False))
        result = resume_run(resumed, state, ())
        assert list(result.output) == list(reference.output)
        assert result.counters.as_dict() == reference.counters.as_dict()

    def test_capture_is_nondestructive(self):
        # A run with a capture hook produces the same result as one
        # without: take() only copies.
        module, entry, args = build("blackscholes", "elzar")
        plain = Machine(module, MachineConfig())
        plain.count_only = True
        r1 = run_resumable(plain, entry, args)
        hooked = Machine(module, MachineConfig())
        hooked.count_only = True
        policy = _TakeOnce(100)
        r2 = run_resumable(hooked, entry, args, capture=policy)
        assert list(r1.output) == list(r2.output)
        assert r1.counters.as_dict() == r2.counters.as_dict()
        assert _streams(plain) == _streams(hooked)

    def test_resume_is_repeatable(self):
        # One state, resumed three times on the same machine (the
        # injection-session reuse pattern): identical every time.
        module, entry, args = build("histogram", "native")
        cap = Machine(module, MachineConfig(collect_timing=False))
        cap.count_only = True
        policy = _TakeOnce(200)
        run_resumable(cap, entry, args, capture=policy)
        state = policy.states[0]
        machine = Machine(module, MachineConfig(collect_timing=False))
        plan = FaultPlan(target_index=state.eligible + 50, bit=7, lane=0)
        runs = []
        for _ in range(3):
            result = resume_run(machine, state, (plan,))
            runs.append((list(result.output),
                         result.counters.as_dict(),
                         machine.fault_injected))
        assert runs[0] == runs[1] == runs[2]
