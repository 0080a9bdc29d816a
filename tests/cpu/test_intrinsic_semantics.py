"""Direct tests of the hardening intrinsics' runtime semantics:
``elzar.check`` (recover + count), ``elzar.check_dmr`` (fail-stop),
``elzar.branch_cond`` / ``elzar.branch_cond_dmr`` (ptest
classification), ``tmr.vote``, ``swift.check``, and the runtime
services.

Both engines run the one implementation
(``repro.cpu.interpreter.intrinsic_impl``); every test runs on every
differential tier (reference, records, compiled), with and without the
timing model."""

import math

import pytest

from repro.cpu import AbortError, DetectedError, Machine, Trap
from repro.cpu import intrinsics as intr
from repro.ir import Module
from repro.ir import types as T
from repro.ir.values import Constant

from ..conftest import TIERS, make_function, run_tier, tier_config


class Tier:
    """One tier × timing combination: builds machines and runs them."""

    def __init__(self, tier, timing):
        self.tier = tier
        self.timing = timing

    def machine(self, module):
        return Machine(module, tier_config(self.tier,
                                           collect_timing=self.timing,
                                           cache_enabled=self.timing))

    def run(self, machine, args=()):
        return run_tier(machine, self.tier, "main", args)


@pytest.fixture(params=[(t, timing) for t in TIERS for timing in (True, False)],
                ids=lambda p: f"{p[0]}-{'timing' if p[1] else 'plain'}")
def tier(request):
    return Tier(*request.param)


def call_intrinsic(declare, vec_ty, lanes, ret_lane=0):
    """Build main() { v = <lanes>; r = intrinsic(v); ret r[ret_lane] }."""
    module = Module("m")
    fn, b = make_function(module, "main", vec_ty.elem, [])
    callee = declare(module)
    v = Constant(vec_ty, lanes)
    out = b.call(callee, [v])
    b.ret(b.extractelement(out, b.i64(ret_lane)))
    return module


class TestElzarCheck:
    def test_clean_lanes_pass_through_uncounted(self, tier):
        v4 = T.vector(T.I64, 4)
        module = call_intrinsic(lambda m: intr.elzar_check(m, v4), v4,
                                (9, 9, 9, 9))
        machine = tier.machine(module)
        assert tier.run(machine).value == 9
        assert machine.counters.corrections == 0

    @pytest.mark.parametrize("lane", [0, 1, 2, 3])
    def test_single_corrupt_lane_recovered(self, tier, lane):
        v4 = T.vector(T.I64, 4)
        lanes = [7, 7, 7, 7]
        lanes[lane] = 1234
        module = call_intrinsic(lambda m: intr.elzar_check(m, v4), v4,
                                tuple(lanes), ret_lane=lane)
        machine = tier.machine(module)
        assert tier.run(machine).value == 7  # corrected in place
        assert machine.counters.corrections == 1

    def test_two_two_split_detected(self, tier):
        v4 = T.vector(T.I64, 4)
        module = call_intrinsic(lambda m: intr.elzar_check(m, v4), v4,
                                (1, 1, 2, 2))
        machine = tier.machine(module)
        with pytest.raises(DetectedError):
            tier.run(machine)
        assert machine.counters.recoveries_failed == 1

    def test_float_lanes_compared_bitwise(self, tier):
        """NaN lanes must compare equal to each other (bit pattern),
        not trigger spurious corrections."""
        v4 = T.vector(T.F64, 4)
        nan = math.nan
        module = call_intrinsic(lambda m: intr.elzar_check(m, v4), v4,
                                (nan, nan, nan, nan))
        machine = tier.machine(module)
        result = tier.run(machine)
        assert math.isnan(result.value)
        assert machine.counters.corrections == 0

    def test_float_corruption_recovered(self, tier):
        v4 = T.vector(T.F64, 4)
        module = call_intrinsic(lambda m: intr.elzar_check(m, v4), v4,
                                (1.5, 1.5, -2.25, 1.5), ret_lane=2)
        machine = tier.machine(module)
        assert tier.run(machine).value == 1.5
        assert machine.counters.corrections == 1


class TestElzarCheckDmr:
    def module(self, lanes):
        v4 = T.vector(T.I64, 4)
        return call_intrinsic(lambda m: intr.elzar_check_dmr(m, v4), v4,
                              lanes)

    def test_clean_lanes_pass_through(self, tier):
        machine = tier.machine(self.module((9, 9, 9, 9)))
        assert tier.run(machine).value == 9
        assert machine.counters.detections == 0

    def test_diverged_lane_fail_stops(self, tier):
        """No recovery: a single diverged lane is detected, not
        corrected."""
        machine = tier.machine(self.module((9, 9, 1, 9)))
        with pytest.raises(DetectedError):
            tier.run(machine)
        assert machine.counters.detections == 1
        assert machine.counters.corrections == 0


class TestBranchCond:
    def build(self, lanes, checked=True, dmr=False):
        module = Module("m")
        fn, b = make_function(module, "main", T.I1, [])
        if dmr:
            callee = intr.elzar_branch_cond_dmr(module, 4)
        else:
            callee = intr.elzar_branch_cond(module, 4, checked=checked)
        v = Constant(T.vector(T.I1, 4), lanes)
        b.ret(b.call(callee, [v]))
        return module

    def test_all_true(self, tier):
        machine = tier.machine(self.build((1, 1, 1, 1)))
        assert tier.run(machine).value == 1

    def test_all_false(self, tier):
        machine = tier.machine(self.build((0, 0, 0, 0)))
        assert tier.run(machine).value == 0

    @pytest.mark.parametrize("lanes,expected", [
        ((1, 1, 0, 1), 1),  # majority true
        ((0, 1, 0, 0), 0),  # majority false
    ])
    def test_mix_recovered_by_majority(self, tier, lanes, expected):
        machine = tier.machine(self.build(lanes))
        assert tier.run(machine).value == expected
        assert machine.counters.corrections == 1

    def test_two_two_mix_detected(self, tier):
        machine = tier.machine(self.build((1, 1, 0, 0)))
        with pytest.raises(DetectedError):
            tier.run(machine)

    def test_nocheck_variant_uses_all_true_semantics(self, tier):
        """Unchecked AVX branching is ptest+je: 'taken' means all lanes
        true, so a corrupted mix silently falls into the false arm."""
        machine = tier.machine(self.build((1, 1, 0, 1), checked=False))
        assert tier.run(machine).value == 0
        assert machine.counters.corrections == 0

    @pytest.mark.parametrize("lanes,expected",
                             [((1, 1, 1, 1), 1), ((0, 0, 0, 0), 0)])
    def test_dmr_uniform_lanes_pass(self, tier, lanes, expected):
        machine = tier.machine(self.build(lanes, dmr=True))
        assert tier.run(machine).value == expected
        assert machine.counters.detections == 0

    def test_dmr_mix_fail_stops(self, tier):
        machine = tier.machine(self.build((1, 1, 0, 1), dmr=True))
        with pytest.raises(DetectedError):
            tier.run(machine)
        assert machine.counters.detections == 1
        assert machine.counters.corrections == 0


class TestTmrVoteAndSwiftCheck:
    def vote(self, tier, a, b_, c, ty=T.I64):
        module = Module("m")
        fn, b = make_function(module, "main", ty, [])
        callee = intr.tmr_vote(module, ty)
        out = b.call(callee, [Constant(ty, a), Constant(ty, b_), Constant(ty, c)])
        b.ret(out)
        return tier.machine(module)

    def test_all_agree(self, tier):
        machine = self.vote(tier, 5, 5, 5)
        assert tier.run(machine).value == 5
        assert machine.counters.corrections == 0

    @pytest.mark.parametrize("copies,winner", [
        ((9, 5, 5), 5),
        ((5, 9, 5), 5),
        ((5, 5, 9), 5),
    ])
    def test_majority_wins(self, tier, copies, winner):
        machine = self.vote(tier, *copies)
        assert tier.run(machine).value == winner
        assert machine.counters.corrections == 1

    def test_all_differ_detected(self, tier):
        machine = self.vote(tier, 1, 2, 3)
        with pytest.raises(DetectedError):
            tier.run(machine)
        assert machine.counters.recoveries_failed == 1

    def test_swift_check_passes_and_fails(self, tier):
        module = Module("m")
        fn, b = make_function(module, "main", T.I64, [T.I64, T.I64])
        callee = intr.swift_check(module, T.I64)
        b.ret(b.call(callee, [fn.args[0], fn.args[1]]))
        machine = tier.machine(module)
        assert tier.run(machine, [4, 4]).value == 4
        machine = tier.machine(module)
        with pytest.raises(DetectedError):
            tier.run(machine, [4, 5])
        assert machine.counters.detections == 1


class TestRuntimeServices:
    def test_rt_alloc_returns_fresh_memory(self, tier):
        module = Module("m")
        fn, b = make_function(module, "main", T.I64, [])
        alloc = intr.rt_alloc(module)
        p1 = b.call(alloc, [b.i64(64)])
        p2 = b.call(alloc, [b.i64(64)])
        b.store(b.i64(11), p1)
        b.store(b.i64(22), p2)
        b.ret(b.add(b.load(T.I64, p1), b.load(T.I64, p2)))
        assert tier.run(tier.machine(module)).value == 33

    def test_rt_abort_traps(self, tier):
        module = Module("m")
        fn, b = make_function(module, "main", T.VOID, [])
        b.call(intr.rt_abort(module), [])
        b.ret_void()
        with pytest.raises(AbortError):
            tier.run(tier.machine(module))

    def test_rt_print_i64_prints_signed(self, tier):
        module = Module("m")
        fn, b = make_function(module, "main", T.VOID, [])
        b.call(intr.rt_print_i64(module), [b.sub(b.i64(0), b.i64(5))])
        b.ret_void()
        assert tier.run(tier.machine(module)).output == [-5]

    def test_host_math(self, tier):
        module = Module("m")
        fn, b = make_function(module, "main", T.F64, [T.F64])
        sqrt = intr.host_unary(module, "sqrt")
        b.ret(b.call(sqrt, [fn.args[0]]))
        machine = tier.machine(module)
        assert tier.run(machine, [9.0]).value == 3.0
        assert math.isnan(tier.run(tier.machine(module), [-1.0]).value)

    def test_host_pow_overflow_is_nan(self, tier):
        module = Module("m")
        fn, b = make_function(module, "main", T.F64, [T.F64, T.F64])
        b.ret(b.call(intr.host_pow(module), [fn.args[0], fn.args[1]]))
        assert tier.run(tier.machine(module), [2.0, 10.0]).value == 1024.0
        assert math.isnan(tier.run(tier.machine(module), [1e200, 2.0]).value)

    def test_undeclared_family_traps(self, tier):
        """A name no intrinsic family implements traps at the call,
        after the call is counted."""
        module = Module("m")
        fn, b = make_function(module, "main", T.I64, [])
        bogus = intr.declare(module, "elzar.bogus.i64", T.I64, [T.I64])
        b.ret(b.call(bogus, [b.i64(1)]))
        machine = tier.machine(module)
        with pytest.raises(Trap, match="unknown intrinsic elzar.bogus.i64") as exc:
            tier.run(machine)
        assert type(exc.value) is Trap
        assert machine.counters.calls == 1
