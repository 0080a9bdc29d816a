"""Direct tests of the hardening intrinsics' runtime semantics:
``elzar.check`` (recover + count), ``elzar.check_dmr`` (fail-stop),
``elzar.branch_cond`` / ``elzar.branch_cond_dmr`` (ptest
classification), ``tmr.vote``, ``swift.check``, and the runtime
services.

Both engines run the one implementation
(``repro.cpu.interpreter.intrinsic_impl``); the compiled engine emits
the agreement test of the checks, branch syncs and votes inline and
calls it on a disagreement. The mismatch-path and inlined-scalar-op
classes pin each inline fast path (and the casts, sign extensions and
divisions emitted inline beside them) to the reference's outcome.
Every test runs on every differential tier (reference, records,
compiled), with and without the timing model."""

import math
import struct

import pytest

from repro.cpu import AbortError, ArithmeticFault, DetectedError, Machine, Trap
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

    def outcome(self, module, args=()):
        """(trap type, result bits, counters) of one run of main()."""
        machine = self.machine(module)
        try:
            exc, value = None, bits(self.run(machine, args).value)
        except Trap as err:
            exc, value = type(err), None
        return exc, value, machine.counters.as_dict()

    def matches_reference(self, module, args=()):
        """This tier's outcome, asserted equal to the reference's."""
        got = self.outcome(module, args)
        assert got == Tier("reference", self.timing).outcome(module, args)
        return got


@pytest.fixture(params=[(t, timing) for t in TIERS for timing in (True, False)],
                ids=lambda p: f"{p[0]}-{'timing' if p[1] else 'plain'}")
def tier(request):
    return Tier(*request.param)


def bits(value):
    """Result bits: floats by their binary64 pattern (so -0.0 and NaN
    payloads count), vectors lane by lane."""
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, float):
        return struct.unpack("<Q", struct.pack("<d", value))[0]
    return value


def f64_nan(payload):
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8 << 48 | payload))[0]


def f32_nan(payload):
    return struct.unpack("<f", struct.pack("<I", 0x7FC00000 | payload))[0]


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


def returning(ret_ty, params, body):
    """main(params) { ret body(builder, args) }."""
    module = Module("m")
    fn, b = make_function(module, "main", ret_ty, params)
    b.ret(body(b, *fn.args))
    return module


#: Two distinct lane values per element type, the first with the sign
#: bit set where the type has one.
LANE_VALUES = {
    "i1": (T.I1, 1, 0),
    "i8": (T.I8, 0x80, 7),
    "i32": (T.I32, 0xFFFFFFFF, 3),
    "i64": (T.I64, 1 << 63, 5),
    "ptr": (T.PTR, 4096, 4104),
    "f32": (T.F32, 1.5, -2.25),
    "f64": (T.F64, 1.5, -2.25),
}


class TestMismatchPaths:
    """Every agreement and disagreement path of the checks, branch
    syncs and votes, for each lane count and element type, with -0.0
    and NaN float lanes: the outcome (trap, result bits, every
    counter) equals the reference's on each tier."""

    def check(self, tier, lanes, elem, dmr=False):
        vec_ty = T.vector(elem, len(lanes))
        declare = intr.elzar_check_dmr if dmr else intr.elzar_check
        return tier.matches_reference(returning(
            vec_ty, [], lambda b: b.call(declare(b.function.parent, vec_ty),
                                         [Constant(vec_ty, lanes)])))

    @pytest.mark.parametrize("count", [2, 4])
    @pytest.mark.parametrize("kind", sorted(LANE_VALUES))
    def test_check_lanes(self, tier, kind, count):
        elem, x, y = LANE_VALUES[kind]
        exc, value, ctr = self.check(tier, (x,) * count, elem)
        assert exc is None and ctr["corrections"] == 0
        one_off = (x,) * (count - 1) + (y,)
        exc, value, ctr = self.check(tier, one_off, elem)
        if count == 2:  # 1-1: no majority
            assert exc is DetectedError and ctr["recoveries_failed"] == 1
        else:
            assert exc is None and value == bits((x,) * count)
        assert ctr["corrections"] == 1
        if count == 4:
            exc, value, ctr = self.check(tier, (x, x, y, y), elem)
            assert exc is DetectedError and ctr["recoveries_failed"] == 1
        exc, value, ctr = self.check(tier, one_off, elem, dmr=True)
        assert exc is DetectedError and ctr["detections"] == 1
        assert ctr["corrections"] == 0

    @pytest.mark.parametrize("count", [2, 4])
    @pytest.mark.parametrize("elem,nan", [(T.F32, f32_nan), (T.F64, f64_nan)],
                             ids=["f32", "f64"])
    def test_check_zero_and_nan_lanes(self, tier, elem, nan, count):
        for same in (0.0, -0.0, nan(1)):
            exc, value, ctr = self.check(tier, (same,) * count, elem)
            assert exc is None and ctr["corrections"] == 0
            assert value == bits((same,) * count)
        for x, y in ((0.0, -0.0), (nan(1), nan(2))):
            lanes = (x,) * (count - 1) + (y,)
            exc, value, ctr = self.check(tier, lanes, elem)
            assert ctr["corrections"] == 1
            if count == 4:
                assert exc is None and value == bits((x,) * count)
            exc, value, ctr = self.check(tier, lanes, elem, dmr=True)
            assert exc is DetectedError and ctr["detections"] == 1

    def test_check_out_of_range_f32_constant(self, tier):
        """An f32 constant beyond binary32's range is stored as inf, so
        the check sees four agreeing inf lanes on every tier."""
        v4 = T.vector(T.F32, 4)
        exc, value, ctr = tier.matches_reference(returning(
            v4, [], lambda b: b.call(
                intr.elzar_check(b.function.parent, v4),
                [b.broadcast(Constant(T.F32, 1e39), 4)])))
        assert exc is None and ctr["corrections"] == 0
        assert value == bits((math.inf,) * 4)

    @pytest.mark.parametrize("copies,corrections,winner", [
        ((0.0, 0.0, 0.0), 0, 0.0),
        ((-0.0, -0.0, -0.0), 0, -0.0),
        ((0.0, -0.0, 0.0), 1, 0.0),
        ((-0.0, 0.0, 0.0), 1, 0.0),
        ((f64_nan(1),) * 3, 0, f64_nan(1)),
        ((f64_nan(1), f64_nan(2), f64_nan(2)), 1, f64_nan(2)),
        ((0.0, -0.0, f64_nan(1)), 1, None),
    ])
    def test_tmr_vote_zero_and_nan_copies(self, tier, copies, corrections,
                                          winner):
        exc, value, ctr = tier.matches_reference(returning(
            T.F64, [], lambda b: b.call(
                intr.tmr_vote(b.function.parent, T.F64),
                [Constant(T.F64, c) for c in copies])))
        assert ctr["corrections"] == corrections
        if winner is None:
            assert exc is DetectedError and ctr["recoveries_failed"] == 1
        else:
            assert exc is None and value == bits(winner)

    @pytest.mark.parametrize("copies,agree", [
        ((0.0, 0.0), True),
        ((-0.0, -0.0), True),
        ((0.0, -0.0), False),
        ((f64_nan(1), f64_nan(1)), True),
        ((f64_nan(1), f64_nan(2)), False),
    ])
    def test_swift_check_zero_and_nan_copies(self, tier, copies, agree):
        exc, value, ctr = tier.matches_reference(returning(
            T.F64, [], lambda b: b.call(
                intr.swift_check(b.function.parent, T.F64),
                [Constant(T.F64, c) for c in copies])))
        if agree:
            assert exc is None and value == bits(copies[0])
        else:
            assert exc is DetectedError and ctr["detections"] == 1

    @pytest.mark.parametrize("lanes", [(1, 1), (0, 0), (1, 0), (0, 1)])
    def test_branch_cond_v2(self, tier, lanes):
        v2 = T.vector(T.I1, 2)
        outcomes = {}
        for variant, declare in (
                ("checked", lambda m: intr.elzar_branch_cond(m, 2)),
                ("nocheck", lambda m: intr.elzar_branch_cond(
                    m, 2, checked=False)),
                ("dmr", lambda m: intr.elzar_branch_cond_dmr(m, 2))):
            outcomes[variant] = tier.matches_reference(returning(
                T.I1, [], lambda b: b.call(declare(b.function.parent),
                                           [Constant(v2, lanes)])))
        if lanes[0] == lanes[1]:
            for exc, value, ctr in outcomes.values():
                assert exc is None and value == lanes[0]
            return
        exc, value, ctr = outcomes["checked"]  # 1-1: no majority
        assert exc is DetectedError and ctr["recoveries_failed"] == 1
        assert outcomes["nocheck"][:2] == (None, 0)
        exc, value, ctr = outcomes["dmr"]
        assert exc is DetectedError and ctr["detections"] == 1


class TestInlinedScalarOps:
    """Casts, sign extensions and divisions the compiled engine emits
    inline, at the edges where the inline form and the reference helper
    could part: signs, NaN/inf, NaN payloads, -0.0 and zero divisors.
    Each outcome equals the reference's on every tier."""

    @pytest.mark.parametrize("src,arg", [
        (T.I1, 1), (T.I1, 0), (T.I8, 0x80), (T.I8, 0x7F),
        (T.I32, 0xFFFFFFF6), (T.I32, 5)])
    def test_sext(self, tier, src, arg):
        tier.matches_reference(returning(
            T.I64, [src], lambda b, x: b.sext(x, T.I64)), [arg])
        tier.matches_reference(returning(
            T.I32, [src], lambda b, x: b.sext(x, T.I32)), [arg])

    def test_sext_vector(self, tier):
        v4 = T.vector(T.I8, 4)
        tier.matches_reference(returning(
            T.vector(T.I64, 4), [], lambda b: b.sext(
                Constant(v4, (0x80, 1, 0xFF, 0x7F)), T.vector(T.I64, 4))))

    @pytest.mark.parametrize("src,arg", [
        (T.I32, -7 & 0xFFFFFFFF), (T.I64, -(1 << 62) & (1 << 64) - 1)])
    def test_sitofp_negative(self, tier, src, arg):
        exc, value, _ = tier.matches_reference(returning(
            T.F64, [src], lambda b, x: b.sitofp(x, T.F64)), [arg])
        assert value == bits(float(arg - (1 << src.width)))

    @pytest.mark.parametrize("opcode", ["fptosi", "fptoui"])
    @pytest.mark.parametrize("arg", [math.nan, math.inf, -math.inf, -2.5,
                                     1e30])
    @pytest.mark.parametrize("dst", [T.I64, T.I32], ids=["i64", "i32"])
    def test_fp_to_int(self, tier, opcode, arg, dst):
        tier.matches_reference(returning(
            dst, [T.F64], lambda b, x: b.cast(opcode, x, dst)), [arg])

    @pytest.mark.parametrize("src,dst,arg", [
        (T.F64, T.I64, f64_nan(5)), (T.F64, T.I64, -0.0),
        (T.I64, T.F64, 0x7FF8000000000005), (T.I64, T.F64, 1 << 63),
        (T.F32, T.I32, f32_nan(5)), (T.F32, T.I32, -0.0),
        (T.I32, T.F32, 0x7FC00005), (T.I32, T.F32, 0x80000000),
        (T.I64, T.F64, 1 << 64 | 1 << 63)],
        ids=["f64-nan", "f64-neg0", "i64-nan", "i64-neg0",
             "f32-nan", "f32-neg0", "i32-nan", "i32-neg0",
             "i64-masked-to-width"])
    def test_bitcast(self, tier, src, dst, arg):
        exc, value, _ = tier.matches_reference(returning(
            dst, [src], lambda b, x: b.bitcast(x, dst)), [arg])
        assert exc is None

    def test_vector_gep_negative_index(self, tier):
        v4 = T.vector(T.I32, 4)
        exc, value, _ = tier.matches_reference(returning(
            T.vector(T.PTR, 4), [T.PTR], lambda b, p: b.gep(
                T.I64, b.broadcast(p, 4), Constant(v4, (-1, 0, 3, -8)))),
            [4096])
        assert value == (4088, 4096, 4120, 4032)

    @pytest.mark.parametrize("opcode", ["udiv", "urem", "sdiv", "srem"])
    def test_int_division_by_zero(self, tier, opcode):
        """The trap leaves the reference's partial counters: the adds
        before the division count, the one after does not."""
        exc, value, ctr = tier.matches_reference(returning(
            T.I64, [T.I64, T.I64], lambda b, x, y: b.add(
                b.binop(opcode, b.add(x, b.i64(1)), y), b.i64(1))),
            [41, 0])
        assert exc is ArithmeticFault

    @pytest.mark.parametrize("x,y", [(1.0, 0.0), (1.0, -0.0), (-1.0, 0.0),
                                     (0.0, 0.0), (0.0, -0.0), (1.0, 4.0)])
    def test_fdiv_by_zero(self, tier, x, y):
        tier.matches_reference(returning(
            T.F64, [T.F64, T.F64], lambda b, p, q: b.fdiv(p, q)), [x, y])


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
