"""Tests for the branch predictor and the dataflow timing model."""

import copy
import random
from collections import deque

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avx.costs import HASWELL
from repro.cpu import GSharePredictor, Machine, MachineConfig, TimingModel
from repro.cpu.resumable import capture_state, resume_run, run_resumable
from repro.cpu.timing import _PORT_LOOKUP
from repro.ir import Module
from repro.ir import types as T
from repro.snap.format import deserialize_state, serialize_state
from repro.toolchain import default_toolchain

from ..conftest import TIERS, make_function, run_tier, tier_config


class TestPredictor:
    def test_learns_always_taken(self):
        p = GSharePredictor()
        for _ in range(100):
            p.predict_and_update(1, True)
        assert p.miss_ratio < 10.0

    def test_learns_alternating_pattern(self):
        p = GSharePredictor()
        for i in range(400):
            p.predict_and_update(1, i % 2 == 0)
        # gshare captures the pattern via history after warmup.
        late = GSharePredictor()
        misses_late = 0
        for i in range(2000):
            if not late.predict_and_update(1, i % 2 == 0):
                if i > 200:
                    misses_late += 1
        assert misses_late < 50

    def test_random_pattern_misses_heavily(self):
        import random

        rng = random.Random(3)
        p = GSharePredictor()
        for _ in range(2000):
            p.predict_and_update(7, rng.random() < 0.5)
        assert p.miss_ratio > 25.0

    def test_reset(self):
        p = GSharePredictor()
        p.predict_and_update(1, True)
        p.reset()
        assert p.predictions == 0 and p.misses == 0


class TestTiming:
    def test_issue_width_bounds_throughput(self):
        t = TimingModel(HASWELL, issue_width=4)
        for _ in range(400):
            t.issue("add", 1.0, ())
        assert t.cycles >= 100.0  # 400 uops / 4-wide
        assert t.cycles < 120.0

    def test_dependence_chain_bounds_latency(self):
        t = TimingModel(HASWELL)
        ready = 0.0
        for _ in range(100):
            ready = t.issue("mul", 3.0, [ready])
        assert t.cycles >= 300.0

    def test_independent_ops_overlap(self):
        t = TimingModel(HASWELL)
        for _ in range(100):
            t.issue("mul", 3.0, [0.0])
        assert t.cycles < 100.0

    def test_multi_uop_instructions_cost_more_frontend(self):
        t1 = TimingModel(HASWELL)
        for _ in range(100):
            t1.issue("x", 1.0, (), uops=1)
        t4 = TimingModel(HASWELL)
        for _ in range(100):
            t4.issue("x", 1.0, (), uops=4)
        assert t4.cycles > 3 * t1.cycles

    def test_store_port_structural_hazard(self):
        t = TimingModel(HASWELL)
        for _ in range(100):
            t.issue("store", 1.0, ())
        # One store per cycle despite the 4-wide frontend.
        assert t.cycles >= 90.0

    def test_divider_is_unpipelined(self):
        t = TimingModel(HASWELL)
        for _ in range(10):
            t.issue("sdiv", 26.0, [0.0])
        assert t.cycles >= 10 * 20.0  # div unit busy 20/op

    def test_vector_port_group_narrower_than_scalar(self):
        scalar = TimingModel(HASWELL)
        for _ in range(300):
            scalar.issue("add", 1.0, (), uops=1, is_vector=False)
        vec = TimingModel(HASWELL)
        for _ in range(300):
            vec.issue("add", 1.0, (), uops=1, is_vector=True)
        assert vec.cycles > scalar.cycles

    def test_branch_mispredict_stalls_frontend(self):
        t = TimingModel(HASWELL)
        done = t.issue("br", 1.0, ())
        before = t.issue_time
        t.branch_mispredict(done)
        assert t.issue_time >= done + t.branch_miss_penalty
        assert t.issue_time > before

    def test_rob_limits_overlap(self):
        small = TimingModel(HASWELL, rob_size=4)
        for _ in range(40):
            small.issue("load", 0.0, (), extra_latency=200.0)
        big = TimingModel(HASWELL, rob_size=1000)
        for _ in range(40):
            big.issue("load", 0.0, (), extra_latency=200.0)
        assert small.cycles > big.cycles

    def test_ilp_reporting(self):
        t = TimingModel(HASWELL)
        for _ in range(100):
            t.issue("add", 1.0, ())
        assert 3.0 < t.ilp <= 4.01



class DequeTiming:
    """The timing model's issue sequence as it was before the ROB became
    a ring: a deque of retire frontiers, popped once it holds
    ``rob_size`` entries, and port clocks that default to 0.0. Kept as
    the oracle of the ring's exactness."""

    def __init__(self, costs, issue_width, rob_size, branch_miss_penalty):
        self.costs = costs
        self.issue_width = issue_width
        self.rob_size = rob_size
        self.branch_miss_penalty = branch_miss_penalty
        self.issue_time = 0.0
        self.finish_time = 0.0
        self.issued = 0
        self.uops_issued = 0
        self.port_free = {}
        self.rob = deque()
        self.retire_frontier = 0.0

    def copy(self):
        new = copy.copy(self)
        new.port_free = dict(self.port_free)
        new.rob = deque(self.rob)
        return new

    def issue(self, opcode, latency, operand_times, extra_latency=0.0,
              uops=1, is_vector=False, port=_PORT_LOOKUP):
        self.issued += 1
        self.uops_issued += uops
        start = self.issue_time
        if len(self.rob) >= self.rob_size:
            oldest = self.rob.popleft()
            if oldest > start:
                start = oldest
        for t in operand_times:
            if t > start:
                start = t
        if port is _PORT_LOOKUP:
            port = self.costs.ports.get(opcode)
        if port is not None:
            clock = self.port_free.get(port[0], 0.0)
            if clock > start:
                start = clock
            self.port_free[port[0]] = clock + port[1]
        if is_vector:
            clock = self.port_free.get("vecalu", 0.0)
            if clock > start:
                start = clock
            self.port_free["vecalu"] = clock + self.costs.vector_alu_rtp * uops
        done = start + latency + extra_latency
        if done > self.finish_time:
            self.finish_time = done
        if done > self.retire_frontier:
            self.retire_frontier = done
        self.rob.append(self.retire_frontier)
        self.issue_time += uops / self.issue_width
        return done

    def branch_mispredict(self, resolve_time):
        restart = resolve_time + self.branch_miss_penalty
        if restart > self.issue_time:
            self.issue_time = restart

    @property
    def cycles(self):
        return max(self.finish_time, self.issue_time)


_OPCODES = sorted(HASWELL.ports) + ["add", "br", "call", "ret"]
_PORTS = sorted(set(HASWELL.ports.values()))


def _step(rng, done):
    """One random issue() call: its arguments, and whether a
    misprediction follows it."""
    operands = tuple(rng.choice(done) for _ in range(rng.randrange(4)))
    mode = rng.randrange(3)
    port = (_PORT_LOOKUP if mode == 0 else None if mode == 1
            else rng.choice(_PORTS))
    args = (rng.choice(_OPCODES), rng.choice([0.0, 1.0, 3.0, 0.5, 26.0]),
            operands, rng.choice([0.0, 0.0, 4.0, 200.0]),
            rng.randrange(6), rng.random() < 0.4, port)
    return args, rng.random() < 0.05


def _drive(models, rng, steps, done):
    """Issue the same random stream into every model; every call must
    return the same completion time."""
    for _ in range(steps):
        args, mispredict = _step(rng, done)
        got = {m.issue(*args) for m in models}
        assert len(got) == 1
        done.append(got.pop())
        if mispredict:
            for m in models:
                m.branch_mispredict(done[-1])


def _observable(m):
    return (m.issue_time, m.finish_time, m.issued, m.uops_issued, m.cycles)


class TestRingRob:
    """The ring ROB and pre-filled port clocks are exact: for any issue
    stream the ring model returns the deque model's completion times
    and ends with its issue_time, finish_time and cycles — also on
    copies taken mid-stream and continued on both sides."""

    @given(seed=st.integers(0, 2**32 - 1),
           rob_size=st.sampled_from([1, 2, 4, 192]),
           before=st.integers(0, 500), after=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_ring_matches_deque(self, seed, rob_size, before, after):
        rng = random.Random(seed)
        ring = TimingModel(HASWELL, rob_size=rob_size)
        oracle = DequeTiming(HASWELL, ring.issue_width, rob_size,
                             ring.branch_miss_penalty)
        done = [0.0]
        _drive([ring, oracle], rng, before, done)
        assert _observable(ring) == _observable(oracle)
        ring_copy, oracle_copy = ring.copy(), oracle.copy()
        # Continue the originals and the copies on one stream.
        _drive([ring, oracle, ring_copy, oracle_copy], rng, after, done)
        assert (_observable(ring) == _observable(oracle)
                == _observable(ring_copy) == _observable(oracle_copy))


def _timing_state(t):
    return (t.issue_time, t.finish_time, t._retire_frontier, t.issued,
            t.uops_issued, t._rob, t._ri, t._port_free, t.cycles)


class TestRingAcrossEngines:
    """Both engines read and write the one ring layout: a timed run
    that wraps the ROB many times, and a resume from a timed state
    captured mid-ring, end with bit-identical timing state on the
    reference interpreter, the record path and the compiled regions."""

    def _build(self):
        built = default_toolchain().build("histogram", "test", "elzar")
        return built.module, built.entry, built.args

    def test_long_timed_run_is_bit_identical(self):
        module, entry, args = self._build()
        ends = {}
        for tier in TIERS:
            machine = Machine(module, tier_config(tier))
            result = run_tier(machine, tier, entry, args)
            ends[tier] = (result.cycles, _timing_state(machine.timing))
        assert ends["reference"][1][3] > 20 * machine.timing.rob_size
        assert ends["records"] == ends["reference"]
        assert ends["compiled"] == ends["reference"]

    def test_resume_from_mid_ring_state(self):
        module, entry, args = self._build()
        reference = Machine(module, MachineConfig(engine="reference"))
        golden = reference.run(entry, args)
        cap = Machine(module, MachineConfig())
        cap.count_only = True
        policy = _TakeOnce(3001)
        run_resumable(cap, entry, args, capture=policy)
        state = policy.states[0]
        assert state.timing.issued > state.timing.rob_size
        assert state.timing._ri != 0
        revived = deserialize_state(serialize_state(state, cap), cap)
        for resume_from in (state, revived):
            machine = Machine(module, MachineConfig())
            result = resume_run(machine, resume_from, ())
            assert result.cycles == golden.cycles
            assert (_timing_state(machine.timing)
                    == _timing_state(reference.timing))


def _overlapping_phi_module(shape):
    """A loop whose back edge moves overlapping phis, so the region
    stages every move through temporaries ("swap": ``a, b = b, a + b``;
    "rotate": ``a, b, c = b, c, a``; "self": a phi that takes itself),
    and whose body issues on ports (a load, an fdiv), so the region
    also holds port clocks in locals."""
    module = Module(f"phi-{shape}")
    _fn, b = make_function(module, "main", T.I64, [T.I64])
    buf = b.alloca(T.I64, count=8)
    loop = b.begin_loop(b.i64(0), b.i64(8))
    b.store(b.mul(loop.index, b.i64(3)), b.gep(T.I64, buf, loop.index))
    b.end_loop(loop)
    loop = b.begin_loop(b.i64(0), b.i64(600))
    phis = [b.loop_phi(loop, b.i64(v)) for v in (1, 2, 3)]
    x = b.loop_phi(loop, b.f64(1.0e6))
    m = b.load(T.I64, b.gep(T.I64, buf, b.and_(loop.index, b.i64(7))))
    b.set_loop_next(loop, x, b.fdiv(x, b.f64(1.0009765625)))
    a, c, e = phis
    if shape == "swap":
        nexts = (c, b.add(b.add(a, c), m), e)
    elif shape == "rotate":
        nexts = (c, e, b.add(a, m))
    else:
        nexts = (a, b.add(c, m), e)
    for phi, nxt in zip(phis, nexts):
        b.set_loop_next(loop, phi, nxt)
    b.end_loop(loop)
    total = b.add(b.add(a, c), b.fptosi(x, T.I64))
    b.ret(b.add(total, e))
    return module, "main", [0]


class TestPortClocksAcrossEngines:
    """Port clocks held in region locals survive edges whose phi moves
    are staged through temporaries: every tier ends with the
    reference's cycles and port clocks."""

    @pytest.mark.parametrize("shape", ["swap", "rotate", "self"])
    def test_overlapping_phis_keep_port_clocks(self, shape):
        module, entry, args = _overlapping_phi_module(shape)
        ends = {}
        for tier in TIERS:
            machine = Machine(module, tier_config(tier, collect_timing=True))
            result = run_tier(machine, tier, entry, args)
            ends[tier] = (result.value, result.cycles,
                          _timing_state(machine.timing))
        ports = ends["reference"][2][7]
        assert ports[HASWELL.ports["load"][0]] > 0.0
        assert ports[HASWELL.ports["fdiv"][0]] > 0.0
        assert ends["records"] == ends["reference"]
        assert ends["compiled"] == ends["reference"]


class _TakeOnce:
    """Capture policy: one state at the first boundary at or after
    ``at`` eligible instructions."""

    def __init__(self, at):
        self.next_index = at
        self.states = []

    def take(self, machine, stack, executed):
        self.states.append(capture_state(machine, stack, executed))
        self.next_index = 1 << 62
