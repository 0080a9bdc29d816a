"""Tests for the branch predictor and the dataflow timing model."""

from repro.avx.costs import HASWELL
from repro.cpu import GSharePredictor, TimingModel


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

