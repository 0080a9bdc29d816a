"""Tests for Machine-level API behaviour: run results, counter resets,
error paths, and configuration effects."""

import pytest

from repro.avx import PROPOSED_AVX
from repro.cpu import Machine, MachineConfig, Trap
from repro.ir import IRBuilder, Module
from repro.ir import types as T

from ..conftest import make_function


def sum_module():
    module = Module("m")
    fn, b = make_function(module, "main", T.I64, [T.I64])
    loop = b.begin_loop(b.i64(0), fn.args[0])
    acc = b.loop_phi(loop, b.i64(0))
    b.set_loop_next(loop, acc, b.add(acc, loop.index))
    b.end_loop(loop)
    b.ret(acc)
    return module


class TestRunResult:
    def test_fields_populated(self):
        result = Machine(sum_module()).run("main", [10])
        assert result.value == 45
        assert result.cycles > 0
        assert result.ilp > 0
        assert result.instructions == result.counters.instructions > 0
        assert result.output == []
        assert result.fault_injected is False

    def test_timing_disabled_gives_zero_cycles(self):
        config = MachineConfig(collect_timing=False)
        result = Machine(sum_module(), config).run("main", [10])
        assert result.cycles == 0.0
        assert result.counters.instructions > 0

    def test_counters_accumulate_across_runs(self):
        machine = Machine(sum_module())
        first = machine.run("main", [10]).counters.instructions
        total = machine.run("main", [10]).counters.instructions
        assert total == 2 * first

    def test_cost_model_changes_cycles(self):
        from repro.passes import elzar_transform

        hardened = elzar_transform(sum_module())
        haswell = Machine(hardened).run("main", [64]).cycles
        proposed = Machine(
            hardened, MachineConfig(cost_model=PROPOSED_AVX)
        ).run("main", [64]).cycles
        assert proposed < haswell


class TestErrorPaths:
    def test_running_declaration_rejected(self):
        module = Module("m")
        module.declare_function("ext", T.FunctionType(T.VOID, ()))
        with pytest.raises(ValueError):
            Machine(module).run("ext", ())

    def test_unknown_function(self):
        with pytest.raises(KeyError):
            Machine(sum_module()).run("nope", ())

    def test_call_to_undefined_external_traps(self, fast_config):
        module = Module("m")
        ext = module.declare_function("mystery.fn", T.FunctionType(T.VOID, ()))
        fn, b = make_function(module, "main", T.VOID, [])
        b.call(ext, [])
        b.ret_void()
        with pytest.raises(Trap):
            Machine(module, fast_config).run("main", ())

    def test_unknown_intrinsic_traps(self, fast_config):
        module = Module("m")
        ext = module.declare_function("rt.frobnicate", T.FunctionType(T.VOID, ()))
        fn, b = make_function(module, "main", T.VOID, [])
        b.call(ext, [])
        b.ret_void()
        with pytest.raises(Trap, match="unknown intrinsic"):
            Machine(module, fast_config).run("main", ())


class TestGlobalAccessors:
    def test_write_and_read_roundtrip(self, fast_config):
        module = Module("m")
        module.add_global("g", T.ArrayType(T.F64, 4))
        fn, b = make_function(module, "main", T.F64, [])
        b.ret(b.load(T.F64, b.gep(T.F64, module.get_global("g"), b.i64(2))))
        machine = Machine(module, fast_config)
        machine.write_global("g", [1.0, 2.0, 3.0, 4.0])
        assert machine.run("main", ()).value == 3.0
        assert machine.read_global("g") == [1.0, 2.0, 3.0, 4.0]

    def test_scalar_global(self, fast_config):
        module = Module("m")
        module.add_global("s", T.I64, 42)
        machine = Machine(module, fast_config)
        assert machine.read_global("s") == 42
        machine.write_global("s", 43)
        assert machine.read_global("s") == 43

    def test_partial_read(self, fast_config):
        module = Module("m")
        module.add_global("g", T.ArrayType(T.I64, 8), list(range(8)))
        machine = Machine(module, fast_config)
        assert machine.read_global("g", count=3) == [0, 1, 2]


class TestCacheConfig:
    def test_smaller_caches_miss_more(self, ):
        module = Module("m")
        module.add_global("g", T.ArrayType(T.I64, 2048), list(range(2048)))
        fn, b = make_function(module, "main", T.I64, [])
        # Strided walk defeats the prefetcher.
        loop = b.begin_loop(b.i64(0), b.i64(2048), step=b.i64(31))
        acc = b.loop_phi(loop, b.i64(0))
        x = b.load(T.I64, b.gep(T.I64, module.get_global("g"), loop.index))
        b.set_loop_next(loop, acc, b.add(acc, x))
        b.end_loop(loop)
        # Second pass: hits depend on capacity.
        loop2 = b.begin_loop(b.i64(0), b.i64(2048), step=b.i64(31))
        acc2 = b.loop_phi(loop2, acc)
        x2 = b.load(T.I64, b.gep(T.I64, module.get_global("g"), loop2.index))
        b.set_loop_next(loop2, acc2, b.add(acc2, x2))
        b.end_loop(loop2)
        b.ret(acc2)
        big = Machine(module, MachineConfig(l1_size=64 << 10))
        small = Machine(module, MachineConfig(l1_size=1 << 10))
        rb = big.run("main", ())
        rs = small.run("main", ())
        assert rs.counters.l1_miss_ratio > rb.counters.l1_miss_ratio
        assert rb.value == rs.value
