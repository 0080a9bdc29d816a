"""Tests for mem2reg SSA promotion."""

from repro.cpu import Machine, MachineConfig
from repro.ir import IRBuilder, Module, verify_module
from repro.ir import types as T
from repro.ir.instructions import AllocaInst, LoadInst, PhiInst, StoreInst
from repro.passes import mem2reg, promote_function

from ..conftest import make_function, run_scalar


def count_op(fn, cls):
    return sum(1 for i in fn.instructions() if isinstance(i, cls))


class TestPromotion:
    def test_straightline_promoted(self, fast_config):
        module = Module("m")
        fn, b = make_function(module, "f", T.I64, [T.I64])
        slot = b.alloca(T.I64)
        b.store(fn.args[0], slot)
        v = b.load(T.I64, slot)
        b.ret(b.add(v, b.i64(1)))
        assert promote_function(fn) == 1
        verify_module(module)
        assert count_op(fn, AllocaInst) == 0
        assert count_op(fn, LoadInst) == 0
        assert count_op(fn, StoreInst) == 0
        assert run_scalar(module, "f", [41], fast_config) == 42

    def test_diamond_gets_phi(self, fast_config):
        module = Module("m")
        fn, b = make_function(module, "f", T.I64, [T.I64])
        slot = b.alloca(T.I64)
        cond = b.icmp("sgt", fn.args[0], b.i64(0))
        state = b.begin_if(cond, with_else=True)
        b.store(b.i64(10), slot)
        b.begin_else(state)
        b.store(b.i64(20), slot)
        b.end_if(state)
        b.ret(b.load(T.I64, slot))
        promote_function(fn)
        verify_module(module)
        assert count_op(fn, PhiInst) == 1
        assert run_scalar(module, "f", [1], fast_config) == 10
        assert run_scalar(module, "f", [-1], fast_config) == 20

    def test_loop_carried_value(self, fast_config):
        module = Module("m")
        fn, b = make_function(module, "f", T.I64, [T.I64])
        slot = b.alloca(T.I64)
        b.store(b.i64(0), slot)
        loop = b.begin_loop(b.i64(0), fn.args[0])
        cur = b.load(T.I64, slot)
        b.store(b.add(cur, loop.index), slot)
        b.end_loop(loop)
        b.ret(b.load(T.I64, slot))
        promote_function(fn)
        verify_module(module)
        assert count_op(fn, AllocaInst) == 0
        assert run_scalar(module, "f", [10], fast_config) == 45

    def test_uninitialized_load_reads_zero(self, fast_config):
        module = Module("m")
        fn, b = make_function(module, "f", T.I64, [])
        slot = b.alloca(T.I64)
        b.ret(b.load(T.I64, slot))
        promote_function(fn)
        verify_module(module)
        assert run_scalar(module, "f", (), fast_config) == 0

    def test_result_semantics_preserved_on_kernel(self, fast_config):
        """The dedup-style pattern: an alloca written in nested control
        flow and read after the loop."""
        module = Module("m")
        fn, b = make_function(module, "f", T.I64, [T.I64])
        flag = b.alloca(T.I64)
        b.store(b.i64(0), flag)
        loop = b.begin_loop(b.i64(0), fn.args[0])
        is_seven = b.icmp("eq", loop.index, b.i64(7))
        state = b.begin_if(is_seven)
        b.store(b.i64(1), flag)
        b.end_if(state)
        b.end_loop(loop)
        b.ret(b.load(T.I64, flag))
        promote_function(fn)
        verify_module(module)
        assert run_scalar(module, "f", [10], fast_config) == 1
        assert run_scalar(module, "f", [5], fast_config) == 0


class TestNonPromotable:
    def test_escaping_alloca_kept(self, fast_config):
        module = Module("m")
        callee, cb = make_function(module, "sink", T.VOID, [T.PTR])
        cb.store(cb.i64(5), callee.args[0])
        cb.ret_void()
        fn, b = make_function(module, "f", T.I64, [])
        slot = b.alloca(T.I64)
        b.store(b.i64(1), slot)
        b.call(callee, [slot])
        b.ret(b.load(T.I64, slot))
        promoted = promote_function(fn)
        assert promoted == 0
        assert count_op(fn, AllocaInst) == 1
        assert run_scalar(module, "f", (), fast_config) == 5

    def test_gep_addressed_alloca_kept(self):
        module = Module("m")
        fn, b = make_function(module, "f", T.I64, [])
        slot = b.alloca(T.I64, count=4)
        p = b.gep(T.I64, slot, b.i64(2))
        b.store(b.i64(1), p)
        b.ret(b.load(T.I64, p))
        assert promote_function(fn) == 0

    def test_aggregate_alloca_kept(self):
        module = Module("m")
        fn, b = make_function(module, "f", T.VOID, [])
        b.alloca(T.ArrayType(T.I64, 4))
        b.ret_void()
        assert promote_function(fn) == 0

    def test_stored_pointer_value_kept(self):
        """Storing the alloca's *address* somewhere disqualifies it."""
        module = Module("m")
        module.add_global("g", T.PTR)
        fn, b = make_function(module, "f", T.VOID, [])
        slot = b.alloca(T.I64)
        b.store(slot, module.get_global("g"))
        b.ret_void()
        assert promote_function(fn) == 0


class TestModulePass:
    def test_mem2reg_runs_on_all_functions(self, fast_config):
        module = Module("m")
        for name in ("a", "b"):
            fn, b = make_function(module, name, T.I64, [T.I64])
            slot = b.alloca(T.I64)
            b.store(fn.args[0], slot)
            b.ret(b.load(T.I64, slot))
        mem2reg(module)
        for name in ("a", "b"):
            assert count_op(module.get_function(name), AllocaInst) == 0
        verify_module(module)


def _two_store_block_module():
    """Two slots, each stored in several blocks (entry, both arms of a
    diamond, a nested conditional in a loop), so phi placement walks
    multi-block definition sets and multi-block dominance frontiers."""
    module = Module("m")
    fn, b = make_function(module, "f", T.I64, [T.I64])
    acc = b.alloca(T.I64, name="acc")
    flag = b.alloca(T.I64, name="flag")
    b.store(b.i64(0), acc)
    b.store(b.i64(0), flag)
    loop = b.begin_loop(b.i64(0), fn.args[0])
    odd = b.icmp("eq", b.binop("and", loop.index, b.i64(1)), b.i64(1))
    arms = b.begin_if(odd, with_else=True)
    b.store(b.add(b.load(T.I64, acc), loop.index), acc)
    inner = b.begin_if(b.icmp("sgt", loop.index, b.i64(5)))
    b.store(b.i64(1), flag)
    b.end_if(inner)
    b.begin_else(arms)
    b.store(b.sub(b.load(T.I64, acc), b.i64(1)), acc)
    b.store(b.load(T.I64, flag), flag)
    b.end_if(arms)
    b.end_loop(loop)
    b.ret(b.add(b.load(T.I64, acc), b.load(T.I64, flag)))
    return module


def test_phi_placement_is_deterministic(fast_config):
    """Fresh copies of one function promote to the same printed IR:
    phi names must not follow the memory addresses of the blocks
    (which a walk in set order would)."""
    from repro.ir.printer import format_module

    texts = set()
    keep = []  # keep every copy alive so each lands at new addresses
    for _ in range(40):
        module = _two_store_block_module()
        mem2reg(module)
        verify_module(module)
        texts.add(format_module(module))
        keep.append(module)
    assert len(texts) == 1
    assert count_op(keep[0].get_function("f"), PhiInst) >= 3
    assert run_scalar(keep[0], "f", [10], fast_config) == 21
