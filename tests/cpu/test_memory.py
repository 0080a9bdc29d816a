"""Tests for the flat memory subsystem."""

import pytest

from repro.cpu import (HEAP_BASE, Machine, MachineConfig, Memory,
                       MemoryFault, STACK_BASE)
from repro.cpu import intrinsics as intr
from repro.cpu.compiled import capture_state, restore_payload
from repro.ir import Module
from repro.ir import types as T
from repro.workloads import ALL

from ..conftest import make_function


class TestAllocation:
    def test_heap_starts_above_null_page(self):
        mem = Memory()
        addr = mem.alloc(64)
        assert addr >= HEAP_BASE

    def test_alignment(self):
        mem = Memory()
        mem.alloc(3)
        addr = mem.alloc(8, align=16)
        assert addr % 16 == 0

    def test_heap_exhaustion(self):
        mem = Memory(heap_capacity=1 << 12)
        with pytest.raises(MemoryError):
            mem.alloc(1 << 20)

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            Memory().alloc(-1)

    def test_stack_mark_release(self):
        mem = Memory()
        mark = mem.stack_mark()
        a = mem.stack_alloc(128)
        assert a >= STACK_BASE
        mem.stack_release(mark)
        b = mem.stack_alloc(128)
        assert b == a  # reused after release


class TestAccessValidation:
    def test_null_page_faults(self):
        mem = Memory()
        with pytest.raises(MemoryFault):
            mem.read_bytes(0, 8)
        with pytest.raises(MemoryFault):
            mem.write_bytes(100, b"x")

    def test_beyond_heap_top_faults(self):
        mem = Memory()
        addr = mem.alloc(16)
        mem.read_bytes(addr, 16)
        with pytest.raises(MemoryFault):
            mem.read_bytes(addr + 8, 16)  # straddles heap top

    def test_gap_between_heap_and_stack_faults(self):
        mem = Memory()
        mem.alloc(8)
        with pytest.raises(MemoryFault):
            mem.read_bytes(STACK_BASE - 4096, 8)

    def test_fault_reports_details(self):
        mem = Memory()
        try:
            mem.write_bytes(4, b"abcd")
        except MemoryFault as exc:
            assert exc.address == 4
            assert exc.write is True


class TestTypedAccess:
    @pytest.mark.parametrize(
        "ty,value",
        [
            (T.I8, 200),
            (T.I16, 40000),
            (T.I32, 4_000_000_000),
            (T.I64, (1 << 63) + 5),
            (T.F32, 1.5),
            (T.F64, -2.75),
            (T.PTR, 0x123456),
        ],
    )
    def test_scalar_roundtrip(self, ty, value):
        mem = Memory()
        addr = mem.alloc(16)
        mem.store_scalar(ty, addr, value)
        assert mem.load_scalar(ty, addr) == value

    def test_little_endian_layout(self):
        mem = Memory()
        addr = mem.alloc(8)
        mem.store_scalar(T.I64, addr, 0x0102030405060708)
        assert mem.read_bytes(addr, 1) == b"\x08"

    def test_narrow_store_masks(self):
        mem = Memory()
        addr = mem.alloc(8)
        mem.store_scalar(T.I8, addr, 0x1FF)
        assert mem.load_scalar(T.I8, addr) == 0xFF

    def test_i1_stored_as_byte(self):
        mem = Memory()
        addr = mem.alloc(2)
        mem.store_scalar(T.I1, addr, 1)
        mem.store_scalar(T.I1, addr + 1, 0)
        assert mem.load_scalar(T.I1, addr) == 1
        assert mem.load_scalar(T.I1, addr + 1) == 0

    def test_vector_roundtrip(self):
        mem = Memory()
        v4 = T.vector(T.I64, 4)
        addr = mem.alloc(32)
        mem.store_value(v4, addr, (1, 2, 3, 4))
        assert mem.load_value(v4, addr) == (1, 2, 3, 4)


class TestGlobalInit:
    def test_zero_init(self):
        mem = Memory()
        addr = mem.init_global(T.ArrayType(T.I64, 4), None)
        assert mem.load_scalar(T.I64, addr + 24) == 0

    def test_list_init(self):
        mem = Memory()
        addr = mem.init_global(T.ArrayType(T.I32, 3), [7, 8, 9])
        assert mem.load_scalar(T.I32, addr + 4) == 8

    def test_bytes_init(self):
        mem = Memory()
        addr = mem.init_global(T.ArrayType(T.I8, 4), b"abc")
        assert mem.load_scalar(T.I8, addr) == ord("a")

    def test_scalar_global(self):
        mem = Memory()
        addr = mem.init_global(T.F64, 3.25)
        assert mem.load_scalar(T.F64, addr) == 3.25

    def test_oversized_initializer_rejected(self):
        mem = Memory()
        with pytest.raises(ValueError):
            mem.init_global(T.ArrayType(T.I8, 2), b"toolong")


class TestGrowOnlyArenas:
    def test_fresh_memory_holds_no_bytes(self):
        mem = Memory()
        assert len(mem._heap) == 0
        assert len(mem._stack) == 0

    @pytest.mark.parametrize("sizes", [[8], [3, 100, 1], [4096] * 5,
                                       [1, 1 << 16, 7, 1 << 20]])
    def test_heap_arena_tracks_heap_top(self, sizes):
        mem = Memory()
        for size in sizes:
            mem.alloc(size)
            used = mem.heap_top - HEAP_BASE
            assert used <= len(mem._heap) <= 2 * used

    def test_growth_never_passes_capacity(self):
        mem = Memory(heap_capacity=3000, stack_capacity=3000)
        mem.alloc(1600)
        mem.alloc(1200)
        mem.stack_alloc(1600)
        mem.stack_alloc(1200)
        assert len(mem._heap) == 3000
        assert len(mem._stack) == 3000

    def test_exhaustion_boundaries_unchanged(self):
        mem = Memory(heap_capacity=1 << 12, stack_capacity=1 << 12)
        mem.alloc((1 << 12) - 8)
        mem.alloc(8)
        with pytest.raises(MemoryError):
            mem.alloc(1)
        mem.stack_alloc((1 << 12) - 16)
        mem.stack_alloc(16)
        with pytest.raises(MemoryError):
            mem.stack_alloc(1)
        # A failed allocation leaves the tops where they were.
        assert mem.heap_top - HEAP_BASE == 1 << 12
        assert mem.stack_top - STACK_BASE == 1 << 12

    def test_alignment_padding_counts_against_capacity(self):
        mem = Memory(heap_capacity=64)
        mem.alloc(1)
        with pytest.raises(MemoryError):
            mem.alloc(56, align=16)  # 15 bytes of padding + 56 > 64
        mem.alloc(48, align=16)

    def test_fresh_bytes_are_zero(self):
        mem = Memory()
        mem.alloc(100)
        addr = mem.alloc(5000)
        assert mem.read_bytes(addr, 5000) == bytes(5000)

    def test_stale_stack_bytes_survive_release(self):
        mem = Memory()
        mark = mem.stack_mark()
        frame = mem.stack_alloc(64)
        mem.write_bytes(frame, bytes(range(64)))
        mem.stack_release(mark)
        again = mem.stack_alloc(64)
        assert again == frame
        assert mem.read_bytes(again, 64) == bytes(range(64))


def _store_each(elem, count, values):
    """Reference layout: one ``store_scalar`` per element."""
    mem = Memory()
    addr = mem.alloc(T.sizeof(elem) * count, align=16)
    for i, v in enumerate(values):
        mem.store_scalar(elem, addr + i * T.sizeof(elem), v)
    return mem.read_bytes(addr, T.sizeof(elem) * count)


I9 = T.IntType(9)

PACK_CASES = [
    (T.I1, [True, False, 1, 0, 3]),
    (T.I8, [0, 255, 256, -1, -128, True]),
    (I9, [0, 511, 512, -1, -300, 70000]),
    (T.I16, [1, -1, 40000, -32768, 1 << 20]),
    (T.I32, [7, -7, 4_000_000_000, -(1 << 31), False, 2.9]),
    (T.I64, [(1 << 63) + 5, -1, -(1 << 63), 1 << 70, True]),
    (T.PTR, [0, HEAP_BASE, -8, 0x123456789]),
    (T.F32, [1.5, -0.0, float("inf"), float("-inf"), 3, 1e-45, 3.4e38]),
    (T.F64, [-2.75, 1e300, float("nan"), 0, True, 5e-324]),
]


class TestPackedGlobalLayout:
    @pytest.mark.parametrize("elem,values", PACK_CASES,
                             ids=[str(c[0]) for c in PACK_CASES])
    def test_packed_matches_per_element_stores(self, elem, values):
        count = len(values) + 3  # partial initializer: tail stays zero
        mem = Memory()
        addr = mem.init_global(T.ArrayType(elem, count), values)
        packed = mem.read_bytes(addr, T.sizeof(elem) * count)
        assert packed == _store_each(elem, count, values)

    @pytest.mark.parametrize("elem,values", PACK_CASES,
                             ids=[str(c[0]) for c in PACK_CASES])
    def test_write_global_matches_per_element_stores(self, elem, values):
        count = len(values) + 2
        module = Module("m")
        module.add_global("g", T.ArrayType(elem, count))
        machine = Machine(module)
        machine.write_global("g", values)
        addr = machine.globals_addr["g"]
        written = machine.memory.read_bytes(addr, T.sizeof(elem) * count)
        assert written == _store_each(elem, count, values)

    def test_float32_overflow_raises_like_store_scalar(self):
        mem = Memory()
        with pytest.raises(OverflowError) as per_element:
            mem.store_scalar(T.F32, mem.alloc(4), 1e300)
        with pytest.raises(type(per_element.value)):
            Memory().init_global(T.ArrayType(T.F32, 3), [1.0, 1e300])

    @pytest.mark.parametrize("bad", [None, "x"])
    def test_non_numeric_int_element_raises_like_store_scalar(self, bad):
        mem = Memory()
        with pytest.raises((TypeError, ValueError)) as per_element:
            mem.store_scalar(T.I32, mem.alloc(4), bad)
        with pytest.raises(type(per_element.value)):
            Memory().init_global(T.ArrayType(T.I32, 2), [1, bad])


class TestMemoryImage:
    def test_image_roundtrip_onto_shorter_arena(self):
        src = Memory()
        src.alloc(10_000)
        src.write_bytes(HEAP_BASE + 9_000, b"heap")
        frame = src.stack_alloc(300)
        src.write_bytes(frame + 200, b"stack")
        dst = Memory()
        assert len(dst._heap) < src.heap_top - HEAP_BASE
        dst.load_image(*src.image())
        assert dst.image() == src.image()
        assert dst.read_bytes(HEAP_BASE + 9_000, 4) == b"heap"

    def test_image_roundtrip_onto_longer_arena(self):
        mem = Memory()
        mem.alloc(16)
        mark = mem.stack_mark()
        image = mem.image()
        mem.alloc(50_000)
        mem.write_bytes(HEAP_BASE + 40_000, b"\xff" * 8)
        mem.write_bytes(mem.stack_alloc(64), b"\xee" * 64)
        grown = len(mem._heap)
        mem.load_image(*image)
        assert mem.image() == image
        assert len(mem._heap) == grown  # arenas never shrink
        # Memory used after the image was taken is re-zeroed ...
        mem.alloc(50_000)
        assert mem.read_bytes(HEAP_BASE + 40_000, 8) == bytes(8)
        # ... including stack bytes above the image's stack top.
        assert mem.stack_top == mark
        assert mem.read_bytes(mem.stack_alloc(64), 64) == bytes(64)


FAST = MachineConfig(collect_timing=False, cache_enabled=False)


def _growing_module(nbytes):
    """main(v): p = rt.alloc(nbytes); p[last] = v; s = alloca; *s = v;
    return p[last] + *s — grows both arenas past a fresh machine's."""
    module = Module("m")
    fn, b = make_function(module, "main", T.I64, [T.I64])
    p = b.call(intr.rt_alloc(module), [b.i64(nbytes)])
    last = b.gep(T.I64, p, b.i64(nbytes // 8 - 1))
    b.store(fn.args[0], last)
    s = b.alloca(T.I64, 16)
    b.store(fn.args[0], s)
    b.ret(b.add(b.load(T.I64, last), b.load(T.I64, s)))
    return module


# (take, restore) pairs: between-runs snapshots and mid-run checkpoints.
IMAGE_APIS = {
    "snapshot-restore": (lambda m: m.snapshot(),
                         lambda m, state: m.restore(state)),
    "capture-restore_payload": (
        lambda m: capture_state(m, [], m._executed), restore_payload),
}


@pytest.mark.parametrize("api", IMAGE_APIS.values(), ids=IMAGE_APIS.keys())
class TestMachineImageRoundTrip:
    def test_restore_onto_shorter_arena(self, api):
        take, restore = api
        module = _growing_module(1 << 16)
        grown = Machine(module, FAST)
        assert grown.run("main", [21]).value == 42
        state = take(grown)
        fresh = Machine(module, FAST)
        assert len(fresh.memory._heap) < grown.memory.heap_top - HEAP_BASE
        restore(fresh, state)
        assert fresh.memory.image() == grown.memory.image()
        assert fresh.run("main", [5]).value == grown.run("main", [5]).value

    def test_restore_onto_longer_arena(self, api):
        take, restore = api
        module = _growing_module(1 << 16)
        machine = Machine(module, FAST)
        state = take(machine)
        before = machine.memory.image()
        machine.run("main", [21])
        grown = len(machine.memory._heap)
        restore(machine, state)
        assert machine.memory.image() == before
        assert len(machine.memory._heap) == grown
        fresh = Machine(module, FAST)
        assert machine.run("main", [3]).value == fresh.run("main", [3]).value
        assert machine.memory.image() == fresh.memory.image()


def test_perf_scale_machine_holds_a_fraction_of_capacity():
    built = ALL["histogram"].build_at("perf")
    machine = Machine(built.module, FAST)
    held = len(machine.memory._heap) + len(machine.memory._stack)
    assert held < machine.config.heap_capacity // 4
