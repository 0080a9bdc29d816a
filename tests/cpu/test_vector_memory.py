"""Whole-vector loads and stores: compiled code against the helper.

Compiled code (segments and record functions) loads and stores a
vector in one ``struct`` call when the whole vector lies in one
region, and calls ``Memory.load_value``/``store_value`` (one scalar
access per lane, as the reference interpreter does) otherwise. Both
must agree bit for bit: lane values, the bytes written, and for a
vector straddling ``heap_top`` the same ``MemoryFault`` after the same
partial write.
"""

import random
import struct

import pytest

from repro.cpu import Machine
from repro.cpu.compiled import _lane_code
from repro.cpu.errors import MemoryFault
from repro.cpu.memory import Memory
from repro.ir import Module
from repro.ir import types as T
from repro.snap.build import same_bits

from ..conftest import TIERS, make_function, run_tier, tier_config

#: Lane types, four lanes each (an AVX2 register of i64/f64, half or
#: less of one for the narrower ints).
LANES = {"i8": T.I8, "i16": T.I16, "i32": T.I32, "i64": T.I64,
         "f64": T.F64}
BUF = 96


def _module(elem):
    """``main(src, dst)``: load a 4-lane vector at ``@buf + src``,
    store it at ``@buf + dst``, round-trip it through a stack slot and
    return what the stack gives back."""
    vty = T.vector(elem, 4)
    module = Module(f"vec_{elem}")
    buf = module.add_global("buf", T.ArrayType(T.I8, BUF),
                            random.Random(BUF).randbytes(BUF))
    fn, b = make_function(module, "main", vty, [T.I64, T.I64],
                          ["src", "dst"])
    src, dst = fn.args
    v = b.load(vty, b.gep(T.I8, buf, src), "v")
    b.store(v, b.gep(T.I8, buf, dst))
    slot = b.alloca(vty)
    b.store(v, slot)
    b.ret(b.load(vty, slot, "w"))
    return module


def _observe(module, tier, timed, src, dst):
    machine = Machine(module, tier_config(tier, collect_timing=timed))
    base = machine.globals_addr["buf"]
    top = machine.memory.heap_top - base
    half = T.sizeof(module.get_function("main").type.ret) // 2
    try:
        value = run_tier(machine, tier, "main",
                         [src(top, half), dst(top, half)]).value
        fault = None
    except MemoryFault as exc:
        value = None
        fault = (exc.address - base, exc.size, exc.write)
    heap, _, _, _ = machine.memory.image()
    return value, fault, heap


#: (source, destination) offsets into ``@buf`` from its end ``top``
#: and half the vector's size: in range, then half of the source, then
#: half of the destination past ``heap_top``.
IN_RANGE = (lambda top, half: 0, lambda top, half: 40)
LOAD_PAST_TOP = (lambda top, half: top - half, lambda top, half: 0)
STORE_PAST_TOP = (lambda top, half: 16, lambda top, half: top - half)


@pytest.mark.parametrize("timed", [False, True])
@pytest.mark.parametrize("lane", sorted(LANES))
@pytest.mark.parametrize("case", ["in-range", "load-past-top",
                                  "store-past-top"])
def test_whole_vector_access_matches_the_helper(case, lane, timed):
    src, dst = {"in-range": IN_RANGE, "load-past-top": LOAD_PAST_TOP,
                "store-past-top": STORE_PAST_TOP}[case]
    module = _module(LANES[lane])
    reference = _observe(module, "reference", timed, src, dst)
    value, fault, heap = reference
    if case == "in-range":
        assert fault is None and len(value) == 4
    else:
        assert fault is not None and value is None
        assert fault[0] == BUF and fault[2] == (case == "store-past-top")
    for tier in TIERS[1:]:
        got = _observe(module, tier, timed, src, dst)
        assert same_bits(got[0], value), tier
        assert got[1:] == (fault, heap), tier


def test_f32_lanes_past_their_range_store_as_the_helper_does():
    """f32 vector stores keep the per-lane helper: a lane too large for
    f32 raises in ``pack`` after the lanes before it were written."""
    memory = Memory()
    addr = memory.alloc(16)
    vty = T.vector(T.F32, 4)
    with pytest.raises(OverflowError):
        memory.store_value(vty, addr, (1.5, 2.5, 1e300, 3.5))
    assert struct.unpack("<2f", memory.read_bytes(addr, 8)) == (1.5, 2.5)
    assert _lane_code(T.F32, store=True) is None
    assert _lane_code(T.F32, store=False) == "f"
    assert _lane_code(T.I1, store=False) is None
