"""Tests for constants, arguments, and globals."""

import math
import struct

import pytest

from repro.ir import types as T
from repro.ir.values import (
    Constant,
    GlobalVariable,
    UndefValue,
    const_bool,
    const_float,
    const_int,
    const_splat,
)


class TestConstants:
    def test_int_constants_are_width_masked(self):
        assert Constant(T.I8, 256).value == 0
        assert Constant(T.I8, 257).value == 1
        assert Constant(T.I8, -1).value == 255
        assert Constant(T.I64, -1).value == (1 << 64) - 1

    def test_i1_constants(self):
        assert const_bool(True).value == 1
        assert const_bool(False).value == 0
        assert Constant(T.I1, 2).value == 0  # masked

    def test_float_constants(self):
        c = const_float(1.5)
        assert c.type == T.F64
        assert c.value == 1.5

    def test_f32_constants_are_binary32(self):
        binary32 = struct.unpack("<f", struct.pack("<f", 0.1))[0]
        assert binary32 != 0.1
        assert Constant(T.F32, 0.1).value == binary32
        assert Constant(T.vector(T.F32, 2), (0.1, 0.1)).value == (binary32,) * 2
        assert Constant(T.F64, 0.1).value == 0.1

    def test_f32_constants_out_of_range_become_inf(self):
        assert Constant(T.F32, 1e39).value == math.inf
        assert Constant(T.F32, -1e39).value == -math.inf
        assert Constant(T.F64, 1e39).value == 1e39

    def test_vector_constant_arity_checked(self):
        Constant(T.vector(T.I64, 4), (1, 2, 3, 4))
        with pytest.raises(ValueError):
            Constant(T.vector(T.I64, 4), (1, 2, 3))

    def test_vector_constant_masks_lanes(self):
        c = Constant(T.vector(T.I8, 4), (300, -1, 0, 5))
        assert c.value == (44, 255, 0, 5)

    def test_splat(self):
        c = const_splat(const_int(7), 4)
        assert c.type == T.vector(T.I64, 4)
        assert c.value == (7, 7, 7, 7)

    def test_equality_and_hash(self):
        assert const_int(5) == const_int(5)
        assert const_int(5) != const_int(6)
        assert const_int(5, T.I32) != const_int(5, T.I64)
        assert len({const_int(5), const_int(5), const_int(6)}) == 2

    def test_ref_text(self):
        assert const_int(42).ref() == "42"
        assert const_float(2.5).ref() == "2.5"
        v = Constant(T.vector(T.I64, 2), (1, 2))
        assert v.ref() == "<i64 1, i64 2>"

    def test_pointer_constant(self):
        c = Constant(T.PTR, 0x1000)
        assert c.value == 0x1000

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            Constant(T.VOID, 0)


class TestUndef:
    def test_undef_ref(self):
        u = UndefValue(T.I64)
        assert u.ref() == "undef"
        assert u.type == T.I64


class TestGlobals:
    def test_global_is_pointer_valued(self):
        g = GlobalVariable("g", T.ArrayType(T.I64, 4))
        assert g.type == T.PTR
        assert g.content_type == T.ArrayType(T.I64, 4)
        assert g.ref() == "@g"

    def test_global_initializer_kept(self):
        g = GlobalVariable("g", T.I64, initializer=42)
        assert g.initializer == 42
