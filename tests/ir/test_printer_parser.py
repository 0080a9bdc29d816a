"""Round-trip tests for the textual IR form."""

import pytest

from repro.ir import (
    IRBuilder,
    Module,
    ParseError,
    format_module,
    parse_module,
    verify_module,
)
from repro.ir import types as T

from ..conftest import make_function


def roundtrip(module: Module) -> Module:
    text = format_module(module)
    parsed = parse_module(text)
    assert format_module(parsed) == text
    return parsed


class TestRoundTrip:
    def test_arithmetic_function(self):
        module = Module("arith")
        fn, b = make_function(module, "f", T.I64, [T.I64, T.I64], ["a", "c"])
        x = b.add(fn.args[0], fn.args[1])
        y = b.mul(x, b.i64(3))
        z = b.xor(y, b.i64(255))
        b.ret(z)
        parsed = roundtrip(module)
        verify_module(parsed)

    def test_control_flow_and_phi(self):
        module = Module("cf")
        fn, b = make_function(module, "f", T.I64, [T.I64])
        loop = b.begin_loop(b.i64(0), fn.args[0])
        acc = b.loop_phi(loop, b.i64(0))
        b.set_loop_next(loop, acc, b.add(acc, loop.index))
        b.end_loop(loop)
        b.ret(acc)
        verify_module(roundtrip(module))

    def test_memory_ops(self):
        module = Module("mem")
        module.add_global("g", T.ArrayType(T.I64, 8))
        fn, b = make_function(module, "f", T.I64, [])
        g = module.get_global("g")
        p = b.gep(T.I64, g, b.i64(3))
        b.store(b.i64(9), p)
        slot = b.alloca(T.I64, 2)
        b.store(b.i64(1), slot)
        b.ret(b.load(T.I64, p))
        verify_module(roundtrip(module))

    def test_calls_and_declarations(self):
        module = Module("calls")
        callee = module.declare_function(
            "rt.print_i64", T.FunctionType(T.VOID, (T.I64,))
        )
        fn, b = make_function(module, "f", T.VOID, [T.I64])
        b.call(callee, [fn.args[0]])
        b.ret_void()
        verify_module(roundtrip(module))

    def test_forward_function_reference(self):
        text = """
define i64 @caller(i64 %x) {
entry:
  %r = call i64 @callee(i64 %x)
  ret i64 %r
}

define i64 @callee(i64 %x) {
entry:
  ret i64 %x
}
"""
        module = parse_module(text)
        verify_module(module)
        assert module.get_function("caller").is_declaration is False

    def test_vector_ops(self):
        module = Module("vec")
        v4 = T.vector(T.I64, 4)
        fn, b = make_function(module, "f", T.I64, [T.I64])
        v = b.broadcast(fn.args[0], 4)
        w = b.add(v, b.add(v, v))
        s = b.shufflevector(w, w, (1, 0, 3, 2))
        x = b.xor(s, w)
        e = b.extractelement(x, b.i64(0))
        ins = b.insertelement(x, e, b.i64(1))
        b.ret(b.extractelement(ins, b.i64(1)))
        verify_module(roundtrip(module))

    def test_casts_select_fcmp(self):
        module = Module("misc")
        fn, b = make_function(module, "double", T.F64, [T.I64])
        f = b.sitofp(fn.args[0], T.F64)
        c = b.fcmp("olt", f, b.f64(0.0))
        r = b.select(c, b.fsub(b.f64(0.0), f), f)
        b.ret(r)
        verify_module(roundtrip(module))

    def test_float_constants_roundtrip(self):
        module = Module("floats")
        fn, b = make_function(module, "f", T.F64, [])
        b.ret(b.fadd(b.f64(1.5e-7), b.f64(-2.25)))
        parsed = roundtrip(module)
        ret = parsed.get_function("f").entry.instructions[-1]
        # value survives exactly (repr round-trip)
        add = parsed.get_function("f").entry.instructions[0]
        assert add.lhs.value == 1.5e-7
        assert add.rhs.value == -2.25


class TestParserErrors:
    def test_unknown_opcode(self):
        with pytest.raises(ParseError):
            parse_module(
                "define void @f() {\nentry:\n  frobnicate i64 1\n}"
            )

    def test_undefined_value(self):
        with pytest.raises(ParseError):
            parse_module(
                "define i64 @f() {\nentry:\n  ret i64 %nope\n}"
            )

    def test_unknown_block(self):
        with pytest.raises(ParseError):
            parse_module(
                "define void @f() {\nentry:\n  br label %missing\n}"
            )

    def test_missing_brace(self):
        with pytest.raises(ParseError):
            parse_module("define void @f() {\nentry:\n  ret void\n")

    @pytest.mark.parametrize("attr", [
        "hardened()", "hardened(1x)", "hardened(a b)", "hardened", "junk",
    ])
    def test_malformed_hardening_scheme(self, attr):
        with pytest.raises(ParseError):
            parse_module(f"define void @f() {attr} {{\nentry:\n  ret void\n}}")

    def test_hardening_scheme_round_trips(self):
        text = "define void @f() hardened(elzar-float) {\nentry:\n  ret void\n}"
        assert parse_module(text).get_function("f").hardened == "elzar-float"

    def test_type_mismatch_on_forward_ref(self):
        text = """
define i64 @f(i64 %a) {
entry:
  br label %next
next:
  %x = add i64 %later, 1
  %later = add i32 0, 0
  ret i64 %x
}
"""
        with pytest.raises(ParseError):
            parse_module(text)

    def test_module_name_comment(self):
        module = parse_module("; module fancy\ndefine void @f() {\nentry:\n  ret void\n}")
        assert module.name == "fancy"
