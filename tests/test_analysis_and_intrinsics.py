"""Tests for the analysis helpers, intrinsic declarations, and the
Experiment container."""

import pytest

from repro.analysis import arithmetic_mean, fmt, geometric_mean, render_table
from repro.analysis.inspect import inspect_function
from repro.analysis.vulnerability import CHECKER_EXPOSED, classify_site
from repro.cpu import intrinsics as intr
from repro.cpu.interpreter import _is_checker_site
from repro.harness.base import Experiment
from repro.ir import IRBuilder, Module
from repro.ir import types as T
from repro.ir.values import UndefValue

V4I64 = T.vector(T.I64, 4)

#: Every intrinsic family ``repro.cpu.intrinsics`` declares, and whether
#: it is hardening machinery (a checker site).
CHECKER_RULE = {
    "elzar.check": (lambda m: intr.elzar_check(m, V4I64), True),
    "elzar.check.f64": (
        lambda m: intr.elzar_check(m, T.vector(T.F64, 4)), True),
    "elzar.check_dmr": (
        lambda m: intr.elzar_check_dmr(m, T.vector(T.I64, 2)), True),
    "elzar.branch_cond": (lambda m: intr.elzar_branch_cond(m, 4), True),
    "elzar.branch_cond_dmr": (
        lambda m: intr.elzar_branch_cond_dmr(m, 2), True),
    "elzar.branch_cond_nocheck": (
        lambda m: intr.elzar_branch_cond(m, 4, checked=False), True),
    "tmr.vote": (lambda m: intr.tmr_vote(m, T.I64), True),
    "tmr.vote.f64": (lambda m: intr.tmr_vote(m, T.F64), True),
    "swift.check": (lambda m: intr.swift_check(m, T.I64), True),
    "rt.alloc": (intr.rt_alloc, False),
    "rt.print_i64": (intr.rt_print_i64, False),
    "rt.print_f64": (intr.rt_print_f64, False),
    "rt.abort": (intr.rt_abort, False),
    "host.sqrt": (lambda m: intr.host_unary(m, "sqrt"), False),
    "host.pow": (intr.host_pow, False),
}


class TestReport:
    def test_fmt(self):
        assert fmt(None) == "-"
        assert fmt(1.23456, 2) == "1.23"
        assert fmt(7) == "7"
        assert fmt("x") == "x"

    def test_render_table_alignment(self):
        text = render_table("T", ("a", "bb"), [(1, 2.5), (10, 3.25)])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        data_lines = [l for l in lines if "2.50" in l or "3.25" in l]
        assert len(data_lines) == 2
        widths = {len(l) for l in lines[1:]}
        assert len(widths) <= 2  # rules and rows align

    def test_means(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert geometric_mean([1.0, 4.0]) == 2.0
        assert arithmetic_mean([]) == 0.0
        assert geometric_mean([]) == 0.0


class TestExperiment:
    def make(self):
        return Experiment(
            id="figX", title="demo", headers=("name", "v"),
            rows=[("a", 1.0), ("b", 2.0)],
        )

    def test_render_contains_id(self):
        assert "[figX]" in self.make().render()

    def test_row_by_label(self):
        exp = self.make()
        assert exp.row_by_label("b")[1] == 2.0
        with pytest.raises(KeyError):
            exp.row_by_label("zzz")

    def test_column(self):
        assert self.make().column(1) == [1.0, 2.0]


class TestIntrinsics:
    def test_type_tags(self):
        assert intr.type_tag(T.I64) == "i64"
        assert intr.type_tag(T.F32) == "f32"
        assert intr.type_tag(T.PTR) == "p64"
        assert intr.type_tag(T.vector(T.I1, 4)) == "v4i1"
        assert intr.type_tag(T.vector(T.F64, 4)) == "v4f64"
        with pytest.raises(TypeError):
            intr.type_tag(T.VOID)

    def test_monomorphised_names(self):
        module = Module("m")
        check = intr.elzar_check(module, T.vector(T.I64, 4))
        assert check.name == "elzar.check.v4i64"
        assert check.is_intrinsic
        vote = intr.tmr_vote(module, T.F64)
        assert vote.name == "tmr.vote.f64"
        assert len(vote.ftype.params) == 3

    def test_declarations_cached(self):
        module = Module("m")
        a = intr.elzar_check(module, T.vector(T.I64, 4))
        b = intr.elzar_check(module, T.vector(T.I64, 4))
        assert a is b

    def test_branch_cond_variants(self):
        module = Module("m")
        checked = intr.elzar_branch_cond(module, 4, checked=True)
        nocheck = intr.elzar_branch_cond(module, 4, checked=False)
        assert checked.name != nocheck.name
        assert checked.ftype.ret == T.I1

    @pytest.mark.parametrize("family", CHECKER_RULE)
    def test_checker_rule_agrees_across_sites(self, family):
        """The one checker-site rule decides the CheckerFault stream
        (``_is_checker_site``), the vulnerability analysis's
        checker-exposed sites and inspection's check-call count."""
        declare, is_checker = CHECKER_RULE[family]
        module = Module("m")
        callee = declare(module)
        fn = module.add_function("f", T.FunctionType(T.VOID, ()))
        b = IRBuilder()
        b.position_at_end(fn.append_block("entry"))
        call = b.call(callee, [UndefValue(p) for p in callee.ftype.params])
        b.ret_void()
        assert intr.is_checker_intrinsic(callee.name) is is_checker
        assert _is_checker_site(call) is is_checker
        assert inspect_function(fn).check_calls == int(is_checker)
        site = classify_site(call, "elzar")
        if call.type == T.VOID:
            assert site is None and not is_checker
        else:
            assert (site.category == CHECKER_EXPOSED) is is_checker

    def test_conflicting_redeclaration_rejected(self):
        module = Module("m")
        module.declare_function("rt.alloc", T.FunctionType(T.PTR, (T.I64,)))
        with pytest.raises(TypeError):
            module.declare_function("rt.alloc", T.FunctionType(T.VOID, ()))


class TestExperimentExport:
    def make(self):
        return Experiment(
            id="figX", title="demo", headers=("name", "v"),
            rows=[("a", 1.0), ("b", None)],
        )

    def test_to_dict(self):
        d = self.make().to_dict()
        assert d["id"] == "figX"
        assert d["rows"][0] == {"name": "a", "v": 1.0}

    def test_to_csv(self):
        text = self.make().to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "name,v"
        assert lines[1] == "a,1.0"
        assert lines[2] == "b,"  # None -> empty cell

    def test_save(self, tmp_path):
        path = tmp_path / "fig.csv"
        self.make().save(path)
        assert path.read_text().startswith("name,v")

    def test_dict_is_json_serializable(self):
        import json

        json.dumps(self.make().to_dict())
