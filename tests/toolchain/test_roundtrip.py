"""Printer→parser→printer is a fixed point for every artifact the
toolchain can store (satellite check from the issue).

This is the correctness precondition of the artifact cache: a stored
module is its printed text, so the text must determine the module and
the reprint must be byte-identical (otherwise digests — cell keys,
cluster handshakes — would depend on whether a module was rehydrated).
The sweep covers every registry workload × every registry variant at
smoke scale, plus the cells the end-to-end benchmark builds at fi and
perf scale, which also exercises the printer's collision-safe naming
(the micro_branches builders reuse value names; hardened parsed
modules restart the %tN counter)."""

import pytest

from repro.ir.parser import parse_module
from repro.ir.printer import format_module
from repro.ir.verifier import verify_module
from repro.toolchain import ArtifactCache, Toolchain, VARIANTS
from repro.workloads.registry import ALL


@pytest.fixture(scope="module")
def toolchain():
    # No artifact cache: every cell is built fresh, so the check is
    # print(parse(T)) == T for the printed form of the pipeline's own
    # output, never of a module that was itself parsed from a cache.
    return Toolchain(cache=ArtifactCache.disabled())


def _assert_fixed_point(module, cell):
    text = format_module(module)
    reparsed = parse_module(text)
    verify_module(reparsed)
    assert format_module(reparsed) == text, cell


@pytest.mark.parametrize("workload", sorted(ALL))
def test_print_parse_print_fixed_point(toolchain, workload):
    for variant in VARIANTS:
        _assert_fixed_point(toolchain.module(workload, "test", variant),
                            (workload, variant))


#: The cells the end-to-end benchmark builds above test scale: the
#: Figure-13 campaign grid (fi) and the performance-figure runs (perf).
#: Artifacts are trusted without a re-print, so the fixed point must
#: hold at these scales too.
BENCHMARK_CELLS = (
    [("fi", b, v) for b in ("histogram", "dedup", "blackscholes")
     for v in ("native", "elzar")]
    + [("perf", b, v) for b in ("histogram", "linear_regression",
                                "blackscholes", "dedup")
       for v in ("native", "elzar")]
    + [("perf", "blackscholes", v)
       for v in ("swiftr", "elzar_proposed", "elzar_nochecks")]
)


@pytest.mark.parametrize("scale,workload,variant", BENCHMARK_CELLS)
def test_fixed_point_at_benchmark_scales(toolchain, scale, workload,
                                         variant):
    _assert_fixed_point(toolchain.module(workload, scale, variant),
                        (workload, scale, variant))


def test_duplicate_value_names_print_unambiguously():
    """The regression behind the sweep: two in-memory values may share
    a name (by-identity references keep the IR unambiguous), but the
    printed text must rename the duplicate or it parses back wrong."""
    from repro.ir import IRBuilder, Module
    from repro.ir import types as T

    module = Module("dup")
    fn = module.add_function(
        "f", T.FunctionType(T.I64, (T.I64,)), ["x"])
    builder = IRBuilder()
    entry = fn.append_block("entry")
    builder.position_at_end(entry)
    first = builder.add(fn.args[0], fn.args[0], name="same")
    second = builder.add(first, fn.args[0], name="same")
    builder.ret(second)

    text = format_module(module)
    reparsed = parse_module(text)
    verify_module(reparsed)
    assert format_module(reparsed) == text
    # The second def was renamed; the ret references it, not the first.
    body = text.splitlines()
    assert any("same.r2 = " in line for line in body)
    assert any("ret i64 %same.r2" in line for line in body)
