"""Intrinsic declarations shared by passes, workloads, and the machine.

Intrinsic families (their semantics: ``repro.cpu.interpreter.intrinsic_impl``,
which both execution engines run):

- ``rt.*``    — runtime services: heap allocation, output, abort.
- ``host.*``  — host-math helpers (used by *unhardened* reference code
  and tests; the hardened workloads use the IR libm instead).
- ``elzar.*`` — ELZAR check/branch/recovery operations (paper Fig. 8/9).
- ``tmr.*``   — SWIFT-R majority voting.
- ``swift.*`` — SWIFT DMR fail-stop checks.

Type-polymorphic intrinsics are monomorphised by mangling the type into
the name (e.g. ``elzar.check.v4i64``), keeping the IR strictly typed.
"""

from __future__ import annotations

from ..ir import types as T
from ..ir.function import Function
from ..ir.module import Module


#: Name prefixes of the hardening-inserted check/vote/branch-sync
#: intrinsics: every ``elzar.*`` family, ``tmr.vote.*`` and
#: ``swift.check.*``.
_CHECKER_PREFIXES = ("elzar.", "tmr.vote.", "swift.check.")


def is_checker_intrinsic(name: str) -> bool:
    """True for the hardening machinery's check/vote/sync intrinsics:
    the call sites of the CheckerFault stream, the ``checker-exposed``
    sites of the vulnerability analysis and the check calls counted by
    module inspection. ``rt.*`` and ``host.*`` are not."""
    return name.startswith(_CHECKER_PREFIXES)


def type_tag(ty: T.Type) -> str:
    if ty.is_vector:
        return f"v{ty.count}{type_tag(ty.elem)}"
    if ty.is_int:
        return f"i{ty.width}"
    if ty.is_float:
        return "f32" if ty.bits == 32 else "f64"
    if ty.is_pointer:
        return "p64"
    raise TypeError(f"no tag for type {ty}")


def declare(module: Module, name: str, ret: T.Type, params) -> Function:
    return module.declare_function(name, T.FunctionType(ret, tuple(params)))


# --- Runtime services --------------------------------------------------------


def rt_alloc(module: Module) -> Function:
    return declare(module, "rt.alloc", T.PTR, [T.I64])


def rt_print_i64(module: Module) -> Function:
    return declare(module, "rt.print_i64", T.VOID, [T.I64])


def rt_print_f64(module: Module) -> Function:
    return declare(module, "rt.print_f64", T.VOID, [T.F64])


def rt_abort(module: Module) -> Function:
    return declare(module, "rt.abort", T.VOID, [])


def host_unary(module: Module, op: str) -> Function:
    """f64 -> f64 host math (sqrt, exp, log, sin, cos, erf, fabs, floor)."""
    return declare(module, f"host.{op}", T.F64, [T.F64])


def host_pow(module: Module) -> Function:
    return declare(module, "host.pow", T.F64, [T.F64, T.F64])


# --- Hardening intrinsics ------------------------------------------------------


def elzar_check(module: Module, vec_ty: T.VectorType) -> Function:
    """Check-and-recover on a replicated value (shuffle-xor-ptest fast
    path, majority-vote slow path). Returns the corrected vector."""
    return declare(module, f"elzar.check.{type_tag(vec_ty)}", vec_ty, [vec_ty])


def elzar_check_dmr(module: Module, vec_ty: T.VectorType) -> Function:
    """Detection-only check: fail-stop on any lane divergence (the
    DMR-style ablation of ELZAR; recovery would be delegated to an
    external mechanism such as HAFT's transaction rollback)."""
    return declare(
        module, f"elzar.check_dmr.{type_tag(vec_ty)}", vec_ty, [vec_ty]
    )


def elzar_branch_cond_dmr(module: Module, lanes: int) -> Function:
    """ptest branch collapse that fail-stops on a true/false mix."""
    vec_ty = T.vector(T.I1, lanes)
    return declare(
        module, f"elzar.branch_cond_dmr.{type_tag(vec_ty)}", T.I1, [vec_ty]
    )


def elzar_branch_cond(module: Module, lanes: int, checked: bool = True) -> Function:
    """Collapse a replicated i1 comparison result into a scalar branch
    condition via ptest (Fig. 7/9); the checked variant also detects and
    recovers true/false mixes."""
    vec_ty = T.vector(T.I1, lanes)
    name = "elzar.branch_cond" if checked else "elzar.branch_cond_nocheck"
    return declare(module, f"{name}.{type_tag(vec_ty)}", T.I1, [vec_ty])


def tmr_vote(module: Module, ty: T.Type) -> Function:
    """SWIFT-R 2-of-3 majority vote over scalar copies."""
    return declare(module, f"tmr.vote.{type_tag(ty)}", ty, [ty, ty, ty])


def swift_check(module: Module, ty: T.Type) -> Function:
    """SWIFT DMR comparison: fail-stop if the two copies diverge."""
    return declare(module, f"swift.check.{type_tag(ty)}", ty, [ty, ty])
