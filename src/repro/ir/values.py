"""Core value classes for the repro IR: constants, arguments, globals.

Every IR node that can appear as an operand is a :class:`Value` with a
``type`` and an optional ``name``. Instructions subclass Value in
:mod:`repro.ir.instructions`; functions in :mod:`repro.ir.function`.
"""

from __future__ import annotations

import math
import struct
from typing import Tuple, Union

from . import types as T


class Value:
    """Base of the IR value hierarchy."""

    def __init__(self, ty: T.Type, name: str = ""):
        self.type = ty
        self.name = name

    def ref(self) -> str:
        """The textual reference used when this value appears as an operand."""
        return f"%{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.type} {self.ref()}>"


class Constant(Value):
    """An immediate constant: int, float, or a vector of those.

    ``value`` is a Python int/float for scalars and a tuple for vector
    constants. Integer constants are stored in their *unsigned*
    width-masked representation; helpers on the interpreter side
    convert to signed views where needed.
    """

    def __init__(self, ty: T.Type, value: Union[int, float, Tuple]):
        super().__init__(ty)
        if ty.is_vector:
            value = tuple(_normalize_scalar(ty.elem, v) for v in value)
            if len(value) != ty.count:
                raise ValueError(
                    f"vector constant arity {len(value)} != type arity {ty.count}"
                )
        else:
            value = _normalize_scalar(ty, value)
        self.value = value

    def ref(self) -> str:
        if self.type.is_vector:
            elems = ", ".join(
                f"{self.type.elem} {_scalar_text(self.type.elem, v)}"
                for v in self.value
            )
            return f"<{elems}>"
        return _scalar_text(self.type, self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and self.type == other.type
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))


def round_f32(value: float) -> float:
    """``value`` rounded to the nearest binary32, as a Python float;
    values beyond binary32's range become +/-inf."""
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _normalize_scalar(ty: T.Type, value: Union[int, float]) -> Union[int, float]:
    if ty.is_int:
        return int(value) & ((1 << ty.width) - 1)
    if ty.is_float:
        return round_f32(value) if ty.bits == 32 else float(value)
    if ty.is_pointer:
        return int(value) & ((1 << 64) - 1)
    raise TypeError(f"cannot build constant of type {ty}")


def _scalar_text(ty: T.Type, value: Union[int, float]) -> str:
    if ty.is_float:
        return repr(float(value))
    return str(value)


class UndefValue(Value):
    """An undefined value (used for padding shuffle masks, etc.)."""

    def ref(self) -> str:
        return "undef"


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, ty: T.Type, name: str, index: int, parent=None):
        super().__init__(ty, name)
        self.index = index
        self.parent = parent


class GlobalVariable(Value):
    """A module-level variable; its value is a pointer to the storage.

    ``initializer`` is either None (zero-initialized), a bytes object,
    a list of scalar constants matching ``content_type``, or a numpy
    array (converted at layout time by the machine's memory manager).
    """

    def __init__(self, name: str, content_type: T.Type, initializer=None,
                 constant: bool = False):
        super().__init__(T.PTR, name)
        self.content_type = content_type
        self.initializer = initializer
        self.constant = constant

    def ref(self) -> str:
        return f"@{self.name}"


def const_int(value: int, ty: T.Type = T.I64) -> Constant:
    return Constant(ty, value)


def const_float(value: float, ty: T.Type = T.F64) -> Constant:
    return Constant(ty, value)


def const_splat(scalar: Constant, count: int) -> Constant:
    """Vector constant with ``count`` copies of ``scalar``."""
    return Constant(T.vector(scalar.type, count), (scalar.value,) * count)


def const_bool(value: bool) -> Constant:
    return Constant(T.I1, 1 if value else 0)
