"""Flat simulated memory.

A single address space with two bump-allocated regions:

- the *heap* (globals + ``rt.alloc``), growing up from ``HEAP_BASE``;
- the *stack* (allocas), growing up from ``STACK_BASE`` with LIFO
  save/restore around function calls.

Each region is backed by a grow-only arena: a fresh ``Memory`` holds
no bytes, and ``alloc``/``stack_alloc`` zero-extend the bytearray in
place (amortised doubling, capped at the capacity) so it always covers
everything below the region's top. A machine thus pays only for the
memory its program uses. ``heap_capacity``/``stack_capacity`` are
limits, not sizes: an allocation past one raises ``MemoryError``.
Arenas never shrink, so bytes a released stack frame wrote stay
visible to a later ``alloca``, as on a real stack. The engines read
``_heap``/``_stack`` by attribute on every access, so growth must stay
in place and no memoryview may be held across it.

Addresses below ``HEAP_BASE`` are never mapped, so small corrupted
pointers fault like a null-page access would. The memory subsystem is
assumed ECC-protected (paper §III-A): the fault injector never flips
bits here.

Scalars are stored little-endian; integers in unsigned width-masked
form; floats as IEEE-754.
"""

from __future__ import annotations

import struct
from typing import Union

from ..ir import types as T
from .errors import MemoryFault

HEAP_BASE = 0x1000
STACK_BASE = 0x40000000  # 1 GiB mark; heap may grow until here

_FLOAT_FMT = {32: "<f", 64: "<d"}
_UINT_CODE = {1: "B", 2: "H", 4: "I", 8: "Q"}  # struct codes by byte size


class Memory:
    def __init__(self, heap_capacity: int = 64 << 20, stack_capacity: int = 8 << 20):
        self.heap_capacity = heap_capacity
        self.stack_capacity = stack_capacity
        self._heap = bytearray()
        self._stack = bytearray()
        self.heap_top = HEAP_BASE
        self.stack_top = STACK_BASE

    # Allocation ---------------------------------------------------------------

    def alloc(self, size: int, align: int = 8) -> int:
        """Heap allocation (globals, rt.alloc). Never freed."""
        if size < 0:
            raise ValueError("negative allocation")
        addr = _align_up(self.heap_top, align)
        if addr + size - HEAP_BASE > self.heap_capacity:
            raise MemoryError(
                f"simulated heap exhausted ({self.heap_capacity} bytes)"
            )
        self.heap_top = addr + size
        if self.heap_top - HEAP_BASE > len(self._heap):
            _grow(self._heap, self.heap_top - HEAP_BASE, self.heap_capacity)
        return addr

    def stack_alloc(self, size: int, align: int = 8) -> int:
        addr = _align_up(self.stack_top, align)
        if addr + size - STACK_BASE > self.stack_capacity:
            raise MemoryError(
                f"simulated stack exhausted ({self.stack_capacity} bytes)"
            )
        self.stack_top = addr + size
        if self.stack_top - STACK_BASE > len(self._stack):
            _grow(self._stack, self.stack_top - STACK_BASE, self.stack_capacity)
        return addr

    def stack_mark(self) -> int:
        return self.stack_top

    def stack_release(self, mark: int) -> None:
        self.stack_top = mark

    # Memory image ---------------------------------------------------------------

    def image(self) -> tuple:
        """``(heap, heap_top, stack, stack_top)``: copies of the used
        prefixes of both regions plus their tops."""
        return (bytes(memoryview(self._heap)[:self.heap_top - HEAP_BASE]),
                self.heap_top,
                bytes(memoryview(self._stack)[:self.stack_top - STACK_BASE]),
                self.stack_top)

    def load_image(self, heap: bytes, heap_top: int,
                   stack: bytes, stack_top: int) -> None:
        """Put back an :meth:`image`. Bytes between the image's top and
        the current one are re-zeroed, so memory used after the image
        was taken reads as zero again; an arena shorter than the image
        grows in place to fit it."""
        _load(self._heap, heap, self.heap_top - HEAP_BASE)
        _load(self._stack, stack, self.stack_top - STACK_BASE)
        self.heap_top = heap_top
        self.stack_top = stack_top

    # Raw access ----------------------------------------------------------------

    def _locate(self, addr: int, size: int, write: bool) -> tuple:
        """Return (buffer, offset) for a mapped range, or fault."""
        if HEAP_BASE <= addr and addr + size <= self.heap_top:
            return self._heap, addr - HEAP_BASE
        if STACK_BASE <= addr and addr + size <= self.stack_top:
            return self._stack, addr - STACK_BASE
        raise MemoryFault(addr, size, write)

    def read_bytes(self, addr: int, size: int) -> bytes:
        buf, off = self._locate(addr, size, write=False)
        return bytes(buf[off:off + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        buf, off = self._locate(addr, len(data), write=True)
        buf[off:off + len(data)] = data

    # Typed access -----------------------------------------------------------------

    def load_scalar(self, ty: T.Type, addr: int) -> Union[int, float]:
        size = T.sizeof(ty)
        raw = self.read_bytes(addr, size)
        if ty.is_float:
            return struct.unpack(_FLOAT_FMT[ty.bits], raw)[0]
        value = int.from_bytes(raw, "little")
        if ty.is_int and ty.width % 8 != 0:
            value &= (1 << ty.width) - 1
        return value

    def store_scalar(self, ty: T.Type, addr: int, value: Union[int, float]) -> None:
        size = T.sizeof(ty)
        if ty.is_float:
            raw = struct.pack(_FLOAT_FMT[ty.bits], value)
        else:
            mask = (1 << (size * 8)) - 1
            raw = (int(value) & mask).to_bytes(size, "little")
        self.write_bytes(addr, raw)

    def load_value(self, ty: T.Type, addr: int):
        """Load a scalar or a contiguous vector."""
        if ty.is_vector:
            esize = T.sizeof(ty.elem)
            return tuple(
                self.load_scalar(ty.elem, addr + i * esize)
                for i in range(ty.count)
            )
        return self.load_scalar(ty, addr)

    def store_value(self, ty: T.Type, addr: int, value) -> None:
        if ty.is_vector:
            esize = T.sizeof(ty.elem)
            for i, v in enumerate(value):
                self.store_scalar(ty.elem, addr + i * esize, v)
            return
        self.store_scalar(ty, addr, value)

    # Bulk initialization ------------------------------------------------------------

    def init_global(self, content_type: T.Type, initializer) -> int:
        """Allocate and initialize storage for a global; returns address."""
        size = T.sizeof(content_type)
        addr = self.alloc(size, align=16)
        if initializer is None:
            return addr
        if isinstance(initializer, (bytes, bytearray)):
            if len(initializer) > size:
                raise ValueError("initializer larger than global")
            self.write_bytes(addr, bytes(initializer))
            return addr
        # Sequence of scalars for an array type.
        if content_type.is_array:
            values = list(initializer)
            if len(values) > content_type.count:
                raise ValueError("initializer larger than array global")
            self.write_bytes(addr, pack_array(content_type.elem, values))
            return addr
        self.store_scalar(content_type, addr, initializer)
        return addr


def pack_array(elem: T.Type, values) -> bytes:
    """Encode ``values`` as consecutive ``elem`` scalars, byte-identical
    to one :meth:`Memory.store_scalar` per element (same masking, same
    IEEE-754 encoding, same errors) but in one ``struct.pack`` call."""
    n = len(values)
    if elem.is_float:
        return struct.pack(f"<{n}{_FLOAT_FMT[elem.bits][1]}", *values)
    size = T.sizeof(elem)
    mask = (1 << (size * 8)) - 1
    code = _UINT_CODE.get(size)
    if code is None:
        return b"".join((int(v) & mask).to_bytes(size, "little")
                        for v in values)
    return struct.pack(f"<{n}{code}", *[int(v) & mask for v in values])


def _grow(buf: bytearray, need: int, capacity: int) -> None:
    """Zero-extend ``buf`` in place to at least ``need`` (<= ``capacity``)
    bytes, doubling its length but not past ``capacity``."""
    buf.extend(bytes(max(need, min(capacity, 2 * len(buf))) - len(buf)))


def _load(buf: bytearray, data: bytes, cur: int) -> None:
    used = len(data)
    buf[:used] = data  # in place; a shorter arena grows to ``used``
    if cur > used:
        buf[used:cur] = bytes(cur - used)


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)
