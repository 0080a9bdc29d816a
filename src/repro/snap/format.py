"""Version-tagged binary serialization for mid-run checkpoints.

A :class:`~repro.cpu.resumable.ResumeState` is process-local in two
ways: branch-predictor PCs are keyed by ``id(inst)``, and the machine
components (counters, cache, predictor, timing) are live Python
objects. This module flattens all of it into a self-contained byte
string that any process holding the same module build can restore:

* branch PCs are rewritten to stable instruction coordinates —
  ``(function name, block index)`` of the conditional-branch
  terminator — and mapped back onto the reader's decoded module;
* component objects are encoded as class-tagged state dictionaries
  over a closed value domain (no pickle: only the allowlisted classes
  in ``_CLASSES`` can be instantiated, via ``__new__`` + ``__dict__``);
* floats are stored as raw IEEE-754 bits (``<d``) so resumed timing
  and register values are bit-exact, never ``repr``-rounded.

The format is versioned (:data:`SNAP_VERSION` inside :data:`MAGIC`'d
header); readers reject unknown versions and truncated payloads with
:class:`SnapFormatError`, which stores treat as a cache miss.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Dict, List, Tuple

from ..avx.costs import CostModel
from ..cpu.branch_predictor import GSharePredictor
from ..cpu.cache import Cache, CacheHierarchy, StreamPrefetcher
from ..cpu.counters import PerfCounters
from ..cpu.resumable import FrameState, ResumeState
from ..cpu.timing import TimingModel

MAGIC = b"RSNP"
SNAP_VERSION = 1

_F64 = struct.Struct("<d")


class SnapFormatError(ValueError):
    """Raised for wrong magic, unknown version, truncated or corrupt
    payloads, and values outside the closed domain."""


# Allowlisted component classes. Objects are restored with
# ``cls.__new__(cls)`` + ``__dict__.update`` — adding a class here is a
# statement that its state is plain data and its ``__init__`` has no
# side effects a checkpoint must replay.
_CLASSES = {
    "PerfCounters": PerfCounters,
    "CacheHierarchy": CacheHierarchy,
    "Cache": Cache,
    "StreamPrefetcher": StreamPrefetcher,
    "GSharePredictor": GSharePredictor,
    "TimingModel": TimingModel,
    "CostModel": CostModel,
}
_CLASS_NAMES = {cls: name for name, cls in _CLASSES.items()}

# Value tags.
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_BYTES = 6
_T_BYTEARRAY = 7
_T_TUPLE = 8
_T_LIST = 9
_T_DICT = 10
_T_DEQUE = 11
_T_OBJECT = 12


class _Writer:
    __slots__ = ("parts",)

    def __init__(self):
        self.parts: List[bytes] = []

    def u8(self, v: int) -> None:
        self.parts.append(bytes((v,)))

    def varint(self, v: int) -> None:
        # Unsigned LEB128.
        out = bytearray()
        while True:
            b = v & 0x7F
            v >>= 7
            if v:
                out.append(b | 0x80)
            else:
                out.append(b)
                break
        self.parts.append(bytes(out))

    def svarint(self, v: int) -> None:
        # Zigzag for signed (arbitrary-precision) ints.
        self.varint((v << 1) ^ (v >> (v.bit_length() + 1)) if v < 0
                    else v << 1)

    def raw(self, data: bytes) -> None:
        self.varint(len(data))
        self.parts.append(bytes(data))

    def value(self, v) -> None:
        t = type(v)
        if v is None:
            self.u8(_T_NONE)
        elif t is bool:
            self.u8(_T_TRUE if v else _T_FALSE)
        elif t is int:
            self.u8(_T_INT)
            self.svarint(v)
        elif t is float:
            self.u8(_T_FLOAT)
            self.parts.append(_F64.pack(v))
        elif t is str:
            self.u8(_T_STR)
            self.raw(v.encode("utf-8"))
        elif t is bytes:
            self.u8(_T_BYTES)
            self.raw(v)
        elif t is bytearray:
            self.u8(_T_BYTEARRAY)
            self.raw(v)
        elif t is tuple:
            self.u8(_T_TUPLE)
            self.varint(len(v))
            for item in v:
                self.value(item)
        elif t is list:
            self.u8(_T_LIST)
            self.varint(len(v))
            for item in v:
                self.value(item)
        elif t is dict:
            self.u8(_T_DICT)
            self.varint(len(v))
            for k, item in v.items():
                self.value(k)
                self.value(item)
        elif t is deque:
            self.u8(_T_DEQUE)
            self.varint(len(v))
            for item in v:
                self.value(item)
        else:
            name = _CLASS_NAMES.get(t)
            if name is None:
                raise SnapFormatError(
                    f"cannot serialize {t.__module__}.{t.__qualname__}"
                )
            self.u8(_T_OBJECT)
            self.raw(name.encode("ascii"))
            state = v.__dict__
            self.varint(len(state))
            for k, item in state.items():
                self.raw(k.encode("utf-8"))
                self.value(item)

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def u8(self) -> int:
        pos = self.pos
        if pos >= len(self.data):
            raise SnapFormatError("truncated checkpoint payload")
        self.pos = pos + 1
        return self.data[pos]

    def varint(self) -> int:
        shift = 0
        out = 0
        while True:
            b = self.u8()
            out |= (b & 0x7F) << shift
            if not b & 0x80:
                return out
            shift += 7

    def svarint(self) -> int:
        z = self.varint()
        return (z >> 1) ^ -(z & 1)

    def raw(self) -> bytes:
        n = self.varint()
        pos = self.pos
        end = pos + n
        if end > len(self.data):
            raise SnapFormatError("truncated checkpoint payload")
        self.pos = end
        return self.data[pos:end]

    def value(self):
        tag = self.u8()
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            return self.svarint()
        if tag == _T_FLOAT:
            pos = self.pos
            end = pos + 8
            if end > len(self.data):
                raise SnapFormatError("truncated checkpoint payload")
            self.pos = end
            return _F64.unpack_from(self.data, pos)[0]
        if tag == _T_STR:
            return self.raw().decode("utf-8")
        if tag == _T_BYTES:
            return self.raw()
        if tag == _T_BYTEARRAY:
            return bytearray(self.raw())
        if tag == _T_TUPLE:
            return tuple(self.value() for _ in range(self.varint()))
        if tag == _T_LIST:
            return [self.value() for _ in range(self.varint())]
        if tag == _T_DICT:
            return {self.value(): self.value()
                    for _ in range(self.varint())}
        if tag == _T_DEQUE:
            return deque(self.value() for _ in range(self.varint()))
        if tag == _T_OBJECT:
            name = self.raw().decode("ascii")
            cls = _CLASSES.get(name)
            if cls is None:
                raise SnapFormatError(f"unknown checkpoint class {name!r}")
            obj = cls.__new__(cls)
            state = {}
            for _ in range(self.varint()):
                k = self.raw().decode("utf-8")
                state[k] = self.value()
            obj.__dict__.update(state)
            return obj
        raise SnapFormatError(f"unknown value tag {tag}")


def _condbr_coords(machine):
    """Stable coordinates for every conditional-branch terminator:
    ``id(inst) <-> (function name, block index)``. A block's branch is
    its first terminator (where decode ends the block), read off the
    IR, so no function is decoded for it, and memoized on the module
    like its golden runs (a checkpoint set reads many states). Both
    directions are deterministic functions of the module build, so PCs
    written by one process land on the same branches in another."""
    memo = machine.module._golden_cache
    coords = memo.get("condbr-coords")
    if coords is not None:
        return coords
    id2coord: Dict[int, Tuple[str, int]] = {}
    coord2id: Dict[Tuple[str, int], int] = {}
    for fn in machine.module.defined_functions():
        for bi, block in enumerate(fn.blocks):
            inst = next((i for i in block.instructions if i.is_terminator),
                        None)
            if (inst is not None and inst.opcode == "br"
                    and inst.is_conditional):
                id2coord[id(inst)] = (fn.name, bi)
                coord2id[(fn.name, bi)] = id(inst)
    coords = memo["condbr-coords"] = (id2coord, coord2id)
    return coords


def serialize_state(state: ResumeState, machine) -> bytes:
    """Flatten ``state`` to bytes. ``machine`` supplies the module
    build the coordinates are relative to (any machine configured like
    the one that will resume)."""
    id2coord, _ = _condbr_coords(machine)
    w = _Writer()
    w.parts.append(MAGIC)
    w.varint(SNAP_VERSION)
    w.raw(state.heap)
    w.raw(state.stack_mem)
    w.varint(state.heap_top)
    w.varint(state.stack_top)
    w.value(tuple(state.output))
    w.value(state.counters)
    w.value(state.cache)
    w.value(state.predictor)
    w.value(state.timing)
    pcs = []
    for key, pc in state.branch_pcs.items():
        coord = id2coord.get(key)
        if coord is None:
            raise SnapFormatError("branch PC outside the decoded module")
        pcs.append((coord[0], coord[1], pc))
    pcs.sort()
    w.value(pcs)
    w.varint(state.next_pc)
    w.varint(state.executed)
    w.varint(state.eligible)
    w.varint(state.checker_sites)
    w.varint(state.mem_accesses)
    w.varint(state.cond_branches)
    w.varint(len(state.frames))
    for fs in state.frames:
        w.raw(fs.fn.encode("utf-8"))
        w.varint(fs.block)
        w.varint(fs.i)
        w.value(fs.regs)
        w.value(fs.times)
        w.varint(fs.mark)
    return w.getvalue()


def deserialize_state(data: bytes, machine) -> ResumeState:
    """Inverse of :func:`serialize_state` against the reader's module
    build. Round-trips bit-exactly: resuming a deserialized state is
    indistinguishable from resuming the in-memory original."""
    if data[:4] != MAGIC:
        raise SnapFormatError("bad checkpoint magic")
    r = _Reader(data)
    r.pos = 4
    version = r.varint()
    if version != SNAP_VERSION:
        raise SnapFormatError(f"unsupported checkpoint version {version}")
    heap = r.raw()
    stack_mem = r.raw()
    heap_top = r.varint()
    stack_top = r.varint()
    output = r.value()
    counters = r.value()
    cache = r.value()
    predictor = r.value()
    timing = r.value()
    pcs = r.value()
    _, coord2id = _condbr_coords(machine)
    branch_pcs: Dict[int, int] = {}
    for fn_name, bi, pc in pcs:
        key = coord2id.get((fn_name, bi))
        if key is None:
            raise SnapFormatError(
                f"checkpoint branch @{fn_name}#{bi} not in this module"
            )
        branch_pcs[key] = pc
    next_pc = r.varint()
    executed = r.varint()
    eligible = r.varint()
    checker_sites = r.varint()
    mem_accesses = r.varint()
    cond_branches = r.varint()
    frames = []
    for _ in range(r.varint()):
        fn = r.raw().decode("utf-8")
        block = r.varint()
        i = r.varint()
        regs = r.value()
        times = r.value()
        mark = r.varint()
        frames.append(FrameState(fn=fn, block=block, i=i, regs=regs,
                                 times=times, mark=mark))
    return ResumeState(
        heap=heap,
        stack_mem=stack_mem,
        heap_top=heap_top,
        stack_top=stack_top,
        output=output,
        counters=counters,
        cache=cache,
        predictor=predictor,
        timing=timing,
        branch_pcs=branch_pcs,
        next_pc=next_pc,
        executed=executed,
        eligible=eligible,
        checker_sites=checker_sites,
        mem_accesses=mem_accesses,
        cond_branches=cond_branches,
        frames=tuple(frames),
    )
