"""Version-tagged binary serialization for mid-run checkpoints.

A :class:`~repro.cpu.resumable.ResumeState` is process-local in two
ways: branch-predictor PCs are keyed by ``id(inst)``, and the machine
components (counters, cache, predictor, timing) are live Python
objects. This module flattens all of it into a self-contained byte
string that any process holding the same module build can restore:

* branch PCs are rewritten to stable instruction coordinates —
  ``(function name, block index)`` of the conditional-branch
  terminator — and mapped back onto the reader's decoded module;
* every value becomes a plain tree (None, bool, int, float, str,
  bytes, tuple, list, dict) that the interpreter's ``marshal`` writes
  (:func:`encode_value`). Component objects and bytearrays become
  tagged nodes ``(..., name, payload)``: no data value is an
  ``Ellipsis``, so a node is never mistaken for a data tuple. Objects
  are rebuilt only from the allowlisted classes in ``_CLASSES``, via
  ``__new__`` + ``__dict__`` (no pickle), and any other type in a
  payload — a code object, set, complex — is rejected;
* marshal stores floats as raw IEEE-754 bits, so resumed timing and
  register values are bit-exact, never ``repr``-rounded.

The format is versioned (:data:`SNAP_VERSION` after the :data:`MAGIC`);
readers reject unknown versions, truncated or non-canonical payloads
and foreign types with :class:`SnapFormatError`, which the cache
treats as an invalid miss.
"""

from __future__ import annotations

import marshal
from typing import Dict, Tuple

from ..avx.costs import CostModel
from ..cpu.branch_predictor import GSharePredictor
from ..cpu.cache import Cache, CacheHierarchy, StreamPrefetcher
from ..cpu.counters import PerfCounters
from ..cpu.resumable import FrameState, ResumeState
from ..cpu.timing import TimingModel

MAGIC = b"RSNP"
SNAP_VERSION = 2

#: The marshal format of every encoded value. Version 2 writes each
#: value in full; versions 3 and 4 flag shared references by refcount,
#: so equal trees built from distinct objects (a cold capture and a
#: rehydrated one) would encode to different bytes.
MARSHAL_VERSION = 2

#: A state blob's head: the magic and the format version in one byte.
_HEADER = MAGIC + bytes((SNAP_VERSION,))


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

#: The leaf types of a tree; marshal writes and reads them as they are.
_SCALARS = frozenset((type(None), bool, int, float, str, bytes))


def _flatten(v):
    """``v`` as a plain tree: objects and bytearrays as tagged nodes.
    Containers of scalars are passed through as they are."""
    t = type(v)
    if t in _SCALARS:
        return v
    if t is tuple or t is list:
        if _SCALARS.issuperset(map(type, v)):
            return v
        items = [_flatten(item) for item in v]
        return tuple(items) if t is tuple else items
    if t is dict:
        if (_SCALARS.issuperset(map(type, v))
                and _SCALARS.issuperset(map(type, v.values()))):
            return v
        return {_flatten(k): _flatten(item) for k, item in v.items()}
    if t is bytearray:
        return (..., "bytearray", bytes(v))
    name = _CLASS_NAMES.get(t)
    if name is None:
        raise SnapFormatError(
            f"cannot serialize {t.__module__}.{t.__qualname__}")
    return (..., name, _flatten(v.__dict__))


def _rebuild(v):
    """Inverse of :func:`_flatten` over a freshly loaded tree (whose
    lists it may fill in place); raises :class:`SnapFormatError` on any
    type outside the closed domain."""
    t = type(v)
    if t in _SCALARS:
        return v
    if t is list:
        if not _SCALARS.issuperset(map(type, v)):
            v[:] = map(_rebuild, v)
        return v
    if t is tuple:
        if v and v[0] is ...:
            return _node(v)
        if _SCALARS.issuperset(map(type, v)):
            return v
        return tuple(map(_rebuild, v))
    if t is dict:
        if (_SCALARS.issuperset(map(type, v))
                and _SCALARS.issuperset(map(type, v.values()))):
            return v
        return {_rebuild(k): _rebuild(item) for k, item in v.items()}
    raise SnapFormatError(f"foreign value type {t.__name__!r}")


def _node(v):
    """The bytearray or allowlisted object of a tagged node."""
    if len(v) != 3 or type(v[1]) is not str:
        raise SnapFormatError("malformed value node")
    _, name, payload = v
    if name == "bytearray" and type(payload) is bytes:
        return bytearray(payload)
    cls = _CLASSES.get(name)
    if cls is None:
        raise SnapFormatError(f"unknown checkpoint class {name!r}")
    if type(payload) is not dict or not all(type(k) is str for k in payload):
        raise SnapFormatError(f"malformed {name} state")
    obj = cls.__new__(cls)
    obj.__dict__.update(_rebuild(payload))
    return obj


def encode_value(value) -> bytes:
    """``value`` (from the closed domain) as a marshalled plain tree."""
    return marshal.dumps(_flatten(value), MARSHAL_VERSION)


def decode_value(data: bytes, start: int = 0):
    """Inverse of :func:`encode_value` over ``data[start:]``, read in
    place (no copy of the payload). Raises :class:`SnapFormatError`
    on any marshal error, on bytes that are not the canonical encoding
    of what they decode to (a truncated payload, trailing bytes), and on
    a type outside the closed domain."""
    try:
        tree = marshal.loads(memoryview(data)[start:])
        dumped = marshal.dumps(tree, MARSHAL_VERSION)
        if (len(dumped) != len(data) - start
                or not data.startswith(dumped, start)):
            raise SnapFormatError("not the canonical encoding")
        return _rebuild(tree)
    except (EOFError, ValueError, TypeError) as exc:
        raise SnapFormatError(f"malformed encoded value: {exc}") from exc


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
    pcs = []
    for key, pc in state.branch_pcs.items():
        coord = id2coord.get(key)
        if coord is None:
            raise SnapFormatError("branch PC outside the decoded module")
        pcs.append((coord[0], coord[1], pc))
    pcs.sort()
    return _HEADER + encode_value((
        state.heap, state.stack_mem, state.heap_top, state.stack_top,
        tuple(state.output), state.counters, state.cache, state.predictor,
        state.timing, pcs, state.next_pc, state.executed, state.eligible,
        state.checker_sites, state.mem_accesses, state.cond_branches,
        tuple((fs.fn, fs.block, fs.i, fs.regs, fs.times, fs.mark)
              for fs in state.frames),
    ))


def deserialize_state(data: bytes, machine) -> ResumeState:
    """Inverse of :func:`serialize_state` against the reader's module
    build. Round-trips bit-exactly: resuming a deserialized state is
    indistinguishable from resuming the in-memory original."""
    if data[:4] != MAGIC:
        raise SnapFormatError("bad checkpoint magic")
    version = data[4] if len(data) > 4 else None
    if version != SNAP_VERSION:
        raise SnapFormatError(f"unsupported checkpoint version {version}")
    value = decode_value(data, 5)
    _, coord2id = _condbr_coords(machine)
    try:
        (heap, stack_mem, heap_top, stack_top, output, counters, cache,
         predictor, timing, pcs, next_pc, executed, eligible, checker_sites,
         mem_accesses, cond_branches, frames) = value
        branch_pcs = {coord2id[fn_name, bi]: pc for fn_name, bi, pc in pcs}
        frames = tuple(FrameState(*frame) for frame in frames)
    except KeyError as exc:
        raise SnapFormatError(
            f"checkpoint branch {exc} not in this module") from exc
    except (ValueError, TypeError) as exc:
        raise SnapFormatError(f"malformed checkpoint state: {exc}") from exc
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
        frames=frames,
    )
