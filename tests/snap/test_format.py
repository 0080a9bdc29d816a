"""Serialization round-trip properties of the checkpoint format.

The contract: ``deserialize(serialize(state))`` yields a state whose
resumed execution is bit-identical to resuming the original — across
machine configs (cache, predictor, timing) — and any corruption is a
:class:`SnapFormatError`, never a silently wrong state. The value
encoding under states, golden bodies and set bodies round-trips every
value of its closed domain type- and bit-exactly, encodes equal trees
to equal bytes whatever objects they are built from, and rejects every
type outside the domain.
"""

import json
import marshal
import pickle
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cpu import Machine, MachineConfig
from repro.cpu.interpreter import FaultPlan
from repro.cpu.resumable import resume_run, run_resumable
from repro.snap.format import (
    _CLASSES,
    MAGIC,
    SNAP_VERSION,
    SnapFormatError,
    decode_value,
    deserialize_state,
    encode_value,
    serialize_state,
)
from repro.snap.store import GOLDEN_MAGIC, SNAPSET_MAGIC, parse_golden, \
    parse_set, render_golden, render_set
from repro.toolchain import default_toolchain


class _TakeOnce:
    def __init__(self, at):
        self.next_index = at
        self.states = []

    def take(self, machine, stack, executed):
        from repro.cpu.resumable import capture_state

        self.states.append(capture_state(machine, stack, executed))
        self.next_index = 1 << 62


def _capture(module, entry, args, config, at=400):
    machine = Machine(module, config)
    machine.count_only = True
    policy = _TakeOnce(at)
    run_resumable(machine, entry, args, capture=policy)
    assert policy.states
    return machine, policy.states[0]


CONFIGS = [
    MachineConfig(collect_timing=False),
    MachineConfig(collect_timing=True),
    MachineConfig(cache_enabled=False, collect_timing=False),
    MachineConfig(collect_by_opcode=True, collect_timing=True),
]


class TestRoundTrip:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("version", ["native", "elzar"])
    def test_roundtrip_resumes_bit_identically(self, version, config):
        built = default_toolchain().build("histogram", "test", version)
        machine, state = _capture(built.module, built.entry, built.args,
                                  config)
        blob = serialize_state(state, machine)
        revived = deserialize_state(blob, machine)

        plan = FaultPlan(target_index=state.eligible + 30, bit=13, lane=1)
        m1 = Machine(built.module, config)
        r1 = resume_run(m1, state, (plan,))
        m2 = Machine(built.module, config)
        r2 = resume_run(m2, revived, (plan,))
        assert list(r1.output) == list(r2.output)
        assert r1.counters.as_dict() == r2.counters.as_dict()
        assert r1.cycles == r2.cycles
        assert m1.eligible_executed == m2.eligible_executed

    def test_serialization_is_deterministic(self):
        built = default_toolchain().build("histogram", "test", "elzar")
        machine, state = _capture(
            built.module, built.entry, built.args,
            MachineConfig(collect_timing=False),
        )
        blob = serialize_state(state, machine)
        # serialize(deserialize(blob)) == blob pins both directions.
        assert serialize_state(deserialize_state(blob, machine),
                               machine) == blob

    def test_corruption_raises_not_misresumes(self):
        built = default_toolchain().build("histogram", "test", "native")
        machine, state = _capture(
            built.module, built.entry, built.args,
            MachineConfig(collect_timing=False),
        )
        blob = serialize_state(state, machine)
        # Truncations and a bad magic must all be detected up front.
        with pytest.raises(SnapFormatError):
            deserialize_state(blob[:10], machine)
        with pytest.raises(SnapFormatError):
            deserialize_state(b"XXXX" + blob[4:], machine)


def version1_blob(state):
    """The head of ``state`` as the version-1 writer laid it out: the
    magic, LEB128 version 1, then the LEB128-length-prefixed heap and
    stack images."""
    def leb128(n):
        out = bytearray()
        while True:
            out.append(n & 0x7F | (0x80 if n >> 7 else 0))
            n >>= 7
            if not n:
                return bytes(out)

    return (MAGIC + leb128(1) + leb128(len(state.heap)) + state.heap
            + leb128(len(state.stack_mem)) + state.stack_mem)


def version1_set_body(blobs, meta):
    """A set body as the version-1 writer framed it: the magic, a u32
    version, u32-length-prefixed meta JSON, a u32 count and
    u64-length-prefixed state blobs."""
    meta_json = json.dumps(meta, sort_keys=True).encode("utf-8")
    parts = [SNAPSET_MAGIC, struct.pack("<II", 1, len(meta_json)),
             meta_json, struct.pack("<I", len(blobs))]
    for blob in blobs:
        parts += [struct.pack("<Q", len(blob)), blob]
    return b"".join(parts)


def _histogram_state():
    built = default_toolchain().build("histogram", "test", "elzar")
    return _capture(built.module, built.entry, built.args,
                    MachineConfig(collect_timing=False))


class TestStaleLayouts:
    """Entries written by the version-1 codec (tagged LEB128 states,
    JSON + length-prefixed set framing) never resume."""

    def test_version1_blob_and_set_body_are_rejected(self):
        machine, state = _histogram_state()
        with pytest.raises(SnapFormatError, match="version 1"):
            deserialize_state(version1_blob(state), machine)
        meta = {"streams": {"eligible": [state.eligible]}, "end": [1, 0]}
        with pytest.raises(SnapFormatError):
            parse_set(version1_set_body([version1_blob(state)], meta))

    @pytest.mark.parametrize("framing", ["set", "state"])
    def test_version1_entries_are_invalid_misses_that_rebuild(
            self, tmp_path, framing):
        """A version-1 set body is an invalid miss on read; version-1
        state blobs in a current set body are one on first use. Either
        way the set is removed and the next acquisition rebuilds it."""
        from repro.faults.campaign import golden_profile
        from repro.snap.build import build_checkpoints
        from repro.snap.store import SNAPSET_SUFFIX
        from repro.toolchain import ArtifactCache

        built = default_toolchain().build("histogram", "test", "elzar")
        _, profile = golden_profile(built.module, built.entry, built.args)

        def build(cache):
            memo = built.module._golden_cache
            for slot in [k for k in memo
                         if isinstance(k, tuple) and k[0] == "snap-set"]:
                del memo[slot]
            return build_checkpoints(
                built.module, built.entry, built.args,
                budget=profile.executed * 4, eligible=profile.eligible,
                cache=cache)

        cset = build(ArtifactCache(root=str(tmp_path)))
        key = cset.key
        cache = ArtifactCache(root=str(tmp_path))
        _, meta = cache.get(key, SNAPSET_SUFFIX, parse_set)
        blobs = [version1_blob(s) for s in cset.states]
        cache.put(key, SNAPSET_SUFFIX,
                  version1_set_body(blobs, meta) if framing == "set"
                  else render_set(blobs, meta))

        cache = ArtifactCache(root=str(tmp_path))
        if framing == "state":
            stale = build(cache)
            assert stale.from_cache
            with pytest.raises(SnapFormatError, match="version 1"):
                stale.state(0)
        rebuilt = build(cache)
        assert not rebuilt.from_cache
        assert rebuilt.marks == cset.marks
        assert cache.stats_for(SNAPSET_SUFFIX).as_dict() == {
            "hits": int(framing == "state"), "misses": 1, "stores": 1,
            "invalid": 1}
        assert build(cache).from_cache


_F64 = struct.Struct("<d")


def _float(bits):
    return _F64.unpack(bits.to_bytes(8, "little"))[0]


#: Floats of every bit pattern (so NaN payloads, quiet and signalling,
#: and subnormals), ints far wider than 64 bits, and the leaves marshal
#: could confuse: bool vs int, bytes vs bytearray.
_LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-(1 << 200), 1 << 200),
    st.floats(), st.integers(0, (1 << 64) - 1).map(_float),
    st.text(max_size=6), st.binary(max_size=6),
    st.binary(max_size=6).map(bytearray),
)
_KEYS = st.one_of(st.booleans(), st.integers(), st.text(max_size=6),
                  st.binary(max_size=6))


def _object(name, state):
    cls = _CLASSES[name]
    obj = cls.__new__(cls)
    obj.__dict__.update(state)
    return obj


_VALUES = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_KEYS, children, max_size=4),
    st.builds(_object, st.sampled_from(sorted(_CLASSES)),
              st.dictionaries(st.text(max_size=6), children, max_size=4)),
), max_leaves=16)

#: Named values of the domain's edges, each also an explicit example.
EDGES = [
    0.0, -0.0, 5e-324, -2.2250738585072e-308,
    _float(0x7FF0_0000_0000_0001),       # signalling NaN, payload 1
    _float(0xFFF8_0000_0000_0123),       # negative quiet NaN, payload
    (1 << 64) + 1, -(1 << 100), True, 1, b"ab", bytearray(b"ab"),
    (1, 2), [1, 2], {True: (0.5,), 2: [bytearray(3)]},
    _object("CacheHierarchy", {"l1": _object("Cache", {
        "lines": [bytearray(2), (-0.0, 1 << 70)]}), "prefetches": 3}),
]


def same(a, b):
    """Type-exact, bit-exact equality over the closed domain."""
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is float:
        return _F64.pack(a) == _F64.pack(b)
    if kind is tuple or kind is list:
        return len(a) == len(b) and all(map(same, a, b))
    if kind is dict:
        return len(a) == len(b) and all(
            same(ka, kb) and same(va, vb)
            for (ka, va), (kb, vb) in zip(a.items(), b.items()))
    if kind in _CLASSES.values():
        return same(a.__dict__, b.__dict__)
    return a == b


def _with_edges(test):
    for value in EDGES:
        test = example(value)(test)
    return test


class TestValueEncoding:
    @settings(max_examples=200, deadline=None)
    @given(_VALUES)
    @_with_edges
    def test_roundtrip_is_type_and_bit_exact(self, value):
        assert same(decode_value(encode_value(value)), value)

    @settings(max_examples=100, deadline=None)
    @given(_VALUES)
    @example(1 << 70)
    @example(-0.0)
    @example("shared")
    def test_equal_trees_of_distinct_objects_encode_identically(self,
                                                                value):
        """One object three times and three equal copies: the same
        bytes, whatever the objects' reference counts (so a cold
        capture and a rehydrated one agree)."""
        copies = [pickle.loads(pickle.dumps(value)) for _ in range(3)]
        assert encode_value([value] * 3) == encode_value(copies)


#: Values outside the closed domain, each placed deep in a tree.
FOREIGN = {
    "code": compile("0", "<snap>", "eval"),
    "set": {1, 2},
    "frozenset": frozenset({3}),
    "complex": 1 + 2j,
    "ellipsis": ...,
    "unknown class": (..., "Pickler", {}),
    "bad node": (..., "Cache", [1]),
}


def _state_body(machine, state, foreign=None):
    """A state blob; with ``foreign`` in place of the output."""
    blob = serialize_state(state, machine)
    if foreign is None:
        return blob
    tree = list(marshal.loads(blob[5:]))
    tree[4] = (1.0, [foreign])
    return blob[:5] + marshal.dumps(tuple(tree), 2)


def _set_body(blob, foreign=None):
    meta = {"streams": {"eligible": [7]}, "end": [9, 0]}
    if foreign is None:
        return render_set([blob], meta)
    meta["streams"]["cache"] = foreign
    return SNAPSET_MAGIC + marshal.dumps((SNAP_VERSION, meta, [blob]), 2)


def _golden_body(foreign=None):
    if foreign is None:
        return render_golden((1.5, -0.0, 7), (3, 1, 0, 2, 0))
    return GOLDEN_MAGIC + marshal.dumps(((1.5, (foreign,)), (3, 1)), 2)


class TestCorruption:
    """Every reader of the encoding raises :class:`SnapFormatError` —
    and nothing else — on a truncated body or a foreign-typed tree."""

    @pytest.fixture(scope="class")
    def machine_state(self):
        return _histogram_state()

    def _readers(self, machine, state):
        blob = _state_body(machine, state)
        return {
            "state": (lambda body: deserialize_state(body, machine),
                      lambda foreign: _state_body(machine, state, foreign),
                      blob),
            "set": (parse_set, lambda foreign: _set_body(blob, foreign),
                    _set_body(blob)),
            "golden": (parse_golden, _golden_body, _golden_body()),
        }

    @pytest.mark.parametrize("reader", ["state", "set", "golden"])
    def test_every_truncation_raises(self, machine_state, reader):
        read, _, body = self._readers(*machine_state)[reader]
        read(body)
        for end in range(len(body)):
            with pytest.raises(SnapFormatError):
                read(body[:end])

    @pytest.mark.parametrize("reader", ["state", "set", "golden"])
    @pytest.mark.parametrize("kind", sorted(FOREIGN))
    def test_foreign_types_raise(self, machine_state, reader, kind):
        read, corrupt, _ = self._readers(*machine_state)[reader]
        with pytest.raises(SnapFormatError):
            read(corrupt(FOREIGN[kind]))

    def test_trailing_bytes_raise(self, machine_state):
        for read, _, body in self._readers(*machine_state).values():
            with pytest.raises(SnapFormatError):
                read(body + b"N")
