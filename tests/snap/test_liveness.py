"""Register liveness and the reconvergence poll that reads it.

The poll compares only the registers a run can still read: the slots
live before the innermost frame's cursor, and for a suspended caller
the slots live after its call record but for the call's destination
(the return writes it). ``live_masks`` is one backward dataflow per
decoded function; these tests pin it on hand-built IR, then show a
flip into a dead register now ending its run early with the outcome a
run to the end gives, under every fault model.
"""

import os
from collections import Counter

import pytest

from repro.cpu import Machine, MachineConfig
from repro.cpu.compiled import capture_state, run_resumable
from repro.cpu.engine import decoded_module, live_masks
from repro.cpu.interpreter import FaultPlan
from repro.cpu.intrinsics import rt_print_i64
from repro.faults.campaign import (
    CampaignConfig,
    InjectionSession,
    _SESSION_TLS,
    _cell_checkpoints,
    draw_model_plans,
    golden_profile,
    hang_budget,
    inject_once,
    run_plans,
)
from repro.faults.models import model_names
from repro.ir import Module
from repro.ir import types as T
from repro.lab.durable import run_durable_campaign
from repro.snap import build as snap_build
from repro.snap.build import CheckpointSet, build_checkpoints
from repro.snap.store import GoldenEnd
from repro.toolchain import default_toolchain
from repro.toolchain.cache import ArtifactCache

from ..conftest import make_function


@pytest.fixture(autouse=True)
def _fresh_session():
    _SESSION_TLS.slot = None
    yield
    _SESSION_TLS.slot = None


def _machine(module):
    return Machine(module, MachineConfig(collect_timing=False))


def _decoded(module, name):
    M = _machine(module)
    dmod = decoded_module(module, M.config.cost_model, M.globals_addr)
    return dmod.function(module.get_function(name))


def _live(dfn, block, k):
    """The values live before record ``k`` of block ``block`` (``k``
    = the record count: before the terminator), by name."""
    b = [db.name for db in dfn.blocks].index(block)
    mask = live_masks(dfn)[b][k]
    names = {slot: value.name for value in _values(dfn.fn)
             for slot in [dfn.slot_map[id(value)]]}
    return {names[s] for s in names if mask >> s & 1}


def _values(fn):
    yield from fn.args
    for bb in fn.blocks:
        for inst in bb.instructions:
            if not inst.type.is_void:
                yield inst


def _counted_sum(module):
    """``main(n)``: sums ``3 * i & 255`` over ``i < n`` in a loop whose
    header carries the index and the sum in phis."""
    fn, b = make_function(module, "main", T.I64, [T.I64], ["n"])
    (n,) = fn.args
    entry = b.block
    loop = fn.append_block("loop")
    done = fn.append_block("done")
    b.br(loop)
    b.position_at_end(loop)
    i = b.phi(T.I64, "i")
    acc = b.phi(T.I64, "acc")
    t = b.mul(i, b.i64(3), "t")
    m = b.and_(t, b.i64(255), "m")
    acc2 = b.add(acc, m, "acc2")
    i2 = b.add(i, b.i64(1), "i2")
    c = b.icmp("slt", i2, n, "c")
    b.cond_br(c, loop, done)
    i.add_incoming(b.i64(0), entry)
    i.add_incoming(i2, loop)
    acc.add_incoming(b.i64(0), entry)
    acc.add_incoming(acc2, loop)
    b.position_at_end(done)
    b.ret(acc2)
    return fn


class TestLiveMasks:
    def test_loop_carried_phi(self):
        """The back edge's incoming values are live at the end of the
        loop block, the header's phis are not; into the loop only what
        the body reads past the phis is live."""
        module = Module("loop")
        _counted_sum(module)
        dfn = _decoded(module, "main")
        loop = dfn.blocks[1]
        assert _live(dfn, "loop", loop.n) == {"c", "i2", "acc2", "n"}
        assert _live(dfn, "loop", 0) == {"i", "acc", "n"}
        assert _live(dfn, "entry", 0) == {"n"}

    def test_value_dead_after_its_last_use_in_a_loop(self):
        module = Module("loop")
        _counted_sum(module)
        dfn = _decoded(module, "main")
        assert _live(dfn, "loop", 1) == {"i", "acc", "t", "n"}
        assert _live(dfn, "loop", 2) == {"i", "acc", "m", "n"}
        assert _live(dfn, "loop", 3) == {"i", "acc2", "n"}
        assert _live(dfn, "loop", 4) == {"i2", "acc2", "n"}

    def test_terminator_only_use(self):
        """A value read only by the terminator is live before it and
        not before its own record."""
        module = Module("ret")
        fn, b = make_function(module, "f", T.I64, [T.I64, T.I64],
                              ["a", "unused"])
        a, _ = fn.args
        b.ret(b.add(a, b.i64(1), "v"))
        dfn = _decoded(module, "f")
        assert _live(dfn, "entry", 1) == {"v"}
        assert _live(dfn, "entry", 0) == {"a"}

    def test_undecodable_terminator_is_a_record(self):
        """A terminator whose operand cannot be resolved decodes to a
        raiser record that ends the block: the masks stay aligned with
        the records, one per record plus one past the last."""
        module = Module("raiser")
        other, ob = make_function(module, "other", T.I64, [T.I64])
        foreign = ob.add(other.args[0], ob.i64(2), "foreign")
        ob.ret(foreign)
        fn, b = make_function(module, "f", T.I64, [T.I64], ["a"])
        b.add(fn.args[0], b.i64(1), "dead")
        b.ret(foreign)
        dfn = _decoded(module, "f")
        (block,) = dfn.blocks
        assert block.n == 2 and block.raisers[1] is not None
        assert len(live_masks(dfn)[0]) == block.n + 1
        assert _live(dfn, "entry", 0) == {"a"}
        assert _live(dfn, "entry", 1) == set()
        assert _live(dfn, "entry", 2) == set()

    def test_computed_once_per_function(self):
        module = Module("loop")
        _counted_sum(module)
        dfn = _decoded(module, "main")
        assert live_masks(dfn) is live_masks(dfn) is dfn.live


class _AtDepth:
    """Capture hook: the first state with ``depth`` frames."""

    next_index = 0

    def __init__(self, depth):
        self.depth = depth
        self.state = None

    def take(self, M, stack, executed):
        if self.state is None and len(stack) == self.depth:
            self.state = capture_state(M, stack, executed)


def test_suspended_caller_excludes_the_call_destination():
    """Caller ``main`` suspended at ``r = call callee(x)``: ``x`` is
    live after the call, ``r`` is read after it too but the return
    writes it, so the poll compares only ``x`` there."""
    module = Module("calls")
    callee, cb = make_function(module, "callee", T.I64, [T.I64], ["p"])
    cb.ret(cb.mul(callee.args[0], cb.i64(5), "q"))
    fn, b = make_function(module, "main", T.I64, [T.I64, T.I64],
                          ["x", "y"])
    x, _y = fn.args
    r = b.call(callee, [x], "r")
    b.ret(b.add(r, x, "s"))
    M = _machine(module)
    hook = _AtDepth(2)
    run_resumable(M, "main", [7, 9], capture=hook)
    state = hook.state
    assert [fs.fn for fs in state.frames] == ["main", "callee"]
    dfn = _decoded(module, "main")
    slot = {v.name: dfn.slot_map[id(v)] for v in _values(fn)}
    assert _live(dfn, "entry", 1) == {"r", "x"}
    cset = CheckpointSet.captured("k", [state], GoldenEnd(9, 0), M)
    (caller_slots, caller_golden), (callee_slots, _) = cset.live(0)
    assert caller_slots == (slot["x"],)
    assert caller_golden == (7,)
    cdfn = _decoded(module, "callee")
    assert callee_slots == (cdfn.slot_map[id(callee.args[0])],)


def _dead_flip_module():
    """``main(a)``: ``t = a * 3`` feeds only ``m = t & 255``, then a
    long loop reads ``m``. A flip of ``t`` above bit 7 is masked by
    ``m`` and leaves ``t``, never written again, different for good."""
    module = Module("deadflip")
    printer = rt_print_i64(module)
    fn, b = make_function(module, "main", T.I64, [T.I64], ["a"])
    (a,) = fn.args
    t = b.mul(a, b.i64(3), "t")
    m = b.and_(t, b.i64(255), "m")
    entry = b.block
    loop = fn.append_block("loop")
    done = fn.append_block("done")
    b.br(loop)
    b.position_at_end(loop)
    i = b.phi(T.I64, "i")
    acc = b.phi(T.I64, "acc")
    acc2 = b.add(acc, b.xor(i, m), "acc2")
    i2 = b.add(i, b.i64(1), "i2")
    b.cond_br(b.icmp("slt", i2, b.i64(1500)), loop, done)
    i.add_incoming(b.i64(0), entry)
    i.add_incoming(i2, loop)
    acc.add_incoming(b.i64(0), entry)
    acc.add_incoming(acc2, loop)
    b.position_at_end(done)
    b.call(printer, [acc2])
    b.ret(acc2)
    return module


def test_flip_into_a_dead_register_reconverges(monkeypatch):
    """The flipped ``t`` is dead from ``m`` on: the first poll ends the
    run, with the outcome of a run to the end on the reference
    interpreter. Comparing every register instead (the poll before
    liveness) never matches."""
    module = _dead_flip_module()
    reference, profile = golden_profile(module, "main", [11])
    budget = hang_budget(profile.executed, CampaignConfig.hang_factor)
    cset = build_checkpoints(module, "main", [11], budget=budget,
                             eligible=profile.eligible,
                             cache=ArtifactCache.disabled())
    assert cset is not None and cset.polls
    plan = FaultPlan(target_index=0, bit=40)
    oracle = inject_once(module, "main", [11], plan, reference, budget,
                         engine="reference")

    def session():
        s = InjectionSession(module, "main", [11], reference, budget)
        s.attach_checkpoints(cset)
        return s

    live = session()
    assert live.inject(plan) == oracle
    assert live.reconverged == 1

    def every_slot(self, i):
        state = self.state(i)
        return tuple((tuple(range(len(fs.regs))), fs.regs)
                     for fs in state.frames)

    monkeypatch.setattr(CheckpointSet, "live", every_slot)
    whole = session()
    assert whole.inject(plan) == oracle
    assert whole.reconverged == 0


CELLS = [(name, version) for name in ("histogram", "blackscholes")
         for version in ("noavx", "swiftr", "elzar")]


@pytest.mark.parametrize("name,version", CELLS)
def test_every_model_matches_the_reference_oracle(name, version):
    """Per-plan ``run_plans`` outcomes (checkpoint resume, the poll on
    live registers) equal the reference interpreter's runs to the end,
    for every fault model."""
    built = default_toolchain().build(name, "test", version)
    reference, profile = golden_profile(built.module, built.entry,
                                        built.args)
    budget = hang_budget(profile.executed, CampaignConfig.hang_factor)
    for model in model_names():
        try:
            plans = draw_model_plans(profile, CampaignConfig(
                injections=3, seed=7, fault_model=model))
        except ValueError:
            continue  # empty target stream for this cell
        got = run_plans(built.module, built.entry, built.args, plans,
                        reference, budget)
        oracle = [inject_once(built.module, built.entry, built.args, plan,
                              reference, budget, engine="reference")
                  for plan in plans]
        assert list(got) == oracle, model


def test_forked_workers_inherit_the_live_registers(tmp_path, monkeypatch):
    """A forked campaign finds, in the parent and before forking, the
    live registers of every state its polls can compare; no worker
    computes them again."""
    built = default_toolchain().build("histogram", "test", "elzar")
    reference, profile = golden_profile(built.module, built.entry,
                                        built.args)
    budget = hang_budget(profile.executed, CampaignConfig.hang_factor)
    config = CampaignConfig(injections=24, seed=5, workers=2)
    cset = _cell_checkpoints(built.module, built.entry, built.args, budget,
                             None)
    assert cset.polls
    parent = os.getpid()
    marker = tmp_path / "computed-in-a-worker"
    compute = snap_build.live_masks

    def watched(dfn):
        if os.getpid() != parent:
            marker.touch()
        return compute(dfn)

    monkeypatch.setattr(snap_build, "live_masks", watched)
    cset._live = [None] * len(cset._live)
    forked = run_durable_campaign(built.module, built.entry, built.args,
                                  config=config, store=False, shard_size=6)
    plans = draw_model_plans(profile, config)
    _, polled = cset._reads(plans)
    assert len(polled) > 0
    assert all(cset._live[i] is not None for i in polled)
    assert not marker.exists()
    _SESSION_TLS.slot = None
    serial = run_plans(built.module, built.entry, built.args, plans,
                       reference, budget)
    assert forked.result.counts == Counter(serial)
