"""The reconvergence poll: an injection run whose state is exactly a
golden checkpoint's ends there, its outcome derived instead of run.

The comparison is bitwise (``same_bits``): Python ``==`` calls
``-0.0`` and ``0.0`` equal, ``True`` and ``1`` equal, and two NaNs
unequal. The poll must fire on real cells (or the identity checks
below pass without testing it), and every outcome it derives must be
the one a run to the end gives: from scratch, on the reference
interpreter, and under a budget the golden tail overruns.
"""

import struct
from collections import Counter

import pytest

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
from repro.faults.outcomes import Outcome
from repro.lab.durable import run_durable_campaign
from repro.lab.events import EventBus, EventLog
from repro.snap import SnapFormatError
from repro.snap.build import CheckpointSet, same_bits, same_values
from repro.snap.store import GoldenEnd, StreamMarks, set_end
from repro.toolchain import default_toolchain


def _nan(payload):
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000
                                           | payload))[0]


@pytest.fixture(autouse=True)
def _fresh_session():
    _SESSION_TLS.slot = None
    yield
    _SESSION_TLS.slot = None


class TestSameBits:
    @pytest.mark.parametrize("a,b", [
        (0.0, -0.0),
        (_nan(1), _nan(2)),
        (True, 1),
        (False, 0),
        (1, 1.0),
        ((1, 2, 3, 4), (1, 2, 3, 5)),
        ((0.0, 1.5), (-0.0, 1.5)),
        ((True, False), (1, False)),
        ((1, 2), (1, 2, 3)),
        (None, 0),
    ])
    def test_different_bits_do_not_match(self, a, b):
        assert not same_bits(a, b)
        assert not same_bits(b, a)
        assert not same_values([7, a], (7, b))
        assert not same_values([7, b], (7, a))

    @pytest.mark.parametrize("value", [
        0.0, -0.0, 1.5, _nan(1), True, False, 0, 1, -(1 << 70), None,
        (1, 2, 3, 4), (0.25, -0.0, _nan(3)), (True, False, True, True),
    ])
    def test_identical_values_match(self, value):
        # A copy through bytes: the same bits in a distinct object.
        twin = struct.unpack("<d", struct.pack("<d", value))[0] \
            if type(value) is float else (
                tuple(struct.unpack("<d", struct.pack("<d", v))[0]
                      if type(v) is float else v for v in value)
                if type(value) is tuple else value)
        assert same_bits(value, twin)
        nan = any(v != v for v in (twin if type(twin) is tuple else (twin,))
                  if type(v) is float)
        # A register file holding a NaN never matches (``==`` rejects it
        # first): the poll loses that exit, it never derives wrongly.
        assert same_values([3, value], (3, twin)) is not nan

    def test_length_mismatch(self):
        assert not same_values([1, 2], (1, 2, 3))


class TestGoldenEnd:
    def test_set_without_end_is_invalid(self):
        with pytest.raises(SnapFormatError):
            set_end({"streams": {}})
        with pytest.raises(SnapFormatError):
            set_end({"end": [1, -1]})
        assert set_end({"end": [10, 0]}) == GoldenEnd(10, 0)

    def test_poll_only_where_the_golden_run_corrects_nothing(self):
        marks = [StreamMarks(5, 0, 0, 0)]
        assert CheckpointSet("k", marks, ["s"], False,
                             end=GoldenEnd(9, 0)).polls
        assert not CheckpointSet("k", marks, ["s"], False,
                                 end=GoldenEnd(9, 1)).polls
        assert not CheckpointSet("k", marks, ["s"], False).polls


def _cell(name="histogram", version="elzar"):
    built = default_toolchain().build(name, "test", version)
    reference, profile = golden_profile(built.module, built.entry,
                                        built.args)
    budget = hang_budget(profile.executed, CampaignConfig.hang_factor)
    return built, reference, profile, budget


def _plans(profile, model, n, seed=3):
    try:
        return draw_model_plans(profile, CampaignConfig(
            injections=n, seed=seed, fault_model=model))
    except ValueError:
        return None  # empty target stream for this cell


def _scratch(built, plans, reference, budget, engine="compiled"):
    return [inject_once(built.module, built.entry, built.args, plan,
                        reference, budget, engine=engine) for plan in plans]


def test_every_model_reconverges_to_the_outcomes_of_a_full_run():
    """Histogram/elzar at test scale: the poll ends runs under every
    fault model, and each per-plan outcome list equals both a scratch
    loop and the reference interpreter's."""
    built, reference, profile, budget = _cell()
    cset = _cell_checkpoints(built.module, built.entry, built.args, budget,
                             None)
    assert cset.polls and cset.end.corrections == 0
    reconverged = Counter()
    for model in model_names():
        plans = _plans(profile, model, 8)
        assert plans is not None, model
        got = run_plans(built.module, built.entry, built.args, plans,
                        reference, budget)
        reconverged[model] = got.reconverged
        assert got == _scratch(built, plans, reference, budget), model
        assert got == _scratch(built, plans, reference, budget,
                               engine="reference"), model
    assert sum(reconverged.values()) > 0, reconverged
    assert reconverged["register-bitflip"] > 0, reconverged


@pytest.mark.parametrize("name,version", [("dedup", "elzar"),
                                          ("blackscholes", "native")])
def test_poll_fires_on_native_and_hardened_cells(name, version):
    built, reference, profile, budget = _cell(name, version)
    plans = _plans(profile, "register-bitflip", 24)
    got = run_plans(built.module, built.entry, built.args, plans, reference,
                    budget)
    assert got.reconverged > 0
    assert got == _scratch(built, plans, reference, budget)


def test_tight_budget_makes_a_reconverged_run_hang():
    """A budget one instruction short of the golden run's end: every run
    the poll ends must come out HANG by the derivation, as running it
    to the end does (the set is taken at the campaign's budget, which
    the states do not depend on)."""
    built, reference, profile, budget = _cell()
    cset = _cell_checkpoints(built.module, built.entry, built.args, budget,
                             None)
    tight = cset.end.executed - 1
    session = InjectionSession(built.module, built.entry, built.args,
                               reference, tight)
    session.attach_checkpoints(cset)
    plans = _plans(profile, "register-bitflip", 16, seed=11)
    ended = []
    got = []
    for plan in plans:
        before = session.reconverged
        got.append(session.inject(plan))
        if session.reconverged > before:
            ended.append(got[-1])
    assert ended and set(ended) == {Outcome.HANG}
    assert got == _scratch(built, plans, reference, tight)
    assert got[:4] == _scratch(built, plans[:4], reference, tight,
                               engine="reference")


def test_shard_completed_reports_reconverged():
    """Forked workers send the count back with each shard's counts."""
    built, reference, profile, budget = _cell()
    log = EventLog()
    bus = EventBus()
    bus.subscribe(log)
    config = CampaignConfig(injections=24, seed=5, workers=2)
    campaign = run_durable_campaign(built.module, built.entry, built.args,
                                    config=config, store=False, events=bus,
                                    shard_size=6)
    done = log.of("shard-completed")
    assert len(done) == 4
    assert all(type(e.data["reconverged"]) is int for e in done)
    plans = draw_model_plans(profile, config)
    _SESSION_TLS.slot = None
    serial = run_plans(built.module, built.entry, built.args, plans,
                       reference, budget)
    assert sum(e.data["reconverged"] for e in done) == serial.reconverged > 0
    assert campaign.result.counts == Counter(serial)
