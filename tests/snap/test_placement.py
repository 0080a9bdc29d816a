"""Capture spacing: one checkpoint every ``max(MIN_INTERVAL, eligible //
CAPTURES)`` eligible instructions of the golden run, none at index 0,
so a set holds at most ``eligible // interval`` (and so ``CAPTURES``)
states — and a module rehydrated from the artifact cache captures the
same bytes as the cold build it was stored from.
"""

import pytest

from repro.faults.campaign import golden_profile, hang_budget
from repro.snap import build as snap_build
from repro.snap.build import CAPTURES, MIN_ELIGIBLE, MIN_INTERVAL, \
    CapturePolicy, build_checkpoints, capture_interval
from repro.snap.store import SNAPSET_SUFFIX, parse_set
from repro.toolchain import ArtifactCache, Toolchain


def _capture(built, cache):
    _, profile = golden_profile(built.module, built.entry, built.args,
                                cache=ArtifactCache.disabled())
    cset = build_checkpoints(
        built.module, built.entry, built.args,
        budget=hang_budget(profile.executed, 4.0),
        eligible=profile.eligible, cache=cache)
    return cset, profile.eligible


# blackscholes/native is short enough for the floor to set the
# interval; histogram/elzar spreads CAPTURES states over its run.
@pytest.mark.parametrize("name,version,floored", [
    ("blackscholes", "native", True),
    ("histogram", "elzar", False),
])
def test_uniform_spacing(name, version, floored):
    built = Toolchain(cache=ArtifactCache.disabled()).build(
        name, "test", version)
    cset, eligible = _capture(built, ArtifactCache.disabled())
    interval = capture_interval(eligible)
    assert (interval == MIN_INTERVAL) == floored
    marks = cset.marks
    assert 0 < len(marks) <= eligible // interval <= CAPTURES
    assert marks[0] >= interval
    assert all(b - a >= interval for a, b in zip(marks, marks[1:]))


def test_policy_skips_index_zero():
    policy = CapturePolicy(7)
    assert policy.next_index == 7 and policy.states == []


# The eligible count at which eligible // CAPTURES overtakes the floor.
_KNEE = MIN_INTERVAL * CAPTURES


class TestCaptureInterval:
    @pytest.mark.parametrize("eligible", [MIN_ELIGIBLE, 4096, _KNEE - 1])
    def test_min_interval_is_a_floor(self, eligible):
        assert capture_interval(eligible) == MIN_INTERVAL

    @pytest.mark.parametrize("eligible", [_KNEE, 100_000, 1_000_007])
    def test_interval_tracks_eligible(self, eligible):
        assert capture_interval(eligible) == eligible // CAPTURES
        assert capture_interval(2 * eligible) > capture_interval(eligible)

    @pytest.mark.parametrize("eligible", [
        MIN_ELIGIBLE, _KNEE - 1, _KNEE, _KNEE + CAPTURES - 1, 1_000_007,
    ])
    def test_policy_captures_at_most_captures(self, eligible, monkeypatch):
        """Driving the policy the way the run loop does (take once the
        eligible count reaches ``next_index``) over a whole run takes
        one state per interval, at multiples of it, never more than
        CAPTURES."""
        monkeypatch.setattr(snap_build, "capture_state",
                            lambda M, stack, executed: M.eligible_executed)

        class _Machine:
            eligible_executed = 0

        M = _Machine()
        interval = capture_interval(eligible)
        policy = CapturePolicy(interval)
        while policy.next_index <= eligible:
            M.eligible_executed = policy.next_index
            policy.take(M, None, M.eligible_executed)
        count = eligible // interval
        assert policy.states == [interval * k for k in range(1, count + 1)]
        assert count <= CAPTURES


@pytest.mark.parametrize("version", ["native", "elzar"])
def test_rehydrated_module_captures_the_cold_set(tmp_path, version):
    """A cold-built module and one rehydrated from the artifact cache
    capture byte-identical sets under the same key."""
    artifacts = ArtifactCache(str(tmp_path / "artifacts"))
    cold = Toolchain(cache=artifacts).build("histogram", "test", version)
    warm = Toolchain(cache=artifacts).build("histogram", "test", version)
    assert not cold.from_cache and warm.from_cache
    bodies = []
    for built, root in ((cold, "cold"), (warm, "warm")):
        cache = ArtifactCache(str(tmp_path / root))
        cset, _ = _capture(built, cache)
        assert not cset.from_cache
        bodies.append((cset.key, cache.get(cset.key, SNAPSET_SUFFIX,
                                           parse_set)))
    assert bodies[0] == bodies[1]
