"""Differential matrix for sharded injection through ``run_plans``.

A campaign hands its plans to ``run_plans`` in batches (shards), each
run on a reused :class:`InjectionSession` with checkpoint resume. How
the plans are cut into batches is a pure scheduling choice: for every
fault model and every batch size, the concatenated per-plan Outcome
list — not merely the counts — must equal a scalar fresh-machine
``inject_once`` loop, and on the reference interpreter too. The matrix runs on the hardened
histogram cell, the only version where every registered model has a
non-empty target stream.
"""

import pytest

from repro.faults import golden_profile, inject_once, model_names, run_plans
from repro.faults.models import get_model
from repro.toolchain import default_toolchain

BATCH_SIZES = (1, 4, 16)


class _PlanConfig:
    def __init__(self, seed, injections):
        self.seed = seed
        self.injections = injections


@pytest.fixture(scope="module")
def cell():
    built = default_toolchain().build("histogram", "test", "elzar")
    module, entry, args = built.module, built.entry, built.args
    reference, profile = golden_profile(module, entry, args)
    budget = max(1000, profile.executed * 10)
    return module, entry, args, reference, profile, budget


def scalar_baseline(cell, plans, engine="compiled"):
    module, entry, args, reference, _, budget = cell
    return [inject_once(module, entry, args, plan, reference, budget,
                        engine=engine) for plan in plans]


def run_in_batches(cell, plans, k, **kwargs):
    module, entry, args, reference, _, budget = cell
    outcomes = []
    for start in range(0, len(plans), k):
        outcomes.extend(run_plans(module, entry, args, plans[start:start + k],
                                  reference, budget, **kwargs))
    return outcomes


class TestModelMatrix:
    @pytest.mark.parametrize("model_name", model_names())
    def test_every_model_bit_identical_at_every_batch_size(
            self, cell, model_name):
        profile = cell[4]
        plans = get_model(model_name).draw_plans(
            profile, _PlanConfig(seed=11, injections=12))
        baseline = scalar_baseline(cell, plans)
        for k in BATCH_SIZES:
            got = run_in_batches(cell, plans, k, fault_model=model_name)
            assert got == baseline, (
                f"{model_name} batch={k}: outcome list diverged")

    def test_reference_engine_identity(self, cell):
        # The reference interpreter's scalar loop (the oracle) must
        # match the compiled scalar loop and run_plans in any batching.
        profile = cell[4]
        plans = get_model("register-bitflip").draw_plans(
            profile, _PlanConfig(seed=5, injections=6))
        baseline = scalar_baseline(cell, plans, engine="reference")
        assert baseline == scalar_baseline(cell, plans)
        for k in (1, 16):
            got = run_in_batches(cell, plans, k)
            assert got == baseline
