"""What a warm campaign set-up imports.

Without ``.pyc`` files every module a fresh process imports is compiled
from source, so a campaign set-up over a warm cache costs about the
modules it loads. It must load only the code it runs: package
``__init__``s resolve their re-exports on first use, and dependencies
needed only on a cache miss (workload generators, passes) or by other
commands (harness, apps, analysis) are imported where they are used.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: One Figure-13 cell at test scale, set up and run the way a campaign
#: process does; prints the modules it left loaded.
_CELL = """
import json, sys

import repro.faults.campaign as fc
import repro.harness  # noqa: F401
import repro.lab.durable as durable
import repro.snap.build as snap_build
import repro.toolchain as toolchain
from repro.lab.store import ResultStore

built = toolchain.Toolchain().build("histogram", "test", "elzar")
cfg = fc.CampaignConfig(injections=8, seed=7, workers=1)
reference, profile = fc.golden_profile(built.module, built.entry, built.args)
budget = fc.hang_budget(profile.executed, cfg.hang_factor)
snap_build.build_checkpoints(built.module, built.entry, built.args,
                             budget=budget, eligible=profile.eligible)
store = ResultStore(sys.argv[1])
try:
    dc = durable.run_durable_campaign(
        built.module, built.entry, built.args, "histogram", "elzar", cfg,
        store=store, shard_size=4)
finally:
    store.close()
assert dc.info.injections_executed == 8, dc.info
print(json.dumps({"golden_runs": fc.GOLDEN_RUNS,
                  "modules": sorted(sys.modules)}))
"""

#: Modules (and packages, with their submodules) a warm campaign cell
#: never runs.
_NOT_LOADED = ("numpy", "repro.workloads.registry", "repro.passes.elzar",
               "repro.harness.session", "repro.apps", "repro.analysis")


def _run_cell(tmp_path: Path, index: int) -> dict:
    env = dict(os.environ,
               PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(SRC),
               REPRO_TOOLCHAIN_CACHE=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, "-c", _CELL, str(tmp_path / f"store{index}.sqlite")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_warm_campaign_cell_imports_only_what_it_runs(tmp_path):
    cold = _run_cell(tmp_path, 0)
    # The cold process builds: the guard below is not vacuous.
    assert "repro.workloads.registry" in cold["modules"]
    assert "repro.passes.elzar" in cold["modules"]

    warm = _run_cell(tmp_path, 1)
    assert warm["golden_runs"] == 0
    loaded = [module for module in warm["modules"]
              if any(module == name or module.startswith(name + ".")
                     for name in _NOT_LOADED)]
    assert loaded == []
