#!/usr/bin/env python
"""Start-up cost of fresh interpreters with no ``.pyc`` over a warm cache:
``fig13-setup`` times a Figure-13 set-up's imports (then runs one warm
cell); ``variants`` and ``cluster-worker-help`` time the whole command.
``modules``/``repro_lines``: ``repro`` modules loaded (each compiled from
source), their lines. Writes BENCH_startup.json. Run: PYTHONPATH=src
python benchmarks/bench_startup.py (REPRO_SCALE=test: test cell, 2 runs).
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))

_REPORT = """
mods = [m.__file__ for n, m in list(sys.modules.items())
        if n.split(".")[0] == "repro" and getattr(m, "__file__", None)]
lines = sum(open(f).read().count("\\n") for f in mods)
print(json.dumps({"import_s": t1 - t0, "modules": len(mods),
                  "repro_lines": lines}), file=sys.stderr)
"""

_FIG13 = """t0 = time.perf_counter()
import repro.harness, repro.cpu.compiled, repro.cpu.engine, repro.lab.durable
import repro.faults.campaign as fc, repro.faults.models, repro.lab.events
import repro.lab.store, repro.snap.build as sb, repro.toolchain as tc
import repro.workloads.common
t1 = time.perf_counter()
b = tc.Toolchain().build("histogram", {scale!r}, "elzar")
out, prof = fc.golden_profile(b.module, b.entry, b.args)
sb.build_checkpoints(b.module, b.entry, b.args, eligible=prof.eligible,
                     budget=fc.hang_budget(prof.executed, 4.0))"""

_COMMAND = """t0 = time.perf_counter()
sys.argv = ["repro"] + {argv!r}
with contextlib.suppress(SystemExit):
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
t1 = time.perf_counter()"""


def probe(code: str, env: dict) -> dict:
    code = "import contextlib, json, runpy, sys, time\n" + code + _REPORT
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    return json.loads(proc.stderr.splitlines()[-1])


def main() -> int:
    fast = os.environ.get("REPRO_SCALE", "perf") == "test"
    probes = {"fig13-setup": _FIG13.format(scale="test" if fast else "fi"),
              "variants": _COMMAND.format(argv=["variants"]),
              "cluster-worker-help": _COMMAND.format(
                  argv=["cluster", "worker", "--help"])}
    runs, rows = (2 if fast else 5), []
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.path.join(ROOT, "src"),
                   REPRO_TOOLCHAIN_CACHE=cache)
        probe(probes["fig13-setup"], env)  # warms the cache
        for name, code in probes.items():
            samples = [probe(code, env) for _ in range(runs)]
            times = [round(s["import_s"], 4) for s in samples]
            rows.append(dict(samples[-1], probe=name, import_s_runs=times,
                             import_s=statistics.median(times)))
    print(json.dumps(rows, indent=1))
    with open(os.path.join(ROOT, "BENCH_startup.json"), "w") as fh:
        json.dump({"benchmark": "startup", "unit": "seconds", "runs": runs,
                   "rows": rows}, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
