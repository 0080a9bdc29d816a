"""The public names of the lazy packages.

Each package ``__init__`` resolves its re-exports on first access
(:mod:`repro._lazy`). These tests run in fresh interpreters, so every
name is resolved from cold, in the order the test gives.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_PACKAGES = ("repro", "repro.analysis", "repro.apps", "repro.chaos",
                 "repro.cluster", "repro.faults", "repro.harness", "repro.ir",
                 "repro.lab", "repro.passes", "repro.service", "repro.snap",
                 "repro.workloads")


def _run(code: str):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_SURFACE = """
import importlib, json, pkgutil, sys, types

pkg = importlib.import_module({name!r})
problems = []
listed = set(dir(pkg))
values = {{}}
for name in pkg.__all__:
    if name not in listed:
        problems.append(f"{{name}}: missing from dir()")
    value = values[name] = getattr(pkg, name)
    if isinstance(value, types.ModuleType):
        same = value is sys.modules[value.__name__]
    elif hasattr(value, "__qualname__") and hasattr(value, "__module__"):
        owner = importlib.import_module(value.__module__)
        same = getattr(owner, value.__qualname__, None) is value
    else:
        source = pkg._lazy_sources[name]
        owner = importlib.import_module(source, pkg.__name__)
        same = getattr(owner, name) is value
    if not same:
        problems.append(f"{{name}}: not the defining submodule's object")
# Loading every submodule must not rebind a name.
for sub in pkgutil.iter_modules(pkg.__path__):
    importlib.import_module(f"{{pkg.__name__}}.{{sub.name}}")
for name, value in values.items():
    if getattr(pkg, name) is not value:
        problems.append(f"{{name}}: rebound by loading its submodule")
print(json.dumps(problems))
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_is_its_defining_submodules_object(package):
    assert _run(_SURFACE.format(name=package)) == []


def test_star_import_binds_every_public_name():
    names = _run("import json, repro\n"
                 "from repro import *\n"
                 "print(json.dumps([n for n in repro.__all__\n"
                 "                  if n not in globals()]))")
    assert names == []


def test_package_alone_loads_no_submodule():
    loaded = _run("import json, sys\n"
                  f"import {', '.join(LAZY_PACKAGES)}\n"
                  "print(json.dumps(sorted(m for m in sys.modules\n"
                  "                        if m.startswith('repro.'))))")
    packages = {p for p in LAZY_PACKAGES if p != "repro"}
    assert [m for m in loaded if m not in packages] == ["repro._lazy"]


_FUNCTION_FIRST = """
import json, types
from {package} import {name} as first
import {package}.{name}
from {package} import {name} as second
print(json.dumps([isinstance(f, types.FunctionType)
                  for f in (first, second)]))
"""

_SUBMODULE_FIRST = """
import json, types
import {package}.{name}
from {package} import {name} as first
print(json.dumps([isinstance(first, types.FunctionType)]))
"""


@pytest.mark.parametrize("package,name", [
    ("repro.toolchain", "build"),
    ("repro.passes", "mem2reg"),
    ("repro.passes", "dce"),
    ("repro.passes", "constant_folding"),
    ("repro.passes", "simplify_cfg"),
])
@pytest.mark.parametrize("order", [_FUNCTION_FIRST, _SUBMODULE_FIRST],
                         ids=["function-first", "submodule-first"])
def test_function_named_like_its_submodule(package, name, order):
    """A package exporting a function under its submodule's name keeps
    exporting the function, whichever is imported first."""
    assert all(_run(order.format(package=package, name=name)))


def test_vectorize_is_the_function_either_way():
    got = _run("import json, types\n"
               "import repro.passes.vectorize\n"
               "from repro.passes.vectorize import vectorize\n"
               "import repro\n"
               "print(json.dumps([isinstance(f, types.FunctionType)\n"
               "                  for f in (vectorize, repro.vectorize)]))")
    assert got == [True, True]
