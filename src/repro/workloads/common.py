"""Workload framework.

A :class:`Workload` names a benchmark, knows how to build its IR module
at a given *scale*, and carries the metadata the experiment harness
needs (scalability profile for the thread model, suite membership,
FP-heaviness for the §V-B float-only experiment).

Scales control dataset sizes:

- ``perf``: large enough for stable timing statistics (the paper uses
  the largest available datasets for performance, §V-A);
- ``fi``: small, for the thousands of runs of a fault-injection
  campaign (the paper uses the smallest inputs for FI, §V-A);
- ``test``: tiny, for unit tests.

Each built program prints its results via ``rt.print_*`` so the fault
injector can compare outputs against a golden run, and ``expected``
carries an independently computed (numpy/Python) reference for unit
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..cpu.threads import ScalabilityProfile
from ..ir.module import Module

SCALES = ("perf", "fi", "test")


@dataclass
class BuiltWorkload:
    """A concrete, runnable instance of a workload."""

    module: Module
    entry: str
    args: tuple
    #: Independently computed expected output (floats compared with
    #: tolerance); None entries are skipped in comparisons.
    expected: Optional[List] = None
    #: Relative tolerance for float comparisons against ``expected``.
    rtol: float = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    suite: str  # "phoenix" | "parsec" | "micro" | "apps"
    build: Callable[[str], BuiltWorkload]
    profile: ScalabilityProfile
    description: str
    fp_heavy: bool = False

    def build_at(self, scale: str = "test") -> BuiltWorkload:
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
        return self.build(scale)


def rng(seed: int) -> "numpy.random.RandomState":
    """Deterministic data source for workload inputs."""
    # numpy is imported here, not at the top: campaigns compare outputs
    # through this module and build no inputs.
    import numpy

    return numpy.random.RandomState(seed)


def pick(scale: str, perf, fi, test):
    """Choose a size parameter by scale."""
    return {"perf": perf, "fi": fi, "test": test}[scale]


def outputs_match(actual: Sequence, expected: Sequence, rtol: float = 1e-9) -> bool:
    """Compare program output against a reference; ints exactly, floats
    with relative tolerance; None in expected is a wildcard."""
    if len(actual) != len(expected):
        return False
    for a, e in zip(actual, expected):
        if e is None:
            continue
        if isinstance(e, float) or isinstance(a, float):
            scale = max(abs(float(e)), 1.0)
            if abs(float(a) - float(e)) > rtol * scale:
                return False
        elif a != e:
            return False
    return True
