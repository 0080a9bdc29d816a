"""Shared fixtures and IR-building helpers for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.cpu import Machine, MachineConfig
from repro.cpu.compiled import run_records
from repro.ir import IRBuilder, Module
from repro.ir import types as T


@pytest.fixture(autouse=True, scope="session")
def _isolated_lab_store(tmp_path_factory):
    """Point the durable campaign store (repro.lab) at a per-session
    temp file so tests never read or pollute the user-level store."""
    path = tmp_path_factory.mktemp("lab-store") / "store.sqlite"
    previous = os.environ.get("REPRO_LAB_STORE")
    os.environ["REPRO_LAB_STORE"] = str(path)
    yield
    if previous is None:
        os.environ.pop("REPRO_LAB_STORE", None)
    else:
        os.environ["REPRO_LAB_STORE"] = previous


@pytest.fixture(autouse=True, scope="session")
def _isolated_toolchain_cache(tmp_path_factory):
    """Point the toolchain artifact cache (repro.toolchain) at a
    per-session temp dir so tests never read or pollute the user-level
    cache. One dir for the whole session: later tests legitimately
    rehydrate artifacts stored by earlier ones (that path has its own
    dedicated tests)."""
    path = tmp_path_factory.mktemp("toolchain-cache")
    previous = os.environ.get("REPRO_TOOLCHAIN_CACHE")
    os.environ["REPRO_TOOLCHAIN_CACHE"] = str(path)
    yield
    if previous is None:
        os.environ.pop("REPRO_TOOLCHAIN_CACHE", None)
    else:
        os.environ["REPRO_TOOLCHAIN_CACHE"] = previous


@pytest.fixture
def fast_config() -> MachineConfig:
    """Machine config for semantic tests: no timing, no caches."""
    return MachineConfig(collect_timing=False, cache_enabled=False)


@pytest.fixture
def timed_config() -> MachineConfig:
    return MachineConfig(collect_timing=True, cache_enabled=True)


def make_function(module: Module, name: str, ret, params, arg_names=None):
    """Create a function + builder positioned at a fresh entry block."""
    fn = module.add_function(name, T.FunctionType(ret, tuple(params)), arg_names)
    builder = IRBuilder()
    builder.position_at_end(fn.append_block("entry"))
    return fn, builder


def run_scalar(module: Module, name: str, args=(), config=None):
    """Run a function on a fresh machine; returns the scalar result."""
    machine = Machine(module, config or MachineConfig(collect_timing=False,
                                                      cache_enabled=False))
    return machine.run(name, args).value


def build_expr_fn(ret_ty, body):
    """Single-function module: ``body(builder, args) -> value to ret``."""
    module = Module("expr")
    fn, b = make_function(module, "f", ret_ty, [])
    b.ret(body(b))
    return module


#: Differential tiers: the reference interpreter (the oracle), the
#: compiled engine's record path on its own (every frame on the record
#: functions, no segment), and the compiled engine.
TIERS = ("reference", "records", "compiled")


def tier_config(tier: str, **kwargs) -> MachineConfig:
    """MachineConfig for one differential tier (see :data:`TIERS`)."""
    return MachineConfig(engine="compiled" if tier == "records" else tier,
                         **kwargs)


def run_tier(machine: Machine, tier: str, entry: str, args=()):
    """``machine.run(entry, args)`` on one tier: "records" runs it
    through :func:`repro.cpu.compiled.run_records`."""
    if tier == "records":
        return run_records(machine, entry, args)
    return machine.run(entry, args)
