"""Measurement plumbing for the case-study applications (§VI)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..apps import kvstore, sqldb, webserver
from ..apps.ycsb import trace_by_name
from ..cpu.interpreter import Machine, MachineConfig, RunResult
from ..ir.module import Module
from ..passes.inline import inline_module
from ..passes.mem2reg import mem2reg
from ..toolchain.registry import get_variant

#: Per-scale request counts (ops, keyspace) for the KV/SQL traces and
#: (requests, page size) for the web server.
_SIZES = {
    "perf": {"kv": (260, 2048), "sql": (160, 384), "web": (22, 8192)},
    "fi": {"kv": (40, 64), "sql": (24, 48), "web": (6, 1024)},
    "test": {"kv": (24, 32), "sql": (12, 24), "web": (4, 512)},
}

APPS = ("memcached", "sqlite3", "apache")


@dataclass
class AppInstance:
    name: str
    module: Module
    entry: str
    args: tuple
    expected: int
    exclude: frozenset = frozenset()


def build_app(name: str, trace_name: str = "A", scale: str = "perf") -> AppInstance:
    sizes = _SIZES[scale]
    if name == "memcached":
        nops, keyspace = sizes["kv"]
        trace = trace_by_name(trace_name, nops, keyspace)
        # A table much larger than the scaled LLC: Memcached's poor
        # memory locality is what amortizes ELZAR's overhead (§VI).
        app = kvstore.build(trace, table_size=1 << 13)
        inst = AppInstance(name, app.module, app.entry, app.args,
                           app.expected_checksum)
    elif name == "sqlite3":
        nops, keyspace = sizes["sql"]
        trace = trace_by_name(trace_name, nops, keyspace)
        app = sqldb.build(trace, tail_capacity=max(64, nops))
        inst = AppInstance(name, app.module, app.entry, app.args,
                           app.expected_checksum)
    elif name == "apache":
        nreq, page = sizes["web"]
        app = webserver.build(nrequests=nreq, page_size=page)
        inst = AppInstance(name, app.module, app.entry, app.args,
                           app.expected_checksum, exclude=webserver.THIRD_PARTY)
    else:
        raise KeyError(f"unknown app {name!r}; have {APPS}")
    mem2reg(inst.module)
    inline_module(inst.module, threshold=60, exclude=inst.exclude)
    mem2reg(inst.module)
    return inst


def app_variant_module(inst: AppInstance, variant: str) -> Module:
    """Apply a registry variant's hardening to the app base. Apps are
    not registry *workloads* (they build from traces, not scales), but
    the variant vocabulary and transforms are the registry's: the
    third-party/kernel ``exclude`` set (sendfile) is copied verbatim
    instead of vectorized/hardened (§VI)."""
    return get_variant(variant).transform(inst.module, exclude=inst.exclude)


class AppSession:
    """Caches app measurements across experiments (Figures 1 and 15)."""

    def __init__(self, scale: str = "perf"):
        self.scale = scale
        self._instances: Dict[Tuple[str, str], AppInstance] = {}
        self._results: Dict[Tuple[str, str, str], RunResult] = {}

    def instance(self, app: str, trace: str = "A") -> AppInstance:
        key = (app, trace)
        cached = self._instances.get(key)
        if cached is None:
            cached = build_app(app, trace, self.scale)
            self._instances[key] = cached
        return cached

    def run(self, app: str, variant: str, trace: str = "A") -> RunResult:
        key = (app, variant, trace)
        cached = self._results.get(key)
        if cached is not None:
            return cached
        inst = self.instance(app, trace)
        module = app_variant_module(inst, variant)
        machine = Machine(
            module,
            MachineConfig(cost_model=get_variant(variant).cost_model),
        )
        result = machine.run(inst.entry, inst.args)
        if result.output != [inst.expected]:
            raise AssertionError(
                f"{app}/{variant}/{trace}: wrong output {result.output} != "
                f"[{inst.expected}]"
            )
        self._results[key] = result
        return result

    def cycles_per_op(self, app: str, variant: str, trace: str = "A") -> float:
        result = self.run(app, variant, trace)
        nops = self.instance(app, trace).args[0]
        return result.cycles / nops
