"""repro.apps — the paper's three case studies (§VI, Figure 15):
a Memcached-like KV store, a SQLite3-like embedded database, and an
Apache-like static web server, driven by a YCSB-style generator."""

from .._lazy import lazy_exports

__all__ = [
    "OP_INSERT",
    "OP_READ",
    "OP_UPDATE",
    "YcsbTrace",
    "kvstore",
    "sqldb",
    "trace_by_name",
    "webserver",
    "workload_a",
    "workload_d",
    "zipf_probabilities",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".": ("kvstore", "sqldb", "webserver"),
    ".ycsb": (
        "OP_INSERT", "OP_READ", "OP_UPDATE", "YcsbTrace", "trace_by_name",
        "workload_a", "workload_d", "zipf_probabilities",
    ),
})
