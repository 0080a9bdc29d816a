"""Persistent, content-addressed campaign result store (SQLite).

Replay-based FI systems (RepTFD and kin) live or die on deterministic
re-execution plus durable bookkeeping. Our campaigns are deterministic
by construction — the outcome of a shard is a pure function of the
module IR, the entry/args, the eligibility predicate, and the fault
plans (which are a pure function of ``(eligible, seed)``) — so outcomes
can be *addressed by content* and never recomputed:

- ``goldens`` rows record the fault-free reference for one *cell*
  (module digest + entry + args + eligibility): an output digest plus
  the eligible/executed instruction counts. A digest mismatch on a
  later run means simulator semantics drifted under the same IR; the
  cell's shards are purged rather than silently replayed.
- ``shards`` rows record per-shard outcome counts keyed by the full
  campaign spec (cell + seed + hang_factor + rtol + eligible +
  shard_size) and the shard index. Fault plans are drawn sequentially
  from one seeded RNG, so shard contents do not depend on the campaign
  *cap*: raising ``injections`` from 150 to 2500 reuses every stored
  full shard and only executes the new tail.
- ``runs`` rows record CLI invocations (the parameter set as JSON and
  a running/complete status) so ``python -m repro campaign --resume``
  can pick up the latest interrupted run without repeating flags.

Schema changes bump :data:`LAB_SCHEMA`, which salts every key — an old
store file degrades to a miss, never to a wrong answer.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..chaos.hooks import ChaosCrash, chaos_point
from ..faults.outcomes import Outcome
# Canonicalization/digesting moved to repro.toolchain.digest (the
# toolchain is below the lab in the import graph); re-exported here
# because store keys are where they are used most.
from ..toolchain.digest import _canonical, digest_of  # noqa: F401

#: Bump when key derivation or row semantics change.
#: 2: spec keys carry the fault model + its target-stream population
#:    (pluggable fault models); goldens record the full stream profile.
#: 3: cell/spec keys are salted with the toolchain digest
#:    (repro.toolchain), and campaign cells are built through the
#:    unified toolchain pipeline (mem2reg -> inline -> mem2reg before
#:    hardening, same as harness figures) — shards recorded under the
#:    old divergent cell recipes can never be mixed with new ones.
LAB_SCHEMA = 3

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS goldens (
    cell_key   TEXT PRIMARY KEY,
    digest     TEXT NOT NULL,
    eligible   INTEGER NOT NULL,
    executed   INTEGER NOT NULL,
    created    REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS shards (
    spec_key    TEXT NOT NULL,
    shard_index INTEGER NOT NULL,
    cell_key    TEXT NOT NULL,
    n           INTEGER NOT NULL,
    counts      TEXT NOT NULL,
    seconds     REAL NOT NULL,
    created     REAL NOT NULL,
    PRIMARY KEY (spec_key, shard_index)
);
CREATE INDEX IF NOT EXISTS shards_by_cell ON shards (cell_key);
CREATE TABLE IF NOT EXISTS runs (
    run_id  INTEGER PRIMARY KEY AUTOINCREMENT,
    created REAL NOT NULL,
    status  TEXT NOT NULL,
    spec    TEXT NOT NULL
);
"""


def _encode_counts(counts: Counter) -> str:
    return json.dumps(
        {o.value: int(n) for o, n in sorted(counts.items(),
                                            key=lambda kv: kv[0].value)}
    )


def _decode_counts(text: str) -> Counter:
    return Counter({Outcome(k): v for k, v in json.loads(text).items()})


@dataclass(frozen=True)
class GoldenRecord:
    digest: str
    eligible: int
    executed: int


class ResultStore:
    """One SQLite file of campaign results. Safe to share between
    sequential invocations and between concurrent processes (SQLite
    locking; all writes are idempotent upserts of deterministic data).
    Only the parent/orchestrator process touches the store — forked
    shard workers return counts over a pipe."""

    def __init__(self, path: str = ":memory:"):
        self.path = path
        if path != ":memory:":
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(path, timeout=30.0)
        if path != ":memory:":
            # A commit appends to the write-ahead log and does not wait
            # for an fsync: rows a process committed survive its being
            # killed, and only a power loss can drop the last ones,
            # which resume re-executes (every row is a deterministic,
            # idempotent upsert).
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA_SQL)
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    # Goldens -----------------------------------------------------------------

    def get_golden(self, cell_key: str) -> Optional[GoldenRecord]:
        row = self._conn.execute(
            "SELECT digest, eligible, executed FROM goldens WHERE cell_key = ?",
            (cell_key,),
        ).fetchone()
        if row is None:
            return None
        return GoldenRecord(digest=row[0], eligible=row[1], executed=row[2])

    def put_golden(self, cell_key: str, digest: str, eligible: int,
                   executed: int) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO goldens VALUES (?, ?, ?, ?, ?)",
            (cell_key, digest, eligible, executed, time.time()),
        )
        self._conn.commit()

    # Shards ------------------------------------------------------------------

    def get_shard(self, spec_key: str, index: int
                  ) -> Optional[Tuple[int, Counter]]:
        row = self._conn.execute(
            "SELECT n, counts FROM shards WHERE spec_key = ? AND shard_index = ?",
            (spec_key, index),
        ).fetchone()
        if row is None:
            return None
        return row[0], _decode_counts(row[1])

    def get_shards(self, spec_key: str) -> Dict[int, Tuple[int, Counter]]:
        rows = self._conn.execute(
            "SELECT shard_index, n, counts FROM shards WHERE spec_key = ?",
            (spec_key,),
        ).fetchall()
        return {idx: (n, _decode_counts(text)) for idx, n, text in rows}

    def spec_progress(self, spec_key: str) -> Tuple[int, int, Counter]:
        """(completed shards, injections, summed counts) for one spec.

        Reads the *contiguous completed prefix* (shard 0..k with no
        gap), matching how the durable runner counts shards into a
        result — a shard landed out of order by a cluster worker is
        excluded until the gap before it fills. The service polls this
        for live partial status and to report how much of a submission
        is already banked (the resubmission ~0-compute probe)."""
        rows = self._conn.execute(
            "SELECT shard_index, n, counts FROM shards WHERE spec_key = ? "
            "ORDER BY shard_index", (spec_key,),
        ).fetchall()
        shards = 0
        injections = 0
        counts: Counter = Counter()
        for index, n, text in rows:
            if index != shards:
                break
            shards += 1
            injections += n
            counts.update(_decode_counts(text))
        return shards, injections, counts

    def put_shard(self, spec_key: str, cell_key: str, index: int, n: int,
                  counts: Counter, seconds: float) -> None:
        # The write-durability seam: "lose-write" is the row never
        # reaching the store (a crash before the commit, or a power
        # loss before the write-ahead log reached the disk: the
        # shard's work is gone and must be re-executed on resume);
        # "crash-after-write" dies with the row committed (a killed
        # process keeps it, and resume must treat the row as a hit,
        # not a stale duplicate). Both rely on put_shard being an
        # idempotent upsert of deterministic data.
        rule = chaos_point("lab.store.put-shard", index=index)
        if rule is not None and rule.action == "lose-write":
            raise ChaosCrash(f"chaos: shard {index} write lost "
                             "(simulated crash before commit)")
        self._conn.execute(
            "INSERT OR REPLACE INTO shards VALUES (?, ?, ?, ?, ?, ?, ?)",
            (spec_key, index, cell_key, n, _encode_counts(counts), seconds,
             time.time()),
        )
        self._conn.commit()
        if rule is not None and rule.action == "crash-after-write":
            raise ChaosCrash(f"chaos: simulated crash after shard {index} "
                             "committed")

    def purge_cell(self, cell_key: str) -> int:
        """Drop every shard of a cell (stale goldens); returns the
        number of rows removed."""
        cursor = self._conn.execute(
            "DELETE FROM shards WHERE cell_key = ?", (cell_key,)
        )
        self._conn.commit()
        return cursor.rowcount

    def shard_rows(self):
        """Every shard row as (spec_key, index, n, counts-json) —
        resume-equivalence tests compare whole-store row sets."""
        return set(
            self._conn.execute(
                "SELECT spec_key, shard_index, n, counts FROM shards"
            ).fetchall()
        )

    # Runs (CLI resume manifests) ---------------------------------------------

    def begin_run(self, spec: Dict) -> int:
        cursor = self._conn.execute(
            "INSERT INTO runs (created, status, spec) VALUES (?, 'running', ?)",
            (time.time(), json.dumps(spec, sort_keys=True)),
        )
        self._conn.commit()
        return int(cursor.lastrowid)

    def finish_run(self, run_id: int) -> None:
        self._conn.execute(
            "UPDATE runs SET status = 'complete' WHERE run_id = ?", (run_id,)
        )
        self._conn.commit()

    def latest_incomplete_run(self) -> Optional[Tuple[int, Dict]]:
        row = self._conn.execute(
            "SELECT run_id, spec FROM runs WHERE status = 'running' "
            "ORDER BY run_id DESC LIMIT 1"
        ).fetchone()
        if row is None:
            return None
        return int(row[0]), json.loads(row[1])


def default_store_path() -> str:
    """``$REPRO_LAB_STORE`` if set, else a per-user cache location."""
    env = os.environ.get("REPRO_LAB_STORE")
    if env:
        return env
    cache_root = os.environ.get(
        "XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache")
    )
    return os.path.join(cache_root, "repro-lab", "store.sqlite")


_OPEN_STORES: Dict[str, ResultStore] = {}


def default_store() -> ResultStore:
    """Process-wide store at :func:`default_store_path` (one open
    connection per path, so repeated figure regeneration shares it)."""
    path = default_store_path()
    store = _OPEN_STORES.get(path)
    if store is None:
        store = ResultStore(path)
        _OPEN_STORES[path] = store
    return store
