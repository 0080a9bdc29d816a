"""CampaignRunner: run campaign cells against one store, from the
campaign CLI or from many service threads at once.

- **fabric selection**: every cell goes through the lab's one campaign
  driver (:mod:`repro.lab.durable`); construct with
  ``coordinator=None`` for its local executor
  (:func:`~repro.lab.durable.run_durable_campaign`: in-process or
  forked workers), or with a running
  :class:`~repro.cluster.coordinator.ClusterCoordinator` for its
  cluster executor
  (:func:`~repro.cluster.coordinator.run_distributed_campaign`).
  Outcome counts are bit-identical either way (the cluster test suite
  enforces it), so callers choose purely on deployment shape.
- **thread safety**: each ``run_*`` call opens its own SQLite
  connection to ``store_path`` unless the caller passes a ``store``
  (the CLI does — it reuses one connection for a whole run). Builds
  and golden runs are serialized behind one lock: they are memoized
  process-wide (toolchain build cache, per-module golden cache), so
  serializing them deduplicates work when concurrent campaigns share a
  cell, and it keeps module construction single-threaded.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from ..faults.campaign import CampaignConfig, golden_profile
from ..ir.module import Module
from ..lab.checkpoint import DEFAULT_SHARD_SIZE
from ..lab.durable import DurableCampaign, run_durable_campaign
from ..lab.events import EventBus
from ..lab.store import ResultStore
from ..toolchain.build import default_toolchain
from .spec import CampaignRequest


class CampaignRunner:
    """Run campaign cells against one store over a chosen fabric."""

    def __init__(self, store_path: Optional[str],
                 coordinator=None):
        self.store_path = store_path
        self.coordinator = coordinator
        self._prep_lock = threading.Lock()
        if coordinator is not None and store_path is not None \
                and coordinator.store_path != store_path:
            raise ValueError(
                f"coordinator writes to {coordinator.store_path!r} but the "
                f"runner's store is {store_path!r}; point both at one file"
            )

    # Cell-level entry point (the CLI's path) ---------------------------------

    def run_cell(
        self,
        module: Module,
        entry: str,
        args: Sequence,
        workload: str,
        version: str,
        config: CampaignConfig,
        *,
        build_scale: str,
        shard_size: int = DEFAULT_SHARD_SIZE,
        ci_target: Optional[float] = None,
        events: Optional[EventBus] = None,
        store: Optional[ResultStore] = None,
        campaign_id: str = "",
        priority: int = 0,
    ) -> DurableCampaign:
        """Run one already-built cell on this runner's fabric."""
        own_store = None
        if store is None and self.store_path is not None:
            own_store = store = ResultStore(self.store_path)
        try:
            if self.coordinator is not None:
                from ..cluster.coordinator import run_distributed_campaign

                return run_distributed_campaign(
                    module, entry, args, workload, version, config,
                    coordinator=self.coordinator, build_scale=build_scale,
                    store=store, events=events, shard_size=shard_size,
                    ci_target=ci_target, priority=priority,
                    campaign=campaign_id,
                )
            return run_durable_campaign(
                module, entry, args, workload, version, config,
                store=store if store is not None else False,
                events=events, shard_size=shard_size, ci_target=ci_target,
            )
        finally:
            if own_store is not None:
                own_store.close()

    # Request-level entry point (the service's path) --------------------------

    def run_request(
        self,
        request: CampaignRequest,
        *,
        events: Optional[EventBus] = None,
        campaign_id: str = "",
    ) -> DurableCampaign:
        """Build the requested cell through the toolchain and run it.

        Safe to call from many threads concurrently: the build and the
        golden run are primed under the prep lock (both memoized, so
        concurrent campaigns over one cell pay for them once), then the
        injection work proceeds in parallel on the fabric.
        """
        config = request.config()
        with self._prep_lock:
            built = default_toolchain().build(
                request.workload, request.build_scale, request.version)
            # Prime the per-module golden cache so the parallel phase
            # (and any concurrent campaign sharing this cell) replays
            # it instead of racing to recompute it.
            golden_profile(built.module, built.entry, built.args)
        return self.run_cell(
            built.module, built.entry, built.args,
            request.workload, request.version, config,
            build_scale=request.build_scale,
            shard_size=request.shard_size,
            ci_target=request.ci_target,
            events=events,
            campaign_id=campaign_id,
            priority=request.priority,
        )
