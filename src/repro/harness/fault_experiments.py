"""Fault-injection experiments (Figure 13 and the fault-model matrix)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..analysis.report import arithmetic_mean
from ..faults.campaign import CampaignConfig
from ..faults.models import model_names
from ..faults.outcomes import Outcome
from ..lab.durable import run_durable_campaign
from ..toolchain.build import default_toolchain
from ..workloads.registry import FI_BENCHMARKS, SHORT_NAMES
from .base import Experiment


def fig13_fault_injection(
    injections: int = 150,
    scale: str = "fi",
    seed: int = 2016,
    benchmarks: Optional[Sequence[str]] = None,
    workers: int = 1,
    store=None,
    ci_target: Optional[float] = None,
) -> Experiment:
    """Figure 13: fault-injection outcomes for native vs ELZAR (the
    paper injects 2500 faults per program on 12 benchmarks with the
    smallest inputs; the default here is 150 per program so the bench
    completes in minutes — raise ``injections`` to match the paper).

    Campaigns run through :mod:`repro.lab`: shard outcomes persist in
    the durable result store, so regenerating the figure — today or
    after raising ``injections`` — only executes injections the store
    has not seen (``workers`` forked processes at a time; 0 = all
    CPUs). ``ci_target`` enables Wilson-CI adaptive stopping with
    ``injections`` as the cap."""
    names = list(benchmarks) if benchmarks else [w.name for w in FI_BENCHMARKS]
    exp = Experiment(
        id="fig13",
        title=f"Fault injection outcomes, {injections} SEUs per program (%)",
        headers=(
            "benchmark", "version", "crashed", "correct", "corrupted(SDC)",
            "corrected",
        ),
        digits=1,
    )
    cfg = CampaignConfig(injections=injections, seed=seed, workers=workers)
    agg: Dict[str, Dict[str, list]] = {
        "native": {"crashed": [], "correct": [], "sdc": []},
        "elzar": {"crashed": [], "correct": [], "sdc": []},
    }
    toolchain = default_toolchain()
    for name in names:
        for version in ("native", "elzar"):
            built = toolchain.build(name, scale, version)
            result = run_durable_campaign(
                built.module, built.entry, built.args, name, version, cfg,
                store=store, ci_target=ci_target,
            ).result
            exp.rows.append(
                (
                    SHORT_NAMES.get(name, name),
                    version,
                    result.crash_rate,
                    result.correct_rate,
                    result.sdc_rate,
                    result.rate(Outcome.CORRECTED),
                )
            )
            agg[version]["crashed"].append(result.crash_rate)
            agg[version]["correct"].append(result.correct_rate)
            agg[version]["sdc"].append(result.sdc_rate)
    for version in ("native", "elzar"):
        exp.rows.append(
            (
                "mean",
                version,
                arithmetic_mean(agg[version]["crashed"]),
                arithmetic_mean(agg[version]["correct"]),
                arithmetic_mean(agg[version]["sdc"]),
                None,
            )
        )
    return exp


#: The matrix's hardening schemes, as registry variant names (the
#: ``elzar-detect`` spelling is a registry alias of ``elzar_detect``,
#: kept for row-label continuity): the scalar base, SWIFT-R's scalar
#: triplication, ELZAR detection-only (fail-stop checks), and full
#: ELZAR recovery. The unhardened row is ``noavx`` rather than
#: ``native``: the registry reserves ``native`` for the vectorized
#: performance baseline, whose to-scalar wrappers would count as
#: checker sites and fill the checker-fault hole the matrix pins.
_MATRIX_VERSIONS = ("noavx", "swiftr", "elzar-detect", "elzar")


def fault_model_matrix(
    injections: int = 60,
    scale: str = "test",
    seed: int = 2016,
    benchmarks: Optional[Sequence[str]] = None,
    workers: int = 1,
    store=None,
    models: Optional[Sequence[str]] = None,
) -> Experiment:
    """Outcome rates per fault model × hardening scheme (§V-C probe).

    Figure 13 asks one question ("does ELZAR correct register upsets?");
    this matrix asks the paper's harder one: *which fault shapes evade
    which scheme*. Expected signatures, each pinned by a test:

    - ``register-bitflip``: ELZAR corrects, SWIFT-R corrects, the
      unhardened base (``noavx``) takes SDCs — the headline result.
    - ``address-bitflip``: every scheme looks like the base — the fault
      lands after the check on the extracted scalar address (§V-C's
      window of vulnerability), so replication cannot see it.
    - ``branch-flip``: faults after the ptest sync point; wrong-path
      execution with consistent lanes.
    - ``checker-fault``: upsets inside the inserted checks themselves;
      rows exist only for hardened versions (the stream is empty
      elsewhere — those cells are skipped, not zero).
    - ``instruction-skip``: zeroes all lanes consistently, so lane
      comparison is blind to it.
    - ``memory-bitflip``: violates the paper's ECC-memory assumption;
      hardened and unhardened rates match.
    """
    names = list(benchmarks) if benchmarks else ["histogram"]
    wanted = list(models) if models else model_names()
    exp = Experiment(
        id="fault-model-matrix",
        title=(f"Outcome rates per fault model, {injections} injections "
               "per cell (%)"),
        headers=("benchmark", "fault model", "version", "crashed",
                 "corrected", "masked", "corrupted(SDC)"),
        digits=1,
    )
    toolchain = default_toolchain()
    for name in names:
        for model in wanted:
            for version in _MATRIX_VERSIONS:
                built = toolchain.build(name, scale, version)
                cfg = CampaignConfig(injections=injections, seed=seed,
                                     workers=workers, fault_model=model)
                try:
                    result = run_durable_campaign(
                        built.module, built.entry, built.args, name,
                        version, cfg, store=store,
                    ).result
                except ValueError:
                    # Empty target stream for this model × version
                    # (checker-fault against unhardened code): a hole
                    # in the matrix by design, not a zero row.
                    continue
                exp.rows.append((
                    SHORT_NAMES.get(name, name),
                    model,
                    version,
                    result.crash_rate,
                    result.rate(Outcome.CORRECTED),
                    result.rate(Outcome.MASKED),
                    result.sdc_rate,
                ))
    return exp
