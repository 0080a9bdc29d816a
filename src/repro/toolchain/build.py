"""The canonical ``build(workload, scale, variant)`` pipeline.

Exactly the paper's §IV-A recipe, applied identically wherever a
module is needed (harness sessions, campaign cells, cluster workers):

1. ``build_at``  — construct the workload's IR at the given scale;
2. ``mem2reg`` → ``inline`` → ``mem2reg`` — the "-O3-equivalent"
   pipeline the paper runs before hardening (promote stack slots,
   inline the hot helpers/libm, promote again);
3. the variant's hardening transform (:class:`VariantSpec.transform`:
   vectorize for ``native``, ELZAR/SWIFT hardening for the rest,
   nothing for ``noavx``);
4. ``verify_module`` — structural verification of the result.

Steps 1–3 are skipped entirely when the artifact cache holds the
variant (content-addressed on workload, scale, variant digest,
:func:`pipeline_digest` and :func:`ir_format_digest`): the printed IR
is parsed back and verified, and its recorded digest is trusted
without printing it again. A rehydrated module is *digest-identical*
to a freshly built one — the fixed-point property pinned by
``tests/toolchain/test_roundtrip.py`` — so golden runs, campaign store
keys and cluster handshakes cannot tell the two apart.
"""

from __future__ import annotations

import hashlib
import numbers
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..ir import printer as _ir_printer
from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.printer import format_module
from ..ir.verifier import verify_module
from ..passes.inline import inline_module
from ..passes.mem2reg import mem2reg
from ..workloads.common import BuiltWorkload
from ..workloads.registry import get
from .cache import ArtifactCache
from .digest import digest_of
from .registry import VariantSpec, get_variant

#: Bump when the meaning of the pipeline changes (pass semantics, stage
#: order, printer format): every artifact-cache key and lab store key
#: is salted with it, so old artifacts/shards degrade to misses.
TOOLCHAIN_VERSION = 1

#: The canonical stage sequence, part of the pipeline digest.
PIPELINE: Tuple[str, ...] = (
    "build_at", "mem2reg", "inline", "mem2reg", "harden", "verify",
)

_PIPELINE_DIGEST: Optional[str] = None


def pipeline_digest() -> str:
    """Content digest of the pipeline identity (version + stages)."""
    global _PIPELINE_DIGEST
    if _PIPELINE_DIGEST is None:
        _PIPELINE_DIGEST = digest_of(
            ["toolchain-pipeline", TOOLCHAIN_VERSION, list(PIPELINE)]
        )
    return _PIPELINE_DIGEST


_IR_FORMAT_DIGEST: Optional[str] = None


def ir_format_digest() -> str:
    """Digest of the sources of the IR package (:mod:`repro.ir`): the
    printer and parser, and the types and values whose text they print
    and read. It salts artifact keys only: an artifact is printed text,
    so an edit to how IR is printed or parsed must turn old artifacts
    into misses, but it must not orphan lab store shards, whose keys
    digest the module's IR itself."""
    global _IR_FORMAT_DIGEST
    if _IR_FORMAT_DIGEST is None:
        _IR_FORMAT_DIGEST = _sources_digest(
            os.path.dirname(_ir_printer.__file__))
    return _IR_FORMAT_DIGEST


def _sources_digest(directory: str, tag: str = "ir-format") -> str:
    """Digest of every ``.py`` file in ``directory``, by name and
    content."""
    sources = [[name, _file_digest(os.path.join(directory, name))]
               for name in sorted(os.listdir(directory))
               if name.endswith(".py")]
    return digest_of([tag, sources])


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


_SEMANTICS_DIGEST: Optional[str] = None


def semantics_digest() -> str:
    """Digest of the sources of machine semantics: the :mod:`repro.cpu`
    and :mod:`repro.avx` packages and the checkpoint format
    (``snap/format.py``). It salts the keys of what a run produces
    rather than what a build produces — checkpoint sets and golden
    profiles — so an edit to instruction semantics, the timing model or
    the state layout turns them into misses instead of resuming a
    stale state. Lab cell and spec keys and the cluster handshake do
    not carry it (a semantics drift under the same IR is what the
    lab's golden-row cross-check catches)."""
    global _SEMANTICS_DIGEST
    if _SEMANTICS_DIGEST is None:
        _SEMANTICS_DIGEST = _semantics_digest(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    return _SEMANTICS_DIGEST


def _semantics_digest(root: str) -> str:
    """:func:`semantics_digest` of the ``repro`` package at ``root``."""
    return digest_of([
        "machine-semantics",
        _sources_digest(os.path.join(root, "cpu"), "cpu"),
        _sources_digest(os.path.join(root, "avx"), "avx"),
        _file_digest(os.path.join(root, "snap", "format.py")),
    ])


def toolchain_digest() -> str:
    """The digest that salts lab store keys (LAB_SCHEMA 3) and the
    cluster handshake: two checkouts agreeing on it agree on how
    modules are built."""
    return pipeline_digest()


def module_digest(module: Module) -> str:
    """Content digest of a module's printed IR (globals and their
    initializers included — the printer is round-trippable, so the text
    determines execution). Memoized against the module's version stamp.

    This is *the* module identity everywhere: lab store cell keys,
    cluster handshakes, checkpoint keys, and ``python -m repro
    variants`` all print/compare this digest.
    """
    cached = getattr(module, "_lab_digest", None)
    if cached is not None and cached[0] == module.version:
        return cached[1]
    digest = digest_of(["module-ir", format_module(module)])
    module._lab_digest = (module.version, digest)
    return digest


@dataclass
class BuiltVariant:
    """One (workload, scale, variant) cell, ready to run."""

    workload: str
    scale: str
    spec: VariantSpec
    module: Module
    entry: str
    args: tuple
    expected: Optional[list]
    rtol: float
    #: True when the module was rehydrated from the artifact cache
    #: (no build_at, no passes, no hardening ran in this process).
    from_cache: bool

    @property
    def ir_digest(self) -> str:
        return module_digest(self.module)


def _jsonable_run_meta(built) -> Optional[Dict]:
    """Entry/args/expected/rtol as exact JSON values, or None when a
    component cannot round-trip (the artifact is then not stored and
    the cell simply stays cold)."""
    args = []
    for value in built.args:
        if isinstance(value, bool) or not isinstance(
                value, (numbers.Integral, numbers.Real)):
            return None
        args.append(int(value) if isinstance(value, numbers.Integral)
                    else float(value))
    expected = built.expected
    if expected is not None:
        encoded = []
        for value in expected:
            if value is None:
                encoded.append(None)
            elif isinstance(value, bool):
                return None
            elif isinstance(value, numbers.Integral):
                encoded.append(int(value))
            elif isinstance(value, numbers.Real):
                encoded.append(float(value))
            else:
                return None
        expected = encoded
    return {"entry": built.entry, "args": args, "expected": expected,
            "rtol": float(built.rtol)}


class Toolchain:
    """Builds (and memoizes, and persistently caches) variant modules.

    One instance per logical consumer (a harness ``Session``, a
    campaign invocation, a cluster worker); all instances share the
    same on-disk artifact cache by default, so any of them warm-starts
    from builds done by any other process on the same checkout.
    """

    def __init__(self, cache: Optional[ArtifactCache] = None):
        self.cache = cache if cache is not None else ArtifactCache()
        self._bases: Dict[Tuple[str, str], BuiltWorkload] = {}
        self._bases_from_cache: set = set()
        self._variants: Dict[Tuple[str, str, str], BuiltVariant] = {}

    # Keys --------------------------------------------------------------------

    @staticmethod
    def artifact_key(workload: str, scale: str, spec: VariantSpec) -> str:
        return digest_of(["artifact", workload, scale,
                          digest_of(spec.cache_key()), pipeline_digest(),
                          ir_format_digest()])

    # Base (the "O3" module) --------------------------------------------------

    def base(self, workload: str, scale: str) -> BuiltWorkload:
        """The workload's O3 base: ``build_at`` + mem2reg → inline →
        mem2reg, memoized per (workload, scale). The base *is* the
        ``noavx`` variant, so a stored ``noavx`` artifact rehydrates it
        without running ``build_at`` at all."""
        key = (workload, scale)
        cached = self._bases.get(key)
        if cached is not None:
            return cached
        noavx = get_variant("noavx")
        art = self._load_artifact(workload, scale, noavx)
        base: Optional[BuiltWorkload] = None
        if art is not None:
            base = self._rehydrated_base(art)
        if base is not None:
            self._bases_from_cache.add(key)
        else:
            base = get(workload).build_at(scale)
            mem2reg(base.module)
            inline_module(base.module)
            mem2reg(base.module)
            # Canonicalize through print -> parse before hardening.
            # Printing uniquifies any duplicate value names, so after
            # this round trip the in-memory module is bit-identical to
            # a cache-rehydrated one — and every variant hardened from
            # it gets the same IR digest whether its base was fresh or
            # rehydrated, on this machine or a cluster peer's.
            base.module = parse_module(format_module(base.module))
            self._store_artifact(workload, scale, noavx, base.module, base)
        self._bases[key] = base
        return base

    @staticmethod
    def _rehydrated_base(art) -> Optional[BuiltWorkload]:
        meta = art.meta
        if meta.get("args") is None:
            return None
        return BuiltWorkload(
            module=art.module,
            entry=str(meta["entry"]),
            args=tuple(meta["args"]),
            expected=meta.get("expected"),
            rtol=float(meta.get("rtol", 1e-9)),
        )

    # Variants ----------------------------------------------------------------

    def build(self, workload: str, scale: str,
              variant: Union[str, VariantSpec]) -> BuiltVariant:
        """The canonical pipeline. Memoized per (workload, scale,
        variant); served from the artifact cache when possible."""
        spec = (variant if isinstance(variant, VariantSpec)
                else get_variant(variant))
        memo_key = (workload, scale, spec.name)
        cached = self._variants.get(memo_key)
        if cached is not None:
            return cached

        built: Optional[BuiltVariant] = None
        if spec.kind == "identity":
            # The base IS this variant (shares its artifact).
            base = self.base(workload, scale)
            built = BuiltVariant(
                workload=workload, scale=scale, spec=spec,
                module=base.module, entry=base.entry, args=base.args,
                expected=base.expected, rtol=base.rtol,
                from_cache=(workload, scale) in self._bases_from_cache,
            )
        else:
            art = self._load_artifact(workload, scale, spec)
            if art is not None and art.meta.get("args") is not None:
                try:
                    verify_module(art.module)
                except Exception:
                    art = None
            if art is not None and art.meta.get("args") is not None:
                meta = art.meta
                built = BuiltVariant(
                    workload=workload, scale=scale, spec=spec,
                    module=art.module, entry=str(meta["entry"]),
                    args=tuple(meta["args"]), expected=meta.get("expected"),
                    rtol=float(meta.get("rtol", 1e-9)), from_cache=True,
                )
            else:
                base = self.base(workload, scale)
                module = spec.transform(base.module)
                verify_module(module)
                built = BuiltVariant(
                    workload=workload, scale=scale, spec=spec,
                    module=module, entry=base.entry, args=base.args,
                    expected=base.expected, rtol=base.rtol, from_cache=False,
                )
                self._store_artifact(workload, scale, spec, module, base)
        self._variants[memo_key] = built
        return built

    def module(self, workload: str, scale: str,
               variant: Union[str, VariantSpec]) -> Module:
        return self.build(workload, scale, variant).module

    def ir_digest(self, workload: str, scale: str,
                  variant: Union[str, VariantSpec]) -> str:
        """The content digest of the built variant's printed IR — the
        value the cluster handshake compares across machines and
        ``python -m repro variants`` prints for drift debugging."""
        return self.build(workload, scale, variant).ir_digest

    # Artifact plumbing -------------------------------------------------------

    def _load_artifact(self, workload: str, scale: str, spec: VariantSpec):
        art = self.cache.load(self.artifact_key(workload, scale, spec))
        if art is not None:
            # The recorded digest is that of the sealed text, and the
            # text is a print/parse fixed point under the printer and
            # parser the key names: memoize it so module_digest() need
            # not print the module again.
            art.module._lab_digest = (art.module.version,
                                      art.meta["ir_digest"])
        return art

    def _store_artifact(self, workload: str, scale: str, spec: VariantSpec,
                        module: Module, built) -> None:
        run_meta = _jsonable_run_meta(built)
        if run_meta is None:
            return
        meta = dict(run_meta)
        meta.update({
            "workload": workload,
            "scale": scale,
            "variant": spec.name,
            "variant_digest": digest_of(spec.cache_key()),
            "pipeline_digest": pipeline_digest(),
            "ir_digest": module_digest(module),
        })
        self.cache.store(self.artifact_key(workload, scale, spec),
                         module, meta)


_DEFAULT_TOOLCHAIN: Optional[Toolchain] = None


def default_toolchain() -> Toolchain:
    """Process-wide shared toolchain (repeated figure regeneration and
    campaign cells in one process share built modules)."""
    global _DEFAULT_TOOLCHAIN
    if _DEFAULT_TOOLCHAIN is None:
        _DEFAULT_TOOLCHAIN = Toolchain()
    return _DEFAULT_TOOLCHAIN


def build(workload: str, scale: str,
          variant: Union[str, VariantSpec]) -> BuiltVariant:
    """Module-level convenience over :func:`default_toolchain`."""
    return default_toolchain().build(workload, scale, variant)
