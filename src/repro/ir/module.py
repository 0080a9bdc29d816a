"""Module: the top-level IR container (functions + globals)."""

from __future__ import annotations

from typing import Dict, List, Optional

from . import types as T
from .function import Function
from .values import GlobalVariable


class Module:
    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        #: Monotonic structure stamp. Anything that caches derived data
        #: keyed on the module (the pre-decoded execution engine, the
        #: campaign golden-run cache) keys on this and is invalidated
        #: when it changes. Structural edits here bump it automatically;
        #: IR passes that mutate function bodies in place must call
        #: :meth:`bump_version` (the in-tree passes and ``PassManager``
        #: all do).
        self.version: int = 0
        #: (version, cost-model id) -> decoded module (see repro.cpu.engine).
        self._decoded_cache: Dict = {}
        #: (version, entry, args digest, eligibility key) -> golden
        #: profile (see repro.faults.campaign.golden_profile); also the
        #: checkpoint sets and branch coordinates of repro.snap.
        self._golden_cache: Dict = {}

    def bump_version(self) -> int:
        """Invalidate caches derived from this module's IR."""
        self.version += 1
        self._decoded_cache.clear()
        self._golden_cache.clear()
        return self.version

    # Functions ---------------------------------------------------------------

    def add_function(self, name: str, ftype: T.FunctionType,
                     arg_names: Optional[List[str]] = None) -> Function:
        if name in self.functions:
            raise ValueError(f"function {name} already defined")
        fn = Function(name, ftype, arg_names)
        fn.parent = self
        self.functions[name] = fn
        self.bump_version()
        return fn

    def declare_function(self, name: str, ftype: T.FunctionType) -> Function:
        """Declare (or fetch an existing declaration of) an external function."""
        existing = self.functions.get(name)
        if existing is not None:
            if existing.type != ftype:
                raise TypeError(
                    f"redeclaration of {name} with different type: "
                    f"{existing.type} vs {ftype}"
                )
            return existing
        return self.add_function(name, ftype)

    def get_function(self, name: str) -> Function:
        fn = self.functions.get(name)
        if fn is None:
            raise KeyError(f"no function named {name}")
        return fn

    def remove_function(self, name: str) -> None:
        del self.functions[name]
        self.bump_version()

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    # Globals -----------------------------------------------------------------

    def add_global(self, name: str, content_type: T.Type, initializer=None,
                   constant: bool = False) -> GlobalVariable:
        if name in self.globals:
            raise ValueError(f"global {name} already defined")
        gv = GlobalVariable(name, content_type, initializer, constant)
        self.globals[name] = gv
        self.bump_version()
        return gv

    def get_global(self, name: str) -> GlobalVariable:
        gv = self.globals.get(name)
        if gv is None:
            raise KeyError(f"no global named {name}")
        return gv

    def clone_signature_into(self, other: "Module") -> None:
        """Copy global declarations into ``other`` (used by transforms
        that build a fresh module)."""
        for gv in self.globals.values():
            if gv.name not in other.globals:
                other.add_global(gv.name, gv.content_type, gv.initializer,
                                 gv.constant)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
