"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` that imports every submodule to re-export its
names makes any import of any submodule pay for all of them. A lazy
package instead declares where each public name is defined and imports
that submodule on the name's first use::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".campaign": ("CampaignConfig", "run_campaign"),
        ".outcomes": ("Outcome",),
    })

Names listed under ``"."`` are submodules, re-exported as modules
(``".": ("kvstore", "sqldb")``). Code inside the package imports from
the defining submodule, never through the package.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Dict, Sequence


class LazyPackage(types.ModuleType):
    """A package module whose re-exports win over same-named submodules.

    Loading a submodule binds it on its package (``repro.passes.mem2reg``
    becomes the module). Where the package re-exports a function under
    that name, the name keeps meaning the function, as it did when the
    package imported it eagerly.
    """

    def __setattr__(self, name: str, value) -> None:
        source = self.__dict__["_lazy_sources"].get(name)
        if (source is not None and source != "."
                and isinstance(value, types.ModuleType)
                and value.__name__ == f"{self.__name__}.{name}"):
            return
        super().__setattr__(name, value)


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]):
    """Return the ``(__getattr__, __dir__)`` pair of ``package``, whose
    public names live in submodules: ``exports`` maps each submodule,
    relative to the package, to the names it defines."""
    module = sys.modules[package]
    sources = {name: source for source, names in exports.items()
               for name in names}
    module.__dict__["_lazy_sources"] = sources
    module.__class__ = LazyPackage

    def __getattr__(name: str):
        source = sources.get(name)
        if source is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        if source == ".":
            value = importlib.import_module("." + name, package)
        else:
            value = getattr(importlib.import_module(source, package), name)
        module.__dict__[name] = value
        return value

    def __dir__():
        return sorted(set(module.__dict__) | set(sources))

    return __getattr__, __dir__
