"""Lazy package re-exports (PEP 562).

``repro``, ``repro.core``, ``repro.net``, ``repro.samplers`` and
``repro.trace`` re-export the public names of their submodules.  Importing
those submodules from the package ``__init__`` would make *any* import under
the package — say ``repro.net.rng`` for one hash function — load the whole
simulation engine.
Each of those packages instead declares where its names live and resolves
them on attribute access, so ``from repro import run_aer`` still works but
costs the engine import only when it is actually asked for.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object]]:
    """``(__all__, __getattr__)`` for a package re-exporting ``exports``.

    ``exports`` maps a module path to the names it provides.  A name is
    looked up in its module on every access (nothing is cached in the
    package namespace), so the package always shows the module's current
    attribute.  Unknown names raise ``AttributeError``, which is what lets
    ``from repro import dist`` fall through to importing the submodule.
    """
    source = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(module), name)

    return list(source), __getattr__
