"""Lazy package namespaces (PEP 562).

A package ``__init__`` that re-exports its submodules' names imports all of
them, and everything they import, as soon as any module under the package
is imported: ``import repro.snn.serving`` would run ``repro/__init__`` and,
through it, load the circuit tier and SciPy.  :func:`attach` gives a package
a module-level ``__getattr__`` and ``__dir__`` over its ``__all__`` instead
(the scheme of Scientific Python SPEC 1).  A name is imported from its
defining submodule on first access and then bound in the package's globals,
so later lookups are plain attribute hits.

Code under ``src/repro`` imports names from their defining modules, never
through a package namespace, so a lazy namespace is never part of an import
cycle.  Stdlib-only, so ``import repro`` loads nothing else.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple


def attach(
    package: str,
    submodules: Sequence[str] = (),
    names: Optional[Mapping[str, Sequence[str]]] = None,
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` of a lazy package namespace.

    Parameters
    ----------
    package:
        The package's ``__name__``; it must be in ``sys.modules`` (call this
        from the package's ``__init__``).
    submodules:
        Submodules exported as attributes of the package.
    names:
        Map from a submodule's short name to the names it defines that the
        package exports.

    ``__all__`` lists the submodules, then the names in map order.
    """
    origin: Dict[str, str] = {name: name for name in submodules}
    for module, exported in (names or {}).items():
        origin.update(dict.fromkeys(exported, module))
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{origin[name]}")
        value = module if name in submodules else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *origin})

    return __getattr__, __dir__, list(origin)
