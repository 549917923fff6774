"""Lazy package exports (PEP 562): a name's module loads on first use.

A package ``__init__`` says where each public name lives and imports
nothing; the first read of a name imports its module and caches the
value on the package.  Importing one submodule (say the gateway) thus
never drags in its siblings (the simulator, numpy).
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Tuple


def lazy_exports(
    package: str, modules: Dict[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``, whose public
    names are ``modules[module]`` for each defining ``module``."""
    where = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, sorted(where)
