"""Lazy package exports (PEP 562).

A package names which submodule provides each of its public names, and
the first access to a name imports that submodule.  ``import repro``
therefore imports no subpackage, and a ``repro mine`` process loads the
modules it runs and no others (see DESIGN.md, "Start-up")::

    _resolve, __dir__ = lazy_exports(__name__, {
        ".core": ("DataMatrix", "floc"),
        ".data": ("generate_embedded",),
    })


    def __getattr__(name: str) -> object:
        return _resolve(name)

The package still lists every name in ``__all__``.  Lint rule DCL005
accepts ``__all__`` names that the package does not bind only when it
defines ``__getattr__`` with a top-level ``def``, as above.
"""

import sys
from importlib import import_module
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps a submodule, relative to ``package``, to the names
    it provides.  A resolved name is stored in the package's namespace,
    so each name costs one import on first use and a plain attribute
    lookup after that.
    """
    owners: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def resolve(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def names() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    return resolve, names
