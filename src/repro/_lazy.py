"""Lazy package façades (PEP 562).

A package ``__init__`` declares which submodule defines each public name
and gets back its ``__all__``, ``__getattr__`` and ``__dir__``::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "binning": ("QuantileBinner", "ReservoirSampler"),
        "boosting": ("GBDTClassifier", "GBDTParams"),
    })

Importing the package then imports none of its submodules.  The first
access to an exported name (``repro.gbdt.QuantileBinner``, ``from
repro.gbdt import QuantileBinner``, or a star-import) imports the one
submodule defining it and caches the value in the package namespace, so
later lookups are plain attribute reads.

Modules inside ``src/`` import the submodule they use
(``from repro.gbdt.binning import QuantileBinner``), never a façade; the
façades are the public surface for scripts, tests and notebooks.
"""

from __future__ import annotations

import importlib
import sys
from typing import Mapping, Sequence


class _Facade:
    """The lookup table behind one package's ``__getattr__``/``__dir__``.

    Attributes:
        package: Dotted name of the package.
        table: Exported name → submodule (relative to the package).
    """

    def __init__(self, package: str, exports: Mapping[str, Sequence[str]]):
        self.package = package
        self.table: dict[str, str] = {}
        for submodule, names in exports.items():
            for name in names:
                if name in self.table:
                    raise ValueError(
                        f"{package}: {name!r} exported by both "
                        f"{self.table[name]!r} and {submodule!r}"
                    )
                self.table[name] = submodule

    def getattr(self, name: str):
        """Import the submodule defining ``name`` and cache the value."""
        submodule = self.table.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {self.package!r} has no attribute {name!r}"
            )
        module = importlib.import_module(f"{self.package}.{submodule}")
        value = getattr(module, name)
        setattr(sys.modules[self.package], name, value)
        return value

    def dir(self) -> list[str]:
        """Names already bound in the package plus every export."""
        return sorted(set(vars(sys.modules[self.package])) | set(self.table))


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]):
    """Build a package's lazy ``(__all__, __getattr__, __dir__)``.

    Args:
        package: The package's ``__name__``.
        exports: Submodule name (relative to ``package``; a subpackage for
            the root façade) → the public names it defines, in
            ``__all__`` order.

    Returns:
        ``__all__`` (every exported name), and the module-level
        ``__getattr__`` and ``__dir__`` hooks of PEP 562.

    Raises:
        ValueError: If two submodules export the same name.
    """
    facade = _Facade(package, exports)
    return list(facade.table), facade.getattr, facade.dir
