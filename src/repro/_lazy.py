"""Package namespaces that import their exports on first use (PEP 562).

Every ``repro`` package ``__init__`` declares its public names once, in
a table ``{submodule: (name, ...)}``, and takes ``__all__``,
``__getattr__`` and ``__dir__`` from :func:`lazy_exports`.  Importing
the package then runs no submodule: reading ``repro.detect.FaceDetector``
(or ``from repro.detect import FaceDetector``) imports
``repro.detect.detector`` alone and caches the value in the package
namespace.  A process therefore loads the modules of the names it
touches, not the whole tree: a server does not import the trainer, and
a training run does not import the HTTP codec.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` from ``table``.

    ``table`` maps a submodule path relative to ``package`` to the names
    it exports through the package.  An unknown name raises
    :class:`AttributeError`, as a missing attribute does.  A name that is
    also the name of its submodule (``repro.evaluation.hungarian``) is
    the one export bound at package import.
    """
    exports = [name for names in table.values() for name in names]
    origin = {name: sub for sub, names in table.items() for name in names}
    module = sys.modules[package]
    for sub, names in table.items():
        if sub in names:
            # importing a submodule binds it on its package, which would
            # shadow a same-named export for good: bind the export first
            setattr(module, sub, getattr(importlib.import_module(f"{package}.{sub}"), sub))

    def __getattr__(name: str) -> object:
        sub = origin.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(module), *exports})

    return exports, __getattr__, __dir__
