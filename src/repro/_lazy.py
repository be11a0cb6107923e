"""Lazy package re-exports (PEP 562 module ``__getattr__``).

Each package ``__init__`` lists its public names once, by defining
submodule, and :func:`attach` derives ``__getattr__``, ``__dir__`` and
``__all__`` from that table — the style of Scientific Python SPEC 1
(``lazy_loader.attach``).  A name's submodule is imported on first
access, so ``import repro`` or ``import repro.core`` loads no model
code, and a command pays only for the modules it runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, Mapping


def attach(
    package: str,
    attributes: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> tuple[Callable[[str], object], Callable[[], list], list]:
    """``(__getattr__, __dir__, __all__)`` for the package ``package``.

    ``attributes`` maps each submodule to the names re-exported from
    it; ``submodules`` are re-exported as modules themselves.  Every
    submodule named in either resolves as a package attribute.  A name
    that is also its own submodule's name
    (``repro.core.figure_of_merit``) is bound at once: importing that
    submodule would otherwise rebind the package attribute to the
    module.
    """
    owners = {
        name: module for module, names in attributes.items() for name in names
    }
    modules = {*submodules, *attributes}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name in owners:
            return getattr(
                importlib.import_module(f"{package}.{owners[name]}"), name
            )
        if name in modules:
            return importlib.import_module(f"{package}.{name}")
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}"
        )

    for name, module in owners.items():
        if name == module:
            namespace[name] = __getattr__(name)

    exported = sorted({*submodules, *owners})

    def __dir__() -> list:
        return sorted({*namespace, *exported})

    return __getattr__, __dir__, exported
