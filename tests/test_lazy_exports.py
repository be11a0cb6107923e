"""Lazy package re-exports resolve exactly as eager imports did.

Every package ``__init__`` is a :func:`repro._lazy.attach` table: a
name's submodule loads on first access.  These tests pin that each
exported name is the very object its submodule binds (never a copy,
never the submodule itself), that ``dir`` and ``import *`` see every
name, and that an unknown name fails the standard way.
"""

from __future__ import annotations

import importlib
import pkgutil
from types import ModuleType

import pytest

PACKAGES = (
    "repro",
    "repro.area",
    "repro.circuits",
    "repro.core",
    "repro.cost",
    "repro.cost.moe",
    "repro.gps",
    "repro.passives",
    "repro.reporting",
)

#: Names re-exported as modules, not as a submodule's attribute.
MODULE_EXPORTS = {
    "repro": {
        "area", "circuits", "core", "cost", "gps", "passives", "reporting",
        "units",
    },
    "repro.gps": {"data"},
}


def _submodules(package: ModuleType) -> dict[str, ModuleType]:
    return {
        info.name: importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    }


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_is_its_submodules_object(name):
    package = importlib.import_module(name)
    submodules = _submodules(package)
    modules = MODULE_EXPORTS.get(name, set())
    assert package.__all__, name
    for export in package.__all__:
        if export == "__version__":
            continue
        value = getattr(package, export)
        if export in modules:
            assert value is submodules[export]
            continue
        assert not isinstance(value, ModuleType), export
        owners = [
            module for module in submodules.values()
            if vars(module).get(export) is value
        ]
        assert owners, f"{name}.{export} is no submodule's object"


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_covers_all(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_every_name(name):
    package = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    for export in package.__all__:
        assert namespace[export] is getattr(package, export)


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError) as excinfo:
        package.no_such_name
    assert str(excinfo.value) == (
        f"module {name!r} has no attribute 'no_such_name'"
    )
    assert not hasattr(package, "no_such_name")
    with pytest.raises(ImportError, match="cannot import name"):
        exec(f"from {name} import no_such_name", {})


def test_a_name_shared_with_its_submodule_stays_the_function():
    """Importing ``repro.cost.moe.simulate`` (the module) must not
    rebind the package attribute ``simulate`` (the function)."""
    import repro.cost.moe
    import repro.cost.moe.simulate

    assert callable(repro.cost.moe.simulate)
    assert repro.cost.moe.simulate is (
        importlib.import_module("repro.cost.moe.simulate").simulate
    )


def test_submodules_resolve_as_attributes():
    import repro

    assert repro.core.warehouse is importlib.import_module(
        "repro.core.warehouse"
    )
    assert repro.cost.moe.analytic is importlib.import_module(
        "repro.cost.moe.analytic"
    )
