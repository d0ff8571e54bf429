"""Every module's ``__all__`` names real attributes, each exactly once, and no class is a dataclass."""

import importlib
import inspect
import pkgutil

import pytest

import majorana_jm

MODULES = [
    importlib.import_module(info.name)
    for info in pkgutil.iter_modules(majorana_jm.__path__, "majorana_jm.")
]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_names_resolve_once(module):
    exported = module.__all__
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
    repeated = sorted({attr for attr in exported if exported.count(attr) > 1})
    assert not repeated, f"{module.__name__}.__all__ repeats {repeated}"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_records_are_named_tuples_not_dataclasses(module):
    classes = [obj for _, obj in inspect.getmembers(module, inspect.isclass) if obj.__module__ == module.__name__]
    dataclasses = [cls.__name__ for cls in classes if hasattr(cls, "__dataclass_fields__")]
    assert not dataclasses, f"{module.__name__} declares dataclasses {dataclasses}"
