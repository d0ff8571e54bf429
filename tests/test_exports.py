"""Every module's ``__all__`` names real attributes, each exactly once."""

import importlib
import pkgutil

import pytest

import majorana_jm

EXPORTING = [
    module
    for module in (
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(majorana_jm.__path__, "majorana_jm.")
    )
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_names_resolve_once(module):
    exported = module.__all__
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
    repeated = sorted({attr for attr in exported if exported.count(attr) > 1})
    assert not repeated, f"{module.__name__}.__all__ repeats {repeated}"
