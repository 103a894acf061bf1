"""Every name a gbskit module lists in `__all__` exists, and every public
function or class it defines is listed."""

import importlib
import inspect
import pkgutil

import pytest

import gbskit

MODULES = [
    module
    for module in (
        importlib.import_module(f"gbskit.{info.name}")
        for info in pkgutil.iter_modules(gbskit.__path__)
    )
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_matches_public_definitions(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined = {
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []
