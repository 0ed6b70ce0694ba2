"""Public surface: every exported name resolves, so deleting a function
cannot leave a stale entry in an ``__all__``."""

import importlib
import pkgutil

import pytest

import harmonicity

MODULES = [harmonicity] + [
    importlib.import_module(f"harmonicity.{info.name}")
    for info in pkgutil.iter_modules(harmonicity.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert module.__all__, module.__name__
    stale = [name for name in module.__all__ if not hasattr(module, name)]
    assert stale == [], f"{module.__name__}.__all__ names what it does not define"


def test_package_exports_are_unique():
    # the package star-imports its modules, so a name two modules export
    # would silently hide one of them
    assert len(set(harmonicity.__all__)) == len(harmonicity.__all__)
