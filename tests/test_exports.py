import importlib
import pkgutil

import pytest

import localcut

MODULES = ["localcut", *sorted(f"localcut.{m.name}" for m in pkgutil.iter_modules(localcut.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    """A stale ``__all__`` entry makes the star-import raise ``AttributeError``."""
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    exported = getattr(importlib.import_module(name), "__all__", None)
    if exported is not None:
        assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
        assert set(exported) <= namespace.keys()
