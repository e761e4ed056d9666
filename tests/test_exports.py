"""Every name a module exports resolves to an attribute of it."""
import importlib
import pkgutil

import pytest

import rhythmscribe

MODULES = ["rhythmscribe"] + [
    f"rhythmscribe.{info.name}" for info in pkgutil.iter_modules(rhythmscribe.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_public_module_exports():
    public = [name for name in MODULES if not name.rsplit(".", 1)[-1].startswith("_")]
    assert [name for name in public if not hasattr(importlib.import_module(name), "__all__")] == []
