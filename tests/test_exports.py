"""Every name a module exports resolves to an attribute of it, and the
package imports no more of scipy than it uses."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_loads_no_scipy_special_or_stats():
    # the package uses only scipy.sparse; scipy.stats alone would cost about
    # 45 MB of resident memory (see timing.duration_log_density)
    code = ("import sys, rhythmscribe\n"
            "for m in sorted(sys.modules):\n"
            "    if m.split('.')[:2] in (['scipy', 'special'], ['scipy', 'stats']):\n"
            "        print(m)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(rhythmscribe.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == []
