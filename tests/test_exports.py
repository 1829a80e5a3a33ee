"""Each library module's __all__ resolves and names every public function
and class the module defines; importing the CLI loads no test-only
dependency."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import depthsep

# cli holds the click entry point and its commands, not a library API
LIBRARY = sorted(m.name for m in pkgutil.iter_modules(depthsep.__path__) if m.name != "cli")


@pytest.mark.parametrize("name", LIBRARY)
def test_all_matches_public_definitions(name):
    mod = importlib.import_module(f"depthsep.{name}")
    exported = mod.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(mod, n)] == []
    defined = {
        n for n, obj in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    }
    assert sorted(defined - set(exported)) == []


def test_cli_import_does_not_load_mpmath():
    """The bound reports decide exactly in integers; mpmath is a test
    dependency, used only by the oracles, so a fresh interpreter that
    imports the CLI has not loaded it."""
    src = str(Path(depthsep.__file__).resolve().parents[1])
    code = "import sys, depthsep.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
