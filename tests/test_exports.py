"""Each library module's __all__ resolves and names every public function
and class the module defines."""

import importlib
import inspect
import pkgutil

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
