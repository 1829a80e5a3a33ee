"""The suite's own pytest configuration (``[tool.pytest.ini_options]``), and a
lint of the package source that the suite enforces."""

import ast
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SCRATCH_TESTS = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_other_deprecation_fails():
    warnings.warn("some other API is deprecated", DeprecationWarning)


def test_after():
    pass
'''


def test_failing_property_test_is_reported(tmp_path):
    """Under the suite's warning filters a failing @given test is reported
    as one failure and the tests after it run.  To print the failing example
    hypothesis imports libcst, which warns a DeprecationWarning on import;
    other deprecations stay errors."""
    (tmp_path / "test_scratch.py").write_text(SCRATCH_TESTS)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_scratch.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert result.returncode == 1, output
    assert "2 failed, 1 passed" in result.stdout, output


def test_package_has_no_assert_statements():
    """python -O strips assert statements, so a check in the package must
    raise explicitly; every module of src/depthsep is parsed for them."""
    package = PYPROJECT.parent / "src" / "depthsep"
    modules = sorted(package.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def _unbounded_lru_caches(source):
    """Lines of each lru_cache in source with no maxsize or maxsize None:
    a bare decorator, a call without one, or one passing None."""
    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Name) and node.id == "lru_cache"
                or isinstance(node, ast.Attribute) and node.attr == "lru_cache"):
            continue
        call = calls.get(id(node))
        args = [] if call is None else [*call.args, *(k.value for k in call.keywords if k.arg == "maxsize")]
        if not args or isinstance(args[0], ast.Constant) and args[0].value is None:
            found.append(node.lineno)
    return found


def test_package_lru_caches_are_bounded():
    """An lru_cache with maxsize None, or none named, is sized by nothing the
    package states, and its results stay for the life of the process; every
    lru_cache of src/depthsep must name a bound."""
    cases = {"@lru_cache\ndef f(): pass": [1], "@functools.lru_cache()\ndef f(): pass": [1],
             "@lru_cache(maxsize=None)\ndef f(): pass": [1], "g = functools.lru_cache(None)(f)": [1],
             "@lru_cache(maxsize=4)\ndef f(): pass": [], "@functools.lru_cache(4)\ndef f(): pass": []}
    assert {src: _unbounded_lru_caches(src) for src in cases} == cases
    package = PYPROJECT.parent / "src" / "depthsep"
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in _unbounded_lru_caches(path.read_text(encoding="utf-8"))]
    assert not found, f"lru_cache without a bound in the package: {found}"
