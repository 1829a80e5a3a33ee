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
