"""The modules the tests need, numpy and the `test` extra of pyproject.toml,
are installed.  A missing one fails here by name; elsewhere it would only
stop a test module from being collected, which the tier-1 command's
--continue-on-collection-errors lets pass."""
import importlib

import pytest


@pytest.mark.parametrize("module", ["numpy", "hypothesis", "sympy", "mpmath"])
def test_test_dependency_imports(module):
    try:
        importlib.import_module(module)
    except ImportError as err:
        pytest.fail(f"{module} is missing; install the test extra: pip install -e .[test] ({err})")
