"""Session hooks shared by every test module."""

import pytest


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Drop Hypothesis's list of a failed test's falsifying examples before its
    pytest plugin reads it.  The plugin would turn the list into a suggested
    ``@example`` patch, importing ``hypothesis.extra._patching``; where libcst
    and mypy_extensions are installed, that import warns (DeprecationWarning),
    and ``filterwarnings = ["error"]`` makes the warning an INTERNALERROR that
    ends the session.  The failure and its falsifying example are reported
    as usual, and the rest of the session runs."""
    if call.when == "teardown":
        item.__dict__.pop("_hypothesis_failing_examples", None)
