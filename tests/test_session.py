"""The test session itself: a failing test must not hide the rest of the run."""

import os
import subprocess
import sys
from pathlib import Path

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, deadline=None, database=None)
@given(x=st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    """A failing ``@given`` test under this suite's conftest and warnings
    filter is one failure among the session's results, not an INTERNALERROR."""
    here = Path(__file__).parent
    (tmp_path / "conftest.py").write_text((here / "conftest.py").read_text())
    (tmp_path / "test_it.py").write_text(FAILING)
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n")
    # only the Hypothesis plugin is loaded, which keeps the run short
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "_hypothesis_pytestplugin", "test_it.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"},
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1].startswith("1 failed, 1 passed")
