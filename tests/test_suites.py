"""Suite bookkeeping: how checks, failures and the worst residual add up."""

import math

from measerr.suites import SuiteResult


class TestSuiteResult:
    def test_finite_residuals_keep_the_largest(self):
        out = SuiteResult("s")
        out.record(True, 1e-12, "")
        out.record(True, 3e-12, "")
        out.record(True, 2e-12, "")
        assert (out.checks, out.failures, out.worst) == (3, 0, 3e-12)

    def test_non_finite_residual_is_a_failure_and_the_worst(self):
        for bad in (math.nan, math.inf):
            out = SuiteResult("s")
            out.record(True, 1e-12, "fine")
            out.record(True, bad, "non-finite")
            out.record(True, 5.0, "fine again")
            assert out.checks == 3
            assert out.failures == 1
            assert not out.passed
            assert out.messages == ["non-finite"]
            assert not math.isfinite(out.worst)
            assert repr(out.worst) == repr(bad)
