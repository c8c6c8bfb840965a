"""Suite bookkeeping: how checks, failures and the worst residual add up,
and how often the suites push an observable forward."""

import math
import sys

import numpy as np
import pytest

from measerr import (
    GenConfig,
    chain_check,
    evaluate_relation,
    random_indirect_model,
    random_observable,
    random_state,
)
from measerr import transport as transport_module
from measerr import suites
from measerr.suites import SuiteResult, _instance


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


@pytest.fixture
def pushforward_calls(monkeypatch):
    """Count every pushforward: wrap ``measerr.transport.pushforward`` and
    the same function under every name a ``measerr`` module imported it as
    (the suites call it directly)."""
    calls = []
    original = transport_module.pushforward

    def counted(ctx, a):
        calls.append((ctx, a))
        return original(ctx, a)

    for name, module in list(sys.modules.items()):
        if name.startswith("measerr.") and getattr(module, "pushforward", None) is original:
            monkeypatch.setattr(module, "pushforward", counted)
    return calls


class TestTransportOnce:
    """Each (context, observable) is pushed forward once."""

    def test_evaluate_relation(self, pushforward_calls):
        ctx, a, b = _instance(3, np.random.default_rng(1))
        evaluate_relation(ctx, a, b)
        assert len(pushforward_calls) == 2

    def test_chain_check(self, pushforward_calls):
        rng = np.random.default_rng(2)
        for dim in (2, 3, 5):
            cfg = GenConfig(seed=0, dim=dim, mixedness="ginibre")
            model = random_indirect_model(cfg, rng, ancilla_dim=2)
            rho = random_state(cfg, rng)
            chain_check(model, rho, random_observable(cfg, rng), random_observable(cfg, rng))
        assert len(pushforward_calls) == 2 * 3

    def test_error_decomposition(self, pushforward_calls):
        suites.suite_error_decomposition((2, 4), 3, seed=5)
        assert len(pushforward_calls) == 1 * 6

    def test_transport_adjointness(self, pushforward_calls):
        # a, b and the linear combination alpha a + beta b
        suites.suite_transport_adjointness((2, 4), 3, seed=5)
        assert len(pushforward_calls) == 3 * 6
