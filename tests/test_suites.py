"""Suite bookkeeping: how checks, failures and the worst residual add up,
and how often the suites transport an observable."""

import ast
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from measerr import (
    GenConfig,
    LocalContext,
    Tolerances,
    chain_check,
    evaluate_relation,
    random_indirect_model,
    random_observable,
    random_povm,
    random_state,
)
from measerr import generate, kernels, suites
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


@pytest.fixture
def transport_calls(monkeypatch):
    """Count the calls of the transport kernel ``kernels.pushforward``, which
    ``kernels.transport`` calls once: one call transports one observable, for
    one instance or for a whole (suite, dim) block."""
    calls = []
    original = kernels.pushforward

    def counted(ctx, a):
        calls.append(a.shape)
        return original(ctx, a)

    monkeypatch.setattr(kernels, "pushforward", counted)
    return calls


class TestTransportOnce:
    """Each (context, observable) is transported once: by one kernel call per
    observable per (suite, dim) block."""

    def test_evaluate_relation(self, transport_calls):
        rng = np.random.default_rng(1)
        cfg = GenConfig(dim=3, outcomes=4)
        ctx = LocalContext(random_povm(cfg, rng), random_state(cfg, rng))
        evaluate_relation(ctx, random_observable(cfg, rng), random_observable(cfg, rng))
        assert transport_calls == [(3, 3)] * 2

    def test_chain_check(self, transport_calls):
        rng = np.random.default_rng(2)
        for dim in (2, 3, 5):
            cfg = GenConfig(dim=dim, mixedness="ginibre")
            model = random_indirect_model(cfg, rng, ancilla_dim=2)
            rho = random_state(cfg, rng)
            chain_check(model, rho, random_observable(cfg, rng), random_observable(cfg, rng))
        assert len(transport_calls) == 2 * 3

    def test_error_decomposition(self, transport_calls):
        suites.suite_error_decomposition((2, 4), 3, seed=5)
        assert transport_calls == [(3, 2, 2), (3, 4, 4)]

    def test_blocks_bound_the_stack(self, transport_calls):
        n = 2 * suites._BLOCK + 1
        suites.suite_error_decomposition((3,), n, seed=5)
        assert transport_calls == [(suites._BLOCK, 3, 3)] * 2 + [(1, 3, 3)]

    def test_ozawa_chain(self, transport_calls):
        # a and b per block, with a partial last block
        n = 2 * suites._BLOCK + 1
        suites.suite_ozawa_chain(((3, 2),), n, seed=5)
        assert transport_calls == [(suites._BLOCK, 3, 3)] * 4 + [(1, 3, 3)] * 2

    def test_transport_adjointness(self, transport_calls):
        # a, b and the linear combination alpha a + beta b, per block
        suites.suite_transport_adjointness((2, 4), 3, seed=5)
        assert transport_calls == [(3, 2, 2)] * 3 + [(3, 4, 4)] * 3


class TestRecordBlock:
    def test_matches_record_check_by_check(self):
        rng = np.random.default_rng(0)
        n = 40
        residuals = [rng.uniform(0.0, 2.0, n) for _ in range(3)]
        residuals[1][[7, 30]] = [math.nan, math.inf]
        oks = [r <= 1.5 for r in residuals]
        checks = [(ok, r, f"check {k}", lambda i: f"{i}") for k, (ok, r) in enumerate(zip(oks, residuals))]
        block = SuiteResult("s")
        block.record(True, 0.25, "")
        block.record_block(3, range(10, 10 + n), checks)
        single = SuiteResult("s")
        single.record(True, 0.25, "")
        for i in range(n):
            for k, (ok, r) in enumerate(zip(oks, residuals)):
                single.record(bool(ok[i]), float(r[i]), f"check {k} at dim=3 i={10 + i}: {i}")
        assert (block.checks, block.failures, block.messages) == (single.checks, single.failures, single.messages)
        assert repr(block.worst) == repr(single.worst) == "nan"

    def test_scalar_checks_broadcast(self):
        out = SuiteResult("s")
        out.record_block(2, range(2), [(True, 0.0, "a"), (np.array([True, False]), np.array([1.0, 2.0]), "b")])
        assert (out.checks, out.failures, out.worst, out.messages) == (4, 1, 2.0, ["b at dim=2 i=1"])


def test_block_redraws_an_unwhitened_instance_from_its_own_stream(monkeypatch):
    """An instance whose POVM factors fail the whitening test is drawn again,
    and then its POVM and every later draw are those of the per-instance
    generators run on its stream."""
    monkeypatch.setattr(generate, "_MIN_CONDITION", 0.2)
    retried = []

    def draw(rng, dim, retry):
        retried.append(retry)
        return suites._draw_instance(rng, dim, retry)

    cols = suites._draw_block(11, "main-relation", 4, range(12), draw)
    assert 0 < sum(retried) < 12 and len(retried) == 12 + sum(retried)
    for i in range(12):
        rng = suites._rng(11, "main-relation", 4, i)
        outcomes = int(rng.integers(2, 7))
        cfg = GenConfig(dim=4, outcomes=outcomes, mixedness="pure" if rng.random() < 0.3 else "ginibre")
        assert np.array_equal(cols["povm"][i, :outcomes], random_povm(cfg, rng).effects)
        assert np.all(cols["povm"][i, outcomes:] == 0.0)
        rho = suites._states([cols["rho"][i]], [cfg.mixedness == "pure"])[0]
        assert np.array_equal(rho, random_state(cfg, rng).matrix)
        assert np.array_equal(suites._observables([cols["a"][i]])[0], random_observable(cfg, rng).matrix)


def test_chain_failure_names_the_model():
    """A chain failure reads "<what> at dim=<d>x<a> i=<i>", and its values
    are those of ``chain_check`` on the same model."""
    tol = Tolerances(identity=-1.0)
    out = suites.suite_ozawa_chain(((3, 2),), 2, seed=4, tol=tol)
    assert out.failures == 6 and len(out.messages) == 5
    assert out.messages[0].startswith("bridge identity broke at dim=3x2 i=0: ")
    assert out.messages[1] == "rms error below intrinsic error at dim=3x2 i=0"
    head, values = out.messages[2].split(": ", 1)
    assert head == "chain broke at dim=3x2 i=0"
    rng = suites._rng(4, "ozawa-chain", 3, 2, 0)
    cfg = GenConfig(dim=3, mixedness="ginibre")
    model = random_indirect_model(cfg, rng, ancilla_dim=2)
    rho = random_state(cfg, rng)
    report = chain_check(model, rho, random_observable(cfg, rng), random_observable(cfg, rng), tol=tol)
    assert np.allclose(ast.literal_eval(values), report.values, rtol=0.0, atol=1e-12)
    assert out.messages[3].startswith("bridge identity broke at dim=3x2 i=1: ")


def test_errorless_failure_lists_the_conditions(monkeypatch):
    """An errorless-equivalence failure reads "<what> at dim=<d> i=<i>: "
    followed by the six fields of the instance's conditions as Python
    scalars."""
    monkeypatch.setattr(kernels, "DEFAULT_TOL", replace(kernels.DEFAULT_TOL, errorless=0.0))
    out = suites.suite_errorless_equivalence((2, 3), 4, seed=6)
    assert out.failures > 0 and out.messages
    flag, number = r"(True|False)", r"(-?[0-9][0-9.e+-]*|nan|inf)"
    fields = ", ".join(
        [f"cond_{c}={flag}" for c in "abc"] + [f"{name}={number}" for name in ("error", "roundtrip_residual", "scale")]
    )
    for message in out.messages:
        assert re.fullmatch(rf"[a-z ]+ at dim=[23] i=[0-3]: .*?{fields}\)?", message), message
        assert "np." not in message
