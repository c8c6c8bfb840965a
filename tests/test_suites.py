"""Suite bookkeeping: how checks, failures and the worst residual add up,
and how often the suites transport an observable."""

import ast
import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import oracles
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
from measerr.states import check_states, pure_states
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


# The drawer of each verify suite ("contractivity" draws as
# "adjoint-characterization" does).
DRAWERS = {
    "affineness": suites._draw_affineness,
    "adjoint-characterization": partial(suites._draw_instance, with_f=True),
    "transport-adjointness": suites._draw_transport_adjointness,
    "error-decomposition": suites._draw_error_decomposition,
    "main-relation": suites._draw_instance,
    "errorless-equivalence": suites._draw_errorless_equivalence,
    "trivial-reduction": suites._draw_trivial_reduction,
}


def complex_column(col) -> list:
    """The complex arrays of a raw column of ``_draw_block``, combined as the
    suites combine them: the kets and the matrices each as one stack."""
    out = [None] * len(col)
    for ndim in {x.ndim for x in col}:
        rows = [i for i, x in enumerate(col) if x.ndim == ndim]
        for i, z in zip(rows, generate.complex_stack([col[i] for i in rows], axis=-ndim)):
            out[i] = z
    return out


def assert_block_is_the_plain_draws(cols, seed, suite, dim, block):
    """Every column of a ``_draw_block`` result equals, instance by instance,
    ``oracles.verify_draws`` on the instance's stream: the POVM as the
    effects of the plain factors (zero-padded), the other complex arrays
    exactly, and every other draw exactly."""
    for k, i in enumerate(block):
        plain = oracles.verify_draws(suites._rng(seed, suite, dim, i), suite, dim, generate._MIN_CONDITION)
        assert cols.keys() == plain.keys()
        for key, want in plain.items():
            if key == "povm":
                assert np.array_equal(cols[key][k, : len(want)], generate.povm_effects(want)[0])
                assert np.all(cols[key][k, len(want) :] == 0.0)
            elif np.iscomplexobj(want):
                assert np.array_equal(complex_column(cols[key])[k], want), key
            else:
                assert np.array_equal(cols[key][k], want), key


@pytest.mark.parametrize("suite", sorted(DRAWERS))
@pytest.mark.parametrize("dim", [2, 5])
def test_block_columns_are_the_plain_sequential_draws(suite, dim):
    block = range(3, 15)
    cols = suites._draw_block(19, suite, dim, block, DRAWERS[suite])
    assert_block_is_the_plain_draws(cols, 19, suite, dim, block)


@pytest.mark.parametrize("dim,ancilla", [(2, 1), (3, 2), (5, 3)])
def test_chain_models_are_the_plain_sequential_draws(dim, ancilla):
    block = range(4, 10)
    xi, u, rho, a, b = suites._chain_models(23, dim, ancilla, block)
    for k, i in enumerate(block):
        ket, factor, g, a_i, b_i = oracles.chain_draws(suites._rng(23, "ozawa-chain", dim, ancilla, i), dim, ancilla)
        assert np.array_equal(xi[k], check_states(pure_states(ket)))
        assert np.array_equal(u[k], generate.haar_unitaries(factor))
        assert np.array_equal(rho[k], check_states(generate.ginibre_states(g)))
        assert np.array_equal(a[k], generate.observable_matrices(a_i))
        assert np.array_equal(b[k], generate.observable_matrices(b_i))


@pytest.mark.parametrize("seed", [0, 1, -1, 812, 20240811, 2**32 - 1, 2**32, 2**63 - 1])
@pytest.mark.parametrize("suite,parts", [("main-relation", (2, 0)), ("ozawa-chain", (3, 0, 7)), ("affineness", (0, 0))])
def test_stream_key_is_the_key_numpy_derives_from_the_list(seed, suite, parts):
    """``_rng`` keys each stream by the seed's 32-bit words (two from 2**32
    on), the suite's stream id and the parts: the same stream as numpy's
    ``default_rng`` of the list."""
    ours = suites._rng(seed, suite, *parts)
    plain = np.random.default_rng([seed % 2**63, suites._SUITE_STREAM[suite], *parts])
    assert np.array_equal(ours.standard_normal(64), plain.standard_normal(64))
    assert np.array_equal(ours.integers(0, 2**62, 64), plain.integers(0, 2**62, 64))
    assert len(suites._seed_words(seed)) == (2 if seed % 2**63 >= 2**32 else 1)


def test_block_redraws_an_unwhitened_instance_from_its_own_stream(monkeypatch):
    """An instance whose POVM factors fail the whitening test is drawn again,
    and then its POVM and every later draw are those of the per-instance
    generators run on its stream; also in the suites that draw more after
    the POVM."""
    monkeypatch.setattr(generate, "_MIN_CONDITION", 0.2)
    for suite in ("main-relation", "error-decomposition", "errorless-equivalence"):
        retried = []

        def draw(rng, dim, retry):
            retried.append(retry)
            return DRAWERS[suite](rng, dim, retry)

        cols = suites._draw_block(11, suite, 4, range(12), draw)
        assert 0 < sum(retried) < 12 and len(retried) == 12 + sum(retried)
        for i in range(12):
            rng = suites._rng(11, suite, 4, i)
            outcomes = int(rng.integers(2, 7))
            cfg = GenConfig(dim=4, outcomes=outcomes, mixedness="pure" if rng.random() < 0.3 else "ginibre")
            assert np.array_equal(cols["povm"][i, :outcomes], random_povm(cfg, rng).effects)
            assert np.all(cols["povm"][i, outcomes:] == 0.0)
            rho = suites._states([cols["rho"][i]], [cfg.mixedness == "pure"])[0]
            assert np.array_equal(rho, random_state(cfg, rng).matrix)
            assert np.array_equal(suites._observables([cols["a"][i]])[0], random_observable(cfg, rng).matrix)
        assert_block_is_the_plain_draws(cols, 11, suite, 4, range(12))


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


def summaries(results) -> list:
    return [(r.name, r.checks, r.failures, repr(r.worst), r.messages) for r in results]


@pytest.mark.parametrize("failing", [False, True])
def test_results_do_not_depend_on_the_block_size(monkeypatch, failing):
    """Blocks of 3 (two full blocks and a ragged last one) give every suite
    the checks, failures, worst residual and messages of one block; also on
    failing runs, with the sign flip and roundoff-level slacks."""
    tol = Tolerances(validation=1e-16, identity=1e-16, expectation=1e-16) if failing else Tolerances()

    def run():
        results = suites.run_verify((2, 3), 7, seed=9, tol=tol, sign_flip=failing)
        return summaries([*results, suites.suite_ozawa_chain(((2, 2), (3, 2)), 7, seed=9, tol=tol)])

    default = run()
    assert sum(failures > 0 for _, _, failures, _, _ in default) == (8 if failing else 0)
    monkeypatch.setattr(suites, "_BLOCK", 3)
    assert run() == default


def test_dropped_real_term_fails_trivial_reduction(monkeypatch):
    """With the bound |I| in place of sqrt(R^2 + I^2) (R dropped), every
    instance fails trivial-reduction, which checks the bound against
    hypot(Cov, <[A,B]/2i>); unmutated, the suite passes."""
    relation = kernels.relation

    def dropped_r(*args, **kwargs):
        rel = relation(*args, **kwargs)
        rel.bound = np.abs(rel.imag_term)
        rel.slack = rel.eps_a * rel.eps_b - rel.bound
        return rel

    assert suites.suite_trivial_reduction((2, 3), 20, seed=3).passed
    monkeypatch.setattr(kernels, "relation", dropped_r)
    out = suites.suite_trivial_reduction((2, 3), 20, seed=3)
    assert (out.checks, out.failures) == (160, 40)
    assert all(m.startswith("reduced terms mismatch at dim=2 i=") for m in out.messages)
