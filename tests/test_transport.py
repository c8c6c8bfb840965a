"""State-local pushforward/pullback, adjointness, contraction chain."""

import numpy as np
import pytest

import oracles
from measerr import (
    DensityOperator,
    GenConfig,
    HermitianObservable,
    LocalContext,
    OutcomeSpace,
    PAULI_X,
    PAULI_Z,
    Povm,
    ProbabilityDistribution,
    kernels,
    projective_from,
    random_observable,
    random_povm,
    random_state,
    trivial_measurement,
    unsharp_qubit,
)

X = HermitianObservable(PAULI_X)
Z = HermitianObservable(PAULI_Z)


def make_ctx(povm, rho):
    return LocalContext(povm, rho)


def pushforward(ctx, a):
    return kernels.pushforward(ctx.arrays, a.matrix)


def pullback(ctx, f):
    return kernels.pullback(ctx.arrays, np.asarray(f, dtype=float))


def adjointness(ctx, a, f):
    return kernels.adjointness(ctx.arrays, a.matrix, pushforward(ctx, a), f)


def random_ctx(dim, seed, outcomes=None, mixedness="ginibre"):
    rng = np.random.default_rng(seed)
    outcomes = outcomes or int(rng.integers(2, 6))
    cfg = GenConfig(dim=dim, outcomes=outcomes, mixedness=mixedness)
    ctx = LocalContext(random_povm(cfg, rng), random_state(cfg, rng))
    return ctx, random_observable(cfg, rng), rng


class TestPushforward:
    def test_projective_z_reads_off_eigenvalues(self):
        ctx = make_ctx(projective_from(Z), DensityOperator.maximally_mixed(2))
        f = pushforward(ctx, Z)
        assert np.allclose(f, [-1.0, 1.0], atol=1e-12)

    def test_projective_z_kills_transverse(self):
        ctx = make_ctx(projective_from(Z), DensityOperator.maximally_mixed(2))
        f = pushforward(ctx, X)
        assert np.allclose(f, 0.0, atol=1e-12)

    def test_trivial_gives_constant_expectation(self):
        space = OutcomeSpace(("a", "b", "c"), (0.0, 1.0, 2.0))
        p0 = ProbabilityDistribution(space, [0.2, 0.3, 0.5])
        rng = np.random.default_rng(4)
        cfg = GenConfig(dim=3)
        rho = random_state(cfg, rng)
        a = random_observable(cfg, rng)
        ctx = make_ctx(trivial_measurement(p0, 3), rho)
        f = pushforward(ctx, a)
        assert np.allclose(f, kernels.expect(a.matrix, rho.matrix), atol=1e-10)

    @pytest.mark.parametrize("dim,seed", [(2, 0), (2, 1), (3, 2), (3, 3), (4, 4)])
    def test_matches_generic_linear_solve(self, dim, seed):
        ctx, a, _ = random_ctx(dim, seed)
        expected = oracles.pushforward_lstsq(ctx.povm.effects, ctx.rho.matrix, a.matrix)
        assert np.allclose(pushforward(ctx, a), expected, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_generic_solve_on_pure_states(self, seed):
        # pure states exercise rank deficiency in the quantum inner product
        ctx, a, _ = random_ctx(3, 100 + seed, mixedness="pure")
        expected = oracles.pushforward_lstsq(ctx.povm.effects, ctx.rho.matrix, a.matrix)
        assert np.allclose(pushforward(ctx, a), expected, atol=1e-8)

    def test_expectation_preserved(self):
        for seed in range(10):
            ctx, a, _ = random_ctx(3, 200 + seed)
            drift = abs(kernels.dot(pushforward(ctx, a), ctx.prob.weights) - kernels.expect(a.matrix, ctx.rho.matrix))
            assert drift <= 1e-10 * (1 + abs(kernels.expect(a.matrix, ctx.rho.matrix)))

    def test_linearity(self):
        ctx, a, rng = random_ctx(4, 17)
        b = HermitianObservable(np.diag(rng.uniform(-1, 1, 4)).astype(complex))
        combo = pushforward(ctx, 1.5 * a - 0.5 * b)
        parts = 1.5 * pushforward(ctx, a) - 0.5 * pushforward(ctx, b)
        assert np.allclose(combo, parts, atol=1e-10)


class TestPullback:
    def test_projective_full_support(self):
        ctx = make_ctx(projective_from(Z), DensityOperator.maximally_mixed(2))
        rep = pullback(ctx, ctx.space.values)
        assert np.allclose(rep, PAULI_Z, atol=1e-12)

    def test_equivalent_functions_share_one_representative(self):
        ctx = make_ctx(projective_from(Z), DensityOperator.pure([1, 0]))
        space = ctx.space  # values (-1, +1); the -1 outcome has zero weight
        rep_f = pullback(ctx, [7.0, 1.0])
        rep_g = pullback(ctx, [0.0, 1.0])
        assert np.array_equal(rep_f, rep_g)
        assert np.allclose(rep_f, np.diag([1.0, 0.0]), atol=1e-12)

    def test_unsharp_shrinks(self):
        povm = unsharp_qubit((0, 0, 1), 0.6)
        ctx = make_ctx(povm, DensityOperator.maximally_mixed(2))
        rep = pullback(ctx, [1.0, -1.0])
        assert np.allclose(rep, 0.6 * PAULI_Z, atol=1e-12)


class TestAdjointness:
    def test_constant_function_reduces_to_expectation(self):
        ctx, a, _ = random_ctx(3, 5)
        assert adjointness(ctx, a, np.full(ctx.space.size, 1.0)) <= 1e-10

    def test_transverse_case_vanishes(self):
        ctx = make_ctx(projective_from(Z), DensityOperator.maximally_mixed(2))
        f = np.array([1.0, -1.0])
        assert adjointness(ctx, X, f) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_sweep(self, dim):
        for seed in range(25):
            ctx, a, rng = random_ctx(dim, 1000 * dim + seed)
            f = rng.uniform(-2, 2, ctx.space.size)
            assert adjointness(ctx, a, f) <= 1e-9 * (1 + abs(kernels.dot(f, ctx.prob.weights)) + 1)


def norm_chain(ctx, a):
    """State norm of a, classical norm of its pushforward, and state norm of
    the round trip (pullback of the pushforward): a non-increasing chain."""
    fwd = pushforward(ctx, a)
    return (
        kernels.norm(a.matrix, ctx.rho.matrix),
        kernels.class_norm(fwd, ctx.prob.weights),
        kernels.norm(pullback(ctx, fwd), ctx.rho.matrix),
    )


class TestContractionReport:
    def test_errorless_chain_is_flat(self):
        ctx = make_ctx(projective_from(Z), DensityOperator.maximally_mixed(2))
        assert norm_chain(ctx, Z) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_transverse_collapses(self):
        ctx = make_ctx(projective_from(Z), DensityOperator.maximally_mixed(2))
        assert norm_chain(ctx, X) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_unsharp_triple_from_direct_evaluation(self):
        # direct formula evaluation: pushforward values are +-eta, so the
        # round trip is eta^2 Z with state norm eta^2
        povm = unsharp_qubit((0, 0, 1), 0.6)
        ctx = make_ctx(povm, DensityOperator.maximally_mixed(2))
        assert norm_chain(ctx, Z) == pytest.approx((1.0, 0.6, 0.36), abs=1e-12)

    def test_chain_monotone_on_sweep(self):
        for seed in range(15):
            ctx, a, _ = random_ctx(3, 300 + seed)
            norm_state, norm_pushforward, norm_roundtrip = norm_chain(ctx, a)
            slack = 1e-9 * (1 + norm_state)
            assert norm_state >= norm_pushforward - slack
            assert norm_pushforward >= norm_roundtrip - slack


class TestSupportHandling:
    def _split_minus_povm(self, split):
        space = OutcomeSpace(("+", "-a", "-b"), (1.0, -1.0, -1.0))
        plus = np.diag([1.0, 0.0]).astype(complex)
        minus = np.diag([0.0, 1.0]).astype(complex)
        return Povm(space, [plus, split * minus, (1 - split) * minus])

    def test_zero_probability_effects_do_not_leak(self):
        rho = DensityOperator.pure([1, 0])
        rng = np.random.default_rng(0)
        for seed in range(5):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a = HermitianObservable((g + g.conj().T) / 2)
            f1 = pushforward(LocalContext(self._split_minus_povm(0.3), rho), a)
            f2 = pushforward(LocalContext(self._split_minus_povm(0.4), rho), a)
            assert abs(f1[0] - f2[0]) <= 1e-10
            assert f1[1] == f2[1] == 0.0

    def test_context_support_bookkeeping(self):
        ctx = LocalContext(self._split_minus_povm(0.3), DensityOperator.pure([1, 0]))
        assert ctx.support == {"+"}
        assert ctx.tiny_support == frozenset()
        near = DensityOperator(np.diag([1 - 1e-10, 1e-10]))
        ctx2 = LocalContext(self._split_minus_povm(0.5), near)
        assert "+" in ctx2.support
        assert ctx2.tiny_support == {"-a", "-b"}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LocalContext(projective_from(Z), DensityOperator.maximally_mixed(3))
