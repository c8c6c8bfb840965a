"""State-local pushforward/pullback, adjointness, contraction chain."""

import instances
import numpy as np
import pytest

import oracles
from instances import mixed, pure
from measerr import (
    PAULI_X as X,
    PAULI_Z as Z,
    kernels,
    trivial_measurement,
    unsharp_qubit,
)
from measerr.states import check_effects, check_observables, check_states

pushforward = kernels.pushforward


def pullback(ctx, f):
    return kernels.pullback(ctx, np.asarray(f, dtype=float))


def adjointness(ctx, a, f):
    return kernels.adjointness(ctx, a, pushforward(ctx, a), f)


def random_ctx(dim, seed, outcomes=None, mixedness="ginibre"):
    rng = np.random.default_rng(seed)
    outcomes = outcomes or int(rng.integers(2, 6))
    ctx = kernels.context(instances.povm(rng, dim, outcomes), instances.state(rng, dim, pure=mixedness == "pure"))
    return ctx, instances.observable(rng, dim), rng


class TestPushforward:
    def test_projective_z_reads_off_eigenvalues(self):
        ctx = kernels.context(kernels.spectral(Z)[1], mixed(2))
        f = pushforward(ctx, Z)
        assert np.allclose(f, [-1.0, 1.0], atol=1e-12)

    def test_projective_z_kills_transverse(self):
        ctx = kernels.context(kernels.spectral(Z)[1], mixed(2))
        f = pushforward(ctx, X)
        assert np.allclose(f, 0.0, atol=1e-12)

    def test_trivial_gives_constant_expectation(self):
        rng = np.random.default_rng(4)
        rho = instances.state(rng, 3)
        a = instances.observable(rng, 3)
        ctx = kernels.context(trivial_measurement([0.2, 0.3, 0.5], 3), rho)
        f = pushforward(ctx, a)
        assert np.allclose(f, kernels.expect(a, rho), atol=1e-10)

    @pytest.mark.parametrize("dim,seed", [(2, 0), (2, 1), (3, 2), (3, 3), (4, 4)])
    def test_matches_generic_linear_solve(self, dim, seed):
        ctx, a, _ = random_ctx(dim, seed)
        expected = oracles.pushforward_lstsq(ctx.effects, ctx.rho, a)
        assert np.allclose(pushforward(ctx, a), expected, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_generic_solve_on_pure_states(self, seed):
        # pure states exercise rank deficiency in the quantum inner product
        ctx, a, _ = random_ctx(3, 100 + seed, mixedness="pure")
        expected = oracles.pushforward_lstsq(ctx.effects, ctx.rho, a)
        assert np.allclose(pushforward(ctx, a), expected, atol=1e-8)

    def test_expectation_preserved(self):
        for seed in range(10):
            ctx, a, _ = random_ctx(3, 200 + seed)
            drift = abs(kernels.dot(pushforward(ctx, a), ctx.weights) - kernels.expect(a, ctx.rho))
            assert drift <= 1e-10 * (1 + abs(kernels.expect(a, ctx.rho)))

    def test_linearity(self):
        ctx, a, rng = random_ctx(4, 17)
        b = check_observables(np.diag(rng.uniform(-1, 1, 4)).astype(complex))
        combo = pushforward(ctx, check_observables(1.5 * a - 0.5 * b))
        parts = 1.5 * pushforward(ctx, a) - 0.5 * pushforward(ctx, b)
        assert np.allclose(combo, parts, atol=1e-10)


class TestPullback:
    def test_projective_full_support(self):
        values, effects = kernels.spectral(Z)
        ctx = kernels.context(effects, mixed(2))
        rep = pullback(ctx, values)
        assert np.allclose(rep, Z, atol=1e-12)

    def test_equivalent_functions_share_one_representative(self):
        # values (-1, +1); the -1 outcome has zero weight
        ctx = kernels.context(kernels.spectral(Z)[1], pure([1, 0]))
        rep_f = pullback(ctx, [7.0, 1.0])
        rep_g = pullback(ctx, [0.0, 1.0])
        assert np.array_equal(rep_f, rep_g)
        assert np.allclose(rep_f, np.diag([1.0, 0.0]), atol=1e-12)

    def test_unsharp_shrinks(self):
        ctx = kernels.context(unsharp_qubit((0, 0, 1), 0.6), mixed(2))
        rep = pullback(ctx, [1.0, -1.0])
        assert np.allclose(rep, 0.6 * Z, atol=1e-12)


class TestAdjointness:
    def test_constant_function_reduces_to_expectation(self):
        ctx, a, _ = random_ctx(3, 5)
        assert adjointness(ctx, a, np.full(len(ctx.weights), 1.0)) <= 1e-10

    def test_transverse_case_vanishes(self):
        ctx = kernels.context(kernels.spectral(Z)[1], mixed(2))
        f = np.array([1.0, -1.0])
        assert adjointness(ctx, X, f) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_sweep(self, dim):
        for seed in range(25):
            ctx, a, rng = random_ctx(dim, 1000 * dim + seed)
            f = rng.uniform(-2, 2, len(ctx.weights))
            assert adjointness(ctx, a, f) <= 1e-9 * (1 + abs(kernels.dot(f, ctx.weights)) + 1)


def norm_chain(ctx, a):
    """State norm of a, classical norm of its pushforward, and state norm of
    the round trip (pullback of the pushforward): a non-increasing chain."""
    fwd = pushforward(ctx, a)
    return (
        kernels.norm(a, ctx.rho),
        kernels.class_norm(fwd, ctx.weights),
        kernels.norm(pullback(ctx, fwd), ctx.rho),
    )


class TestContractionReport:
    def test_errorless_chain_is_flat(self):
        ctx = kernels.context(kernels.spectral(Z)[1], mixed(2))
        assert norm_chain(ctx, Z) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_transverse_collapses(self):
        ctx = kernels.context(kernels.spectral(Z)[1], mixed(2))
        assert norm_chain(ctx, X) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_unsharp_triple_from_direct_evaluation(self):
        # direct formula evaluation: pushforward values are +-eta, so the
        # round trip is eta^2 Z with state norm eta^2
        ctx = kernels.context(unsharp_qubit((0, 0, 1), 0.6), mixed(2))
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
        plus = np.diag([1.0, 0.0]).astype(complex)
        minus = np.diag([0.0, 1.0]).astype(complex)
        return check_effects(np.array([plus, split * minus, (1 - split) * minus]))

    def test_zero_probability_effects_do_not_leak(self):
        rho = pure([1, 0])
        rng = np.random.default_rng(0)
        for seed in range(5):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a = check_observables((g + g.conj().T) / 2)
            f1 = pushforward(kernels.context(self._split_minus_povm(0.3), rho), a)
            f2 = pushforward(kernels.context(self._split_minus_povm(0.4), rho), a)
            assert abs(f1[0] - f2[0]) <= 1e-10
            assert f1[1] == f2[1] == 0.0

    def test_context_support_bookkeeping(self):
        # outcomes ("+", "-a", "-b")
        ctx = kernels.context(self._split_minus_povm(0.3), pure([1, 0]))
        assert ctx.mask.tolist() == [True, False, False]
        assert not (ctx.mask & (ctx.weights <= instances.TINY_SUPPORT)).any()
        near = check_states(np.diag([1 - 1e-10, 1e-10]).astype(complex))
        ctx2 = kernels.context(self._split_minus_povm(0.5), near)
        assert ctx2.mask[0]
        assert (ctx2.mask & (ctx2.weights <= instances.TINY_SUPPORT)).tolist() == [False, True, True]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            kernels.context(kernels.spectral(Z)[1], mixed(3))
