"""Error functionals: contraction error, f-error split, minimality, errorless."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from measerr import (
    DensityOperator,
    GenConfig,
    HermitianObservable,
    LocalContext,
    PAULI_X,
    PAULI_Z,
    Povm,
    haar_unitary,
    kernels,
    projective_from,
    random_observable,
    random_povm,
    random_state,
    trivial_measurement,
    unsharp_qubit,
)
from measerr.states import OutcomeSpace, ProbabilityDistribution

X = HermitianObservable(PAULI_X)
Z = HermitianObservable(PAULI_Z)
MIXED = DensityOperator.maximally_mixed(2)


def eps(ctx, a):
    return kernels.transport(ctx.arrays, a.matrix).error


def f_error_split(ctx, a, f):
    return kernels.f_error_split(ctx.arrays, a.matrix, kernels.transport(ctx.arrays, a.matrix), f)


def pushforward(ctx, a):
    return kernels.pushforward(ctx.arrays, a.matrix)


def conditions(ctx, a):
    return kernels.errorless(ctx.arrays, a.matrix)


def random_ctx(dim, seed, mixedness="ginibre"):
    rng = np.random.default_rng(seed)
    cfg = GenConfig(dim=dim, outcomes=int(rng.integers(2, 6)), mixedness=mixedness)
    return LocalContext(random_povm(cfg, rng), random_state(cfg, rng)), random_observable(cfg, rng), rng


class TestQuantumError:
    def test_projective_own_basis_is_errorless(self):
        ctx = LocalContext(projective_from(Z), MIXED)
        assert eps(ctx, Z) <= 1e-12

    def test_projective_transverse_is_maximal(self):
        ctx = LocalContext(projective_from(Z), MIXED)
        assert eps(ctx, X) == pytest.approx(1.0, abs=1e-12)

    def test_unsharp_closed_form(self):
        ctx = LocalContext(unsharp_qubit((0, 0, 1), 0.6), MIXED)
        assert oracles.unsharp_eps_z(0.6) == pytest.approx(0.8, abs=1e-12)
        assert eps(ctx, Z) == pytest.approx(0.8, abs=1e-10)

    def test_matches_brute_formula_on_sweep(self):
        for seed in range(10):
            ctx, a, _ = random_ctx(3, seed)
            brute = oracles.quantum_error_brute(ctx.povm.effects, ctx.rho.matrix, a.matrix)
            assert eps(ctx, a) == pytest.approx(brute, abs=1e-9)

    def test_unsharp_eta_grid(self):
        for eta in np.arange(0.0, 1.01, 0.1):
            ctx = LocalContext(unsharp_qubit((0, 0, 1), float(eta)), MIXED)
            closed = np.sqrt(1 - eta * eta)
            assert eps(ctx, Z) == pytest.approx(closed, abs=1e-10)
            assert eps(ctx, Z) == pytest.approx(
                oracles.unsharp_eps_z(float(eta)), abs=1e-10
            )


class TestFError:
    def test_optimal_estimator_recovers_quantum_error(self):
        for seed in range(8):
            ctx, a, _ = random_ctx(3, 50 + seed)
            breakdown = f_error_split(ctx, a, pushforward(ctx, a))
            assert breakdown.f_error == pytest.approx(breakdown.quantum_error, abs=1e-10)
            assert breakdown.estimation_error <= 1e-12

    def test_exact_reconstruction(self):
        ctx = LocalContext(projective_from(Z), MIXED)
        f = np.array(ctx.space.values)
        assert f_error_split(ctx, Z, f).f_error <= 1e-12

    def test_scaled_estimator_pays_one(self):
        ctx = LocalContext(projective_from(Z), MIXED)
        f = 2.0 * np.array(ctx.space.values)
        breakdown = f_error_split(ctx, Z, f)
        assert breakdown.estimation_error == pytest.approx(1.0, abs=1e-12)
        assert breakdown.f_error == pytest.approx(1.0, abs=1e-12)

    def test_decomposition_residual_sweep(self):
        for seed in range(20):
            ctx, a, rng = random_ctx(int(rng_dim(seed)), 100 + seed)
            f = rng.uniform(-2, 2, ctx.space.size)
            breakdown = f_error_split(ctx, a, f)
            residual = abs(
                breakdown.f_error**2 - breakdown.quantum_error**2 - breakdown.estimation_error**2
            )
            assert residual <= 1e-9


def rng_dim(seed):
    return 2 + seed % 3


class TestMinimality:
    def test_zero_perturbation_is_equality(self):
        ctx, a, _ = random_ctx(3, 7)
        opt = pushforward(ctx, a)
        assert f_error_split(ctx, a, opt).f_error == pytest.approx(eps(ctx, a), abs=1e-10)

    def test_frozen_quadratic_excess(self):
        # sharpness 0.6, delta = (1,-1), t = 0.1: excess must be exactly
        # t^2 ||delta||_p^2 = 0.01 with the uniform outcome distribution
        ctx = LocalContext(unsharp_qubit((0, 0, 1), 0.6), MIXED)
        opt = pushforward(ctx, Z)
        delta = np.array([1.0, -1.0])
        perturbed = f_error_split(ctx, Z, opt + 0.1 * delta)
        excess = perturbed.f_error**2 - eps(ctx, Z) ** 2
        assert kernels.class_norm(delta, ctx.prob.weights) == pytest.approx(1.0, abs=1e-12)
        assert excess == pytest.approx(0.01, abs=1e-12)


class TestErrorless:
    def test_own_basis_all_true(self):
        conds = conditions(LocalContext(projective_from(Z), MIXED), Z)
        assert conds.cond_a and conds.cond_b and conds.cond_c

    def test_transverse_all_false(self):
        conds = conditions(LocalContext(projective_from(Z), MIXED), X)
        assert not (conds.cond_a or conds.cond_b or conds.cond_c)

    def test_state_local_equivalence(self):
        # measuring Z on an X eigenstate still reconstructs X over that
        # state: the pushforward is the constant 1 and its pullback is the
        # identity, which agrees with X on the state
        plus = DensityOperator.pure([1, 1])
        ctx = LocalContext(projective_from(Z), plus)
        f = pushforward(ctx, X)
        assert np.allclose(f, 1.0, atol=1e-10)
        conds = conditions(ctx, X)
        assert conds.cond_a and conds.cond_b and conds.cond_c

    def test_agreement_on_random_sweep(self):
        for seed in range(30):
            ctx, a, _ = random_ctx(2 + seed % 3, 400 + seed)
            conds = conditions(ctx, a)
            assert conds.cond_a == conds.cond_b == conds.cond_c

    @pytest.mark.parametrize("dim", [2, 5, 8])
    def test_conditions_share_one_order_of_smallness(self, dim):
        # E_1 = P_1 + mu P_2, E_2 = (1 - mu) P_2 sits at distance mu from the
        # projective measurement of A = P_1 - 2 P_2: eps is O(sqrt(mu)), the
        # residual of (b) and the drops of (c) are O(mu)
        rng = np.random.default_rng(dim)
        u = haar_unitary(dim, rng)
        cols = u[:, : dim // 2]
        p1 = cols @ cols.conj().T
        p1 = (p1 + p1.conj().T) / 2.0
        p2 = np.eye(dim) - p1
        a = HermitianObservable(p1 - 2.0 * p2)
        rho = random_state(GenConfig(dim=dim), rng)
        space = OutcomeSpace.from_values([1.0, -2.0])
        for mu, errorless in [(0.0, True), (1e-14, True), (1e-12, True), (1e-10, True),
                              (1e-5, False), (1e-4, False), (1e-2, False)]:
            povm = Povm(space, [p1 + mu * p2, (1.0 - mu) * p2])
            conds = conditions(LocalContext(povm, rho), a)
            assert (conds.cond_a, conds.cond_b, conds.cond_c) == (errorless,) * 3, (mu, conds)


@settings(max_examples=30, deadline=None)
@given(t=st.floats(-3.0, 3.0), seed=st.integers(0, 10**6))
def test_homogeneity(t, seed):
    ctx, a, _ = random_ctx(3, seed)
    scaled = eps(ctx, t * a)
    base = eps(ctx, a)
    assert abs(scaled - abs(t) * base) <= 1e-10 * (1 + abs(t)) * (1 + base)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_subadditivity(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    cfg = GenConfig(dim=dim, outcomes=int(rng.integers(2, 6)))
    ctx = LocalContext(random_povm(cfg, rng), random_state(cfg, rng))
    a = random_observable(cfg, rng)
    b = random_observable(cfg, rng)
    assert eps(ctx, a) + eps(ctx, b) >= eps(ctx, a + b) - 1e-9


def test_trivial_measurement_reduces_to_standard_deviation():
    space = OutcomeSpace(("a", "b"), (0.0, 1.0))
    p0 = ProbabilityDistribution(space, [0.25, 0.75])
    for seed in range(10):
        rng = np.random.default_rng(seed)
        cfg = GenConfig(dim=3)
        rho = random_state(cfg, rng)
        a = random_observable(cfg, rng)
        ctx = LocalContext(trivial_measurement(p0, 3), rho)
        assert eps(ctx, a) == pytest.approx(kernels.std_dev(a.matrix, rho.matrix), abs=1e-10)
