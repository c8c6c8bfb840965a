"""Error functionals: contraction error, f-error split, minimality, errorless."""

import instances
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from instances import mixed, pure
from measerr import (
    PAULI_X as X,
    PAULI_Z as Z,
    kernels,
    noisy_projective,
    suites,
    trivial_measurement,
    unsharp_qubit,
)
from measerr.generate import gaussians, ginibre_states
from measerr.states import check_effects, check_observables
from measerr.tolerances import DEFAULT_TOL

MIXED = mixed(2)


def eps(ctx, a):
    return kernels.transport(ctx, a).error


def f_error_split(ctx, a, f):
    [split] = kernels.f_error_split(ctx, f, (a, kernels.transport(ctx, a)))
    return split


def pushforward(ctx, a):
    return kernels.pushforward(ctx, a)


def conditions(ctx, a):
    return kernels.errorless(ctx, a, kernels.transport(ctx, a))


def random_ctx(dim, seed, mixedness="ginibre"):
    rng = np.random.default_rng(seed)
    outcomes = int(rng.integers(2, 6))
    ctx = kernels.context(instances.povm(rng, dim, outcomes), instances.state(rng, dim, pure=mixedness == "pure"))
    return ctx, instances.observable(rng, dim), rng


class TestQuantumError:
    def test_projective_own_basis_is_errorless(self):
        ctx = kernels.context(kernels.spectral(Z)[1], MIXED)
        assert eps(ctx, Z) <= 1e-12

    def test_projective_transverse_is_maximal(self):
        ctx = kernels.context(kernels.spectral(Z)[1], MIXED)
        assert eps(ctx, X) == pytest.approx(1.0, abs=1e-12)

    def test_unsharp_closed_form(self):
        ctx = kernels.context(unsharp_qubit((0, 0, 1), 0.6), MIXED)
        assert oracles.unsharp_eps_z(0.6) == pytest.approx(0.8, abs=1e-12)
        assert eps(ctx, Z) == pytest.approx(0.8, abs=1e-10)

    def test_matches_brute_formula_on_sweep(self):
        for seed in range(10):
            ctx, a, _ = random_ctx(3, seed)
            brute = oracles.quantum_error_brute(ctx.effects, ctx.rho, a)
            assert eps(ctx, a) == pytest.approx(brute, abs=1e-9)

    def test_unsharp_eta_grid(self):
        for eta in np.arange(0.0, 1.01, 0.1):
            ctx = kernels.context(unsharp_qubit((0, 0, 1), float(eta)), MIXED)
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
        f, effects = kernels.spectral(Z)
        ctx = kernels.context(effects, MIXED)
        assert f_error_split(ctx, Z, f).f_error <= 1e-12

    def test_scaled_estimator_pays_one(self):
        values, effects = kernels.spectral(Z)
        ctx = kernels.context(effects, MIXED)
        f = 2.0 * values
        breakdown = f_error_split(ctx, Z, f)
        assert breakdown.estimation_error == pytest.approx(1.0, abs=1e-12)
        assert breakdown.f_error == pytest.approx(1.0, abs=1e-12)

    def test_decomposition_residual_sweep(self):
        for seed in range(20):
            ctx, a, rng = random_ctx(int(rng_dim(seed)), 100 + seed)
            f = rng.uniform(-2, 2, len(ctx.weights))
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
        ctx = kernels.context(unsharp_qubit((0, 0, 1), 0.6), MIXED)
        opt = pushforward(ctx, Z)
        delta = np.array([1.0, -1.0])
        perturbed = f_error_split(ctx, Z, opt + 0.1 * delta)
        excess = perturbed.f_error**2 - eps(ctx, Z) ** 2
        assert kernels.class_norm(delta, ctx.weights) == pytest.approx(1.0, abs=1e-12)
        assert excess == pytest.approx(0.01, abs=1e-12)


def bound_holds(e) -> bool:
    """The exact bound r^2 <= eps^2 <= r (2m + r) of ``e`` holds up to the errorless suite's roundoff."""
    return bool(np.all(e.violation <= suites._BOUND_ROUNDOFF * e.scale**2))


class TestErrorless:
    """Condition (a) decides whether a measurement is errorless, and the
    exact bound r^2 <= eps^2 <= r (2m + r) ties it to the round trip (b) and
    the norm chain (c) on every instance, errorless or not."""

    def test_own_basis_all_true(self):
        e = conditions(kernels.context(kernels.spectral(Z)[1], MIXED), Z)
        assert e.errorless and bound_holds(e)
        assert e.roundtrip_residual <= 1e-12

    def test_transverse_all_false(self):
        e = conditions(kernels.context(kernels.spectral(Z)[1], MIXED), X)
        assert not e.errorless and bound_holds(e)
        assert e.roundtrip_residual == pytest.approx(1.0, abs=1e-12)

    def test_state_local_equivalence(self):
        # measuring Z on an X eigenstate still reconstructs X over that
        # state: the pushforward is the constant 1 and its pullback is the
        # identity, which agrees with X on the state
        plus = pure([1, 1])
        ctx = kernels.context(kernels.spectral(Z)[1], plus)
        f = pushforward(ctx, X)
        assert np.allclose(f, 1.0, atol=1e-10)
        e = conditions(ctx, X)
        assert e.errorless and bound_holds(e)
        assert e.roundtrip_residual <= 1e-10

    def test_agreement_on_random_sweep(self):
        """The bound holds on random POVMs, which are not errorless, and on
        the noisy projective measurement E = (1 - lam) P + lam I/n of a d = 3
        observable for lam = 0 and log-spaced lam in [1e-12, 1]: among them
        lam near 4e-8, where (a) holds while r exceeds tau ||A||_rho, so
        that no threshold on r agrees with (a) there."""
        for seed in range(30):
            ctx, a, _ = random_ctx(2 + seed % 3, 400 + seed)
            e = conditions(ctx, a)
            assert not e.errorless and bound_holds(e)
        rng = np.random.default_rng(11)
        z = gaussians(rng, 2, 3, 3)
        rho, a = ginibre_states(z[0]), kernels.hermitian_part(z[1])
        lam = np.concatenate([[0.0], np.logspace(-12, 0, 2001)])[:, None, None, None]
        projectors = kernels.spectral(a)[1]
        effects = (1.0 - lam) * projectors + lam * np.eye(3) / len(projectors)
        e = conditions(kernels.context(effects, np.broadcast_to(rho, (len(lam), 3, 3))), a)
        assert bound_holds(e)
        window = e.errorless & (e.roundtrip_residual > DEFAULT_TOL.errorless * e.scale)
        assert window.any() and (lam[window] >= 1e-8).all() and (lam[window] <= 1e-7).all()

    @pytest.mark.parametrize("dim", [2, 5, 8])
    def test_conditions_share_one_order_of_smallness(self, dim):
        # E_1 = P_1 + mu P_2, E_2 = (1 - mu) P_2 sits at distance mu from the
        # projective measurement of A = P_1 - 2 P_2: eps is O(sqrt(mu)), so
        # (a) compares eps^2, and the bound holds at every mu
        rng = np.random.default_rng(dim)
        u = instances.haar_unitary(rng, dim)
        cols = u[:, : dim // 2]
        p1 = cols @ cols.conj().T
        p1 = (p1 + p1.conj().T) / 2.0
        p2 = np.eye(dim) - p1
        a = check_observables(p1 - 2.0 * p2)
        rho = instances.state(rng, dim)
        for mu, errorless in [(0.0, True), (1e-14, True), (1e-12, True), (1e-10, True),
                              (1e-5, False), (1e-4, False), (1e-2, False)]:
            effects = check_effects(np.array([p1 + mu * p2, (1.0 - mu) * p2]))
            e = conditions(kernels.context(effects, rho), a)
            assert e.errorless == errorless and bound_holds(e), (mu, e)


@settings(max_examples=30, deadline=None)
@given(t=st.floats(-3.0, 3.0), seed=st.integers(0, 10**6))
def test_homogeneity(t, seed):
    ctx, a, _ = random_ctx(3, seed)
    scaled = eps(ctx, check_observables(t * a))
    base = eps(ctx, a)
    assert abs(scaled - abs(t) * base) <= 1e-10 * (1 + abs(t)) * (1 + base)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_subadditivity(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    outcomes = int(rng.integers(2, 6))
    ctx = kernels.context(instances.povm(rng, dim, outcomes), instances.state(rng, dim))
    a = instances.observable(rng, dim)
    b = instances.observable(rng, dim)
    assert eps(ctx, a) + eps(ctx, b) >= eps(ctx, check_observables(a + b)) - 1e-9


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 8), outcomes=st.integers(2, 6), pure=st.booleans(), lam=st.floats(0.0, 1.0),
       seed=st.integers(0, 10**6))
def test_roundtrip_residual_is_at_most_the_error(dim, outcomes, pure, lam, seed):
    """r^2 <= eps^2 <= r (2m + r) for the residual r of errorless condition
    (b) and m = ||roundtrip(A)||_rho, up to roundoff of scale^2, on a random
    POVM and on the noisy projective measurement of A.  The lower side is
    r^2 = eps^2 - (||f_A||_p^2 - m^2) with contractivity, the upper side
    scale <= m + r.  r is not O(mu) in general: it ranges from about
    eps^2 / scale to about eps."""
    rng = np.random.default_rng(seed)
    rho, a = instances.state(rng, dim, pure=pure), instances.observable(rng, dim)
    for effects in (instances.povm(rng, dim, outcomes), noisy_projective(a, lam)):
        ctx = kernels.context(effects, rho)
        e = conditions(ctx, a)
        r, m = e.roundtrip_residual, kernels.norm(kernels.transport(ctx, a).roundtrip, rho)
        assert r**2 <= e.error**2 + 1e-13 * e.scale**2
        assert e.error**2 <= r * (2.0 * m + r) + 1e-13 * e.scale**2


def test_trivial_measurement_reduces_to_standard_deviation():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rho = instances.state(rng, 3)
        a = instances.observable(rng, 3)
        ctx = kernels.context(trivial_measurement([0.25, 0.75], 3), rho)
        assert eps(ctx, a) == pytest.approx(oracles.std_dev_brute(a, rho), abs=1e-10)
