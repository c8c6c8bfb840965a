"""POVM construction, application, adjoint, named families, contractivity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from measerr import (
    DEFAULT_TOL,
    DensityOperator,
    GenConfig,
    HermitianObservable,
    LocalContext,
    MeasurementKind,
    OutcomeSpace,
    PAULI_X,
    PAULI_Z,
    Povm,
    ProbabilityDistribution,
    kernels,
    noisy_projective,
    projective_from,
    random_povm,
    random_state,
    trivial_measurement,
    unsharp_qubit,
)
from measerr.generate import haar_unitaries
from measerr.measurement import check_effects

X = HermitianObservable(PAULI_X)
Z = HermitianObservable(PAULI_Z)
PM_SPACE = OutcomeSpace(("+", "-"), (1.0, -1.0))


class TestApply:
    def test_projective_on_mixed(self):
        p = projective_from(Z).apply(DensityOperator.maximally_mixed(2))
        assert np.allclose(p.weights, [0.5, 0.5], atol=1e-12)

    def test_projective_on_eigenstate(self):
        povm = projective_from(Z)
        p = povm.apply(DensityOperator.pure([1, 0]))
        # ascending eigenvalue order: outcome values (-1, +1)
        assert povm.space.values == (-1.0, 1.0)
        assert np.allclose(p.weights, [0.0, 1.0], atol=1e-12)

    def test_unsharp_on_eigenstate(self):
        povm = unsharp_qubit((0, 0, 1), 0.6)
        rho = DensityOperator.pure([1, 0])
        expected = oracles.probabilities(povm.effects, rho.matrix)
        assert expected == pytest.approx([0.8, 0.2], abs=1e-12)
        assert np.allclose(povm.apply(rho).weights, [0.8, 0.2], atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            projective_from(Z).apply(DensityOperator.maximally_mixed(3))


class TestAdjoint:
    def test_projective_identity_estimator(self):
        povm = projective_from(Z)
        rebuilt = kernels.adjoint(povm.effects, np.array(povm.space.values))
        assert np.allclose(rebuilt, PAULI_Z, atol=1e-12)

    def test_constant_function_gives_identity(self):
        for seed in range(5):
            cfg = GenConfig(dim=3, outcomes=4)
            povm = random_povm(cfg, np.random.default_rng(seed))
            total = kernels.adjoint(povm.effects, np.full(povm.space.size, 1.0))
            assert np.max(np.abs(total - np.eye(3))) <= 1e-10

    def test_unsharp_shrinks_observable(self):
        povm = unsharp_qubit((0, 0, 1), 0.6)
        adj = kernels.adjoint(povm.effects, np.array([1.0, -1.0]))
        assert np.allclose(adj, 0.6 * PAULI_Z, atol=1e-12)

    def test_characterization_sweep(self):
        for dim in (2, 3, 4):
            for seed in range(30):
                rng = np.random.default_rng((dim, seed))
                cfg = GenConfig(dim=dim, outcomes=int(rng.integers(2, 6)))
                povm = random_povm(cfg, rng)
                rho = random_state(cfg, rng)
                f = rng.uniform(-2, 2, povm.space.size)
                lhs = kernels.expect(kernels.adjoint(povm.effects, f), rho.matrix)
                rhs = kernels.dot(f, povm.apply(rho).weights)
                assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


class TestProjectiveFrom:
    def test_pauli_z(self):
        povm = projective_from(Z)
        assert povm.kind is MeasurementKind.PROJECTIVE
        assert povm.space.values == (-1.0, 1.0)
        assert np.allclose(povm.effects[1], np.diag([1.0, 0.0]), atol=1e-12)

    def test_degenerate_identity_is_trivial_shape(self):
        povm = projective_from(HermitianObservable.identity(2))
        assert povm.space.size == 1
        assert np.allclose(povm.effects[0], np.eye(2), atol=1e-12)

    def test_pauli_x_hand_projectors(self):
        povm = projective_from(X)
        assert np.allclose(povm.effects[1], oracles.FLIP_PROJ_PLUS, atol=1e-9)
        assert np.allclose(povm.effects[0], oracles.FLIP_PROJ_MINUS, atol=1e-9)


class TestTrivial:
    def test_uniform_qubit(self):
        p0 = ProbabilityDistribution(PM_SPACE, [0.5, 0.5])
        povm = trivial_measurement(p0, 2)
        assert povm.kind is MeasurementKind.TRIVIAL
        for eff in povm.effects:
            assert np.allclose(eff, np.eye(2) / 2, atol=1e-15)

    def test_single_outcome(self):
        space = OutcomeSpace(("only",), (1.0,))
        povm = trivial_measurement(ProbabilityDistribution(space, [1.0]), 3)
        assert np.allclose(povm.effects[0], np.eye(3), atol=1e-15)

    def test_state_independent(self):
        space = OutcomeSpace(("a", "b"), (0.0, 1.0))
        povm = trivial_measurement(ProbabilityDistribution(space, [0.3, 0.7]), 3)
        assert np.allclose(povm.effects[0], 0.3 * np.eye(3), atol=1e-15)
        rho1 = DensityOperator.maximally_mixed(3)
        rho2 = DensityOperator.pure([1, 0, 0])
        assert np.array_equal(povm.apply(rho1).weights, povm.apply(rho2).weights)


class TestUnsharpFamily:
    def test_sharp_limit_is_projective(self):
        sharp = unsharp_qubit((0, 0, 1), 1.0)
        proj = projective_from(Z)
        assert np.allclose(sharp.effects[0], proj.effects[1], atol=1e-12)
        assert np.allclose(sharp.effects[1], proj.effects[0], atol=1e-12)

    def test_blind_limit_is_trivial_uniform(self):
        blind = unsharp_qubit((0, 0, 1), 0.0)
        for eff in blind.effects:
            assert np.allclose(eff, np.eye(2) / 2, atol=1e-15)

    def test_intermediate_effect(self):
        povm = unsharp_qubit((0, 0, 1), 0.6)
        assert np.allclose(povm.effects[0], np.diag([0.8, 0.2]), atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            unsharp_qubit((0, 0, 2), 0.5)
        with pytest.raises(ValueError):
            unsharp_qubit((0, 0, 1), 1.5)

    def test_noisy_projective_path(self):
        assert np.allclose(
            noisy_projective(Z, 1.0).effects[1], np.diag([1.0, 0.0]), atol=1e-12
        )
        for eff in noisy_projective(Z, 0.0).effects:
            assert np.allclose(eff, np.eye(2) / 2, atol=1e-12)
        halfway = noisy_projective(Z, 0.5)
        assert np.allclose(halfway.effects[1], np.diag([0.75, 0.25]), atol=1e-12)
        with pytest.raises(ValueError):
            noisy_projective(Z, -0.1)


def contractivity(povm, f, rho):
    return kernels.contractivity(LocalContext(povm, rho).arrays, np.asarray(f, dtype=float))


class TestContractivity:
    def test_projective_saturates(self):
        report = contractivity(projective_from(Z), [-1.0, 1.0], DensityOperator.maximally_mixed(2))
        assert report.classical_norm == pytest.approx(report.adjoint_norm, abs=1e-12)
        assert abs(report.gap_min_eigenvalue) <= 1e-12

    def test_unsharp_gap(self):
        povm = unsharp_qubit((0, 0, 1), 0.6)
        report = contractivity(povm, [1.0, -1.0], DensityOperator.maximally_mixed(2))
        assert report.gap_min_eigenvalue == pytest.approx(0.64, abs=1e-12)

    def test_constant_function_gap_vanishes(self):
        cfg = GenConfig(dim=3, outcomes=4)
        povm = random_povm(cfg, np.random.default_rng(5))
        report = contractivity(povm, np.full(povm.space.size, 1.7), random_state(cfg, np.random.default_rng(5)))
        assert abs(report.gap_min_eigenvalue) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), lam=st.floats(0.0, 1.0))
def test_affineness(seed, lam):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    cfg = GenConfig(dim=dim, outcomes=int(rng.integers(2, 6)))
    povm = random_povm(cfg, rng)
    rho1 = random_state(cfg, rng)
    rho2 = random_state(GenConfig(dim=dim, mixedness="pure"), rng)
    mixed = DensityOperator(lam * rho1.matrix + (1 - lam) * rho2.matrix)
    lhs = povm.apply(mixed).weights
    rhs = lam * povm.apply(rho1).weights + (1 - lam) * povm.apply(rho2).weights
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestPovmValidation:
    def test_incomplete_rejected(self):
        with pytest.raises(ValueError):
            Povm(PM_SPACE, [np.eye(2) / 2, np.eye(2) / 3])

    def test_negative_effect_rejected(self):
        with pytest.raises(ValueError):
            Povm(PM_SPACE, [1.5 * np.eye(2), -0.5 * np.eye(2)])

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            Povm(PM_SPACE, [np.eye(2)])

    def test_one_small_non_hermitian_effect_rejected(self):
        # the bad effect is tiny: its residual is far below the scale of
        # the other effects, so it must be judged against its own scale
        space = OutcomeSpace.from_values((0.0, 1.0, 2.0))
        bad = 1e-6 * (np.diag([1.0, 0.0]) + 1e-8 * np.array([[0, 1], [0, 0]]))
        effects = [np.diag([0.5, 0.5]), np.diag([0.5, 0.5]) - 1e-6 * np.diag([1.0, 0.0]), bad]
        with pytest.raises(ValueError, match="not Hermitian"):
            Povm(space, effects)

    def test_one_effect_with_negative_eigenvalue_rejected(self):
        space = OutcomeSpace.from_values((0.0, 1.0, 2.0))
        effects = [np.diag([0.6, 0.3]), np.diag([0.41, 0.3]), np.diag([-0.01, 0.4])]
        with pytest.raises(ValueError, match="not PSD"):
            Povm(space, effects)

    def test_ragged_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Povm(PM_SPACE, [np.eye(2) / 2, np.eye(3) / 2])


PSD = DEFAULT_TOL.psd
PLANTED = [-PSD * 1.001, -PSD * 0.999, -PSD / 2 * 1.001, -PSD / 2 * 0.999, -1e-16, 0.0]


def planted_stack(rng, dim, planted):
    """Three sets of 2 to 5 effects that complete to I, zero-padded to 5; in
    one random set, one effect has its smallest eigenvalue at ``planted``
    (the others' spectra lie in [0.05, 0.95]), and the rest of that set
    splits I minus it.  The other sets are built alike around 0.3."""
    stack = np.zeros((3, 5, dim, dim), dtype=complex)
    bad = rng.integers(3)
    for k in range(3):
        u = haar_unitaries(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        w = np.concatenate([[planted if k == bad else 0.3], rng.uniform(0.05, 0.95, dim - 1)])
        first = (u * w) @ u.conj().T
        first = (first + first.conj().T) / 2.0
        n = rng.integers(2, 6)
        rest = rng.dirichlet(np.ones(n - 1))[:, None, None] * (np.eye(dim) - first)
        stack[k, :n] = np.concatenate([[first], rest])[rng.permutation(n)]
    return stack


def verdict(stack):
    try:
        check_effects(stack)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_effect_positivity_matches_eigvalsh(dim, monkeypatch):
    """``check_effects`` gives the verdict and message of the plain
    ``eigvalsh`` test (``oracles.effects_psd_message``) on effects that
    complete to I with one eigenvalue planted just above and below -psd and
    -psd/2, at -1e-16 and at 0.  Zero-padded stacks and spectral projectors
    pass without an eigenvalue call (the shifted Cholesky decides them), an
    effect below -psd takes one, and a NaN still fails as "finite"."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: calls.append(1) or eigvalsh(x))
    rng = np.random.default_rng(dim)
    for planted in PLANTED:
        for _ in range(30):
            stack = planted_stack(rng, dim, planted)
            calls.clear()
            got, eigenvalue_calls = verdict(stack), len(calls)
            assert got == oracles.effects_psd_message(stack, PSD)
            if planted < -PSD:
                assert got.endswith("not PSD") and eigenvalue_calls == 1
            elif planted >= -1e-16:
                assert eigenvalue_calls == 0
    for _ in range(30):
        eigs = rng.integers(-2, 3, dim).astype(float)
        u = haar_unitaries(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        _, projectors = kernels.spectral(np.stack([(u * eigs) @ u.conj().T, np.diag(eigs[::-1] + 0j)]))
        calls.clear()
        assert verdict(projectors) is None and not calls
        assert oracles.effects_psd_message(projectors, PSD) is None
    stack = planted_stack(rng, dim, 0.0)
    stack[1, 0, 0, 0] = np.nan
    assert verdict(stack) == "effect entries must be finite"
