"""POVM builders and validation, application, adjoint, named families, contractivity."""

import instances
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from instances import mixed, pure
from measerr import (
    DEFAULT_TOL,
    PAULI_X as X,
    PAULI_Z as Z,
    kernels,
    noisy_projective,
    qubit_state,
    trivial_measurement,
    unsharp_qubit,
)
from measerr.generate import haar_unitaries
from measerr.serialize import matrix_to_json, povm_from_json
from measerr.states import check_effects, check_states


def povm_file(effects, values=(1.0, -1.0)) -> dict:
    """A POVM file of ``effects``, labelled by their ``values``."""
    return {"labels": [str(v) for v in values], "values": list(values),
            "effects": [matrix_to_json(np.asarray(e, dtype=complex)) for e in effects]}


class TestApply:
    def test_projective_on_mixed(self):
        p = kernels.context(kernels.spectral(Z)[1], mixed(2))
        assert np.allclose(p.weights, [0.5, 0.5], atol=1e-12)

    def test_projective_on_eigenstate(self):
        values, effects = kernels.spectral(Z)
        p = kernels.context(effects, pure([1, 0]))
        # ascending eigenvalue order: outcome values (-1, +1)
        assert values.tolist() == [-1.0, 1.0]
        assert np.allclose(p.weights, [0.0, 1.0], atol=1e-12)

    def test_unsharp_on_eigenstate(self):
        effects = unsharp_qubit((0, 0, 1), 0.6)
        rho = pure([1, 0])
        expected = oracles.probabilities(effects, rho)
        assert expected == pytest.approx([0.8, 0.2], abs=1e-12)
        assert np.allclose(kernels.context(effects, rho).weights, [0.8, 0.2], atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            kernels.context(kernels.spectral(Z)[1], mixed(3))


class TestAdjoint:
    def test_projective_identity_estimator(self):
        values, effects = kernels.spectral(Z)
        rebuilt = kernels.adjoint(effects, values)
        assert np.allclose(rebuilt, Z, atol=1e-12)

    def test_constant_function_gives_identity(self):
        for seed in range(5):
            effects = instances.povm(np.random.default_rng(seed), 3, 4)
            total = kernels.adjoint(effects, np.full(len(effects), 1.0))
            assert np.max(np.abs(total - np.eye(3))) <= 1e-10

    def test_unsharp_shrinks_observable(self):
        adj = kernels.adjoint(unsharp_qubit((0, 0, 1), 0.6), np.array([1.0, -1.0]))
        assert np.allclose(adj, 0.6 * Z, atol=1e-12)

    def test_characterization_sweep(self):
        for dim in (2, 3, 4):
            for seed in range(30):
                rng = np.random.default_rng((dim, seed))
                outcomes = int(rng.integers(2, 6))
                effects = instances.povm(rng, dim, outcomes)
                rho = instances.state(rng, dim)
                f = rng.uniform(-2, 2, len(effects))
                lhs = kernels.expect(kernels.adjoint(effects, f), rho)
                rhs = kernels.dot(f, kernels.context(effects, rho).weights)
                assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


class TestProjectiveFrom:
    def test_pauli_z(self):
        values, effects = kernels.spectral(Z)
        assert values.tolist() == [-1.0, 1.0]
        assert np.allclose(effects[1], np.diag([1.0, 0.0]), atol=1e-12)

    def test_degenerate_identity_is_trivial_shape(self):
        values, effects = kernels.spectral(np.eye(2, dtype=complex))
        assert len(values) == len(effects) == 1
        assert np.allclose(effects[0], np.eye(2), atol=1e-12)

    def test_pauli_x_hand_projectors(self):
        _, effects = kernels.spectral(X)
        assert np.allclose(effects[1], oracles.FLIP_PROJ_PLUS, atol=1e-9)
        assert np.allclose(effects[0], oracles.FLIP_PROJ_MINUS, atol=1e-9)


class TestTrivial:
    def test_uniform_qubit(self):
        effects = trivial_measurement([0.5, 0.5], 2)
        assert effects.shape == (2, 2, 2)
        for eff in effects:
            assert np.allclose(eff, np.eye(2) / 2, atol=1e-15)

    def test_single_outcome(self):
        effects = trivial_measurement([1.0], 3)
        assert np.allclose(effects[0], np.eye(3), atol=1e-15)

    def test_state_independent(self):
        effects = trivial_measurement([0.3, 0.7], 3)
        assert np.allclose(effects[0], 0.3 * np.eye(3), atol=1e-15)
        p1, p2 = (kernels.context(effects, rho).weights for rho in (mixed(3), pure([1, 0, 0])))
        assert np.array_equal(p1, p2)


class TestUnsharpFamily:
    def test_sharp_limit_is_projective(self):
        sharp = unsharp_qubit((0, 0, 1), 1.0)
        _, proj = kernels.spectral(Z)
        assert np.allclose(sharp[0], proj[1], atol=1e-12)
        assert np.allclose(sharp[1], proj[0], atol=1e-12)

    def test_blind_limit_is_trivial_uniform(self):
        for eff in unsharp_qubit((0, 0, 1), 0.0):
            assert np.allclose(eff, np.eye(2) / 2, atol=1e-15)

    def test_intermediate_effect(self):
        assert np.allclose(unsharp_qubit((0, 0, 1), 0.6)[0], np.diag([0.8, 0.2]), atol=1e-12)

    def test_parameter_validation(self):
        """The builders check their parameters and fail closed on NaN: their
        output is not validated again."""
        with pytest.raises(ValueError):
            unsharp_qubit((0, 0, 2), 0.5)
        with pytest.raises(ValueError):
            unsharp_qubit((0, 0, 1), 1.5)
        with pytest.raises(ValueError, match="unit vector"):
            unsharp_qubit((np.nan, 0, 1), 0.5)
        with pytest.raises(ValueError, match="sharpness must lie in"):
            unsharp_qubit((0, 0, 1), np.nan)
        with pytest.raises(ValueError, match="mixing weight must lie in"):
            noisy_projective(Z, np.nan)
        with pytest.raises(ValueError, match="weights must be finite"):
            trivial_measurement([np.nan, 1.0], 2)
        for bloch in ({"x": np.nan}, {"z": np.nan}):
            with pytest.raises(ValueError, match="Bloch vector"):
                qubit_state(**bloch)

    def test_noisy_projective_path(self):
        assert np.allclose(noisy_projective(Z, 1.0)[1], np.diag([1.0, 0.0]), atol=1e-12)
        for eff in noisy_projective(Z, 0.0):
            assert np.allclose(eff, np.eye(2) / 2, atol=1e-12)
        halfway = noisy_projective(Z, 0.5)
        assert np.allclose(halfway[1], np.diag([0.75, 0.25]), atol=1e-12)
        with pytest.raises(ValueError):
            noisy_projective(Z, -0.1)


def contractivity(effects, f, rho):
    return kernels.contractivity(kernels.context(effects, rho), np.asarray(f, dtype=float))


class TestContractivity:
    def test_projective_saturates(self):
        report = contractivity(kernels.spectral(Z)[1], [-1.0, 1.0], mixed(2))
        assert report.classical_norm == pytest.approx(report.adjoint_norm, abs=1e-12)
        assert abs(report.gap_min_eigenvalue) <= 1e-12

    def test_unsharp_gap(self):
        report = contractivity(unsharp_qubit((0, 0, 1), 0.6), [1.0, -1.0], mixed(2))
        assert report.gap_min_eigenvalue == pytest.approx(0.64, abs=1e-12)

    def test_constant_function_gap_vanishes(self):
        effects = instances.povm(np.random.default_rng(5), 3, 4)
        report = contractivity(effects, np.full(len(effects), 1.7), instances.state(np.random.default_rng(5), 3))
        assert abs(report.gap_min_eigenvalue) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), lam=st.floats(0.0, 1.0))
def test_affineness(seed, lam):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    outcomes = int(rng.integers(2, 6))
    effects = instances.povm(rng, dim, outcomes)
    rho1 = instances.state(rng, dim)
    rho2 = instances.state(rng, dim, pure=True)
    mix = check_states(lam * rho1 + (1 - lam) * rho2)
    lhs, p1, p2 = (kernels.context(effects, rho).weights for rho in (mix, rho1, rho2))
    rhs = lam * p1 + (1 - lam) * p2
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestPovmValidation:
    def test_incomplete_rejected(self):
        with pytest.raises(ValueError):
            check_effects(np.array([np.eye(2) / 2, np.eye(2) / 3], dtype=complex))

    def test_negative_effect_rejected(self):
        with pytest.raises(ValueError):
            check_effects(np.array([1.5 * np.eye(2), -0.5 * np.eye(2)], dtype=complex))

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            povm_from_json(povm_file([np.eye(2)]))

    def test_one_small_non_hermitian_effect_rejected(self):
        # the bad effect is tiny: its residual is far below the scale of
        # the other effects, so it must be judged against its own scale
        bad = 1e-6 * (np.diag([1.0, 0.0]) + 1e-8 * np.array([[0, 1], [0, 0]]))
        effects = [np.diag([0.5, 0.5]), np.diag([0.5, 0.5]) - 1e-6 * np.diag([1.0, 0.0]), bad]
        with pytest.raises(ValueError, match="not Hermitian"):
            check_effects(np.array(effects, dtype=complex))

    def test_one_effect_with_negative_eigenvalue_rejected(self):
        effects = [np.diag([0.6, 0.3]), np.diag([0.41, 0.3]), np.diag([-0.01, 0.4])]
        with pytest.raises(ValueError, match="not PSD"):
            check_effects(np.array(effects, dtype=complex))

    def test_ragged_dimensions_rejected(self):
        with pytest.raises(ValueError):
            povm_from_json(povm_file([np.eye(2) / 2, np.eye(3) / 2]))


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
