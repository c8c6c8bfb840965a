"""State validation, inner products, seminorms, spectral decomposition."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from instances import mixed, pure
from measerr import (
    PAULI_X as X,
    PAULI_Y as Y,
    PAULI_Z as Z,
    kernels,
    qubit_state,
)
from measerr.generate import ginibre_states, haar_unitaries
from measerr.serialize import load_observable, matrix_to_json, povm_from_json
from measerr.states import check_observables, check_states, check_weights, pure_states
from measerr.tolerances import DEFAULT_TOL

anti, norm = kernels.anti, kernels.norm


def random_qubit_pair(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = check_observables((g + g.conj().T) / 2)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = check_states(h @ h.conj().T / np.trace(h @ h.conj().T).real)
    return a, rho


class TestExpectation:
    def test_eigenstate(self):
        assert kernels.expect(Z, pure([1, 0])) == pytest.approx(1.0, abs=1e-12)

    def test_traceless_on_mixed(self):
        assert kernels.expect(X, mixed(2)) == pytest.approx(0.0, abs=1e-12)

    def test_bloch_y(self):
        rho = qubit_state(y=0.8)
        # frozen from the explicit-summation oracle
        assert oracles.trace_expectation(Y, rho).real == pytest.approx(0.8, abs=1e-12)
        assert kernels.expect(Y, rho) == pytest.approx(0.8, abs=1e-10)


class TestStateInner:
    def test_squared_pauli(self):
        assert anti(Z, Z, mixed(2)) == pytest.approx(1.0)

    def test_anticommuting(self):
        for seed in range(5):
            _, rho = random_qubit_pair(seed)
            assert anti(X, Z, rho) == pytest.approx(0.0, abs=1e-12)

    def test_projector_cross_term(self):
        plus = pure([1, 1])
        proj_up = check_observables((np.eye(2) + Z) / 2)
        expected = oracles.sym_inner(X, (np.eye(2) + Z) / 2, plus)
        assert expected == pytest.approx(0.5, abs=1e-12)
        assert anti(X, proj_up, plus) == pytest.approx(0.5, abs=1e-10)

    def test_symmetry(self):
        a, rho = random_qubit_pair(7)
        b, _ = random_qubit_pair(8)
        assert anti(a, b, rho) == pytest.approx(anti(b, a, rho), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), dim=st.integers(2, 5))
def test_polarization_identity(seed, dim):
    rng = np.random.default_rng(seed)
    g1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g2 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = check_observables((g1 + g1.conj().T) / 2)
    b = check_observables((g2 + g2.conj().T) / 2)
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = check_states(h @ h.conj().T / np.trace(h @ h.conj().T).real)
    plus, minus = check_observables(a + b), check_observables(a - b)
    polarized = (norm(plus, rho) ** 2 - norm(minus, rho) ** 2) / 4
    assert abs(anti(a, b, rho) - polarized) <= 1e-9 * (1 + abs(polarized))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), dim=st.integers(2, 5))
def test_cauchy_schwarz(seed, dim):
    rng = np.random.default_rng(seed)
    g1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g2 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = check_observables((g1 + g1.conj().T) / 2)
    b = check_observables((g2 + g2.conj().T) / 2)
    rho = pure(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    lhs = abs(anti(a, b, rho))
    assert lhs <= norm(a, rho) * norm(b, rho) + 1e-9


class TestNormsAndDeviations:
    def test_mixed(self):
        rho = mixed(2)
        assert norm(Z, rho) == pytest.approx(1.0)
        assert oracles.std_dev_brute(Z, rho) == pytest.approx(1.0)

    def test_eigenstate_has_no_spread(self):
        rho = pure([1, 0])
        assert norm(Z, rho) == pytest.approx(1.0)
        assert oracles.std_dev_brute(Z, rho) == pytest.approx(0.0, abs=1e-10)

    def test_bloch_y_state(self):
        rho = qubit_state(y=0.8)
        assert norm(X, rho) == pytest.approx(1.0)
        assert oracles.std_dev_brute(X, rho) == pytest.approx(1.0)

    def test_seminorm_degeneracy(self):
        """A projector orthogonal to a pure state has seminorm 0 there.  Its
        square is a sum of roundoff, bounded by 8 d eps over 1000 random
        pairs at each d (and in lone calls on validated arrays for the first
        20); the
        seminorm itself, the square root of that, reads up to ~1e-8 and
        bounds nothing."""
        eps = np.finfo(float).eps
        for dim in (2, 3, 5, 8):
            rng = np.random.default_rng([11, dim])
            psi, phi = rng.standard_normal((2, 1000, dim)) + 1j * rng.standard_normal((2, 1000, dim))
            psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
            phi -= (psi.conj() * phi).sum(axis=-1, keepdims=True) * psi
            rho, annihilator = pure_states(psi), pure_states(phi)
            objects = [norm(check_observables(x.copy()), check_states(r.copy())) for x, r in zip(annihilator[:20], rho)]
            assert np.max(kernels.norm(annihilator, rho) ** 2) <= 8 * dim * eps, dim
            assert np.max(np.square(objects)) <= 8 * dim * eps, dim


class TestClassicalGeometry:
    def test_unit_norm(self):
        p = check_weights([0.5, 0.5])
        f = np.array([1.0, -1.0])
        assert kernels.class_inner(f, f, p) == pytest.approx(1.0)

    def test_constant(self):
        p = check_weights([0.3, 0.7])
        f = np.full(2, 2.5)
        assert kernels.dot(f, p) == pytest.approx(2.5)

    def test_weighted_product(self):
        p = check_weights([0.75, 0.25])
        f = np.array([1.0, -1.0])
        g = np.array([1.0, 0.0])
        assert kernels.class_inner(f, g, p) == pytest.approx(0.75, abs=1e-12)

    def test_zero_weight_label_is_invisible(self):
        p = check_weights([1.0, 0.0])
        f = np.array([2.0, 3.0])
        g = np.array([2.0, -70.0])
        assert kernels.class_norm(f, p) == kernels.class_norm(g, p)


class TestSpectralDecompose:
    def test_pauli_z(self):
        values, (minus, plus) = kernels.spectral(Z)
        assert values == pytest.approx([-1.0, 1.0])
        assert np.allclose(plus, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(minus, np.diag([0.0, 1.0]), atol=1e-12)

    def test_degenerate_identity(self):
        values, projectors = kernels.spectral(check_observables(np.eye(2, dtype=complex)))
        assert len(values) == len(projectors) == 1
        assert values[0] == pytest.approx(1.0)
        assert np.allclose(projectors[0], np.eye(2), atol=1e-12)

    def test_pauli_x_matches_hand_diagonalization(self):
        values, projectors = kernels.spectral(X)
        assert values == pytest.approx([-1.0, 1.0])
        assert np.allclose(projectors[1], oracles.FLIP_PROJ_PLUS, atol=1e-9)
        assert np.allclose(projectors[0], oracles.FLIP_PROJ_MINUS, atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_projector_properties(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = check_observables((g + g.conj().T) / 2)
        values, projectors = kernels.spectral(a)
        total = np.zeros((dim, dim), dtype=complex)
        rebuilt = np.zeros((dim, dim), dtype=complex)
        for val, m in zip(values, projectors):
            assert np.max(np.abs(m @ m - m)) <= 1e-9
            total += m
            rebuilt += val * m
        assert np.max(np.abs(total - np.eye(dim))) <= 1e-9
        assert np.max(np.abs(rebuilt - a)) <= 1e-9
        for i, p1 in enumerate(projectors):
            for p2 in projectors[i + 1 :]:
                assert np.max(np.abs(p1 @ p2)) <= 1e-9


class TestValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            check_observables(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(matrix_to_json(np.zeros((2, 3)))))
        with pytest.raises(ValueError):
            load_observable(path)

    def test_density_trace_rejected(self):
        with pytest.raises(ValueError):
            check_states(np.eye(2, dtype=complex))

    def test_density_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            check_states(np.diag([1.0 + 1e-9, -1e-9]).astype(complex))

    def test_density_roundoff_clipped(self):
        eps = 5e-11
        rho = check_states(np.diag([1.0 + eps, -eps]).astype(complex))
        assert rho[1, 1] == 0.0
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)

    def test_distribution_clip_and_reject(self):
        assert check_weights([1.0, -1e-13])[1] == 0.0
        with pytest.raises(ValueError):
            check_weights([1.0, -1e-11])
        with pytest.raises(ValueError):
            check_weights([0.7, 0.2])

    def test_outcome_space_validation(self):
        """A POVM file's labels must be distinct and non-empty, one per value."""
        with pytest.raises(ValueError):
            povm_from_json({"labels": ["a", "a"], "values": [0.0, 1.0], "effects": []})
        with pytest.raises(ValueError):
            povm_from_json({"labels": [], "values": [], "effects": []})
        with pytest.raises(ValueError):
            povm_from_json({"labels": ["a"], "values": [1.0, 2.0], "effects": []})


PSD = DEFAULT_TOL.psd
PLANTED = [PSD * 1.001, PSD * 0.999, 1e-16, 0.0, -1e-16, -PSD * 0.999, -PSD * 1.001]


def planted_states(rng, dim, planted, n=4):
    """n unit-trace states of dimension ``dim``; one random state has its
    smallest eigenvalue at ``planted``, the others' spectra lie in [0.05,
    0.95] before the trace is normalized."""
    stack = np.empty((n, dim, dim), dtype=complex)
    bad = rng.integers(n)
    for k in range(n):
        u = haar_unitaries(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        w = rng.uniform(0.05, 0.95, dim)
        w = np.concatenate([[planted], (1.0 - planted) * w[1:] / w[1:].sum()]) if k == bad else w / w.sum()
        m = (u * w) @ u.conj().T
        stack[k] = (m + m.conj().T) / 2.0
    return stack


def state_verdict(stack):
    try:
        return check_states(stack)
    except ValueError as exc:
        return str(exc)


def same_verdict(got, want) -> bool:
    if isinstance(want, str):
        return isinstance(got, str) and got == want
    return isinstance(got, np.ndarray) and np.array_equal(got, want)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_state_positivity_matches_eigvalsh(dim, monkeypatch):
    """``check_states`` returns the stack, clipped where the plain
    ``eigvalsh`` test clips, or the message, of ``oracles.states_psd``: on
    stacks with one smallest eigenvalue planted around +-psd, at +-1e-16
    and at 0, and on stacks of rank-1 states.  A Ginibre stack, like a
    single state, takes one eigenvalue call and no Cholesky factorization."""
    calls = {"eigvalsh": 0, "cholesky": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(x, name=name, original=original):
            calls[name] += 1
            return original(x)

        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(dim)
    stacks = [planted_states(rng, dim, planted) for planted in PLANTED for _ in range(10)]
    stacks += [pure_states(rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))) for _ in range(10)]
    for stack in stacks:
        assert same_verdict(state_verdict(stack.copy()), oracles.states_psd(stack, PSD))
        for m in stack:
            want = oracles.states_psd(m[None], PSD)
            assert same_verdict(state_verdict(m.copy()), want if isinstance(want, str) else want[0])
    for n in (2, 50):
        stack = ginibre_states(rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim)))
        assert np.array_equal(check_states(stack.copy()), oracles.states_psd(stack, PSD))
        for states in (stack, stack[0], stack[:1]):
            calls.update(eigvalsh=0, cholesky=0)
            check_states(states.copy())
            assert calls == {"eigvalsh": 1, "cholesky": 0}
