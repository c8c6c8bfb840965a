"""State-space types, inner products, seminorms, spectral decomposition."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from measerr import (
    DensityOperator,
    HermitianObservable,
    OutcomeSpace,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ProbabilityDistribution,
    kernels,
    qubit_state,
)
from measerr.generate import ginibre_states, haar_unitaries, pure_states
from measerr.states import check_states
from measerr.tolerances import DEFAULT_TOL

X = HermitianObservable(PAULI_X)
Y = HermitianObservable(PAULI_Y)
Z = HermitianObservable(PAULI_Z)


def anti(a, b, rho):
    return kernels.anti(a.matrix, b.matrix, rho.matrix)


def norm(a, rho):
    return kernels.norm(a.matrix, rho.matrix)


def random_qubit_pair(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = HermitianObservable((g + g.conj().T) / 2)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = DensityOperator(h @ h.conj().T / np.trace(h @ h.conj().T).real)
    return a, rho


class TestExpectation:
    def test_eigenstate(self):
        assert kernels.expect(Z.matrix, DensityOperator.pure([1, 0]).matrix) == pytest.approx(1.0, abs=1e-12)

    def test_traceless_on_mixed(self):
        assert kernels.expect(X.matrix, DensityOperator.maximally_mixed(2).matrix) == pytest.approx(0.0, abs=1e-12)

    def test_bloch_y(self):
        rho = qubit_state(y=0.8)
        # frozen from the explicit-summation oracle
        assert oracles.trace_expectation(PAULI_Y, rho.matrix).real == pytest.approx(0.8, abs=1e-12)
        assert kernels.expect(Y.matrix, rho.matrix) == pytest.approx(0.8, abs=1e-10)


class TestStateInner:
    def test_squared_pauli(self):
        assert anti(Z, Z, DensityOperator.maximally_mixed(2)) == pytest.approx(1.0)

    def test_anticommuting(self):
        for seed in range(5):
            _, rho = random_qubit_pair(seed)
            assert anti(X, Z, rho) == pytest.approx(0.0, abs=1e-12)

    def test_projector_cross_term(self):
        plus = DensityOperator.pure([1, 1])
        proj_up = HermitianObservable((np.eye(2) + PAULI_Z) / 2)
        expected = oracles.sym_inner(PAULI_X, (np.eye(2) + PAULI_Z) / 2, plus.matrix)
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
    a = HermitianObservable((g1 + g1.conj().T) / 2)
    b = HermitianObservable((g2 + g2.conj().T) / 2)
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = DensityOperator(h @ h.conj().T / np.trace(h @ h.conj().T).real)
    polarized = (norm(a + b, rho) ** 2 - norm(a - b, rho) ** 2) / 4
    assert abs(anti(a, b, rho) - polarized) <= 1e-9 * (1 + abs(polarized))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), dim=st.integers(2, 5))
def test_cauchy_schwarz(seed, dim):
    rng = np.random.default_rng(seed)
    g1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g2 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = HermitianObservable((g1 + g1.conj().T) / 2)
    b = HermitianObservable((g2 + g2.conj().T) / 2)
    rho = DensityOperator.pure(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    lhs = abs(anti(a, b, rho))
    assert lhs <= norm(a, rho) * norm(b, rho) + 1e-9


class TestNormsAndDeviations:
    def test_mixed(self):
        rho = DensityOperator.maximally_mixed(2)
        assert norm(Z, rho) == pytest.approx(1.0)
        assert kernels.std_dev(Z.matrix, rho.matrix) == pytest.approx(1.0)

    def test_eigenstate_has_no_spread(self):
        rho = DensityOperator.pure([1, 0])
        assert norm(Z, rho) == pytest.approx(1.0)
        assert kernels.std_dev(Z.matrix, rho.matrix) == pytest.approx(0.0, abs=1e-10)

    def test_bloch_y_state(self):
        rho = qubit_state(y=0.8)
        assert norm(X, rho) == pytest.approx(1.0)
        assert kernels.std_dev(X.matrix, rho.matrix) == pytest.approx(1.0)

    def test_seminorm_degeneracy(self):
        """A projector orthogonal to a pure state has seminorm 0 there.  Its
        square is a sum of roundoff, bounded by 8 d eps over 1000 random
        pairs at each d (and in lone calls on validated objects for the first
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
            objects = [norm(HermitianObservable(x), DensityOperator(r)) for x, r in zip(annihilator[:20], rho)]
            assert np.max(kernels.norm(annihilator, rho) ** 2) <= 8 * dim * eps, dim
            assert np.max(np.square(objects)) <= 8 * dim * eps, dim


class TestClassicalGeometry:
    space = OutcomeSpace(("+", "-"), (1.0, -1.0))

    def test_unit_norm(self):
        p = ProbabilityDistribution(self.space, [0.5, 0.5])
        f = np.array([1.0, -1.0])
        assert kernels.class_inner(f, f, p.weights) == pytest.approx(1.0)

    def test_constant(self):
        p = ProbabilityDistribution(self.space, [0.3, 0.7])
        f = np.full(2, 2.5)
        assert kernels.dot(f, p.weights) == pytest.approx(2.5)

    def test_weighted_product(self):
        p = ProbabilityDistribution(self.space, [0.75, 0.25])
        f = np.array([1.0, -1.0])
        g = np.array([1.0, 0.0])
        assert kernels.class_inner(f, g, p.weights) == pytest.approx(0.75, abs=1e-12)

    def test_zero_weight_label_is_invisible(self):
        p = ProbabilityDistribution(self.space, [1.0, 0.0])
        f = np.array([2.0, 3.0])
        g = np.array([2.0, -70.0])
        assert kernels.class_norm(f, p.weights) == kernels.class_norm(g, p.weights)


class TestSpectralDecompose:
    def test_pauli_z(self):
        values, (minus, plus) = kernels.spectral(Z.matrix)
        assert values == pytest.approx([-1.0, 1.0])
        assert np.allclose(plus, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(minus, np.diag([0.0, 1.0]), atol=1e-12)

    def test_degenerate_identity(self):
        values, projectors = kernels.spectral(HermitianObservable.identity(2).matrix)
        assert len(values) == len(projectors) == 1
        assert values[0] == pytest.approx(1.0)
        assert np.allclose(projectors[0], np.eye(2), atol=1e-12)

    def test_pauli_x_matches_hand_diagonalization(self):
        values, projectors = kernels.spectral(X.matrix)
        assert values == pytest.approx([-1.0, 1.0])
        assert np.allclose(projectors[1], oracles.FLIP_PROJ_PLUS, atol=1e-9)
        assert np.allclose(projectors[0], oracles.FLIP_PROJ_MINUS, atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_projector_properties(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = HermitianObservable((g + g.conj().T) / 2)
        values, projectors = kernels.spectral(a.matrix)
        total = np.zeros((dim, dim), dtype=complex)
        rebuilt = np.zeros((dim, dim), dtype=complex)
        for val, m in zip(values, projectors):
            assert np.max(np.abs(m @ m - m)) <= 1e-9
            total += m
            rebuilt += val * m
        assert np.max(np.abs(total - np.eye(dim))) <= 1e-9
        assert np.max(np.abs(rebuilt - a.matrix)) <= 1e-9
        for i, p1 in enumerate(projectors):
            for p2 in projectors[i + 1 :]:
                assert np.max(np.abs(p1 @ p2)) <= 1e-9


class TestValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            HermitianObservable([[0, 1], [0, 0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            HermitianObservable(np.zeros((2, 3)))

    def test_density_trace_rejected(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2))

    def test_density_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.0 + 1e-9, -1e-9]))

    def test_density_roundoff_clipped(self):
        eps = 5e-11
        rho = DensityOperator(np.diag([1.0 + eps, -eps]))
        assert rho.matrix[1, 1] == 0.0
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-15)

    def test_distribution_clip_and_reject(self):
        space = OutcomeSpace(("a", "b"), (0.0, 1.0))
        p = ProbabilityDistribution(space, [1.0, -1e-13])
        assert p.weights[1] == 0.0
        with pytest.raises(ValueError):
            ProbabilityDistribution(space, [1.0, -1e-11])
        with pytest.raises(ValueError):
            ProbabilityDistribution(space, [0.7, 0.2])

    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    def test_arithmetic_dimension_mismatch_rejected(self, op):
        with pytest.raises(ValueError, match="dimension mismatch"):
            op(HermitianObservable([[2.0]]), HermitianObservable(np.eye(3)))

    def test_outcome_space_validation(self):
        with pytest.raises(ValueError):
            OutcomeSpace(("a", "a"), (0.0, 1.0))
        with pytest.raises(ValueError):
            OutcomeSpace((), ())
        with pytest.raises(ValueError):
            OutcomeSpace(("a",), (1.0, 2.0))


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
    and at 0, and on stacks of rank-1 states.  Full-rank Ginibre stacks
    take no eigenvalue call (the shifted Cholesky decides them), and a
    single state takes no Cholesky factorization."""
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
        calls.update(eigvalsh=0, cholesky=0)
        got = check_states(stack.copy())
        assert calls == {"eigvalsh": 0, "cholesky": 1}
        assert np.array_equal(got, oracles.states_psd(stack, PSD))
        for single in (stack[0], stack[:1]):
            calls.update(eigvalsh=0, cholesky=0)
            check_states(single.copy())
            assert calls == {"eigvalsh": 1, "cholesky": 0}
