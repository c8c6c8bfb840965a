"""State-space types, inner products, seminorms, spectral decomposition."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from measerr import (
    DensityOperator,
    HermitianObservable,
    OutcomeFunction,
    OutcomeSpace,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ProbabilityDistribution,
    class_inner,
    class_mean,
    class_norm,
    expectation,
    qubit_state,
    spectral_decompose,
    state_inner,
    state_norm,
    std_dev_q,
)
from measerr.generate import ginibre_states, haar_unitaries, pure_states
from measerr.states import check_states
from measerr.tolerances import DEFAULT_TOL

X = HermitianObservable(PAULI_X)
Y = HermitianObservable(PAULI_Y)
Z = HermitianObservable(PAULI_Z)


def random_qubit_pair(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = HermitianObservable((g + g.conj().T) / 2)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = DensityOperator(h @ h.conj().T / np.trace(h @ h.conj().T).real)
    return a, rho


class TestExpectation:
    def test_eigenstate(self):
        assert expectation(Z, DensityOperator.pure([1, 0])) == pytest.approx(1.0, abs=1e-12)

    def test_traceless_on_mixed(self):
        assert expectation(X, DensityOperator.maximally_mixed(2)) == pytest.approx(0.0, abs=1e-12)

    def test_bloch_y(self):
        rho = qubit_state(y=0.8)
        # frozen from the explicit-summation oracle
        assert oracles.trace_expectation(PAULI_Y, rho.matrix).real == pytest.approx(0.8, abs=1e-12)
        assert expectation(Y, rho) == pytest.approx(0.8, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(Z, DensityOperator.maximally_mixed(3))


class TestStateInner:
    def test_squared_pauli(self):
        assert state_inner(Z, Z, DensityOperator.maximally_mixed(2)) == pytest.approx(1.0)

    def test_anticommuting(self):
        for seed in range(5):
            _, rho = random_qubit_pair(seed)
            assert state_inner(X, Z, rho) == pytest.approx(0.0, abs=1e-12)

    def test_projector_cross_term(self):
        plus = DensityOperator.pure([1, 1])
        proj_up = HermitianObservable((np.eye(2) + PAULI_Z) / 2)
        expected = oracles.sym_inner(PAULI_X, (np.eye(2) + PAULI_Z) / 2, plus.matrix)
        assert expected == pytest.approx(0.5, abs=1e-12)
        assert state_inner(X, proj_up, plus) == pytest.approx(0.5, abs=1e-10)

    def test_symmetry(self):
        a, rho = random_qubit_pair(7)
        b, _ = random_qubit_pair(8)
        assert state_inner(a, b, rho) == pytest.approx(state_inner(b, a, rho), abs=1e-12)


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
    polarized = (state_norm(a + b, rho) ** 2 - state_norm(a - b, rho) ** 2) / 4
    assert abs(state_inner(a, b, rho) - polarized) <= 1e-9 * (1 + abs(polarized))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), dim=st.integers(2, 5))
def test_cauchy_schwarz(seed, dim):
    rng = np.random.default_rng(seed)
    g1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g2 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = HermitianObservable((g1 + g1.conj().T) / 2)
    b = HermitianObservable((g2 + g2.conj().T) / 2)
    rho = DensityOperator.pure(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    lhs = abs(state_inner(a, b, rho))
    assert lhs <= state_norm(a, rho) * state_norm(b, rho) + 1e-9


class TestNormsAndDeviations:
    def test_mixed(self):
        rho = DensityOperator.maximally_mixed(2)
        assert state_norm(Z, rho) == pytest.approx(1.0)
        assert std_dev_q(Z, rho) == pytest.approx(1.0)

    def test_eigenstate_has_no_spread(self):
        rho = DensityOperator.pure([1, 0])
        assert state_norm(Z, rho) == pytest.approx(1.0)
        assert std_dev_q(Z, rho) == pytest.approx(0.0, abs=1e-10)

    def test_bloch_y_state(self):
        rho = qubit_state(y=0.8)
        assert state_norm(X, rho) == pytest.approx(1.0)
        assert std_dev_q(X, rho) == pytest.approx(1.0)

    def test_seminorm_degeneracy(self):
        rng = np.random.default_rng(11)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        phi -= (psi.conj() @ phi) * psi
        phi /= np.linalg.norm(phi)
        annihilator = HermitianObservable(np.outer(phi, phi.conj()))
        assert state_norm(annihilator, DensityOperator.pure(psi)) <= 1e-9


class TestClassicalGeometry:
    space = OutcomeSpace(("+", "-"), (1.0, -1.0))

    def test_unit_norm(self):
        p = ProbabilityDistribution(self.space, [0.5, 0.5])
        f = OutcomeFunction(self.space, [1.0, -1.0])
        assert class_inner(f, f, p) == pytest.approx(1.0)

    def test_constant(self):
        p = ProbabilityDistribution(self.space, [0.3, 0.7])
        f = OutcomeFunction.constant(self.space, 2.5)
        assert class_mean(f, p) == pytest.approx(2.5)

    def test_weighted_product(self):
        p = ProbabilityDistribution(self.space, [0.75, 0.25])
        f = OutcomeFunction(self.space, [1.0, -1.0])
        g = OutcomeFunction(self.space, [1.0, 0.0])
        assert class_inner(f, g, p) == pytest.approx(0.75, abs=1e-12)

    def test_zero_weight_label_is_invisible(self):
        p = ProbabilityDistribution(self.space, [1.0, 0.0])
        f = OutcomeFunction(self.space, [2.0, 3.0])
        g = OutcomeFunction(self.space, [2.0, -70.0])
        assert class_norm(f, p) == class_norm(g, p)

    def test_space_mismatch(self):
        other = OutcomeSpace(("a", "b"), (0.0, 1.0))
        with pytest.raises(ValueError):
            class_inner(
                OutcomeFunction(self.space, [1, 1]),
                OutcomeFunction(other, [1, 1]),
                ProbabilityDistribution(self.space, [0.5, 0.5]),
            )


class TestSpectralDecompose:
    def test_pauli_z(self):
        decomp = spectral_decompose(Z)
        values = [val for val, _ in decomp]
        assert values == pytest.approx([-1.0, 1.0])
        minus, plus = decomp[0][1], decomp[1][1]
        assert np.allclose(plus.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(minus.matrix, np.diag([0.0, 1.0]), atol=1e-12)

    def test_degenerate_identity(self):
        decomp = spectral_decompose(HermitianObservable.identity(2))
        assert len(decomp) == 1
        val, proj = decomp[0]
        assert val == pytest.approx(1.0)
        assert np.allclose(proj.matrix, np.eye(2), atol=1e-12)

    def test_pauli_x_matches_hand_diagonalization(self):
        decomp = spectral_decompose(X)
        assert [val for val, _ in decomp] == pytest.approx([-1.0, 1.0])
        assert np.allclose(decomp[1][1].matrix, oracles.FLIP_PROJ_PLUS, atol=1e-9)
        assert np.allclose(decomp[0][1].matrix, oracles.FLIP_PROJ_MINUS, atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_projector_properties(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = HermitianObservable((g + g.conj().T) / 2)
        decomp = spectral_decompose(a)
        total = np.zeros((dim, dim), dtype=complex)
        rebuilt = np.zeros((dim, dim), dtype=complex)
        for val, proj in decomp:
            m = proj.matrix
            assert np.max(np.abs(m @ m - m)) <= 1e-9
            total += m
            rebuilt += val * m
        assert np.max(np.abs(total - np.eye(dim))) <= 1e-9
        assert np.max(np.abs(rebuilt - a.matrix)) <= 1e-9
        for i, (_, p1) in enumerate(decomp):
            for _, p2 in decomp[i + 1 :]:
                assert np.max(np.abs(p1.matrix @ p2.matrix)) <= 1e-9


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
        assert p.weight("b") == 0.0
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
