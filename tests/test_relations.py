"""Uncertainty relation: R/I terms, the bound, the proof device (``kernels.gram``), reductions."""

import instances
import numpy as np
import pytest

from instances import mixed, pure
from measerr import (
    PAULI_X as X,
    PAULI_Y as Y,
    PAULI_Z as Z,
    kernels,
    qubit_state,
    trivial_measurement,
)

relation = kernels.relation


def reduction(weights, rho, a, b):
    """The standard-deviation form of the relation of A and B under the trivial measurement of ``weights``."""
    return kernels.schroedinger(kernels.context(trivial_measurement(weights, rho.shape[-1]), rho, a, b), a, b)[1]


def covariance(a, b, rho):
    """<{A,B}/2>_rho - <A>_rho <B>_rho."""
    mean_a, mean_b = (kernels.expect(x, rho) for x in (a, b))
    return kernels.anti(a, b, rho) - mean_a * mean_b


commutator = kernels.comm


def errorless_a(ctx, a):
    return kernels.errorless(ctx, a, kernels.transport(ctx, a)).errorless


def random_setup(dim, seed, mixedness="ginibre"):
    rng = np.random.default_rng(seed)
    outcomes = int(rng.integers(2, 7))
    ctx = kernels.context(instances.povm(rng, dim, outcomes), instances.state(rng, dim, pure=mixedness == "pure"))
    return ctx, instances.observable(rng, dim), instances.observable(rng, dim), rng


def trivial_ctx(rho, seed=0):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    return kernels.context(trivial_measurement(rng.dirichlet(np.ones(k)), rho.shape[-1]), rho)


class TestRealPart:
    def test_trivial_measurement_closed_form(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            rho = instances.state(rng, 3)
            a = instances.observable(rng, 3)
            b = instances.observable(rng, 3)
            ctx = trivial_ctx(rho, seed)
            closed = covariance(a, b, rho)
            assert relation(ctx, a, b).real_term == pytest.approx(closed, abs=1e-10 * (1 + abs(closed)))

    def test_transverse_case_vanishes(self):
        ctx = kernels.context(kernels.spectral(Z)[1], qubit_state(y=0.8))
        assert relation(ctx, X, Z).real_term == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_case_is_squared_error(self):
        for seed in range(8):
            ctx, a, _, _ = random_setup(3, 40 + seed)
            eps = kernels.transport(ctx, a).error
            assert relation(ctx, a, a).real_term == pytest.approx(eps**2, abs=1e-9 * (1 + eps**2))


class TestImagPart:
    def test_trivial_measurement_keeps_bare_commutator(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            rho = instances.state(rng, 3)
            a = instances.observable(rng, 3)
            b = instances.observable(rng, 3)
            ctx = trivial_ctx(rho, seed)
            bare = commutator(a, b, rho)
            assert relation(ctx, a, b).imag_term == pytest.approx(bare, abs=1e-10 * (1 + abs(bare)))

    def test_transverse_case_cancels(self):
        ctx = kernels.context(kernels.spectral(Z)[1], qubit_state(y=0.8))
        assert relation(ctx, X, Z).imag_term == pytest.approx(0.0, abs=1e-12)

    def test_antisymmetry_on_diagonal(self):
        ctx, a, _, _ = random_setup(4, 77)
        assert relation(ctx, a, a).imag_term == pytest.approx(0.0, abs=1e-12)


class TestEvaluateRelation:
    def test_commutator_bound_undercut_scenario(self):
        ctx = kernels.context(kernels.spectral(Z)[1], qubit_state(y=0.8))
        report = relation(ctx, X, Z)
        assert report.eps_a * report.eps_b == pytest.approx(0.0, abs=1e-10)
        assert report.bound == pytest.approx(0.0, abs=1e-10)
        assert report.naive_bound == pytest.approx(0.8, abs=1e-10)
        assert report.naive_violated
        assert report.slack >= -1e-9

    def test_trivial_saturation(self):
        ctx = trivial_ctx(pure([1, 0]))
        report = relation(ctx, X, Y)
        assert report.eps_a * report.eps_b == pytest.approx(1.0, abs=1e-10)
        assert report.bound == pytest.approx(1.0, abs=1e-10)
        assert abs(report.slack) <= 1e-10

    def test_diagonal_slack_vanishes(self):
        for seed in range(8):
            ctx, a, _, _ = random_setup(3, 90 + seed)
            report = relation(ctx, a, a)
            assert abs(report.slack) <= 1e-12 * (1 + report.eps_a**2)

    def test_holds_on_random_sweep(self):
        for dim in (2, 3, 4):
            for seed in range(25):
                ctx, a, b, _ = random_setup(dim, 1000 * dim + seed)
                report = relation(ctx, a, b)
                assert report.slack >= -1e-9 * (1 + abs(report.eps_a * report.eps_b))
                assert report.bound >= abs(report.imag_term) - 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            kernels.context(kernels.spectral(Z)[1], qubit_state(y=0.8), X, np.eye(3, dtype=complex))


def seminorm(g, i):
    """sqrt(max(Re G_ii, 0)): the composite seminorm of the i-th vector of ``g``."""
    return np.sqrt(max(g[i, i].real, 0.0))


class TestProofDevice:
    """``kernels.gram`` of A and B: the Cauchy-Schwarz derivation behind the relation."""

    def gram(self, ctx, a, b):
        rel = relation(ctx, a, b)
        return kernels.gram(ctx, (a, rel.transport_a), (b, rel.transport_b)), rel

    def test_diagonal_recovers_error(self):
        ctx, a, _, _ = random_setup(3, 8)
        g, rel = self.gram(ctx, a, a)
        assert abs(seminorm(g, 0) - rel.eps_a) <= 1e-9
        assert g[0, 1].real == pytest.approx(kernels.transport(ctx, a).error ** 2, abs=1e-9)
        assert abs(g[0, 1].imag) <= 1e-10

    def test_trivial_reduces_to_covariance_form(self):
        rng = np.random.default_rng(3)
        rho = instances.state(rng, 3)
        a = instances.observable(rng, 3)
        b = instances.observable(rng, 3)
        ctx = trivial_ctx(rho, 3)
        g, _ = self.gram(ctx, a, b)
        cov = covariance(a, b, rho)
        comm = commutator(a, b, rho)
        assert g[0, 1] == pytest.approx(complex(cov, comm), abs=1e-9)

    def test_residuals_on_sweep(self):
        for dim in (2, 3, 4, 5):
            for seed in range(10):
                ctx, a, b, _ = random_setup(dim, 5000 + 100 * dim + seed)
                g, rel = self.gram(ctx, a, b)
                assert abs(seminorm(g, 0) - rel.eps_a) <= 1e-9
                assert abs(seminorm(g, 1) - rel.eps_b) <= 1e-9
                assert abs(g[0, 1] - (rel.real_term + 1j * rel.imag_term)) <= 1e-9

    @pytest.mark.parametrize("dim", range(2, 9))
    @pytest.mark.parametrize("mixedness", ["pure", "ginibre"])
    def test_hermitian_and_psd(self, dim, mixedness):
        """G is Hermitian bit for bit and PSD to roundoff (Cauchy-Schwarz):
        for A and B, its smallest eigenvalue is at least -1e-12 (1 + ||A||_rho
        ||B||_rho); with a third observable C, the 3x3 G holds A's and B's
        entries unchanged and its smallest eigenvalue is at least -1e-12
        (1 + the largest ||X||_rho^2)."""
        for seed in range(5):
            ctx, a, b, rng = random_setup(dim, 7000 + 10 * dim + seed, mixedness)
            c = instances.observable(rng, dim)
            g, rel = self.gram(ctx, a, b)
            t_c = kernels.transport(ctx, c)
            g3 = kernels.gram(ctx, (a, rel.transport_a), (b, rel.transport_b), (c, t_c))
            for m in (g, g3):
                assert np.array_equal(m, m.conj().T)
            assert np.array_equal(g3[:2, :2], g)
            norms = rel.transport_a.norm, rel.transport_b.norm, t_c.norm
            assert np.linalg.eigvalsh(g)[0] >= -1e-12 * (1.0 + norms[0] * norms[1])
            assert np.linalg.eigvalsh(g3)[0] >= -1e-12 * (1.0 + max(norms) ** 2)


class TestSchroedingerReduction:
    def test_saturation_case(self):
        report = reduction([0.5, 0.5], pure([1, 0]), X, Y)
        assert report.product == pytest.approx(1.0, abs=1e-10)
        assert report.bound == pytest.approx(1.0, abs=1e-10)
        assert report.kr_bound == pytest.approx(1.0, abs=1e-10)
        assert report.eps_sigma_residual_a <= 1e-10
        assert report.eps_sigma_residual_b <= 1e-10

    def test_uncorrelated_case(self):
        report = reduction([0.5, 0.5], mixed(2), X, Z)
        assert report.product == pytest.approx(1.0, abs=1e-12)
        assert report.bound == pytest.approx(0.0, abs=1e-12)

    def test_sweep_holds_and_dominates_commutator_bound(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            dim = int(rng.integers(2, 6))
            rho = instances.state(rng, dim)
            a = instances.observable(rng, dim)
            b = instances.observable(rng, dim)
            report = reduction([0.5, 0.5], rho, a, b)
            assert report.product >= report.bound - 1e-9 * (1 + report.product)
            assert report.kr_bound <= report.bound + 1e-12


class TestNoSimultaneousErrorless:
    def test_on_random_sweep(self):
        for seed in range(40):
            ctx, a, b, _ = random_setup(2 + seed % 3, 7000 + seed)
            comm = abs(kernels.comm(a, b, ctx.rho))
            both = errorless_a(ctx, a) and errorless_a(ctx, b)
            assert not (both and comm > 1e-6)

    def test_errorless_pair_must_commute_in_effect(self):
        # projective Z measures Z errorlessly; X carries the full error, so
        # a noncommuting pair over a commutator-witnessing state never has
        # both errors vanish
        rho = qubit_state(y=0.8)
        ctx = kernels.context(kernels.spectral(Z)[1], rho)
        comm = abs(commutator(X, Z, rho))
        assert comm > 1e-6
        assert not (errorless_a(ctx, X) and errorless_a(ctx, Z))
