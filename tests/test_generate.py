"""Stacked generators on seeded draws: determinism, validity, ensemble shapes."""

import instances
import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st

from measerr import (
    cnot_model,
    generate,
    kernels,
    induced_povm,
    noisy_projective,
    trivial_measurement,
    unsharp_qubit,
)
from measerr.states import check_effects, check_observables, check_states, check_unitaries, pure_states


class TestDeterminism:
    def test_state_bitwise_reproducible(self):
        rho1, rho2 = (instances.state(np.random.default_rng(42), 3) for _ in range(2))
        assert np.array_equal(rho1, rho2)

    def test_observable_and_povm_reproducible(self):
        a1, a2 = (instances.observable(np.random.default_rng(42), 3) for _ in range(2))
        assert np.array_equal(a1, a2)
        p1, p2 = instances.povm(np.random.default_rng(42), 3, 4), instances.povm(np.random.default_rng(42), 3, 4)
        for e1, e2 in zip(p1, p2):
            assert np.array_equal(e1, e2)

    def test_model_reproducible(self):
        m1 = instances.indirect_model(np.random.default_rng(7), 2)
        m2 = instances.indirect_model(np.random.default_rng(7), 2)
        assert np.array_equal(m1[1], m2[1])
        assert np.array_equal(m1[0], m2[0])

    def test_different_seeds_differ(self):
        a = instances.state(np.random.default_rng(1), 3)
        b = instances.state(np.random.default_rng(2), 3)
        assert not np.array_equal(a, b)


class TestStates:
    def test_pure_is_rank_one(self):
        for seed in range(10):
            rho = instances.state(np.random.default_rng(seed), 4, pure=True)
            eigvals = np.linalg.eigvalsh(rho)
            assert eigvals[-1] == pytest.approx(1.0, abs=1e-9)
            assert np.max(np.abs(eigvals[:-1])) <= 1e-9

    def test_ginibre_is_valid(self):
        for seed in range(10):
            rho = instances.state(np.random.default_rng(seed), 3)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho)[0] >= -1e-10

    def test_clipping_is_rare(self):
        clipped = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            raw = g @ g.conj().T
            raw /= np.trace(raw).real
            if np.linalg.eigvalsh(raw)[0] < 0.0:
                clipped += 1
        assert clipped <= 1


class TestObservables:
    def test_hermitian_by_construction(self):
        for seed in range(10):
            a = instances.observable(np.random.default_rng(seed), 4)
            assert np.max(np.abs(a - a.conj().T)) == 0.0


class TestPovms:
    def test_single_outcome_forces_identity(self):
        effects = instances.povm(np.random.default_rng(1), 3, 1)
        assert np.allclose(effects[0], np.eye(3), atol=1e-12)

    def test_completeness_and_values(self):
        effects = instances.povm(np.random.default_rng(7), 2, 4)
        assert np.max(np.abs(sum(effects) - np.eye(2))) <= 1e-10
        assert effects.shape == (4, 2, 2)

    def test_generic_full_support(self):
        for seed in range(20):
            effects = instances.povm(np.random.default_rng(seed), 3, 4)
            rho = instances.state(np.random.default_rng(seed), 3)
            assert float(np.min(kernels.context(effects, rho).weights)) > 0.0


class PlantedDraws:
    """A stand-in generator whose ``standard_normal`` returns ``raws``, after
    checking that it was asked for their shape."""

    def __init__(self, raws):
        self.raws = raws

    def standard_normal(self, size):
        assert tuple(size) == self.raws.shape
        return self.raws


@pytest.mark.parametrize("shape", [(6, 5, 5), (5,)], ids=["factors", "kets"])
def test_gaussians_are_re_plus_i_im(shape):
    """``gaussians(rng, 4, *shape)`` (POVM factors or kets), drawn as
    ``(4, 2, *shape)`` standard normals, rows zero-padded as a verify block
    pads them, is ``re + 1j * im`` bit for bit, and keeps the sign of a
    planted -0.0 in either part, as ``complex(re, im)`` does."""
    raws = np.random.default_rng(len(shape)).standard_normal((4, 2) + shape)
    raws[1, :, 3:] = 0.0
    want = raws[:, 0] + 1j * raws[:, 1]
    got = generate.gaussians(PlantedDraws(raws), 4, *shape)
    assert got.dtype == want.dtype and got.shape == want.shape == (4,) + shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    raws[2, 0, 1], raws[2, 1, 2], raws[3, :, 0] = -0.0, -0.0, -0.0
    got = generate.gaussians(PlantedDraws(raws), 4, *shape)
    want = np.vectorize(complex)(raws[:, 0], raws[:, 1])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.signbit(got[2, 1].real).all() and np.signbit(got[3, 0].imag).all()


@pytest.mark.parametrize("dim,outcomes", [(dim, n) for dim in (2, 3, 5, 8, 16) for n in range(1, 7)])
def test_gram_whitening_is_stack_invariant(dim, outcomes):
    """Each row of a stacked ``povm_effects``, its factors zero-padded to 6
    outcomes, equals the call on that row alone and the call on the unpadded
    factors bit for bit, padded factors give exactly zero effects, and the
    effects agree with the three-product whitening within 1e-12."""
    rng = np.random.default_rng([dim, outcomes])
    rows = [oracles.povm_factors(rng, n, dim) for n in (outcomes, 6, 1)]
    factors = np.zeros((len(rows), 6, dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        factors[i, : len(row)] = row
    effects = generate.povm_effects(factors)
    for i, row in enumerate(rows):
        assert np.array_equal(generate.povm_effects(factors[i]), effects[i])
        assert np.array_equal(generate.povm_effects(row), effects[i, : len(row)])
        assert np.all(effects[i, len(row) :] == 0.0)
        assert np.max(np.abs(effects[i, : len(row)] - oracles.whitened_effects(row))) <= 1e-12


def ill_conditioned_factors(factors, rng):
    """``factors`` with each factor's first column set to its second plus
    1e-6 complex Gaussian noise: S = sum_w G_w^dag G_w is then about 1e-13
    of its norm from singular, finite and positive, but too ill-conditioned
    to whiten within DEFAULT_TOL.identity."""
    factors = np.array(factors)
    factors[..., 0] = factors[..., 1] + 1e-6 * oracles.complex_gaussian(rng, factors.shape[:-1])
    return factors


@pytest.mark.parametrize("spoil,message", [
    (np.zeros_like, "effect entries must be finite"),
    (lambda f: ill_conditioned_factors(f, np.random.default_rng(1)), "effects sum to identity only within "),
], ids=["singular", "ill-conditioned"])
def test_whitening_guards_its_output(spoil, message):
    """``povm_effects`` checks what its construction cannot rule out, the
    sum of the effects, with ``check_effects``' messages: a singular S (zero
    factors) gives non-finite effects, with no numpy warning (pytest fails
    on one), and ill-conditioned factors effects that miss the identity.  A
    stack raises when one of its POVMs does."""
    rng = np.random.default_rng(7)
    factors = np.stack([oracles.povm_factors(rng, 4, 3) for _ in range(3)])
    factors[1] = spoil(factors[1])
    with pytest.raises(ValueError, match="^" + message):
        generate.povm_effects(factors)
    with pytest.raises(ValueError, match="^" + message):
        generate.povm_effects(factors[1])
    generate.povm_effects(factors[::2])


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 8), n=st.integers(1, 5), outcomes=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_generated_arrays_are_valid_by_construction(dim, n, outcomes, seed):
    """The sweeps pass the generators' output on unvalidated, so each stack
    passes its validator: Ginibre states unchanged bit for bit, ket
    projectors with no eigenvalue below -1e-14 (far inside -psd, so the
    kernels' guards cover them unclipped), Gaussian observables, Haar
    unitaries, and the effects of full-rank factors.  Every Hermitian
    output equals its conjugate transpose exactly (a real diagonal)."""
    rng = np.random.default_rng(seed)
    ginibre = generate.ginibre_states(oracles.complex_gaussian(rng, (n, dim, dim)))
    assert np.array_equal(check_states(ginibre.copy()), ginibre)
    pure = pure_states(oracles.complex_gaussian(rng, (n, dim)))
    check_states(pure.copy())
    assert np.linalg.eigvalsh(pure)[:, 0].min() >= -1e-14
    observables = check_observables(kernels.hermitian_part(oracles.complex_gaussian(rng, (n, dim, dim))))
    check_unitaries(generate.haar_unitaries(oracles.complex_gaussian(rng, (n, dim, dim))))
    factors = np.stack([oracles.povm_factors(rng, outcomes, dim) for _ in range(n)])
    effects = check_effects(generate.povm_effects(factors))
    for hermitian in (ginibre, pure, observables, effects):
        assert np.array_equal(hermitian, hermitian.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("dim", range(2, 9))
def test_built_arrays_are_valid_by_construction(dim):
    """The builders return their effects unvalidated, so on valid inputs each
    stack passes ``check_effects``: projective measurements of observables
    with repeated eigenvalues (one of them a multiple of I), which
    ``kernels.spectral`` merges into one projector each and zero-pads to
    the stack's largest count; noisy projective ones at lam = 0, 1/2 and 1,
    stacked and one by one; trivial measurements; unsharp qubit ones; and
    the POVMs induced by drawn models.  ``cnot_model``'s interaction passes
    ``check_unitaries``."""
    rng = np.random.default_rng(dim)
    n = 6
    eigs = rng.integers(1, 4, (n, dim)).astype(float)
    eigs[0] = 2.0
    v = generate.haar_unitaries(oracles.complex_gaussian(rng, (n, dim, dim)))
    observables = check_observables(kernels.hermitian_part((v * eigs[:, None, :]) @ v.conj().swapaxes(-1, -2)))
    _, projectors = kernels.spectral(observables)
    check_effects(projectors)
    groups = (np.abs(projectors).max(axis=(-2, -1)) > 0.0).sum(axis=-1)
    assert groups.tolist() == [len(set(row)) for row in eigs.tolist()]
    for lam in (0.0, 0.5, 1.0):
        check_effects(noisy_projective(observables, lam))
        for a in observables:
            check_effects(noisy_projective(a, lam))
    check_effects(trivial_measurement(rng.dirichlet(np.ones(4), n), dim))
    axes = rng.standard_normal((n, 3))
    for axis, eta in zip(axes / np.linalg.norm(axes, axis=1, keepdims=True), rng.uniform(0.0, 1.0, n)):
        check_effects(unsharp_qubit(axis, eta))
    for ancilla in (2, 3):
        xi = pure_states(oracles.complex_gaussian(rng, (n, ancilla)))
        u = generate.haar_unitaries(oracles.complex_gaussian(rng, (n, dim * ancilla, dim * ancilla)))
        check_effects(induced_povm(xi, u, generate.diagonal_meter(ancilla))[1])
    check_unitaries(cnot_model()[1])


class TestUnitariesAndModels:
    def test_haar_unitarity(self):
        for seed in range(10):
            u = instances.haar_unitary(np.random.default_rng(seed), 5)
            assert np.max(np.abs(u.conj().T @ u - np.eye(5))) <= 1e-9

    def test_model_unitarity_and_meter(self):
        _, u, meter = instances.indirect_model(np.random.default_rng(9), 3)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) <= 1e-9
        assert np.allclose(meter, np.diag([1.0, 2.0]), atol=1e-15)

    def test_induced_povms_valid_over_seeds(self):
        for seed in range(20):
            model = instances.indirect_model(np.random.default_rng(seed), 2)
            values, effects = induced_povm(*model)
            check_effects(effects)
            assert len(values) == len(effects) == 2

    def test_cnot_factory_is_unitary(self):
        _, u, _ = cnot_model()
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) == 0.0

