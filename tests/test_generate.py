"""Seeded generators: determinism, validity, ensemble shapes."""

import numpy as np
import oracles
import pytest

from measerr import generate
from measerr import (
    GenConfig,
    cnot_model,
    haar_unitary,
    induced_povm,
    random_indirect_model,
    random_observable,
    random_povm,
    random_state,
)


class TestDeterminism:
    def test_state_bitwise_reproducible(self):
        cfg = GenConfig(dim=3, mixedness="ginibre")
        rho1, rho2 = (random_state(cfg, np.random.default_rng(42)) for _ in range(2))
        assert np.array_equal(rho1.matrix, rho2.matrix)

    def test_observable_and_povm_reproducible(self):
        cfg = GenConfig(dim=3, outcomes=4)
        a1, a2 = (random_observable(cfg, np.random.default_rng(42)) for _ in range(2))
        assert np.array_equal(a1.matrix, a2.matrix)
        p1, p2 = random_povm(cfg, np.random.default_rng(42)), random_povm(cfg, np.random.default_rng(42))
        for e1, e2 in zip(p1.effects, p2.effects):
            assert np.array_equal(e1, e2)

    def test_model_reproducible(self):
        cfg = GenConfig(dim=2)
        m1 = random_indirect_model(cfg, np.random.default_rng(7))
        m2 = random_indirect_model(cfg, np.random.default_rng(7))
        assert np.array_equal(m1.interaction, m2.interaction)
        assert np.array_equal(m1.ancilla_state.matrix, m2.ancilla_state.matrix)

    def test_different_seeds_differ(self):
        a = random_state(GenConfig(dim=3), np.random.default_rng(1))
        b = random_state(GenConfig(dim=3), np.random.default_rng(2))
        assert not np.array_equal(a.matrix, b.matrix)


class TestStates:
    def test_pure_is_rank_one(self):
        for seed in range(10):
            rho = random_state(GenConfig(dim=4, mixedness="pure"), np.random.default_rng(seed))
            eigvals = np.linalg.eigvalsh(rho.matrix)
            assert eigvals[-1] == pytest.approx(1.0, abs=1e-9)
            assert np.max(np.abs(eigvals[:-1])) <= 1e-9

    def test_ginibre_is_valid(self):
        for seed in range(10):
            rho = random_state(GenConfig(dim=3), np.random.default_rng(seed))
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10

    def test_full_blend_is_maximally_mixed(self):
        rho = random_state(GenConfig(dim=3, mixedness="blend", blend=1.0), np.random.default_rng(3))
        assert np.allclose(rho.matrix, np.eye(3) / 3, atol=1e-15)

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
            a = random_observable(GenConfig(dim=4), np.random.default_rng(seed))
            assert np.max(np.abs(a.matrix - a.matrix.conj().T)) == 0.0

    def test_traceless_projection(self):
        a = random_observable(GenConfig(dim=2), np.random.default_rng(5), traceless=True)
        assert abs(np.trace(a.matrix)) <= 1e-12


class TestPovms:
    def test_single_outcome_forces_identity(self):
        povm = random_povm(GenConfig(dim=3, outcomes=1), np.random.default_rng(1))
        assert np.allclose(povm.effects[0], np.eye(3), atol=1e-12)

    def test_completeness_and_values(self):
        povm = random_povm(GenConfig(dim=2, outcomes=4), np.random.default_rng(7))
        assert np.max(np.abs(sum(povm.effects) - np.eye(2))) <= 1e-10
        assert povm.space.values == (1.0, 2.0, 3.0, 4.0)

    def test_generic_full_support(self):
        for seed in range(20):
            cfg = GenConfig(dim=3, outcomes=4)
            povm = random_povm(cfg, np.random.default_rng(seed))
            rho = random_state(cfg, np.random.default_rng(seed))
            assert float(np.min(povm.apply(rho).weights)) > 0.0


@pytest.mark.parametrize("axis,shape", [(-3, (6, 2, 5, 5)), (-2, (6, 2, 5))])
def test_complex_stack_is_re_plus_i_im(axis, shape):
    """``complex_stack`` of a stack of raw draws (factors or kets), rows
    zero-padded as a verify block pads them, is ``re + 1j * im`` bit for bit."""
    raws = np.random.default_rng(len(shape)).standard_normal((4,) + shape)
    raws[1, 3:] = 0.0
    pair = (slice(None),) * (raws.ndim + axis)
    want = raws[pair + (0,)] + 1j * raws[pair + (1,)]
    got = generate.complex_stack(raws, axis)
    assert got.dtype == want.dtype and got.shape == want.shape == (4, 6) + shape[2:]
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


class TestUnitariesAndModels:
    def test_haar_unitarity(self):
        for seed in range(10):
            u = haar_unitary(5, np.random.default_rng(seed))
            assert np.max(np.abs(u.conj().T @ u - np.eye(5))) <= 1e-9

    def test_model_unitarity_and_meter(self):
        model = random_indirect_model(GenConfig(dim=3), np.random.default_rng(9), ancilla_dim=2)
        u = model.interaction
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) <= 1e-9
        assert np.allclose(model.meter.matrix, np.diag([1.0, 2.0]), atol=1e-15)

    def test_induced_povms_valid_over_seeds(self):
        for seed in range(20):
            model = random_indirect_model(GenConfig(dim=2), np.random.default_rng(seed), ancilla_dim=2)
            povm = induced_povm(model)  # raises if PSD/completeness fail
            assert povm.space.size == 2

    def test_cnot_factory_is_unitary(self):
        u = cnot_model().interaction
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) == 0.0


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(dim=1)
        with pytest.raises(ValueError):
            GenConfig(outcomes=0)
        with pytest.raises(ValueError):
            GenConfig(mixedness="thermal")
        with pytest.raises(ValueError):
            GenConfig(blend=1.5)
