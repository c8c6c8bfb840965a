"""Indirect models: induced POVM, rms error, bridge identity, comparison chain."""

import instances
import numpy as np
import pytest

import oracles
from measerr import (
    DensityOperator,
    HermitianObservable,
    IndirectModel,
    MeasurementKind,
    PAULI_X,
    PAULI_Z,
    chain_check,
    cnot_model,
    induced_povm,
    kernels,
    local_context,
    qubit_state,
)

X = HermitianObservable(PAULI_X)
Z = HermitianObservable(PAULI_Z)
MIXED = DensityOperator.maximally_mixed(2)


def ozawa_error(model, rho, a):
    """Ozawa's rms error of the meter for ``a`` over rho (x) the ancilla state."""
    meter = kernels.heisenberg(model.interaction, model.meter.matrix)
    return kernels.rms_error(meter, kernels.kron(rho.matrix, model.ancilla_state.matrix), a.matrix)


def random_model(dim, ancilla, seed):
    rng = np.random.default_rng(seed)
    model = instances.indirect_model(rng, dim, ancilla)
    rho = instances.state(rng, dim)
    a = instances.observable(rng, dim)
    b = instances.observable(rng, dim)
    return model, rho, a, b


class TestInducedPovm:
    def test_cnot_reduces_to_projective_z(self):
        povm = induced_povm(cnot_model())
        assert povm.kind is MeasurementKind.INDUCED
        assert povm.space.values == (-1.0, 1.0)
        assert np.allclose(povm.effects[0], np.diag([0.0, 1.0]), atol=1e-12)
        assert np.allclose(povm.effects[1], np.diag([1.0, 0.0]), atol=1e-12)

    def test_no_interaction_gives_trivial_measurement(self):
        ancilla = DensityOperator.pure([1.0, 1.0])
        model = IndirectModel(2, ancilla, np.eye(4), HermitianObservable(PAULI_Z))
        povm = induced_povm(model)
        # effects are multiples of the identity weighted by the meter
        # distribution in the ancilla state (1/2 each for |+> and Z)
        for eff in povm.effects:
            assert np.allclose(eff, 0.5 * np.eye(2), atol=1e-12)
        p1 = local_context(povm.effects, MIXED.matrix).weights
        p2 = local_context(povm.effects, DensityOperator.pure([1, 0]).matrix).weights
        assert np.allclose(p1, p2, atol=1e-15)

    @pytest.mark.parametrize("dim,ancilla", [(2, 2), (2, 3), (3, 2)])
    def test_random_models_induce_valid_povms(self, dim, ancilla):
        for seed in range(10):
            model, rho, _, _ = random_model(dim, ancilla, seed)
            povm = induced_povm(model)  # constructor enforces PSD + completeness
            total = sum(povm.effects)
            assert np.max(np.abs(total - np.eye(dim))) <= 1e-9
            _, projs = kernels.spectral(model.meter.matrix)
            direct = oracles.joint_meter_distribution(rho.matrix, model.ancilla_state.matrix, model.interaction, projs)
            assert np.allclose(local_context(povm.effects, rho.matrix).weights, direct, atol=1e-10)

    def test_invalid_unitary_rejected(self):
        with pytest.raises(ValueError):
            IndirectModel(2, DensityOperator.pure([1, 0]), np.eye(4) * 0.9, HermitianObservable(PAULI_Z))

    def test_non_finite_interaction_rejected(self):
        u = np.eye(4, dtype=complex)
        u[1, 2] = np.nan
        with pytest.raises(ValueError, match="interaction entries must be finite"):
            IndirectModel(2, DensityOperator.pure([1, 0]), u, HermitianObservable(PAULI_Z))

    def test_meter_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IndirectModel(2, DensityOperator.pure([1, 0]), np.eye(4), HermitianObservable(np.eye(3)))


class TestOzawaError:
    def test_cnot_reads_z_perfectly(self):
        assert ozawa_error(cnot_model(), MIXED, Z) <= 1e-9

    def test_cnot_transverse_noise(self):
        val = ozawa_error(cnot_model(), MIXED, X)
        assert val == pytest.approx(np.sqrt(2.0), abs=1e-12)
        brute = oracles.ozawa_error_brute(
            MIXED.matrix,
            np.diag([1.0, 0.0]).astype(complex),
            cnot_model().interaction,
            PAULI_Z,
            PAULI_X,
        )
        assert val == pytest.approx(brute, abs=1e-12)

    def test_no_interaction_centered_meter(self):
        # centered meter: <meter> = 0 in the ancilla state, so the squared
        # error expands with no cross term to <meter^2> + <A^2>
        ancilla = DensityOperator.pure([1.0, 1.0])
        model = IndirectModel(2, ancilla, np.eye(4), HermitianObservable(PAULI_Z))
        val = ozawa_error(model, MIXED, Z)
        assert val == pytest.approx(np.sqrt(2.0), abs=1e-12)


class TestBridgeIdentity:
    @pytest.mark.parametrize("dim,ancilla", [(2, 2), (3, 2), (2, 3)])
    def test_rms_error_is_identity_estimator_f_error(self, dim, ancilla):
        for seed in range(10):
            model, rho, a, _ = random_model(dim, ancilla, 100 + seed)
            povm = induced_povm(model)
            ctx = local_context(povm.effects, rho.matrix)
            t = kernels.transport(ctx, a.matrix)
            est = np.array(povm.space.values)
            assert ozawa_error(model, rho, a) == pytest.approx(
                kernels.f_error_split(ctx, a.matrix, t, est).f_error, abs=1e-9
            )

    def test_rms_error_dominates_intrinsic_error(self):
        for seed in range(15):
            model, rho, a, _ = random_model(2, 2, 300 + seed)
            ctx = local_context(induced_povm(model).effects, rho.matrix)
            assert ozawa_error(model, rho, a) >= kernels.transport(ctx, a.matrix).error - 1e-9


class TestChain:
    def test_cnot_scenario_exact_values(self):
        report = chain_check(cnot_model(), qubit_state(y=0.8), X, Z)
        assert report.rms_a == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert report.eps_a == pytest.approx(1.0, abs=1e-9)
        assert report.eps_b == pytest.approx(0.0, abs=1e-9)
        assert report.values[0] == pytest.approx(0.0, abs=1e-9)
        assert report.values[1] == pytest.approx(0.0, abs=1e-9)
        assert report.values[2] == pytest.approx(0.0, abs=1e-9)
        assert report.values[3] == pytest.approx(0.0, abs=1e-9)
        assert report.values[4] == pytest.approx(0.8 - np.sqrt(2.0), abs=1e-9)
        assert report.holds.all()

    def test_no_interaction_model_reduces_to_deviation(self):
        ancilla = DensityOperator.pure([1.0, 1.0])
        model = IndirectModel(2, ancilla, np.eye(4), HermitianObservable(PAULI_Z))
        report = chain_check(model, MIXED, Z, X)
        # trivial induced measurement: intrinsic error equals the standard
        # deviation, and the rms error can only be larger
        assert report.eps_a == pytest.approx(report.sigma_a, abs=1e-10)
        assert report.rms_a >= report.eps_a - 1e-9
        assert report.holds.all()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            chain_check(cnot_model(), MIXED, X, HermitianObservable(np.eye(3)))

    @pytest.mark.parametrize("dim,ancilla", [(2, 2), (3, 2)])
    def test_chain_on_random_models(self, dim, ancilla):
        for seed in range(15):
            model, rho, a, b = random_model(dim, ancilla, 700 + seed)
            report = chain_check(model, rho, a, b)
            assert report.holds.all(), report.values
            assert report.dominance_a and report.dominance_b
