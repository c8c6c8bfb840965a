"""Indirect models: induced POVM, rms error, bridge identity, comparison chain."""

import instances
import numpy as np
import pytest

import oracles
from instances import mixed, pure
from measerr import (
    PAULI_X as X,
    PAULI_Z as Z,
    chain_check,
    cnot_model,
    induced_povm,
    kernels,
    qubit_state,
)
from measerr.serialize import model_from_json, model_to_json
from measerr.states import check_effects, check_unitaries

MIXED = mixed(2)
# No interaction: the ancilla |+> read by Z, a model of arrays (xi, U, meter).
IDLE = (pure([1.0, 1.0]), np.eye(4, dtype=complex), Z)


def ozawa_error(model, rho, a):
    """Ozawa's rms error of the meter for ``a`` over rho (x) the ancilla state."""
    xi, u, meter = model
    return kernels.rms_error(kernels.heisenberg(u, meter), kernels.kron(rho, xi), a)


def random_model(dim, ancilla, seed):
    rng = np.random.default_rng(seed)
    model = instances.indirect_model(rng, dim, ancilla)
    rho = instances.state(rng, dim)
    a = instances.observable(rng, dim)
    b = instances.observable(rng, dim)
    return model, rho, a, b


class TestInducedPovm:
    def test_cnot_reduces_to_projective_z(self):
        values, effects = induced_povm(*cnot_model())
        assert values.tolist() == [-1.0, 1.0]
        assert np.allclose(effects[0], np.diag([0.0, 1.0]), atol=1e-12)
        assert np.allclose(effects[1], np.diag([1.0, 0.0]), atol=1e-12)

    def test_no_interaction_gives_trivial_measurement(self):
        _, effects = induced_povm(*IDLE)
        # effects are multiples of the identity weighted by the meter
        # distribution in the ancilla state (1/2 each for |+> and Z)
        for eff in effects:
            assert np.allclose(eff, 0.5 * np.eye(2), atol=1e-12)
        p1 = kernels.context(effects, MIXED).weights
        p2 = kernels.context(effects, pure([1, 0])).weights
        assert np.allclose(p1, p2, atol=1e-15)

    @pytest.mark.parametrize("dim,ancilla", [(2, 2), (2, 3), (3, 2)])
    def test_random_models_induce_valid_povms(self, dim, ancilla):
        for seed in range(10):
            model, rho, _, _ = random_model(dim, ancilla, seed)
            xi, u, meter = model
            _, effects = induced_povm(xi, u, meter)
            check_effects(effects)
            total = sum(effects)
            assert np.max(np.abs(total - np.eye(dim))) <= 1e-9
            _, projs = kernels.spectral(meter)
            direct = oracles.joint_meter_distribution(rho, xi, u, projs)
            assert np.allclose(kernels.context(effects, rho).weights, direct, atol=1e-10)

    def test_invalid_unitary_rejected(self):
        with pytest.raises(ValueError):
            model_from_json(model_to_json(pure([1, 0]), np.eye(4) * 0.9, Z))

    def test_non_finite_interaction_rejected(self):
        u = np.eye(4, dtype=complex)
        u[1, 2] = np.nan
        with pytest.raises(ValueError, match="interaction entries must be finite"):
            model_from_json(model_to_json(pure([1, 0]), u, Z))

    def test_meter_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            model_from_json(model_to_json(pure([1, 0]), np.eye(4), np.eye(3)))

    def test_near_unitary_model_is_rejected_by_its_induced_effects(self):
        """A model file enters through ``model_from_json``, which validates the
        effects it induces: ``induced_povm`` trusts its model, and an
        interaction that passes ``check_unitaries`` can still induce effects
        that miss I."""
        model = instances.near_unitary_model()
        check_unitaries(model[1])
        with pytest.raises(ValueError, match=r"^effects sum to identity only within 1\.960e-09$"):
            model_from_json(model_to_json(*model))


class TestOzawaError:
    def test_cnot_reads_z_perfectly(self):
        assert ozawa_error(cnot_model(), MIXED, Z) <= 1e-9

    def test_cnot_transverse_noise(self):
        val = ozawa_error(cnot_model(), MIXED, X)
        assert val == pytest.approx(np.sqrt(2.0), abs=1e-12)
        brute = oracles.ozawa_error_brute(
            MIXED,
            np.diag([1.0, 0.0]).astype(complex),
            cnot_model()[1],
            Z,
            X,
        )
        assert val == pytest.approx(brute, abs=1e-12)

    def test_no_interaction_centered_meter(self):
        # centered meter: <meter> = 0 in the ancilla state, so the squared
        # error expands with no cross term to <meter^2> + <A^2>
        val = ozawa_error(IDLE, MIXED, Z)
        assert val == pytest.approx(np.sqrt(2.0), abs=1e-12)


class TestBridgeIdentity:
    @pytest.mark.parametrize("dim,ancilla", [(2, 2), (3, 2), (2, 3)])
    def test_rms_error_is_identity_estimator_f_error(self, dim, ancilla):
        for seed in range(10):
            model, rho, a, _ = random_model(dim, ancilla, 100 + seed)
            est, effects = induced_povm(*model)
            ctx = kernels.context(effects, rho)
            t = kernels.transport(ctx, a)
            assert ozawa_error(model, rho, a) == pytest.approx(
                kernels.f_error_split(ctx, est, (a, t))[0].f_error, abs=1e-9
            )

    def test_rms_error_dominates_intrinsic_error(self):
        for seed in range(15):
            model, rho, a, _ = random_model(2, 2, 300 + seed)
            ctx = kernels.context(induced_povm(*model)[1], rho)
            assert ozawa_error(model, rho, a) >= kernels.transport(ctx, a).error - 1e-9


class TestChain:
    def test_cnot_scenario_exact_values(self):
        _, report = chain_check(*cnot_model(), qubit_state(y=0.8), X, Z)
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
        _, report = chain_check(*IDLE, MIXED, Z, X)
        # trivial induced measurement: intrinsic error equals the standard
        # deviation, and the rms error can only be larger
        assert report.eps_a == pytest.approx(report.sigma_a, abs=1e-10)
        assert report.rms_a >= report.eps_a - 1e-9
        assert report.holds.all()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            chain_check(*cnot_model(), MIXED, X, np.eye(3, dtype=complex))

    @pytest.mark.parametrize("dim,ancilla", [(2, 2), (3, 2)])
    def test_chain_on_random_models(self, dim, ancilla):
        for seed in range(15):
            model, rho, a, b = random_model(dim, ancilla, 700 + seed)
            _, report = chain_check(*model, rho, a, b)
            assert report.holds.all(), report.values
            assert report.dominance_a and report.dominance_b
