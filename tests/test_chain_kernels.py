"""The indirect-model kernels (``heisenberg``, ``induced_effects``,
``rms_error`` and ``chain``) on stacks of random models built as
``suite_ozawa_chain`` builds them: against the joint-system formulas in
``oracles`` within 1e-12 times the instance's scale, against their own N=1
calls, and the stacked draws against the per-model generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from measerr import DensityOperator, GenConfig, random_observable, random_state
from measerr import kernels, suites
from measerr.generate import diagonal_meter
from measerr.states import check_states
from test_kernels import rank_state

TOL = 1e-12
CASES = [(dim, ancilla) for dim in (2, 3, 5, 8) for ancilla in (1, 2, 3)]


def per_model_draws(rng, dim, ancilla):
    """The ancilla state and interaction of one random model as the
    per-model generator makes them: a complex Gaussian ket, then one complex
    Gaussian matrix factored by a single QR with the R diagonal phase-fixed."""

    def normal(shape):
        x = rng.standard_normal((1, 2) + shape)
        return x[0, 0] + 1j * x[0, 1]

    ket = normal((ancilla,))
    q, r = np.linalg.qr(normal((dim * ancilla,) * 2))
    d = np.diagonal(r)
    return DensityOperator.pure(ket).matrix, q * (d / np.abs(d))


@pytest.mark.parametrize("dim,ancilla", CASES)
def test_stacked_draws_are_the_per_model_draws(dim, ancilla):
    block = range(5, 8)
    xi, u, rho, a, b = suites._chain_models(17, dim, ancilla, block)
    cfg = GenConfig(dim=dim, mixedness="ginibre")
    for k, i in enumerate(block):
        rng = suites._rng(17, "ozawa-chain", dim, ancilla, i)
        xi_i, u_i = per_model_draws(rng, dim, ancilla)
        assert np.array_equal(xi[k], xi_i)
        assert np.array_equal(u[k], u_i)
        assert np.array_equal(rho[k], random_state(cfg, rng).matrix)
        assert np.array_equal(a[k], random_observable(cfg, rng).matrix)
        assert np.array_equal(b[k], random_observable(cfg, rng).matrix)


def scale(x):
    return 1.0 + np.linalg.norm(x, 2)


def brute_chain(effects, rho, xi, u, meter, a, b):
    """The five chain terms from the oracles: rms errors on the joint
    system, errors, R and I from the given effects, sigma by definition."""
    p = oracles.probabilities(effects, rho)
    f_a, f_b = (oracles.pushforward_brute(effects, rho, x) for x in (a, b))
    rt_a, rt_b = oracles.adjoint_brute(effects, f_a), oracles.adjoint_brute(effects, f_b)
    real = oracles.sym_inner(a, b, rho) - float(np.sum(f_a * f_b * p))
    comm = oracles.comm_over_2i(a, b, rho)
    imag = comm - oracles.comm_over_2i(rt_a, b, rho) - oracles.comm_over_2i(a, rt_b, rho)
    rms_a, rms_b = (oracles.ozawa_error_brute(rho, xi, u, meter, x) for x in (a, b))
    eps_a, eps_b = (oracles.quantum_error_brute(effects, rho, x) for x in (a, b))
    sigma_a, sigma_b = oracles.std_dev_brute(a, rho), oracles.std_dev_brute(b, rho)
    values = (rms_a * rms_b, eps_a * eps_b, np.hypot(real, imag), abs(imag), abs(comm) - rms_a * sigma_b - sigma_a * rms_b)
    return np.array(values), (rms_a, rms_b, eps_a, eps_b)


def stacked_chain(meter, xi, u, rho, a, b):
    values, projectors = kernels.spectral(meter)
    effects = kernels.induced_effects(u, xi, projectors)
    weights = kernels.born(effects, rho)
    ctx = kernels.context(effects, rho, np.where(weights < 0.0, 0.0, weights))
    meter_h = kernels.heisenberg(u, meter)
    joint = kernels.kron(rho, xi)
    return ctx, meter_h, joint, kernels.chain(ctx, a, b, meter_h, joint, values, 1e-9)


def check_against_oracles(meter, projectors, xi, u, rho, a, b):
    """Every instance of the stacked chain kernels against the oracles, and
    against the same kernels called on that instance alone."""
    ctx, meter_h, joint, c = stacked_chain(meter, xi, u, rho, a, b)
    values, _ = kernels.spectral(meter)
    for k in range(len(u)):
        s = scale(a[k]) * scale(b[k]) * scale(meter) ** 2
        effects = oracles.induced_effects_brute(xi[k], u[k], projectors)
        assert np.max(np.abs(ctx.effects[k, : len(effects)] - np.array(effects))) <= TOL
        direct = oracles.joint_meter_distribution(rho[k], xi[k], u[k], projectors)
        assert np.max(np.abs(ctx.weights[k, : len(direct)] - direct)) <= TOL
        expected, (rms_a, rms_b, eps_a, eps_b) = brute_chain(effects, rho[k], xi[k], u[k], meter, a[k], b[k])
        assert np.max(np.abs(c.values[k] - expected)) <= TOL * s
        assert abs(c.rms_a[k] - rms_a) <= TOL * s and abs(c.rms_b[k] - rms_b) <= TOL * s
        assert abs(c.eps_a[k] ** 2 - eps_a**2) <= TOL * s and abs(c.eps_b[k] ** 2 - eps_b**2) <= TOL * s
        assert max(c.bridge_residual_a[k], c.bridge_residual_b[k]) <= 1e-9 * s
        assert c.holds[k].all() and c.dominance_a[k] and c.dominance_b[k]

        one = kernels.context(ctx.effects[k], rho[k], ctx.weights[k])
        alone = kernels.chain(one, a[k], b[k], kernels.heisenberg(u[k], meter), kernels.kron(rho[k], xi[k]), values, 1e-9)
        for name, got in zip(kernels.Chain.__slots__, alone):
            assert np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(getattr(c, name)[k], dtype=float))) <= TOL * s, name
        assert np.max(np.abs(kernels.induced_effects(u[k], xi[k], kernels.spectral(meter)[1]) - ctx.effects[k])) <= TOL


@pytest.mark.parametrize("dim,ancilla", CASES)
def test_kernels_match_joint_system_oracles(dim, ancilla):
    meter = diagonal_meter(ancilla)
    projectors = [np.diag(np.eye(ancilla)[k]).astype(complex) for k in range(ancilla)]
    check_against_oracles(meter, projectors, *suites._chain_models(3, dim, ancilla, range(3)))


@settings(max_examples=15, deadline=None)
@given(
    meter=st.lists(st.integers(1, 2), min_size=2, max_size=3),
    ranks=st.lists(st.integers(1, 7), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_edge_models_at_d8(meter, ranks, seed):
    """Pure and rank-deficient states at d=8 read through meters with
    merged eigenvalues (one induced outcome per distinct eigenvalue)."""
    xi, u, _, a, b = suites._chain_models(seed, 8, len(meter), range(len(ranks)))
    rng = np.random.default_rng(seed)
    rho = check_states(np.stack([rank_state(rng, 8, r) for r in ranks]))
    projectors = [np.diag((np.array(meter) == v).astype(complex)) for v in np.unique(meter)]
    check_against_oracles(np.diag(np.array(meter, dtype=complex)), projectors, xi, u, rho, a, b)


def test_kron_is_numpy_kron():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    y = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    stacked = kernels.kron(x, y)
    for k in range(4):
        assert np.array_equal(stacked[k], np.kron(x[k], y[k]))
    assert np.array_equal(kernels.kron(np.eye(3), y[0]), np.kron(np.eye(3), y[0]))
