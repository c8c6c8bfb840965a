"""The indirect-model kernels (``heisenberg``, ``induced_effects``,
``rms_error`` and ``chain``) on stacks of random models built as
``suite_ozawa_chain`` builds them: against the joint-system formulas in
``oracles`` within 1e-12 times the instance's scale, against their own N=1
calls, and the stacked draws against the per-model generators.  The kernels
that read a value another kernel already computed (``chain``, ``relation``
and ``schroedinger``) are compared bit for bit with the same formulas
composed of one call per value, and ``errorless``'s scale with a ``norm``
call."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from measerr import local_context
from measerr import kernels, suites
from measerr.generate import diagonal_meter, ginibre_states
from measerr.states import check_states, pure_states
from test_kernels import rank_state

TOL = 1e-12
CASES = [(dim, ancilla) for dim in (2, 3, 5, 8) for ancilla in (1, 2, 3)]


def chain_models(seed, dim, ancilla, block):
    """``suites._chain_models`` of the models ``block`` of the first block of
    a (dim, ancilla) sweep, which draws its rows 0 to ``block.stop - 1``."""
    _, _, streams = next(suites._sweep(seed, suites._CHAIN_STREAM, ((dim, ancilla),), block.stop))
    return [x[block.start :] for x in suites._chain_models(streams, block.stop, dim, ancilla)]


@pytest.mark.parametrize("dim,ancilla", CASES)
def test_stacked_draws_are_the_per_model_draws(dim, ancilla):
    """Each model equals the one built from its plain draws
    (``oracles.chain_draws``) by the one-model generators: a complex Gaussian
    ket, a Haar unitary by a single QR with the R diagonal phase-fixed, a
    Ginibre state and two Hermitian parts."""
    block = range(5, 8)
    xi, u, rho, a, b = chain_models(17, dim, ancilla, block)
    for k, i in enumerate(block):
        streams = oracles.instance_streams([17, suites._CHAIN_STREAM, dim, ancilla], i)
        ket, factor, g, a_i, b_i = oracles.chain_draws(streams, i + 1, dim, ancilla)
        q, r = np.linalg.qr(factor)
        d = np.diagonal(r)
        assert np.array_equal(xi[k], pure_states(ket))
        assert np.array_equal(u[k], q * (d / np.abs(d)))
        assert np.array_equal(rho[k], ginibre_states(g))
        assert np.array_equal(a[k], kernels.hermitian_part(a_i))
        assert np.array_equal(b[k], kernels.hermitian_part(b_i))


def chain_arguments(seed, dim, ancilla, block):
    """``kernels.chain``'s arguments but the slack, for the models ``block`` as ``suite_ozawa_chain`` builds them."""
    xi, u, rho, a, b = chain_models(seed, dim, ancilla, block)
    meter = diagonal_meter(ancilla)
    values, projectors = kernels.spectral(meter)
    ctx = local_context(kernels.induced_effects(u, xi, projectors), rho)
    return ctx, a, b, kernels.heisenberg(u, meter), kernels.kron(rho, xi), values


def per_call_relation(ctx, a, b, sign_flip=False):
    """``kernels.relation`` with A.B and B.A formed once per kernel call (``anti``, then ``comm``)."""
    t_a, t_b = kernels.transport(ctx, a), kernels.transport(ctx, b)
    real = kernels.anti(a, b, ctx.rho) - kernels.class_inner(t_a.pushforward, t_b.pushforward, ctx.weights)
    commutator = kernels.comm(a, b, ctx.rho)
    sign = -1.0 if sign_flip else 1.0
    imag = commutator - sign * kernels.comm(t_a.roundtrip, b, ctx.rho) - kernels.comm(a, t_b.roundtrip, ctx.rho)
    bound, naive, product = np.hypot(real, imag), np.abs(commutator), t_a.error * t_b.error
    return kernels.Relation(t_a.error, t_b.error, real, imag, bound, product - bound, naive, product < naive - 1e-12, t_a, t_b)


def per_call_f_error(ctx, a, t, f):
    """The f-error split with its own pullback of f and reconstruction cost."""
    rep = kernels.pullback(ctx, f)
    algebraic = kernels.norm(a - rep, ctx.rho) ** 2
    cost = kernels.class_norm(f, ctx.weights) ** 2 - kernels.norm(rep, ctx.rho) ** 2
    return [t.error, kernels.class_norm(t.pushforward - f, ctx.weights), np.sqrt(np.maximum(algebraic + cost, 0.0))]


def per_call_sigma(x, rho):
    """The standard deviation of X from one ``norm`` and one ``expect`` call."""
    return kernels._spread(kernels.norm(x, rho), kernels.expect(x, rho))


def per_call_schroedinger(ctx, a, b, rel):
    """``kernels.schroedinger`` from ``per_call_sigma``, ``anti`` and ``comm``."""
    sigma_a, sigma_b = per_call_sigma(a, ctx.rho), per_call_sigma(b, ctx.rho)
    covariance = kernels.anti(a, b, ctx.rho) - kernels.expect(a, ctx.rho) * kernels.expect(b, ctx.rho)
    commutator = kernels.comm(a, b, ctx.rho)
    return [sigma_a, sigma_b, sigma_a * sigma_b, np.hypot(covariance, commutator), np.abs(commutator), covariance,
            commutator, np.abs(rel.eps_a - sigma_a), np.abs(rel.eps_b - sigma_b)]


def per_call_chain(ctx, a, b, meter_h, joint, estimator, slack):
    """``kernels.chain`` from ``per_call_sigma`` and two ``f_error_split`` calls."""
    rel = per_call_relation(ctx, a, b)
    rms_a, rms_b = kernels.rms_error(meter_h, joint, a), kernels.rms_error(meter_h, joint, b)
    sigma_a, sigma_b = per_call_sigma(a, ctx.rho), per_call_sigma(b, ctx.rho)
    values = np.stack([rms_a * rms_b, rel.eps_a * rel.eps_b, rel.bound, np.abs(rel.imag_term),
                       rel.naive_bound - rms_a * sigma_b - sigma_a * rms_b], axis=-1)
    holds = values[..., :-1] >= values[..., 1:] - slack * (1.0 + np.abs(values[..., :-1]))
    rms_slack = slack * (1.0 + rms_a + rms_b)
    return [
        values, holds, rms_a, rms_b, rel.eps_a, rel.eps_b, sigma_a, sigma_b,
        np.abs(rms_a - kernels.f_error_split(ctx, a, rel.transport_a, estimator).f_error),
        np.abs(rms_b - kernels.f_error_split(ctx, b, rel.transport_b, estimator).f_error),
        rms_a >= rel.eps_a - rms_slack, rms_b >= rel.eps_b - rms_slack,
    ]


def assert_same_bits(got, expected):
    """Every field of the record ``got`` (a transport's fields too) equals ``expected``'s bit for bit."""
    got, expected = list(got), list(expected)
    assert len(got) == len(expected)
    for k, (x, y) in enumerate(zip(got, expected)):
        if isinstance(y, kernels.Transported):
            assert_same_bits(x, y)
        else:
            assert np.array_equal(x, y), k


@pytest.mark.parametrize("dim,ancilla", CASES)
def test_shared_values_are_the_per_call_values(dim, ancilla):
    """chain, relation, schroedinger and f_error_split equal their per-call
    formulas bit for bit, and errorless's scale a norm call, on a stacked
    block and on each of its instances alone, on the induced measurement and
    on a trivial one."""
    ctx, a, b, meter_h, joint, values = chain_arguments(7, dim, ancilla, range(4))
    p0 = np.random.default_rng(dim * ancilla).dirichlet(np.ones(3), 4)
    trivial = local_context(p0[:, :, None, None] * np.eye(dim), ctx.rho)
    f = np.random.default_rng(dim).uniform(-2.0, 2.0, ancilla)
    for k in (slice(None), 0, 1, 2, 3):
        args = [ctx.effects[k], ctx.rho[k], ctx.weights[k]]
        one, x, y = kernels.context(*args), a[k], b[k]
        assert_same_bits(kernels.chain(one, x, y, meter_h[k], joint[k], values, 1e-9),
                         per_call_chain(one, x, y, meter_h[k], joint[k], values, 1e-9))
        t = kernels.transport(one, x)
        assert np.array_equal(t.norm, kernels.norm(x, one.rho))
        assert_same_bits(kernels.f_error_split(one, x, t, f), per_call_f_error(one, x, t, f))
        for c in (one, kernels.context(trivial.effects[k], trivial.rho[k], trivial.weights[k])):
            for flip in (False, True):
                assert_same_bits(kernels.relation(c, x, y, sign_flip=flip), per_call_relation(c, x, y, flip))
            rel = kernels.relation(c, x, y)
            assert_same_bits(kernels.schroedinger(c, x, y, rel), per_call_schroedinger(c, x, y, rel))
            for z in (x, y):
                assert np.array_equal(kernels.errorless(c, z, kernels.transport(c, z)).scale, kernels.norm(z, c.rho))


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
    check_against_oracles(meter, projectors, *chain_models(3, dim, ancilla, range(3)))


@settings(max_examples=15, deadline=None)
@given(
    meter=st.lists(st.integers(1, 2), min_size=2, max_size=3),
    ranks=st.lists(st.integers(1, 7), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_edge_models_at_d8(meter, ranks, seed):
    """Pure and rank-deficient states at d=8 read through meters with
    merged eigenvalues (one induced outcome per distinct eigenvalue)."""
    xi, u, _, a, b = chain_models(seed, 8, len(meter), range(len(ranks)))
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
