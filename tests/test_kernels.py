"""Differential tests of the stacked kernels against the per-outcome,
per-instance formulas in ``oracles``.

One stack holds instances of 2, 3 and 4 random outcomes plus a split-off
outcome inside ``tiny_support``, zero-padded to one width, with a pure or a
mixed state each; every row of every kernel must match the oracle on the
unpadded instance within 1e-12 times the instance's scale, and every padded
zero effect must give exactly 0.0.
"""

import instances
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from measerr import kernels, suites
from measerr.generate import ginibre_states, haar_unitaries
from measerr.states import check_effects, check_states, check_weights, pure_states
from measerr.transport import local_context
from measerr.tolerances import DEFAULT_TOL

# Weight fraction split off the first effect: its outcome lands inside
# tiny_support (weight ~1e-10, between the 1e-12 cutoff and 1e-8).
SPLIT = 1e-9
TOL = 1e-12


def instance(dim, outcomes, mixedness, rng):
    base = instances.povm(rng, dim, outcomes)
    effects = np.array([(1.0 - SPLIT) * base[0], SPLIT * base[0], *base[1:]])
    rho = instances.state(rng, dim, pure=mixedness == "pure")
    a, b = (instances.observable(rng, dim) for _ in range(2))
    return effects, rho, a, b, rng.uniform(-2.0, 2.0, len(effects))


def stack(dim, seed):
    """Four instances (pure, mixed, pure, mixed) of 3, 4, 5 and 3 outcomes,
    padded with zero effects to 6 outcomes."""
    rng = np.random.default_rng([dim, seed])
    rows = [instance(dim, n, mix, rng) for n, mix in [(2, "pure"), (3, "ginibre"), (4, "pure"), (2, "ginibre")]]
    width = 6
    effects = np.zeros((len(rows), width, dim, dim), dtype=complex)
    f = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        effects[i, : len(row[0])] = row[0]
        f[i, : len(row[4])] = row[4]
    rho, a, b = (np.stack([row[k] for row in rows]) for k in (1, 2, 3))
    return rows, kernels.context(effects, rho, kernels.born(effects, rho)), a, b, f


def scale(a):
    return 1.0 + np.linalg.norm(a, 2)


def brute_class(f, g, p):
    return float(sum(fi * gi * pi for fi, gi, pi in zip(f, g, p)))


def brute_norm(x, rho):
    return np.sqrt(max(oracles.trace_expectation(x @ x, rho).real, 0.0))


CASES = [(dim, seed) for dim in (2, 5, 8) for seed in range(3)]


@pytest.mark.parametrize("dim,seed", CASES)
def test_padding_and_tiny_support(dim, seed):
    rows, ctx, a, _, f = stack(dim, seed)
    for i, row in enumerate(rows):
        n = len(row[0])
        assert np.all(ctx.weights[i, n:] == 0.0)
        assert not ctx.mask[i, n:].any()
        assert ctx.mask[i, 1] and ctx.weights[i, 1] <= instances.TINY_SUPPORT
    t = kernels.transport(ctx, a)
    for i, row in enumerate(rows):
        n = len(row[0])
        assert np.all(t.pushforward[i, n:] == 0.0)
        assert np.all(kernels.pushforward(ctx, a)[i, n:] == 0.0)


@pytest.mark.parametrize("dim,seed", CASES)
def test_expectations_weights_and_adjoint(dim, seed):
    rows, ctx, a, b, f = stack(dim, seed)
    expect = kernels.expect(a, ctx.rho)
    anti = kernels.anti(a, b, ctx.rho)
    comm = kernels.comm(a, b, ctx.rho)
    adjoint = kernels.adjoint(ctx.effects, f)
    for i, (effects, rho, a_i, b_i, f_i) in enumerate(rows):
        s = scale(a_i) * scale(b_i)
        assert abs(expect[i] - oracles.trace_expectation(a_i, rho).real) <= TOL * s
        assert abs(anti[i] - oracles.sym_inner(a_i, b_i, rho)) <= TOL * s
        assert abs(comm[i] - oracles.comm_over_2i(a_i, b_i, rho)) <= TOL * s
        n = len(effects)
        assert np.max(np.abs(ctx.weights[i, :n] - oracles.probabilities(effects, rho))) <= TOL
        assert np.max(np.abs(adjoint[i] - oracles.adjoint_brute(effects, f_i))) <= TOL * 3.0


@pytest.mark.parametrize("dim,seed", CASES)
def test_transport(dim, seed):
    rows, ctx, a, _, f = stack(dim, seed)
    t = kernels.transport(ctx, a)
    adjointness = kernels.adjointness(ctx, a, t.pushforward, f)
    for i, (effects, rho, a_i, _, f_i) in enumerate(rows):
        n, s = len(effects), scale(a_i)
        fwd = oracles.pushforward_brute(effects, rho, a_i)
        assert np.max(np.abs(t.pushforward[i, :n] - fwd)) <= TOL * s
        assert np.max(np.abs(t.roundtrip[i] - oracles.adjoint_brute(effects, fwd))) <= TOL * s
        assert abs(t.error[i] - oracles.quantum_error_brute(effects, rho, a_i)) <= TOL * s
        assert adjointness[i] <= TOL * s * scale(f_i)


@pytest.mark.parametrize("dim,seed", CASES)
def test_relation_and_proof_device(dim, seed):
    rows, ctx, a, b, _ = stack(dim, seed)
    rel = kernels.relation(ctx, a, b)
    flipped = kernels.relation(ctx, a, b, sign_flip=True)
    g = kernels.gram(ctx, (a, rel.transport_a), (b, rel.transport_b))
    for i, (effects, rho, a_i, b_i, _) in enumerate(rows):
        s = scale(a_i) * scale(b_i)
        p = oracles.probabilities(effects, rho)
        f_a = oracles.pushforward_brute(effects, rho, a_i)
        f_b = oracles.pushforward_brute(effects, rho, b_i)
        rt_a, rt_b = oracles.adjoint_brute(effects, f_a), oracles.adjoint_brute(effects, f_b)
        real = oracles.sym_inner(a_i, b_i, rho) - brute_class(f_a, f_b, p)
        cross_a, cross_b = oracles.comm_over_2i(rt_a, b_i, rho), oracles.comm_over_2i(a_i, rt_b, rho)
        imag = oracles.comm_over_2i(a_i, b_i, rho) - cross_a - cross_b
        eps_a = oracles.quantum_error_brute(effects, rho, a_i)
        eps_b = oracles.quantum_error_brute(effects, rho, b_i)
        assert abs(rel.real_term[i] - real) <= TOL * s
        assert abs(rel.imag_term[i] - imag) <= TOL * s
        assert abs(flipped.imag_term[i] - (imag + 2.0 * cross_a)) <= TOL * s
        assert abs(rel.bound[i] - np.hypot(real, imag)) <= TOL * s
        assert abs(rel.slack[i] - (eps_a * eps_b - np.hypot(real, imag))) <= TOL * s
        assert abs(rel.naive_bound[i] - abs(oracles.comm_over_2i(a_i, b_i, rho))) <= TOL * s
        # the composite semi-inner product, summed term by term
        u, v = (a_i - rt_a, f_a, rt_a), (b_i - rt_b, f_b, rt_b)
        cross = (
            oracles.trace_expectation(u[0] @ v[0], rho)
            + brute_class(u[1], v[1], p)
            - oracles.trace_expectation(u[2] @ v[2], rho)
        )
        assert abs(g[i, 0, 1] - cross) <= TOL * s
        assert abs(g[i, 0, 1] - complex(real, imag)) <= TOL * s
        assert abs(np.sqrt(max(g[i, 0, 0].real, 0.0)) - rel.eps_a[i]) <= 1e-7 * scale(a_i)
        assert abs(np.sqrt(max(g[i, 1, 1].real, 0.0)) - eps_b) <= 1e-7 * scale(b_i)


@pytest.mark.parametrize("dim,seed", CASES)
def test_f_error_split_and_contractivity(dim, seed):
    rows, ctx, a, _, f = stack(dim, seed)
    t = kernels.transport(ctx, a)
    split = kernels.f_error_split(ctx, a, t, f)
    classical, adjoint_norm, gap_min = kernels.contractivity(ctx, f)
    for i, (effects, rho, a_i, _, f_i) in enumerate(rows):
        s = scale(a_i) + np.max(np.abs(f_i))
        p = oracles.probabilities(effects, rho)
        g = np.where(p > DEFAULT_TOL.support_cutoff, f_i, 0.0)
        rep = oracles.adjoint_brute(effects, g)
        f_err = np.sqrt(brute_norm(a_i - rep, rho) ** 2 + brute_class(g, g, p) - brute_norm(rep, rho) ** 2)
        fwd = oracles.pushforward_brute(effects, rho, a_i)
        assert abs(split.f_error[i] - f_err) <= 1e-10 * s
        assert abs(split.estimation_error[i] - np.sqrt(brute_class(fwd - f_i, fwd - f_i, p))) <= TOL * s
        assert kernels.split_residual(split.quantum_error[i], split.estimation_error[i], split.f_error[i]) <= 1e-10 * s**2
        adj = oracles.adjoint_brute(effects, f_i)
        assert abs(classical[i] - np.sqrt(brute_class(f_i, f_i, p))) <= TOL * s
        assert abs(adjoint_norm[i] - brute_norm(adj, rho)) <= TOL * s
        gap = oracles.adjoint_brute(effects, f_i**2) - adj @ adj
        assert abs(gap_min[i] - np.linalg.eigvalsh(gap)[0]) <= TOL * s**2


def test_broken_split_raises():
    with pytest.raises(AssertionError):
        kernels.check_split(np.array([1.0, 1.0]), np.array([1.0, 1.0]), np.array([np.sqrt(2.0), 1.0]), 3.0)


def test_planted_estimation_error_raises(monkeypatch):
    """An estimation error 1e-6 too large on unit-scale instances breaks the
    split by ~1e-6, which ``f_error_split`` rejects: the scale it judges the
    split at, 1 + ||A||_rho^2 + ||f||_p^2, lets no such error through."""
    _, ctx, a, _, f = stack(3, 0)
    t = kernels.transport(ctx, a)
    split = kernels.f_error_split(ctx, a, t, f)
    assert (split.estimation_error > 0.1).all()
    planted = kernels.FError
    monkeypatch.setattr(kernels, "FError", lambda q, e, f_err: planted(q, e * (1.0 + 1e-6), f_err))
    with pytest.raises(AssertionError, match="^error decomposition violated by "):
        kernels.f_error_split(ctx, a, t, f)


@pytest.mark.parametrize("size", [1e3, 1e6])
def test_projective_measurements_of_large_observables(size):
    """Measured projectively, an observable of norm 1e3 or 1e6 has error 0
    up to roundoff, and nothing raises: the guards judge the transport
    radicand, the squared norms, and the reconstruction cost and the f-error
    split of an estimator (the eigenvalues, whose f-error is 0, and the
    eigenvalues shifted by ``size``, whose f-error is ``size``) against the
    squares they come from, ~size^2, not against -psd or 1."""
    rng = np.random.default_rng(int(size))
    for dim in (2, 3, 4, 5):
        rho = np.concatenate([ginibre_states(oracles.complex_gaussian(rng, (40, dim, dim))),
                              pure_states(oracles.complex_gaussian(rng, (40, dim)))])
        a = kernels.hermitian_part(oracles.complex_gaussian(rng, (80, dim, dim)))
        a *= size / np.linalg.norm(a, 2, axis=(-2, -1))[:, None, None]
        values, projectors = kernels.spectral(a)
        ctx = local_context(projectors, rho)
        t = kernels.transport(ctx, a)
        split = kernels.f_error_split(ctx, a, t, values + size)
        exact = kernels.f_error_split(ctx, a, t, values)
        e = kernels.errorless(ctx, a, t)
        assert e.errorless.all() and (e.violation <= suites._BOUND_ROUNDOFF * e.scale**2).all()
        assert np.allclose(split.f_error, size, rtol=1e-12, atol=0.0)
        assert (exact.f_error <= 1e-6 * size).all()


@pytest.mark.parametrize("dim,seed", CASES)
def test_errorless_conditions(dim, seed):
    rows, ctx, a, _, _ = stack(dim, seed)
    values, projectors = kernels.spectral(a)
    exact = kernels.context(projectors, ctx.rho, kernels.born(projectors, ctx.rho))
    for c, is_exact in ((ctx, False), (exact, True)):
        e = kernels.errorless(c, a, kernels.transport(c, a))
        for i, (_, rho, a_i, _, _) in enumerate(rows):
            effects = c.effects[i][: int(np.count_nonzero(np.abs(c.effects[i]).max(axis=(-2, -1))))]
            fwd = oracles.pushforward_brute(effects, rho, a_i)
            rt = oracles.adjoint_brute(effects, fwd)
            norm_a = brute_norm(a_i, rho)
            eps = oracles.quantum_error_brute(effects, rho, a_i)
            residual, back = brute_norm(a_i - rt, rho), brute_norm(rt, rho)
            violation = max(residual**2 - eps**2, eps**2 - residual * (2.0 * back + residual))
            assert abs(e.scale[i] - norm_a) <= TOL * scale(a_i)
            assert abs(e.roundtrip_residual[i] - residual) <= TOL * scale(a_i)
            assert abs(e.violation[i] - violation) <= TOL * scale(a_i) ** 2
            assert e.violation[i] <= suites._BOUND_ROUNDOFF * norm_a**2
            assert e.errorless[i] == (eps**2 <= DEFAULT_TOL.errorless * norm_a**2) == is_exact
            if not is_exact:
                assert abs(e.error[i] - eps) <= TOL * scale(a_i)


@pytest.mark.parametrize("dim", [2, 5, 8])
def test_spectral_merges_degenerate_eigenvalues(dim):
    rng = np.random.default_rng(dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    eigs = np.array([[1.0] * (dim - 1) + [3.0], np.arange(dim, dtype=float)])
    a = np.einsum("ij,nj,kj->nik", q, eigs, q.conj())
    values, projectors = kernels.spectral(a)
    assert values.shape == (2, dim)
    assert np.allclose(values[0, :2], [1.0, 3.0], atol=1e-12) and np.all(values[0, 2:] == 0.0)
    assert np.all(projectors[0, 2:] == 0.0)
    assert np.allclose(values[1], np.arange(dim), atol=1e-12)
    for i in range(2):
        assert np.max(np.abs(projectors[i].sum(axis=0) - np.eye(dim))) <= 1e-12
        assert np.max(np.abs(kernels.adjoint(projectors[i], values[i]) - a[i])) <= 1e-12 * dim
        assert np.max(np.abs(projectors[i] @ projectors[i] - projectors[i])) <= 1e-12


def test_single_instances_need_no_leading_axis():
    rows, ctx, a, b, f = stack(3, 0)
    one = kernels.context(ctx.effects[1], ctx.rho[1], ctx.weights[1])
    rel, rel_one = kernels.relation(ctx, a, b), kernels.relation(one, a[1], b[1])
    assert np.ndim(rel_one.bound) == 0
    for field in ("eps_a", "eps_b", "real_term", "imag_term", "bound"):
        assert getattr(rel_one, field) == getattr(rel, field)[1]


@pytest.mark.parametrize("dim,outcomes", [(dim, n) for dim in (2, 3, 5, 8, 16) for n in range(1, 7)])
def test_traces_are_stack_invariant(dim, outcomes):
    """Each row of a stacked ``expect``, ``born``, ``pushforward``, ``anti``,
    ``comm``, ``_anti_comm`` and ``norm``, with the state broadcast over the
    outcomes and the POVMs zero-padded to 6 outcomes, equals the call on
    that row alone bit for bit, also on the unpadded effects, padded
    outcomes give exactly 0.0, and each agrees with the trace of the formed
    products (``Tr[(XY +- YX) rho]/2(i)``, the Jordan product,
    ``Tr[X X rho]``) within 1e-12."""
    rng = np.random.default_rng([dim, outcomes])
    rows = []
    for mixedness in ("pure", "ginibre", "ginibre", "pure"):
        rows.append((instances.povm(rng, dim, outcomes), instances.state(rng, dim, pure=mixedness == "pure"),
                     instances.observable(rng, dim), instances.observable(rng, dim)))
    effects = np.zeros((len(rows), 6, dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        effects[i, :outcomes] = row[0]
    rho, a, b = (np.stack(col) for col in list(zip(*rows))[1:])
    expect = kernels.expect(effects, rho[:, None])
    weights = kernels.born(effects, rho)
    fwd = kernels.pushforward(kernels.context(effects, rho, weights), a)
    symmetric, commutator = kernels._anti_comm(a, b, rho)
    norms, effect_norms = kernels.norm(a, rho), kernels.norm(effects, rho[:, None])
    for i, (unpadded, *_) in enumerate(rows):
        assert np.array_equal(kernels.expect(effects[i], rho[i]), expect[i])
        assert np.array_equal(kernels.born(effects[i], rho[i]), weights[i])
        assert np.array_equal(kernels.pushforward(kernels.context(effects[i], rho[i], weights[i]), a[i]), fwd[i])
        one = kernels.context(unpadded, rho[i], kernels.born(unpadded, rho[i]))
        assert np.array_equal(one.weights, weights[i, :outcomes]) and np.all(weights[i, outcomes:] == 0.0)
        assert np.array_equal(kernels.pushforward(one, a[i]), fwd[i, :outcomes]) and np.all(fwd[i, outcomes:] == 0.0)
        assert kernels._anti_comm(a[i], b[i], rho[i]) == (symmetric[i], commutator[i])
        assert (kernels.anti(a[i], b[i], rho[i]), kernels.comm(a[i], b[i], rho[i])) == (symmetric[i], commutator[i])
        assert kernels.norm(a[i], rho[i]) == norms[i]
        assert np.array_equal(kernels.norm(effects[i], rho[i]), effect_norms[i])
        assert np.array_equal(kernels.norm(unpadded, rho[i]), effect_norms[i, :outcomes])
        assert np.all(effect_norms[i, outcomes:] == 0.0)
    assert np.array_equal(kernels.anti(a, b, rho), symmetric) and np.array_equal(kernels.comm(a, b, rho), commutator)
    assert np.array_equal(expect, weights)
    assert np.max(np.abs(weights - oracles.trace_matmul(effects, rho[:, None]).real)) <= TOL
    inner = oracles.trace_matmul((a[:, None] @ effects + effects @ a[:, None]) / 2.0, rho[:, None]).real
    assert np.max(np.abs(fwd * weights - inner)) <= TOL * max(scale(x) for x in a)
    product = max(scale(x) for x in a) * max(scale(x) for x in b)
    assert np.max(np.abs(symmetric - oracles.trace_matmul((a @ b + b @ a) / 2.0, rho).real)) <= TOL * product
    assert np.max(np.abs(commutator - (oracles.trace_matmul(a @ b - b @ a, rho) / 2j).real)) <= TOL * product
    assert np.max(np.abs(norms**2 - oracles.norm_square_matmul(a, rho))) <= TOL * max(scale(x) for x in a) ** 2
    assert np.max(np.abs(effect_norms**2 - oracles.norm_square_matmul(effects, rho[:, None]))) <= TOL


def test_born_clips_roundoff_negative_weights():
    """An effect eigenvalue of -5e-11, inside ``psd``, gives a weight of
    exactly 0.0, off the support; the other weights are left as they are."""
    effects = np.array([np.diag([1 + 5e-11, -5e-11]), np.diag([-5e-11, 1 + 5e-11])], dtype=complex)
    weights = kernels.born(effects, np.diag([0.3, 0.7]).astype(complex))
    assert weights[0] == 0.3 * (1 + 5e-11) - 0.7 * 5e-11
    assert kernels.born(effects, np.diag([0.0, 1.0]).astype(complex)).tolist() == [0.0, 1 + 5e-11]


def test_non_real_expectations_raise():
    """``expect``, ``born`` and ``norm`` keep the realness guard: the
    expectation of a non-Hermitian operator raises ArithmeticError.
    (``anti``, ``comm`` and ``pushforward`` take the real or imaginary part
    of one trace by construction.)"""
    rho = np.eye(2, dtype=complex) / 2.0
    x = np.diag([1.0 + 1.0j, 0.0])
    with pytest.raises(ArithmeticError, match="expected a real expectation"):
        kernels.expect(x, rho)
    with pytest.raises(ArithmeticError, match="expected a real expectation"):
        kernels.born(np.stack([x, np.eye(2) - x]), rho)
    with pytest.raises(ArithmeticError, match="expected a real expectation"):
        kernels.norm(x, rho)
    assert kernels.expect(x.real, rho) == 0.5 and kernels.norm(x.real, rho) == np.sqrt(0.5)


def rank_state(rng, dim, rank):
    """A random state of the given rank (pure for rank 1)."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def check_relation(effects, rho, a, b, rel, k):
    """Instance k of the stacked ``kernels.relation`` ``rel`` against the
    oracles on its unpadded effects: the inner products f(w) p(w) rather
    than the pushforward values (which divide by the weights), the squared
    errors (the errors take a square root of a difference), R and I."""
    s = scale(a) * scale(b)
    p = oracles.probabilities(effects, rho)
    n = len(effects)
    f_a, f_b = (oracles.pushforward_brute(effects, rho, x) for x in (a, b))
    for t, f, x in ((rel.transport_a, f_a, a), (rel.transport_b, f_b, b)):
        assert np.max(np.abs(t.pushforward[k, :n] * p - f * p)) <= TOL * scale(x)
        assert abs(t.error[k] ** 2 - oracles.quantum_error_brute(effects, rho, x) ** 2) <= TOL * scale(x) ** 2
    rt_a, rt_b = oracles.adjoint_brute(effects, f_a), oracles.adjoint_brute(effects, f_b)
    assert abs(rel.real_term[k] - (oracles.sym_inner(a, b, rho) - brute_class(f_a, f_b, p))) <= TOL * s
    imag = oracles.comm_over_2i(a, b, rho) - oracles.comm_over_2i(rt_a, b, rho) - oracles.comm_over_2i(a, rt_b, rho)
    assert abs(rel.imag_term[k] - imag) <= TOL * s


@settings(max_examples=25, deadline=None)
@given(
    ranks=st.lists(st.integers(1, 7), min_size=1, max_size=3),
    eigs=st.lists(st.integers(-2, 2), min_size=8, max_size=8),
    split=st.floats(1e-9, 1e-8),
    seed=st.integers(0, 2**32 - 1),
)
def test_edge_instances_at_d8(ranks, eigs, split, seed):
    """One stack of pure and rank-deficient states at d=8, random POVMs with
    an outcome split off inside tiny_support, and degenerate observables
    (merged eigenvalues), measured by the random POVMs and projectively,
    through the kernels against the oracles."""
    dim, n = 8, len(ranks)
    rng = np.random.default_rng(seed)
    rho = check_states(np.stack([rank_state(rng, dim, r) for r in ranks]))
    rows = []
    for _ in ranks:
        base = instances.povm(rng, dim, 3)
        rows.append(np.array([(1.0 - split) * base[0], split * base[0], *base[1:]]))
    effects = np.stack(rows)
    check_effects(effects)
    g = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    q = haar_unitaries(g)
    a = kernels.hermitian_part(q @ (np.array(eigs, dtype=float)[:, None] * q.conj().swapaxes(-1, -2)))
    b = kernels.hermitian_part(g)
    distinct = np.unique(eigs)
    exact = [[q[k] @ np.diag((np.array(eigs) == v).astype(complex)) @ q[k].conj().T for v in distinct] for k in range(n)]
    for k in range(n):
        assume(oracles.probabilities(rows[k], rho[k])[1] > 10 * DEFAULT_TOL.support_cutoff)

    ctx = kernels.context(effects, rho, check_weights(kernels.born(effects, rho)))
    rel = kernels.relation(ctx, a, b)
    values, projectors = kernels.spectral(a)
    check_effects(projectors)
    projective = kernels.context(projectors, rho, check_weights(kernels.born(projectors, rho)))
    rel_projective = kernels.relation(projective, a, b)
    errorless = kernels.errorless(projective, a, kernels.transport(projective, a))
    m = len(distinct)
    for k in range(n):
        assert ctx.mask[k, 1] and ctx.weights[k, 1] <= instances.TINY_SUPPORT
        assert np.max(np.abs(ctx.weights[k] - oracles.probabilities(rows[k], rho[k]))) <= TOL
        check_relation(rows[k], rho[k], a[k], b[k], rel, k)
        assert np.max(np.abs(values[k, :m] - distinct)) <= TOL * 3.0 and np.all(values[k, m:] == 0.0)
        assert np.max(np.abs(projectors[k, :m] - np.array(exact[k]))) <= TOL * dim
        assert np.all(projectors[k, m:] == 0.0)
        check_relation(exact[k], rho[k], a[k], b[k], rel_projective, k)
        assert errorless.errorless[k]
        assert errorless.violation[k] <= suites._BOUND_ROUNDOFF * errorless.scale[k] ** 2
