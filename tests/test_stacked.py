"""Differential tests: the stacked-effect paths of ``local_context``,
``kernels.adjoint``, ``kernels.pushforward`` and ``kernels.transport``
(round trip and error) against the per-outcome formulas in ``oracles``, on
instances that hold an off-support zero effect and an outcome inside
``tiny_support``; and the shared builders, whose rows on a stack are their
one-instance calls bit for bit."""

from functools import partial

import instances
import numpy as np
import pytest

import oracles
from measerr import (
    chain_check,
    evaluate_relation,
    induced_povm,
    kernels,
    local_context,
    noisy_projective,
    schroedinger_reduction,
    trivial_measurement,
)
from measerr.generate import complex_stack, haar_unitaries
from measerr.states import check_effects

# Weight fraction split off the first effect: its outcome lands inside
# tiny_support (weight ~1e-10, between the 1e-12 cutoff and 1e-8).
SPLIT = 1e-9


def edge_instance(dim, mixedness, seed):
    """Random POVM with outcome 0 split into (1 - SPLIT) E_0 and SPLIT E_0,
    plus a zero effect last; a random state and observable."""
    rng = np.random.default_rng([dim, seed])
    base = instances.povm(rng, dim, 3)
    zero = np.zeros((dim, dim), dtype=complex)
    effects = [(1.0 - SPLIT) * base[0], SPLIT * base[0], *base[1:], zero]
    return check_effects(np.array(effects)), effects, instances.state(rng, dim, pure=mixedness == "pure"), instances.observable(rng, dim), rng


CASES = [(dim, mixedness, seed) for dim in (2, 5, 8) for mixedness in ("pure", "ginibre") for seed in range(3)]


@pytest.mark.parametrize("dim,mixedness,seed", CASES)
def test_stacked_paths_match_per_outcome_formulas(dim, mixedness, seed):
    stack, effects, rho, a, rng = edge_instance(dim, mixedness, seed)
    ctx = local_context(stack, rho)
    assert ctx.mask[1] and ctx.weights[1] <= instances.TINY_SUPPORT
    assert not ctx.mask[-1]

    assert np.max(np.abs(ctx.weights - oracles.probabilities(effects, rho))) <= 1e-12

    g = rng.uniform(-2.0, 2.0, len(effects))
    adjoint = kernels.adjoint(stack, g)
    expected = oracles.adjoint_brute(effects, g)
    assert np.max(np.abs(adjoint - expected)) <= 1e-12 * (1.0 + np.max(np.abs(g)))

    fwd = kernels.pushforward(ctx, a)
    expected = oracles.pushforward_brute(effects, rho, a)
    scale = 1.0 + np.linalg.norm(a, 2)
    assert np.max(np.abs(fwd - expected)) <= 1e-12 * scale
    assert fwd[-1] == 0.0

    t = kernels.transport(ctx, a)
    roundtrip = oracles.adjoint_brute(effects, expected)
    assert np.max(np.abs(t.roundtrip - roundtrip)) <= 1e-12 * scale
    error = oracles.quantum_error_brute(effects, rho, a)
    assert abs(t.error - error) <= 1e-12 * scale


def same_row(stacked, one, k) -> bool:
    """Whether row ``k`` of every field of ``stacked`` (a result, a record or a
    tuple of them, nested records field by field) equals ``one`` bit for bit."""
    if isinstance(one, (tuple, kernels._Record)):
        parts = list(one)
        return len(list(stacked)) == len(parts) and all(same_row(x, y, k) for x, y in zip(stacked, parts))
    return np.array_equal(np.asarray(stacked)[k], one)


def same_padded_row(stacked, one, k) -> bool:
    """Whether row ``k`` of ``stacked`` (an array or a tuple of them) begins
    with ``one`` bit for bit and is exactly zero past it, on its padded
    outcomes."""
    if isinstance(one, tuple):
        return all(same_padded_row(x, y, k) for x, y in zip(stacked, one))
    return np.array_equal(stacked[k, : len(one)], one) and np.all(stacked[k, len(one) :] == 0.0)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_builders_are_stack_invariant(dim):
    """Row k of each builder the CLI and the suites share, called on stacks,
    equals its call on instance k alone, bit for bit on every field.  Where
    the rows have different outcome counts (``kernels.spectral`` and
    ``noisy_projective`` of observables with different numbers of distinct
    eigenvalues), row k equals the call alone on its outcomes and its padded
    outcomes are exactly zero: on a diagonal observable with one repeated
    eigenvalue, and on U U^dag of Haar unitaries U, whose eigenvalues lie
    within roundoff of 1 and merge into one outcome at their mean, stacked
    with d distinct ones."""
    rng = np.random.default_rng([dim, 24])
    n, ancilla = 4, 2
    rho = np.stack([instances.state(rng, dim, pure=k % 2 == 0) for k in range(n)])
    a, b = (np.stack([instances.observable(rng, dim) for _ in range(n)]) for _ in range(2))
    effects = np.stack([instances.povm(rng, dim, 3) for _ in range(n)])
    weights = rng.dirichlet(np.ones(3), n)
    models = [instances.indirect_model(rng, dim, ancilla) for _ in range(n)]
    xi, u = (np.stack([m[i] for m in models]) for i in (0, 1))
    meter = np.stack([instances.observable(rng, ancilla) for _ in range(n)])
    calls = [
        (kernels.spectral, (a,)),
        (lambda x: noisy_projective(x, 0.5), (a,)),
        (lambda w: trivial_measurement(w, dim), (weights,)),
        (induced_povm, (xi, u, meter)),
        (chain_check, (xi, u, meter, rho, a, b)),
        (evaluate_relation, (effects, rho, a, b)),
        (schroedinger_reduction, (weights, rho, a, b)),
    ]
    for builder, args in calls:
        stacked = builder(*args)
        for k in range(n):
            assert same_row(stacked, builder(*(x[k] for x in args)), k), (builder, k)
    distinct = np.diag(np.arange(1.0, dim + 1)).astype(complex)
    ragged = [np.stack([distinct, np.diag([1.0, 1.0, *range(3, dim + 1)]).astype(complex)])]
    for seed in range(25):
        unitary = haar_unitaries(complex_stack(np.random.default_rng(seed).standard_normal((2, dim, dim))))
        ragged.append(np.stack([kernels.hermitian_part(unitary @ unitary.conj().T), distinct]))
    padded = [kernels.spectral, *(partial(noisy_projective, lam=lam) for lam in (0.0, 0.5, 1.0))]
    for seed, observables in enumerate(ragged):
        for builder in padded:
            stacked = builder(observables)
            for k, observable in enumerate(observables):
                assert same_padded_row(stacked, builder(observable), k), (seed, builder, k)
