"""Differential tests: the stacked-effect paths of ``Povm.apply``,
``kernels.adjoint``, ``kernels.pushforward`` and ``kernels.transport``
(round trip and error) against the per-outcome formulas in ``oracles``, on
instances that hold an off-support zero effect and an outcome inside
``tiny_support``."""

import numpy as np
import pytest

import oracles
from measerr import (
    GenConfig,
    LocalContext,
    OutcomeSpace,
    Povm,
    kernels,
    random_observable,
    random_povm,
    random_state,
)

# Weight fraction split off the first effect: its outcome lands inside
# tiny_support (weight ~1e-10, between the 1e-12 cutoff and 1e-8).
SPLIT = 1e-9


def edge_instance(dim, mixedness, seed):
    """Random POVM with outcome 0 split into (1 - SPLIT) E_0 and SPLIT E_0,
    plus a zero effect last; a random state and observable."""
    rng = np.random.default_rng([dim, seed])
    cfg = GenConfig(dim=dim, outcomes=3, mixedness=mixedness)
    base = random_povm(cfg, rng).effects
    zero = np.zeros((dim, dim), dtype=complex)
    effects = [(1.0 - SPLIT) * base[0], SPLIT * base[0], *base[1:], zero]
    space = OutcomeSpace.from_values(np.arange(len(effects), dtype=float))
    povm = Povm(space, effects)
    return povm, effects, random_state(cfg, rng), random_observable(cfg, rng), rng


CASES = [(dim, mixedness, seed) for dim in (2, 5, 8) for mixedness in ("pure", "ginibre") for seed in range(3)]


@pytest.mark.parametrize("dim,mixedness,seed", CASES)
def test_stacked_paths_match_per_outcome_formulas(dim, mixedness, seed):
    povm, effects, rho, a, rng = edge_instance(dim, mixedness, seed)
    ctx = LocalContext(povm, rho)
    labels = povm.space.labels
    assert labels[1] in ctx.tiny_support
    assert labels[-1] not in ctx.support

    weights = povm.apply(rho).weights
    assert np.max(np.abs(weights - oracles.probabilities(effects, rho.matrix))) <= 1e-12

    g = rng.uniform(-2.0, 2.0, len(effects))
    adjoint = kernels.adjoint(povm.effects, g)
    expected = oracles.adjoint_brute(effects, g)
    assert np.max(np.abs(adjoint - expected)) <= 1e-12 * (1.0 + np.max(np.abs(g)))

    fwd = kernels.pushforward(ctx.arrays, a.matrix)
    expected = oracles.pushforward_brute(effects, rho.matrix, a.matrix)
    scale = 1.0 + np.linalg.norm(a.matrix, 2)
    assert np.max(np.abs(fwd - expected)) <= 1e-12 * scale
    assert fwd[-1] == 0.0

    t = kernels.transport(ctx.arrays, a.matrix)
    roundtrip = oracles.adjoint_brute(effects, expected)
    assert np.max(np.abs(t.roundtrip - roundtrip)) <= 1e-12 * scale
    error = oracles.quantum_error_brute(effects, rho.matrix, a.matrix)
    assert abs(t.error - error) <= 1e-12 * scale
