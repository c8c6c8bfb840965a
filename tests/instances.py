"""Random single instances for tests: Gaussian arrays drawn call by call with
``oracles.complex_gaussian`` (real part, then imaginary part) and built by
the stacked generators of ``measerr.generate`` into validated arrays.  The
same generator state gives the same instance."""

import numpy as np
import oracles

from measerr.generate import diagonal_meter, ginibre_states, haar_unitaries, povm_effects
from measerr.kernels import hermitian_part
from measerr.states import check_effects, check_observables, check_states, check_unitaries, pure_states

# Outcome weights on the support (above the 1e-12 cutoff) and at or below
# this are the tiny-support outcomes the tests build on purpose.
TINY_SUPPORT = 1e-8


def state(rng, dim: int, pure: bool = False) -> np.ndarray:
    """A Haar-random pure state from a ket draw, or a Ginibre state G G^dag / Tr."""
    if pure:
        return check_states(pure_states(oracles.complex_gaussian(rng, (dim,))))
    return check_states(ginibre_states(oracles.complex_gaussian(rng, (dim, dim))))


def observable(rng, dim: int) -> np.ndarray:
    """A Gaussian Hermitian matrix (G + G^dag)/2."""
    return check_observables(hermitian_part(oracles.complex_gaussian(rng, (dim, dim))))


def povm(rng, dim: int, outcomes: int = 2) -> np.ndarray:
    """The effects of a full-rank POVM of whitened Gaussian factors."""
    return check_effects(povm_effects(oracles.povm_factors(rng, outcomes, dim)))


def haar_unitary(rng, dim: int) -> np.ndarray:
    """A Haar-random unitary of dimension ``dim``."""
    return haar_unitaries(oracles.complex_gaussian(rng, (dim, dim)))


def indirect_model(rng, dim: int, ancilla: int = 2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A random pure ancilla, a Haar interaction and the meter diag(1, ..., ancilla)."""
    xi = check_states(pure_states(oracles.complex_gaussian(rng, (ancilla,))))
    return xi, check_unitaries(haar_unitary(rng, dim * ancilla)), diagonal_meter(ancilla)


def near_unitary_model(delta: float = 4.9e-10) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A qubit model that passes ``check_unitaries`` but induces effects that
    miss I by twice its residual: U = I + delta (|0><0| (x) J), J the
    all-ones 2x2 matrix, ancilla |+> and meter diag(1, 2).  At delta =
    4.9e-10, U^dag U misses I by 9.8e-10, the effects by 1.96e-9."""
    u = np.eye(4, dtype=complex) + delta * np.kron(np.diag([1.0, 0.0]), np.ones((2, 2)))
    return pure([1.0, 1.0]), u, diagonal_meter(2)


def pure(ket) -> np.ndarray:
    """The validated projector onto the normalized ``ket``."""
    return check_states(pure_states(np.array(ket, dtype=complex)))


def mixed(dim: int) -> np.ndarray:
    """The validated maximally mixed state I/dim."""
    return check_states(np.eye(dim, dtype=complex) / dim)
