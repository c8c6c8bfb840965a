"""Random single instances for tests: Gaussian arrays drawn call by call with
``oracles.complex_gaussian`` (real part, then imaginary part), in the order
the package's sweeps draw them, and built by the stacked generators of
``measerr.generate``.  The same generator state gives the same instance."""

import numpy as np
import oracles

from measerr import DensityOperator, HermitianObservable, IndirectModel, OutcomeSpace, Povm
from measerr.generate import diagonal_meter, ginibre_states, haar_unitaries, observable_matrices, povm_effects


def state(rng, dim: int, pure: bool = False) -> DensityOperator:
    """A Haar-random pure state from a ket draw, or a Ginibre state G G^dag / Tr."""
    if pure:
        return DensityOperator.pure(oracles.complex_gaussian(rng, (dim,)))
    return DensityOperator(ginibre_states(oracles.complex_gaussian(rng, (dim, dim))))


def observable(rng, dim: int) -> HermitianObservable:
    """A Gaussian Hermitian matrix (G + G^dag)/2."""
    return HermitianObservable(observable_matrices(oracles.complex_gaussian(rng, (dim, dim))))


def povm(rng, dim: int, outcomes: int = 2) -> Povm:
    """A full-rank POVM of whitened Gaussian factors, outcome values 1..n."""
    effects = povm_effects(oracles.povm_factors(rng, outcomes, dim))
    return Povm(OutcomeSpace.from_values(np.arange(1, outcomes + 1, dtype=float)), effects)


def haar_unitary(rng, dim: int) -> np.ndarray:
    """A Haar-random unitary of dimension ``dim``."""
    return haar_unitaries(oracles.complex_gaussian(rng, (dim, dim)))


def indirect_model(rng, dim: int, ancilla: int = 2) -> IndirectModel:
    """A random pure ancilla, a Haar interaction and the meter diag(1, ..., ancilla)."""
    ket = oracles.complex_gaussian(rng, (ancilla,))
    u = haar_unitary(rng, dim * ancilla)
    return IndirectModel(dim, DensityOperator.pure(ket), u, HermitianObservable(diagonal_meter(ancilla)))
