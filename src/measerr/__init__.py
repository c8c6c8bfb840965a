"""Numerical laboratory for the geometry of quantum measurement error.

Finite-dimensional states and POVM measurements, state-local pushforward and
pullback transport, measurement-error functionals, the error-error
uncertainty bound sqrt(R^2 + I^2) with its standard-deviation and
commutator reductions, and indirect-model comparisons.  Every formula is in
``measerr.kernels``, which works on stacked arrays.  States, observables,
effects and models are arrays, validated once where they enter by the
``states`` validators, or valid by construction (the builders on checked
parameters, and ``generate``); the names exported here are the builders and
checks the CLI and the suites share, each taking one instance or a stack.
``kernels.context`` pins effects to states as the ``kernels.Context`` the
kernels take.
"""

from .tolerances import DEFAULT_TOL
from .states import PAULI_X, PAULI_Y, PAULI_Z, qubit_state
from .measurement import noisy_projective, trivial_measurement, unsharp_qubit
from .indirect import chain_check, cnot_model, induced_povm
from .generate import RNG_ALGORITHM

__version__ = "0.3.0"

__all__ = [
    "DEFAULT_TOL",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "qubit_state",
    "noisy_projective",
    "trivial_measurement",
    "unsharp_qubit",
    "chain_check",
    "cnot_model",
    "induced_povm",
    "RNG_ALGORITHM",
]
