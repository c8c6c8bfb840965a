"""Numerical laboratory for the geometry of quantum measurement error.

Finite-dimensional states and POVM measurements, state-local pushforward and
pullback transport, measurement-error functionals, the error-error
uncertainty bound sqrt(R^2 + I^2) with its standard-deviation and
commutator reductions, and indirect-model comparisons.  Every formula is in
``measerr.kernels``, which works on stacked arrays; the names exported here
are the types, constructors and single-instance checks the CLI uses.
"""

from .tolerances import DEFAULT_TOL, Tolerances
from .states import (
    DensityOperator,
    HermitianObservable,
    OutcomeSpace,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ProbabilityDistribution,
    qubit_state,
)
from .measurement import (
    MeasurementKind,
    Povm,
    noisy_projective,
    projective_from,
    trivial_measurement,
    unsharp_qubit,
)
from .transport import LocalContext
from .relations import evaluate_relation, schroedinger_reduction
from .indirect import (
    IndirectModel,
    chain_check,
    cnot_model,
    induced_povm,
)
from .generate import (
    GenConfig,
    RNG_ALGORITHM,
    haar_unitary,
    random_indirect_model,
    random_observable,
    random_povm,
    random_state,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "Tolerances",
    "DensityOperator",
    "HermitianObservable",
    "OutcomeSpace",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "ProbabilityDistribution",
    "qubit_state",
    "MeasurementKind",
    "Povm",
    "noisy_projective",
    "projective_from",
    "trivial_measurement",
    "unsharp_qubit",
    "LocalContext",
    "evaluate_relation",
    "schroedinger_reduction",
    "IndirectModel",
    "chain_check",
    "cnot_model",
    "induced_povm",
    "GenConfig",
    "RNG_ALGORITHM",
    "haar_unitary",
    "random_indirect_model",
    "random_observable",
    "random_povm",
    "random_state",
]
