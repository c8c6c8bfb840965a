"""Numerical laboratory for the geometry of quantum measurement error.

Finite-dimensional states and POVM measurements, state-local pushforward and
pullback transport, measurement-error functionals, the error-error
uncertainty bound sqrt(R^2 + I^2) with its standard-deviation and
commutator reductions, and indirect-model comparisons.
"""

from .tolerances import DEFAULT_TOL, Tolerances
from .states import (
    DensityOperator,
    HermitianObservable,
    OutcomeFunction,
    OutcomeSpace,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ProbabilityDistribution,
    class_inner,
    class_mean,
    class_norm,
    expectation,
    qubit_state,
    spectral_decompose,
    state_inner,
    state_norm,
    std_dev_q,
)
from .measurement import (
    ContractivityReport,
    MeasurementKind,
    Povm,
    contractivity_check,
    noisy_projective,
    projective_from,
    trivial_measurement,
    unsharp_qubit,
)
# ``transport(ctx, a)`` itself stays in ``measerr.transport``: exported here,
# the function would shadow that module.
from .transport import (
    LocalContext,
    Transport,
    adjointness_residual,
    pullback_rep,
    pushforward,
    support_restrict,
)
from .errors import (
    ErrorBreakdown,
    ErrorlessConditions,
    errorless_check,
    f_error,
    quantum_error,
)
from .relations import (
    ProofDeviceReport,
    RelationReport,
    SchroedingerReport,
    commutator_expectation,
    evaluate_relation,
    proof_device_check,
    schroedinger_reduction,
)
from .indirect import (
    ChainReport,
    IndirectModel,
    chain_check,
    cnot_model,
    induced_povm,
    ozawa_error,
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
    "OutcomeFunction",
    "OutcomeSpace",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "ProbabilityDistribution",
    "class_inner",
    "class_mean",
    "class_norm",
    "expectation",
    "qubit_state",
    "spectral_decompose",
    "state_inner",
    "state_norm",
    "std_dev_q",
    "ContractivityReport",
    "MeasurementKind",
    "Povm",
    "contractivity_check",
    "noisy_projective",
    "projective_from",
    "trivial_measurement",
    "unsharp_qubit",
    "LocalContext",
    "Transport",
    "adjointness_residual",
    "pullback_rep",
    "pushforward",
    "support_restrict",
    "ErrorBreakdown",
    "ErrorlessConditions",
    "errorless_check",
    "f_error",
    "quantum_error",
    "ProofDeviceReport",
    "RelationReport",
    "SchroedingerReport",
    "commutator_expectation",
    "evaluate_relation",
    "proof_device_check",
    "schroedinger_reduction",
    "ChainReport",
    "IndirectModel",
    "chain_check",
    "cnot_model",
    "induced_povm",
    "ozawa_error",
    "GenConfig",
    "RNG_ALGORITHM",
    "haar_unitary",
    "random_indirect_model",
    "random_observable",
    "random_povm",
    "random_state",
]
