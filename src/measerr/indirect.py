"""Indirect measurement models: system + ancilla, joint unitary, meter.

Reading a meter observable on the ancilla after the interaction induces a
POVM on the system, which plugs the model into the rest of the package.
The root-mean-square meter-vs-observable deviation (Ozawa's error) equals
the f-error of the induced measurement with the identity estimator, and is
therefore never below the intrinsic error; the full comparison chain down
to Ozawa's bound is evaluated by ``chain_check``.

A model is three arrays, one model or a stack of them: the ancilla state
xi, the joint unitary U and the meter M on the ancilla.  A model file is
validated where it enters (``serialize.load_model``), its induced effects
included; ``cnot_model`` and the chain suite's drawn models are valid by
construction.  Tensor-product convention: the system factor comes first.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .states import PAULI_Z, qubit_state
from .tolerances import DEFAULT_TOL


def cnot_model() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Qubit probe read out by a controlled flip, as (ancilla state,
    interaction, meter): system controls, ancilla starts in |0>, meter is
    the ancilla Z.  Induces the projective Z measurement on the system."""
    u = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    return qubit_state(z=1.0), u, PAULI_Z


def induced_povm(xi: np.ndarray, u: np.ndarray, meter: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outcome values (the meter's eigenvalues) and effects of the system
    POVMs E_w = Tr_anc[(I (x) xi) U^dag (I (x) P_w) U], for ancilla states
    ``xi`` ``(..., a, a)``, interactions ``u`` ``(..., D, D)`` and meters
    ``(..., a, a)``, one model or a stack."""
    values, projectors = kernels.spectral(meter)
    return values, kernels.induced_effects(u, xi, projectors)


def chain_check(
    xi: np.ndarray,
    u: np.ndarray,
    meter: np.ndarray,
    rho: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    slack: float = DEFAULT_TOL.identity,
) -> tuple[kernels.Context, kernels.Chain]:
    """The induced measurement pinned to the states ``rho`` and its five-term
    comparison chain, one model and state or a stack:
    rms(A)rms(B) >= eps(A)eps(B) >= sqrt(R^2+I^2) >= |I| >= commutator bound
    minus the rms/sigma cross terms.  ``values`` holds the five terms in that
    order, and ``holds[i]`` whether values[i] >= values[i + 1] within
    ``slack`` (``kernels.chain``), with the Heisenberg meter U^dag (I (x) M) U
    and the joint state rho (x) xi.  ``bridge_residual_*`` ties the rms error
    to the identity-estimator f-error of the induced measurement, which is
    the decisive correctness check of the induced POVM."""
    values, effects = induced_povm(xi, u, meter)
    ctx = kernels.context(effects, rho, a, b)
    return ctx, kernels.chain(ctx, a, b, kernels.heisenberg(u, meter), kernels.kron(rho, xi), values, slack)
