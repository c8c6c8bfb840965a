"""Indirect measurement models: system + ancilla, joint unitary, meter.

Reading a meter observable on the ancilla after the interaction induces a
POVM on the system, which plugs the model into the rest of the package.
The root-mean-square meter-vs-observable deviation (Ozawa's error) equals
the f-error of the induced measurement with the identity estimator, and is
therefore never below the intrinsic error; the full comparison chain down
to Ozawa's bound is evaluated by ``chain_check``.

Tensor-product convention: the system factor comes first.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .measurement import MeasurementKind, Povm
from .states import DensityOperator, HermitianObservable, OutcomeSpace, PAULI_Z, _check_finite, _check_same_dim
from .transport import local_context
from .tolerances import DEFAULT_TOL


def check_unitaries(stack: np.ndarray) -> None:
    """Validate interactions, one ``(D, D)`` matrix or a stack: finite and
    unitary within DEFAULT_TOL.identity."""
    _check_finite(stack, "interaction")
    residual = float(np.max(np.abs(stack.conj().swapaxes(-1, -2) @ stack - np.eye(stack.shape[-1]))))
    if residual > DEFAULT_TOL.identity:
        raise ValueError(f"interaction is not unitary (residual {residual:.3e})")


class IndirectModel:
    """Ancilla state, joint unitary on system (x) ancilla, meter on the ancilla."""

    def __init__(
        self,
        system_dim: int,
        ancilla_state: DensityOperator,
        interaction,
        meter: HermitianObservable,
    ):
        if system_dim < 2:
            raise ValueError("system dimension must be at least 2")
        u = np.array(interaction, dtype=complex)
        joint_dim = system_dim * ancilla_state.dim
        if u.shape != (joint_dim, joint_dim):
            raise ValueError(
                f"interaction must act on the {joint_dim}-dimensional joint system"
            )
        check_unitaries(u)
        if meter.dim != ancilla_state.dim:
            raise ValueError("meter must act on the ancilla")
        u.setflags(write=False)
        self.system_dim = system_dim
        self.ancilla_dim = ancilla_state.dim
        self.ancilla_state = ancilla_state
        self.interaction = u
        self.meter = meter

    def __repr__(self) -> str:
        return f"IndirectModel(system={self.system_dim}, ancilla={self.ancilla_dim})"


def cnot_model() -> IndirectModel:
    """Qubit probe read out by a controlled flip: system controls, ancilla
    starts in |0>, meter is the ancilla Z.  Induces the projective Z
    measurement on the system."""
    u = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    ancilla = DensityOperator.pure([1.0, 0.0])
    return IndirectModel(2, ancilla, u, HermitianObservable(PAULI_Z))


def induced_povm(model: IndirectModel) -> Povm:
    """System POVM obtained by tracing the ancilla out of the evolved meter
    projectors: E_w = Tr_anc[(I (x) xi) U^dag (I (x) P_w) U]."""
    values, projectors = kernels.spectral(model.meter.matrix)
    effects = kernels.induced_effects(model.interaction, model.ancilla_state.matrix, projectors)
    return Povm(OutcomeSpace.from_values(values), effects, kind=MeasurementKind.INDUCED)


def _meter_and_joint(model: IndirectModel, rho: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """The Heisenberg meter U^dag (I (x) M) U and the joint state rho (x) xi."""
    return (
        kernels.heisenberg(model.interaction, model.meter.matrix),
        kernels.kron(rho.matrix, model.ancilla_state.matrix),
    )


def chain_check(
    model: IndirectModel,
    rho: DensityOperator,
    a: HermitianObservable,
    b: HermitianObservable,
    *,
    slack: float = DEFAULT_TOL.identity,
) -> kernels.Chain:
    """The five-term comparison chain on one model and state pair:
    rms(A)rms(B) >= eps(A)eps(B) >= sqrt(R^2+I^2) >= |I| >= commutator bound
    minus the rms/sigma cross terms.  ``values`` holds the five terms in that
    order, and ``holds[i]`` whether values[i] >= values[i + 1] within
    ``slack`` (``kernels.chain``).  ``bridge_residual_*`` ties the rms error
    to the identity-estimator f-error of the induced measurement, which is
    the decisive correctness check of the induced POVM."""
    povm = induced_povm(model)
    ctx = local_context(povm.effects, rho.matrix)
    _check_same_dim(a, ctx)
    _check_same_dim(b, ctx)
    return kernels.chain(ctx, a.matrix, b.matrix, *_meter_and_joint(model, rho), np.array(povm.space.values), slack)
