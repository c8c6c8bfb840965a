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

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import f_error
from .measurement import MeasurementKind, Povm
from .relations import evaluate_relation
from .states import (
    DensityOperator,
    HermitianObservable,
    OutcomeFunction,
    OutcomeSpace,
    PAULI_Z,
    ProbabilityDistribution,
    spectral_decompose,
    std_dev_q,
)
from .transport import LocalContext
from .tolerances import DEFAULT_TOL, Tolerances


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
        if not np.all(np.isfinite(u)):
            raise ValueError("interaction entries must be finite")
        residual = float(np.max(np.abs(u.conj().T @ u - np.eye(joint_dim))))
        if residual > DEFAULT_TOL.identity:
            raise ValueError(f"interaction is not unitary (residual {residual:.3e})")
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


def _heisenberg_meter(model: IndirectModel, meter_matrix: np.ndarray) -> np.ndarray:
    eye_s = np.eye(model.system_dim, dtype=complex)
    return model.interaction.conj().T @ np.kron(eye_s, meter_matrix) @ model.interaction


def induced_povm(model: IndirectModel) -> Povm:
    """System POVM obtained by tracing the ancilla out of the evolved meter
    projectors: E_w = Tr_anc[(I (x) xi) U^dag (I (x) P_w) U]."""
    ds, da = model.system_dim, model.ancilla_dim
    xi = model.ancilla_state.matrix
    decomp = spectral_decompose(model.meter)
    effects = []
    for _, proj in decomp:
        evolved = _heisenberg_meter(model, proj.matrix).reshape(ds, da, ds, da)
        eff = np.einsum("jl,ilmj->im", xi, evolved)
        effects.append((eff + eff.conj().T) / 2.0)
    space = OutcomeSpace.from_values([val for val, _ in decomp])
    return Povm(space, effects, kind=MeasurementKind.INDUCED)


def ozawa_error(model: IndirectModel, rho: DensityOperator, a: HermitianObservable) -> float:
    """Root-mean-square deviation between the evolved meter and the target
    observable over rho (x) ancilla state."""
    if a.dim != model.system_dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {model.system_dim}")
    noise = _heisenberg_meter(model, model.meter.matrix) - np.kron(
        a.matrix, np.eye(model.ancilla_dim)
    )
    val = float(kernels.expect(noise @ noise, np.kron(rho.matrix, model.ancilla_state.matrix)))
    if val < -DEFAULT_TOL.psd:
        raise RuntimeError(f"negative squared error {val:.3e}")
    return float(np.sqrt(max(val, 0.0)))


@dataclass(frozen=True)
class ChainReport:
    """The five-term comparison chain evaluated on one model and state pair:

    rms(A)rms(B) >= eps(A)eps(B) >= sqrt(R^2+I^2) >= |I| >= commutator bound
    minus the rms/sigma cross terms.  ``values`` holds the five terms in
    that order, and ``holds[i]`` whether values[i] >= values[i + 1] within
    the slack.  ``bridge_residual_*`` ties the rms error to the
    identity-estimator f-error of the induced measurement, which is the
    decisive correctness check of the induced POVM, whose outcome
    distribution over rho is ``distribution``.
    """

    values: tuple[float, float, float, float, float]
    holds: tuple[bool, ...]
    rms_a: float
    rms_b: float
    eps_a: float
    eps_b: float
    sigma_a: float
    sigma_b: float
    bridge_residual_a: float
    bridge_residual_b: float
    dominance_a: bool
    dominance_b: bool
    distribution: ProbabilityDistribution

    @property
    def all_hold(self) -> bool:
        return all(self.holds)


def chain_check(
    model: IndirectModel,
    rho: DensityOperator,
    a: HermitianObservable,
    b: HermitianObservable,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> ChainReport:
    povm = induced_povm(model)
    ctx = LocalContext(povm, rho)
    report = evaluate_relation(ctx, a, b)
    identity_est = OutcomeFunction.identity(povm.space)

    rms_a = ozawa_error(model, rho, a)
    rms_b = ozawa_error(model, rho, b)
    bridge_a = abs(rms_a - f_error(ctx, report.transport_a, identity_est).f_error)
    bridge_b = abs(rms_b - f_error(ctx, report.transport_b, identity_est).f_error)
    sigma_a = std_dev_q(a, rho)
    sigma_b = std_dev_q(b, rho)

    commutator_bound = report.naive_bound
    rhs_final = commutator_bound - rms_a * sigma_b - sigma_a * rms_b
    values = (
        rms_a * rms_b,
        report.eps_a * report.eps_b,
        report.bound,
        abs(report.imag_term),
        rhs_final,
    )
    holds = tuple(
        lhs >= rhs - tol.identity * (1.0 + abs(lhs)) for lhs, rhs in zip(values, values[1:])
    )
    slack = tol.identity * (1.0 + rms_a + rms_b)
    return ChainReport(
        values=values,
        holds=holds,
        rms_a=rms_a,
        rms_b=rms_b,
        eps_a=report.eps_a,
        eps_b=report.eps_b,
        sigma_a=sigma_a,
        sigma_b=sigma_b,
        bridge_residual_a=bridge_a,
        bridge_residual_b=bridge_b,
        dominance_a=rms_a >= report.eps_a - slack,
        dominance_b=rms_b >= report.eps_b - slack,
        distribution=ctx.prob,
    )
