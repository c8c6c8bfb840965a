"""POVM measurements: the affine map from states to outcome distributions.

Every affine map from density operators to distributions over finitely many
outcomes is realized by a POVM, so this module's ``Povm`` is the concrete
carrier for all measurements handled by the package.  Its adjoint, which
sends outcome functions back to operators, is ``kernels.adjoint``.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import kernels
from .states import (
    DensityOperator,
    HermitianObservable,
    OutcomeSpace,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ProbabilityDistribution,
    _check_finite,
    _check_hermitian,
    _positive_definite,
)
from .tolerances import DEFAULT_TOL


def check_effects(stack: np.ndarray) -> None:
    """Validate POVM effects, one ``(n, d, d)`` set or a stack of them:
    finite, Hermitian, no eigenvalue below -DEFAULT_TOL.psd, and each set
    summing to the identity within DEFAULT_TOL.identity.  Zero effects (the
    padding of ragged stacks) pass.  One Cholesky factorization of the stack
    shifted by psd/2 succeeds only where the eigenvalue test passes; that
    test runs, and alone decides, when it fails."""
    _check_finite(stack, "effect")
    _check_hermitian(stack, "effect")
    if not _positive_definite(stack, DEFAULT_TOL.psd / 2.0):
        smallest = float(np.linalg.eigvalsh(stack)[..., 0].min())
        if smallest < -DEFAULT_TOL.psd:
            raise ValueError(f"effect has eigenvalue {smallest:.3e}, not PSD")
    residual = float(np.max(np.abs(stack.sum(axis=-3) - np.eye(stack.shape[-1]))))
    if residual > DEFAULT_TOL.identity:
        raise ValueError(f"effects sum to identity only within {residual:.3e}")


class MeasurementKind(str, Enum):
    PROJECTIVE = "projective"
    TRIVIAL = "trivial"
    UNSHARP = "unsharp"
    NOISY_PROJECTIVE = "noisy-projective"
    INDUCED = "induced-from-indirect"
    CUSTOM = "custom"


class Povm:
    """Finite-outcome measurement: one positive effect per label, summing to I,
    held as one read-only ``(n, d, d)`` array ``effects`` in label order.

    Validation is eager: positivity and completeness are checked here once,
    and every other operation assumes a valid instance.
    """

    def __init__(
        self,
        space: OutcomeSpace,
        effects,
        *,
        kind: MeasurementKind = MeasurementKind.CUSTOM,
    ):
        stack = np.array(effects, dtype=complex)
        if stack.ndim != 3 or stack.shape != (space.size, stack.shape[2], stack.shape[2]):
            raise ValueError(f"need {space.size} square effects of one dimension, got shape {stack.shape}")
        check_effects(stack)
        stack.setflags(write=False)
        self.space = space
        self.effects = stack
        self.kind = kind

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    def apply(self, rho: DensityOperator) -> ProbabilityDistribution:
        """Born weights Tr[E_w rho]."""
        if rho.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {rho.dim}")
        return ProbabilityDistribution(self.space, kernels.born(self.effects, rho.matrix))

    def __repr__(self) -> str:
        return f"Povm(kind={self.kind.value!r}, dim={self.dim}, outcomes={self.space.size})"


def projective_from(a: HermitianObservable) -> Povm:
    """Projection measurement of an observable: outcomes are its (merged)
    eigenvalues, effects its spectral projectors."""
    values, projectors = kernels.spectral(a.matrix)
    return Povm(OutcomeSpace.from_values(values), projectors, kind=MeasurementKind.PROJECTIVE)


def trivial_measurement(p0: ProbabilityDistribution, dim: int) -> Povm:
    """Non-informative measurement: every state maps to the fixed p0."""
    effects = p0.weights[:, None, None] * np.eye(dim, dtype=complex)
    return Povm(p0.space, effects, kind=MeasurementKind.TRIVIAL)


def unsharp_qubit(axis, eta: float) -> Povm:
    """Two-outcome qubit family (I +- eta n.sigma)/2 along a unit axis n.

    eta = 1 recovers the projective measurement along the axis, eta = 0 the
    uniform trivial measurement.
    """
    n = np.asarray(axis, dtype=float).reshape(-1)
    if n.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError("axis must be a unit vector")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"sharpness must lie in [0, 1], got {eta}")
    pauli = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    space = OutcomeSpace(("+", "-"), (1.0, -1.0))
    effects = [(np.eye(2) + eta * pauli) / 2.0, (np.eye(2) - eta * pauli) / 2.0]
    return Povm(space, effects, kind=MeasurementKind.UNSHARP)


def noisy_projective(a: HermitianObservable, lam: float) -> Povm:
    """Projective measurement of ``a`` mixed with uniform outcome noise:
    effects lam*E_w + (1-lam)*I/n, a path from projective (lam=1) to trivial
    uniform (lam=0)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    base = projective_from(a)
    effects = lam * base.effects + (1.0 - lam) * np.eye(base.dim, dtype=complex) / base.space.size
    return Povm(base.space, effects, kind=MeasurementKind.NOISY_PROJECTIVE)
