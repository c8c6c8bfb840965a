"""POVM measurements: the affine map from states to outcome distributions.

Every affine map from density operators to distributions over finitely many
outcomes is realized by a POVM, so a validated stack of effects ``(n, d,
d)``, one positive effect per outcome summing to I (``check_effects``), is
the one carrier of every measurement in the package.  The builders here
take one instance or a stack and return validated effects, with the
outcome values where the measurement defines them.  The outcome
distribution at a state is the weights of ``transport.local_context(effects,
rho)``; the adjoint, which sends outcome functions back to operators, is
``kernels.adjoint``.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .states import PAULI_X, PAULI_Y, PAULI_Z, _check_finite, _check_hermitian, check_weights
from .tolerances import DEFAULT_TOL


def check_effects(stack: np.ndarray) -> np.ndarray:
    """Validate POVM effects, one ``(n, d, d)`` set or a stack of them:
    finite, Hermitian, no eigenvalue below -DEFAULT_TOL.psd, and each set
    summing to the identity within DEFAULT_TOL.identity.  Returns them.
    Zero effects (the padding of ragged stacks) pass.  One Cholesky
    factorization of the stack shifted by psd/2 succeeds only where the
    eigenvalue test passes; that test runs, and alone decides, when it
    fails."""
    _check_finite(stack, "effect")
    _check_hermitian(stack, "effect")
    try:
        np.linalg.cholesky(stack + DEFAULT_TOL.psd / 2.0 * np.eye(stack.shape[-1]))
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(stack)[..., 0].min())
        if smallest < -DEFAULT_TOL.psd:
            raise ValueError(f"effect has eigenvalue {smallest:.3e}, not PSD")
    residual = float(np.max(np.abs(stack.sum(axis=-3) - np.eye(stack.shape[-1]))))
    if residual > DEFAULT_TOL.identity:
        raise ValueError(f"effects sum to identity only within {residual:.3e}")
    return stack


def projective_from(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projection measurements of observables, one ``(d, d)`` or a stack:
    outcome values (their merged eigenvalues, ``kernels.spectral``) and
    validated effects (the spectral projectors), rows with fewer distinct
    eigenvalues zero-padded."""
    values, projectors = kernels.spectral(a)
    return values, check_effects(projectors)


def trivial_measurement(weights, dim: int) -> np.ndarray:
    """Non-informative measurements: every state maps to the fixed
    ``weights`` (one row or a stack, validated by ``check_weights``), effects
    p_w I on a ``dim``-dimensional system."""
    return check_effects(check_weights(weights)[..., None, None] * np.eye(dim, dtype=complex))


def unsharp_qubit(axis, eta: float) -> np.ndarray:
    """Two-outcome qubit family (I +- eta n.sigma)/2 along a unit axis n, its
    outcome values +1 and -1.

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
    return check_effects(np.array([(np.eye(2) + eta * pauli) / 2.0, (np.eye(2) - eta * pauli) / 2.0]))


def noisy_projective(a: np.ndarray, lam: float) -> np.ndarray:
    """Projective measurement of the observable ``a`` mixed with uniform
    outcome noise: effects lam*E_w + (1-lam)*I/n, a path from projective
    (lam=1) to trivial uniform (lam=0)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    _, base = projective_from(a)
    return check_effects(lam * base + (1.0 - lam) * np.eye(a.shape[-1], dtype=complex) / len(base))
