"""POVM measurements: the affine map from states to outcome distributions.

Every affine map from density operators to distributions over finitely many
outcomes is realized by a POVM, so a stack of effects ``(n, d, d)``, one
positive effect per outcome summing to I, is the one carrier of every
measurement in the package.  The builders here take one instance or a
stack, check their parameters (the axis, ``eta``, ``lam``, the weights) and
return effects valid by construction, with the outcome values where the
measurement defines them; the projective measurement of an observable is
``kernels.spectral``.  The outcome distribution at a state is the weights
of ``kernels.context(effects, rho)``; the adjoint, which sends outcome
functions back to operators, is ``kernels.adjoint``.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .states import PAULI_X, PAULI_Y, PAULI_Z, check_weights


def trivial_measurement(weights, dim: int) -> np.ndarray:
    """Non-informative measurements: every state maps to the fixed
    ``weights`` (one row or a stack, validated by ``check_weights``), effects
    p_w I on a ``dim``-dimensional system."""
    return check_weights(weights)[..., None, None] * np.eye(dim, dtype=complex)


def unsharp_qubit(axis, eta: float) -> np.ndarray:
    """Two-outcome qubit family (I +- eta n.sigma)/2 along a unit axis n, its
    outcome values +1 and -1.

    eta = 1 recovers the projective measurement along the axis, eta = 0 the
    uniform trivial measurement.
    """
    n = np.asarray(axis, dtype=float).reshape(-1)
    if n.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    if not abs(np.linalg.norm(n) - 1.0) <= 1e-9:
        raise ValueError("axis must be a unit vector")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"sharpness must lie in [0, 1], got {eta}")
    pauli = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    return np.array([(np.eye(2) + eta * pauli) / 2.0, (np.eye(2) - eta * pauli) / 2.0])


def noisy_projective(a: np.ndarray, lam: float) -> np.ndarray:
    """Projective measurement of the observable ``a`` (one or a stack)
    mixed with uniform outcome noise: effects lam*E_w + (1-lam)*I/n, n the
    number of distinct eigenvalues, a path from projective (lam=1) to
    trivial uniform (lam=0).  A stack's zero-padded outcomes stay zero."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    _, base = kernels.spectral(a)
    outcomes = (base != 0.0).any(axis=(-2, -1))
    noise = (1.0 - lam) * np.eye(a.shape[-1], dtype=complex) / outcomes.sum(axis=-1, keepdims=True)[..., None, None]
    return lam * base + np.where(outcomes[..., None, None], noise, 0.0)
