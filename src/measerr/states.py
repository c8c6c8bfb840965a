"""Validated states, observables, weights, effects and interactions, as arrays.

A density operator rho equips observables with the symmetrized inner product
<A,B>_rho = <{A,B}/2>_rho; a probability distribution p equips outcome
functions with <f,g>_p = <fg>_p.  Both induce seminorms and standard
deviations, which is all the downstream geometry needs.  The formulas are
in ``kernels`` (``anti``, ``norm``, ``class_inner``, ``class_norm``).  This
module holds every validator (``check_states``, ``check_observables``,
``check_weights``, ``check_effects``, ``check_unitaries``), each taking one
instance or a stack and returning it; they run only where data enters, as
builders, generators and Born weights (``kernels.born`` clips them) are
valid by construction.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .tolerances import DEFAULT_TOL

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# The kernels' products are of degree two or less in an observable's entries, so they stay below 1e154.
MAX_OBSERVABLE_ENTRY = np.finfo(float).max ** 0.25


def _check_hermitian(arr: np.ndarray, what: str) -> None:
    """Each matrix of ``arr`` (one matrix or a stack) must be Hermitian relative to its own scale;
    a stack equal to its conjugate transpose (residual 0, or NaN from inf - inf) passes at once."""
    adjoint = np.swapaxes(arr, -1, -2).conj()
    if (arr == adjoint).all():
        return
    residual = np.abs(arr - adjoint).max(axis=(-2, -1))
    if (residual > DEFAULT_TOL.validation * np.abs(arr).max(axis=(-2, -1))).any():
        raise ValueError(f"{what} is not Hermitian (residual {float(np.max(residual)):.3e})")


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} entries must be finite")


def check_observables(stack: np.ndarray) -> np.ndarray:
    """Validate observables, one ``(d, d)`` matrix or a stack: finite, at most ``MAX_OBSERVABLE_ENTRY``, Hermitian."""
    _check_finite(stack, "matrix")
    if np.abs(stack).max(initial=0.0) > MAX_OBSERVABLE_ENTRY:
        raise ValueError(f"observable entries must be at most {MAX_OBSERVABLE_ENTRY:.3e} in magnitude")
    _check_hermitian(stack, "observable")
    return stack


def check_states(stack: np.ndarray) -> np.ndarray:
    """Validate density operators, one ``(d, d)`` matrix or a stack: finite,
    Hermitian, unit trace and no eigenvalue below -DEFAULT_TOL.psd.  Returns
    them read-only, with every matrix whose smallest eigenvalue is negative
    rebuilt from its eigenvalues clipped at zero and renormalized."""
    _check_finite(stack, "matrix")
    _check_hermitian(stack, "density operator")
    trace = np.trace(stack, axis1=-2, axis2=-1)
    bad = np.abs(trace - 1.0) > DEFAULT_TOL.validation
    if bad.any():
        raise ValueError(f"density operator must have unit trace, got {kernels.first_flagged(trace, bad)}")
    smallest = np.linalg.eigvalsh(stack)[..., 0]
    if (smallest < -DEFAULT_TOL.psd).any():
        raise ValueError(f"density operator has eigenvalue {smallest.min():.3e} below -{DEFAULT_TOL.psd:.0e}")
    clip = smallest < 0.0
    if clip.any():
        w, v = np.linalg.eigh(stack[clip])
        fixed = kernels.hermitian_part((v * np.maximum(w, 0.0)[..., None, :]) @ v.conj().swapaxes(-1, -2))
        stack = np.array(stack)
        stack[clip] = fixed / np.trace(fixed, axis1=-2, axis2=-1).real[..., None, None]
    stack.setflags(write=False)
    return stack


def check_completeness(effects: np.ndarray) -> np.ndarray:
    """Validate that effects, one ``(n, d, d)`` set or a stack, sum to I
    within DEFAULT_TOL.identity.  The residual max |sum_w E_w - I| is not
    finite where an entry is not, and is inf where finite entries overflow
    the sum, which then misses I.  Returns them."""
    with np.errstate(over="ignore"):
        residual = float(np.max(np.abs(effects.sum(axis=-3) - np.eye(effects.shape[-1]))))
    if not np.isfinite(residual) and not np.isfinite(effects).all():
        raise ValueError("effect entries must be finite")
    if not residual <= DEFAULT_TOL.identity:
        raise ValueError(f"effects sum to identity only within {residual:.3e}")
    return effects


def check_effects(stack: np.ndarray) -> np.ndarray:
    """Validate POVM effects, one ``(n, d, d)`` set or a stack of them:
    finite, Hermitian, no eigenvalue below -DEFAULT_TOL.psd, and each set
    summing to the identity (``check_completeness``).  Returns them.  Zero
    effects (the padding of ragged stacks) pass.  One Cholesky
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
    return check_completeness(stack)


def check_unitaries(stack: np.ndarray) -> np.ndarray:
    """Validate interactions, one ``(D, D)`` matrix or a stack: finite and
    unitary within DEFAULT_TOL.identity.  Returns them."""
    _check_finite(stack, "interaction")
    residual = float(np.max(np.abs(stack.conj().swapaxes(-1, -2) @ stack - np.eye(stack.shape[-1]))))
    if residual > DEFAULT_TOL.identity:
        raise ValueError(f"interaction is not unitary (residual {residual:.3e})")
    return stack


def pure_states(kets: np.ndarray) -> np.ndarray:
    """Projectors onto the normalized kets, symmetrized, one ``(d,)`` ket or a stack."""
    norm = np.sqrt(kernels.dot(kets.real, kets.real) + kernels.dot(kets.imag, kets.imag))
    if (norm == 0).any():
        raise ValueError("cannot normalize the zero vector")
    vec = kets / norm[..., None]
    return kernels.hermitian_part(vec[..., :, None] * vec.conj()[..., None, :])


def check_weights(weights) -> np.ndarray:
    """Validate outcome weights, one row or a stack: finite, none below
    -DEFAULT_TOL.validation, each row summing to one within
    DEFAULT_TOL.prob_sum.  Returns a copy with the roundoff-negative weights
    clipped to zero."""
    w = np.array(weights, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if float(w.min()) < -DEFAULT_TOL.validation:
        raise ValueError(f"negative weight {w.min():.3e} beyond tolerance")
    w[w < 0.0] = 0.0
    total = w.sum(axis=-1)
    bad = np.abs(total - 1.0) > DEFAULT_TOL.prob_sum
    if bad.any():
        raise ValueError(f"weights sum to {kernels.first_flagged(total, bad)}, not 1")
    return w


def qubit_state(x: float = 0.0, y: float = 0.0, z: float = 0.0) -> np.ndarray:
    """Qubit state (I + x X + y Y + z Z)/2, valid by construction for a Bloch vector of length <= 1 (not NaN)."""
    if not x * x + y * y + z * z <= 1.0 + 1e-12:
        raise ValueError("Bloch vector must have length at most 1")
    return (np.eye(2) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z) / 2.0
