"""Quantum and classical state-space types and their local geometry.

A density operator rho equips observables with the symmetrized inner product
<A,B>_rho = <{A,B}/2>_rho; a probability distribution p equips outcome
functions with <f,g>_p = <fg>_p.  Both induce seminorms and standard
deviations, which is all the downstream geometry needs.  The formulas are
in ``kernels`` (``anti``, ``norm``, ``std_dev``, ``class_inner``,
``class_norm``); this module holds the validated types they act on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .tolerances import DEFAULT_TOL

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _as_square_complex(matrix) -> np.ndarray:
    arr = np.array(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _check_hermitian(arr: np.ndarray, what: str) -> None:
    """Each matrix of ``arr`` (one matrix or a stack) must be Hermitian relative to its own scale."""
    residual = np.abs(arr - np.swapaxes(arr, -1, -2).conj()).max(axis=(-2, -1))
    if (residual > DEFAULT_TOL.validation * np.abs(arr).max(axis=(-2, -1))).any():
        raise ValueError(f"{what} is not Hermitian (residual {float(np.max(residual)):.3e})")


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} entries must be finite")


def check_observables(stack: np.ndarray) -> np.ndarray:
    """Validate observables, one ``(d, d)`` matrix or a stack: finite and Hermitian.  Returns them."""
    _check_finite(stack, "matrix")
    _check_hermitian(stack, "observable")
    return stack


def check_states(stack: np.ndarray) -> np.ndarray:
    """Validate density operators, one ``(d, d)`` matrix or a stack: finite,
    Hermitian, unit trace and no eigenvalue below -DEFAULT_TOL.psd.  Returns
    them read-only, with every matrix whose smallest eigenvalue is negative
    rebuilt from its eigenvalues clipped at zero and renormalized.  A stack
    first tries one Cholesky factorization shifted by -psd, which succeeds
    only if no matrix would clip or fail; the eigenvalue test runs when it
    fails, and alone on one matrix, where a failed one costs more."""
    _check_finite(stack, "matrix")
    _check_hermitian(stack, "density operator")
    trace = np.trace(stack, axis1=-2, axis2=-1)
    bad = np.abs(trace - 1.0) > DEFAULT_TOL.validation
    if bad.any():
        raise ValueError(f"density operator must have unit trace, got {kernels.first_flagged(trace, bad)}")
    if not (stack.ndim > 2 and len(stack) > 1 and _positive_definite(stack, -DEFAULT_TOL.psd)):
        smallest = np.linalg.eigvalsh(stack)[..., 0]
        if (smallest < -DEFAULT_TOL.psd).any():
            raise ValueError(f"density operator has eigenvalue {smallest.min():.3e} below -{DEFAULT_TOL.psd:.0e}")
        clip = smallest < 0.0
        if clip.any():
            w, v = np.linalg.eigh(stack[clip])
            fixed = (v * np.maximum(w, 0.0)[..., None, :]) @ v.conj().swapaxes(-1, -2)
            fixed = (fixed + fixed.conj().swapaxes(-1, -2)) / 2.0
            stack = np.array(stack)
            stack[clip] = fixed / np.trace(fixed, axis1=-2, axis2=-1).real[..., None, None]
    stack.setflags(write=False)
    return stack


def _positive_definite(stack: np.ndarray, shift: float) -> bool:
    """Whether one Cholesky factorization of ``stack + shift I`` succeeds."""
    try:
        np.linalg.cholesky(stack + shift * np.eye(stack.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def pure_states(kets: np.ndarray) -> np.ndarray:
    """Projectors onto the normalized kets, one ``(d,)`` ket or a stack."""
    norm = np.sqrt(kernels.dot(kets.real, kets.real) + kernels.dot(kets.imag, kets.imag))
    if (norm == 0).any():
        raise ValueError("cannot normalize the zero vector")
    vec = kets / norm[..., None]
    return vec[..., :, None] * vec.conj()[..., None, :]


def check_weights(weights) -> np.ndarray:
    """Validate outcome weights, one row or a stack: finite, none below
    -DEFAULT_TOL.validation, each row summing to one within
    DEFAULT_TOL.prob_sum.  Returns a read-only copy with the roundoff-negative
    weights clipped to zero."""
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
    w.setflags(write=False)
    return w


class HermitianObservable:
    """Self-adjoint operator on a finite-dimensional system."""

    def __init__(self, matrix):
        arr = _as_square_complex(matrix)
        check_observables(arr)
        arr.setflags(write=False)
        self.matrix = arr

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "HermitianObservable":
        return cls(np.eye(dim, dtype=complex))

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> "HermitianObservable":
        """Wrap a matrix Hermitian by construction (a real combination of validated
        operators, a symmetrized projector) without validating it again."""
        obs = cls.__new__(cls)
        matrix.setflags(write=False)
        obs.matrix = matrix
        return obs

    def __add__(self, other: "HermitianObservable") -> "HermitianObservable":
        _check_same_dim(self, other)
        return HermitianObservable._trusted(self.matrix + other.matrix)

    def __sub__(self, other: "HermitianObservable") -> "HermitianObservable":
        _check_same_dim(self, other)
        return HermitianObservable._trusted(self.matrix - other.matrix)

    def __neg__(self) -> "HermitianObservable":
        return HermitianObservable._trusted(-self.matrix)

    def __rmul__(self, scalar: float) -> "HermitianObservable":
        if isinstance(scalar, complex) and abs(scalar.imag) > 0:
            raise TypeError("only real scalars keep an observable self-adjoint")
        if not np.isfinite(scalar):
            raise ValueError(f"scalar must be finite, got {scalar}")
        return HermitianObservable._trusted(float(scalar) * self.matrix)

    __mul__ = __rmul__

    def __repr__(self) -> str:
        return f"HermitianObservable(dim={self.dim})"


class DensityOperator:
    """Unit-trace positive-semidefinite Hermitian matrix: the quantum state.

    Eigenvalues in [-psd_tol, 0) are clipped to zero and the trace is
    renormalized, so states assembled from noisy numerics stay valid.
    Anything more negative is rejected.
    """

    def __init__(self, matrix):
        self.matrix = check_states(_as_square_complex(matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, ket) -> "DensityOperator":
        return cls(pure_states(np.asarray(ket, dtype=complex).reshape(-1)))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim, dtype=complex) / dim)

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


def qubit_state(x: float = 0.0, y: float = 0.0, z: float = 0.0) -> DensityOperator:
    """Qubit state (I + x X + y Y + z Z)/2 for a Bloch vector of length <= 1."""
    if x * x + y * y + z * z > 1.0 + 1e-12:
        raise ValueError("Bloch vector must have length at most 1")
    return DensityOperator((np.eye(2) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z) / 2.0)


@dataclass(frozen=True)
class OutcomeSpace:
    """Finite set of outcome labels, each carrying a numeric value."""

    labels: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        values = tuple(float(v) for v in self.values)
        if len(labels) == 0:
            raise ValueError("outcome space needs at least one label")
        if len(set(labels)) != len(labels):
            raise ValueError("outcome labels must be distinct")
        if len(values) != len(labels):
            raise ValueError("need exactly one value per label")
        if not all(np.isfinite(values)):
            raise ValueError("outcome values must be finite")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_values(cls, values) -> "OutcomeSpace":
        values = tuple(float(v) for v in values)
        return cls(tuple(f"m{i}" for i in range(len(values))), values)

    @property
    def size(self) -> int:
        return len(self.labels)


class ProbabilityDistribution:
    """Nonnegative weights over an outcome space, summing to one.

    Weights in [-1e-12, 0) are clipped to zero (roundoff forgiveness); more
    negative weights are rejected.
    """

    def __init__(self, space: OutcomeSpace, weights):
        if np.shape(weights) != (space.size,):
            raise ValueError("need exactly one weight per label")
        self.space = space
        self.weights = check_weights(weights)

    def as_dict(self) -> dict[str, float]:
        return {lab: float(w) for lab, w in zip(self.space.labels, self.weights)}

    def __repr__(self) -> str:
        return f"ProbabilityDistribution({self.as_dict()!r})"


def _check_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
