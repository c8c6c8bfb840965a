"""Quantum and classical state-space types and their local geometry.

A density operator rho equips observables with the symmetrized inner product
<A,B>_rho = <{A,B}/2>_rho; a probability distribution p equips outcome
functions with <f,g>_p = <fg>_p.  Both induce seminorms and standard
deviations, which is all the downstream geometry needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import DEFAULT_TOL

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _as_square_complex(matrix) -> np.ndarray:
    arr = np.array(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    arr.setflags(write=False)
    return arr


def _check_hermitian(arr: np.ndarray, what: str) -> None:
    """Each matrix of ``arr`` (one matrix or a stack) must be Hermitian relative to its own scale."""
    residual = np.abs(arr - np.swapaxes(arr, -1, -2).conj()).max(axis=(-2, -1))
    if np.any(residual > DEFAULT_TOL.validation * np.abs(arr).max(axis=(-2, -1))):
        raise ValueError(f"{what} is not Hermitian (residual {float(np.max(residual)):.3e})")


class HermitianObservable:
    """Self-adjoint operator on a finite-dimensional system."""

    def __init__(self, matrix):
        arr = _as_square_complex(matrix)
        _check_hermitian(arr, "observable")
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
        arr = _as_square_complex(matrix)
        _check_hermitian(arr, "density operator")
        trace = complex(np.trace(arr))
        if abs(trace - 1.0) > DEFAULT_TOL.validation:
            raise ValueError(f"density operator must have unit trace, got {trace}")
        eigvals = np.linalg.eigvalsh(arr)
        smallest = float(eigvals[0])
        if smallest < -DEFAULT_TOL.psd:
            raise ValueError(
                f"density operator has eigenvalue {smallest:.3e} below -{DEFAULT_TOL.psd:.0e}"
            )
        if smallest < 0.0:
            w, v = np.linalg.eigh(arr)
            w = np.clip(w, 0.0, None)
            arr = (v * w) @ v.conj().T
            arr = (arr + arr.conj().T) / 2.0
            arr = arr / np.trace(arr).real
            arr.setflags(write=False)
        self.matrix = arr

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, ket) -> "DensityOperator":
        vec = np.asarray(ket, dtype=complex).reshape(-1)
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        vec = vec / norm
        return cls(np.outer(vec, vec.conj()))

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

    def index(self, label: str) -> int:
        return self.labels.index(label)


class ProbabilityDistribution:
    """Nonnegative weights over an outcome space, summing to one.

    Weights in [-1e-12, 0) are clipped to zero (roundoff forgiveness); more
    negative weights are rejected.
    """

    def __init__(self, space: OutcomeSpace, weights):
        w = np.asarray(weights, dtype=float).copy()
        if w.shape != (space.size,):
            raise ValueError("need exactly one weight per label")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if float(w.min()) < -DEFAULT_TOL.validation:
            raise ValueError(f"negative weight {w.min():.3e} beyond tolerance")
        w[w < 0.0] = 0.0
        total = float(w.sum())
        if abs(total - 1.0) > DEFAULT_TOL.prob_sum:
            raise ValueError(f"weights sum to {total}, not 1")
        w.setflags(write=False)
        self.space = space
        self.weights = w

    def weight(self, label: str) -> float:
        return float(self.weights[self.space.index(label)])

    def as_dict(self) -> dict[str, float]:
        return {lab: float(w) for lab, w in zip(self.space.labels, self.weights)}

    def __repr__(self) -> str:
        return f"ProbabilityDistribution({self.as_dict()!r})"


class OutcomeFunction:
    """Real-valued function on an outcome space (estimators, pushforwards)."""

    def __init__(self, space: OutcomeSpace, values):
        v = np.asarray(values, dtype=float).copy()
        if v.shape != (space.size,):
            raise ValueError("need exactly one value per label")
        if not np.all(np.isfinite(v)):
            raise ValueError("function values must be finite")
        v.setflags(write=False)
        self.space = space
        self.values = v

    @classmethod
    def identity(cls, space: OutcomeSpace) -> "OutcomeFunction":
        """The estimator reading off the numeric outcome value, f(w) = w."""
        return cls(space, np.asarray(space.values, dtype=float))

    @classmethod
    def constant(cls, space: OutcomeSpace, value: float) -> "OutcomeFunction":
        return cls(space, np.full(space.size, float(value)))

    def __call__(self, label: str) -> float:
        return float(self.values[self.space.index(label)])

    def __add__(self, other: "OutcomeFunction") -> "OutcomeFunction":
        _check_same_space(self.space, other.space)
        return OutcomeFunction(self.space, self.values + other.values)

    def __sub__(self, other: "OutcomeFunction") -> "OutcomeFunction":
        _check_same_space(self.space, other.space)
        return OutcomeFunction(self.space, self.values - other.values)

    def __rmul__(self, scalar: float) -> "OutcomeFunction":
        return OutcomeFunction(self.space, float(scalar) * self.values)

    __mul__ = __rmul__

    def __repr__(self) -> str:
        return f"OutcomeFunction({dict(zip(self.space.labels, self.values))!r})"


def _check_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _check_same_space(sa: OutcomeSpace, sb: OutcomeSpace) -> None:
    if sa != sb:
        raise ValueError("outcome spaces do not match")


def _real_expectation(matrix: np.ndarray, rho: DensityOperator):
    """Real Tr[X rho] for one matrix X (a float) or for each matrix of a stack (an array)."""
    val = np.trace(matrix @ rho.matrix, axis1=-2, axis2=-1)
    if np.any(np.abs(val.imag) > DEFAULT_TOL.expectation * np.maximum(1.0, np.abs(val))):
        raise ArithmeticError(f"expected a real expectation, got {val}")
    return val.real if val.ndim else float(val.real)


def expectation(x: HermitianObservable, rho: DensityOperator) -> float:
    """Tr[X rho]."""
    _check_same_dim(x, rho)
    return _real_expectation(x.matrix, rho)


def state_inner(a: HermitianObservable, b: HermitianObservable, rho: DensityOperator) -> float:
    """Symmetrized inner product <{A,B}/2>_rho."""
    _check_same_dim(a, b)
    _check_same_dim(a, rho)
    anti = (a.matrix @ b.matrix + b.matrix @ a.matrix) / 2.0
    return _real_expectation(anti, rho)


def state_norm(a: HermitianObservable, rho: DensityOperator) -> float:
    """Seminorm sqrt(<A^2>_rho)."""
    _check_same_dim(a, rho)
    val = _real_expectation(a.matrix @ a.matrix, rho)
    if val < -DEFAULT_TOL.psd:
        raise ArithmeticError(f"negative squared norm {val:.3e}")
    return float(np.sqrt(max(val, 0.0)))


def std_dev_q(a: HermitianObservable, rho: DensityOperator) -> float:
    """Quantum standard deviation sqrt(<A^2> - <A>^2), clipped at zero."""
    variance = state_norm(a, rho) ** 2 - expectation(a, rho) ** 2
    return float(np.sqrt(max(variance, 0.0)))


def class_mean(f: OutcomeFunction, p: ProbabilityDistribution) -> float:
    """<f>_p."""
    _check_same_space(f.space, p.space)
    return float(f.values @ p.weights)


def class_inner(f: OutcomeFunction, g: OutcomeFunction, p: ProbabilityDistribution) -> float:
    """<fg>_p."""
    _check_same_space(f.space, g.space)
    _check_same_space(f.space, p.space)
    return float((f.values * g.values) @ p.weights)


def class_norm(f: OutcomeFunction, p: ProbabilityDistribution) -> float:
    """Seminorm sqrt(<f^2>_p); zero-weight outcomes contribute exactly nothing."""
    return float(np.sqrt(class_inner(f, f, p)))


def std_dev_c(f: OutcomeFunction, p: ProbabilityDistribution) -> float:
    """Classical standard deviation, clipped at zero."""
    variance = class_norm(f, p) ** 2 - class_mean(f, p) ** 2
    return float(np.sqrt(max(variance, 0.0)))


def spectral_decompose(a: HermitianObservable) -> list[tuple[float, HermitianObservable]]:
    """Eigenvalues with orthogonal projectors, nearly-equal eigenvalues merged.

    Eigenvalues within ``DEFAULT_TOL.eig_merge * max|eig|`` of each other share one
    projector, so projective measurements of degenerate observables are
    well defined.  Returned in ascending eigenvalue order.
    """
    w, v = np.linalg.eigh(a.matrix)
    scale = float(np.max(np.abs(w)))
    threshold = DEFAULT_TOL.eig_merge * scale
    groups: list[list[int]] = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[groups[-1][-1]] <= threshold:
            groups[-1].append(i)
        else:
            groups.append([i])
    out = []
    for idx in groups:
        cols = v[:, idx]
        proj = cols @ cols.conj().T
        proj = (proj + proj.conj().T) / 2.0
        out.append((float(np.mean(w[idx])), HermitianObservable._trusted(proj)))
    return out
