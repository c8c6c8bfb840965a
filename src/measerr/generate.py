"""Seeded generators for random states, observables, POVMs, and models.

All randomness flows through an explicit numpy Generator (PCG64 under
``default_rng``); nothing touches global state.  The same generator state
always reproduces the same objects.  The sweeps hash stream keys in batches
to the seed states ``default_rng`` derives (``suites._seed_states``).

Generation is split in two.  ``gaussians`` draws all of one instance's
complex Gaussian arrays by one ``standard_normal`` call, in draw order,
each array (each POVM factor) as its real block, then its imaginary block.
The stacked functions (``complex_stack``, ``povm_effects``,
``ginibre_states``, ``observable_matrices``, ``haar_unitaries``) turn a
stack of draws into matrices at once.  The ``random_*`` generators are both
steps for one instance; a verify block draws into the rows of one buffer
(``suites._Block``), a chain block into one it reads as fixed-offset views.
Every instance is drawn in one pass: effects whitened from ill-conditioned
factors are rejected by ``measurement.check_effects``, not drawn again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .indirect import IndirectModel
from .measurement import MeasurementKind, Povm
from .states import DensityOperator, HermitianObservable, OutcomeSpace, pure_states

RNG_ALGORITHM = "numpy default_rng (PCG64)"

MIXEDNESS_CHOICES = ("pure", "ginibre", "blend")


@dataclass(frozen=True)
class GenConfig:
    """Instance-generator knobs.

    mixedness: "pure" for Haar-random pure states, "ginibre" for generic
    full-rank mixed states, "blend" for a ginibre state mixed with the
    maximally mixed one at weight ``blend``.
    """

    dim: int = 2
    outcomes: int = 2
    mixedness: str = "ginibre"
    blend: float = 0.5

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        if self.outcomes < 1:
            raise ValueError("need at least one outcome")
        if self.mixedness not in MIXEDNESS_CHOICES:
            raise ValueError(f"mixedness must be one of {MIXEDNESS_CHOICES}")
        if not 0.0 <= self.blend <= 1.0:
            raise ValueError("blend weight must lie in [0, 1]")


def gaussians(rng: np.random.Generator, *shapes) -> list[np.ndarray]:
    """Real Gaussian arrays of the raw ``shapes``, in order, as views of one
    ``standard_normal`` call.  A complex array of shape ``s`` has the raw
    shape ``(2,) + s``; the n factors of a POVM have ``(n, 2, d, d)``."""
    sizes = [math.prod(s) for s in shapes]
    flat = rng.standard_normal(sum(sizes))
    return [flat[end - n : end].reshape(s) for s, n, end in zip(shapes, sizes, accumulate(sizes))]


def complex_stack(raws, axis: int = -3) -> np.ndarray:
    """The complex stack of raw arrays from ``gaussians`` (a list of them, or
    one array stacking them) whose real and imaginary blocks lie along
    ``axis``: -3 for matrices and POVM factors, -2 for kets.  It holds the
    bits of ``re + 1j * im``, an input -0.0 keeping its sign, in one array."""
    raws = np.asarray(raws)
    pair = (slice(None),) * (raws.ndim + axis)
    out = np.empty(raws[pair + (0,)].shape, complex)
    out.real, out.imag = raws[pair + (0,)], raws[pair + (1,)]
    return out


def haar_unitaries(factors: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from complex Gaussian factors, one
    ``(D, D)`` or a stack: QR with the R diagonal phase-fixed to make the
    factorization unique."""
    q, r = np.linalg.qr(factors)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary of dimension ``dim``."""
    return haar_unitaries(complex_stack(gaussians(rng, (2, dim, dim))))[0]


def povm_effects(factors: np.ndarray) -> np.ndarray:
    """Effects E_w = S^-1/2 G_w^dag G_w S^-1/2 with S = sum_w G_w^dag G_w,
    for one set ``(n, d, d)`` of factors or a stack of them (zero factors
    give zero effects), by n + 3 products: with the factors stacked as one
    ``(n d, d)`` matrix F, S = F^dag F, Y = F S^-1/2 and E_w = Y_w^dag Y_w,
    symmetrized.  Nothing tests that S is invertible: ill-conditioned
    factors give inaccurate effects, and a singular S (with a
    RuntimeWarning) non-finite ones, which ``check_effects`` rejects."""
    f = factors.reshape(*factors.shape[:-3], -1, factors.shape[-1])
    w, v = np.linalg.eigh(f.conj().swapaxes(-1, -2) @ f)
    inv_sqrt = (v / np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    y = (f @ inv_sqrt).reshape(factors.shape)
    effects = y.conj().swapaxes(-1, -2) @ y
    return (effects + effects.conj().swapaxes(-1, -2)) / 2.0


def ginibre_states(g: np.ndarray) -> np.ndarray:
    """G G^dag / Tr[G G^dag] for one Ginibre draw ``(d, d)`` or a stack."""
    mat = g @ g.conj().swapaxes(-1, -2)
    return mat / np.trace(mat, axis1=-2, axis2=-1).real[..., None, None]


def observable_matrices(draws: np.ndarray, *, traceless: bool = False) -> np.ndarray:
    """Gaussian Hermitian matrices (G + G^dag)/2 from one draw or a stack,
    optionally trace-projected."""
    mat = (draws + draws.conj().swapaxes(-1, -2)) / 2.0
    if traceless:
        dim = mat.shape[-1]
        mat = mat - (np.trace(mat, axis1=-2, axis2=-1).real / dim)[..., None, None] * np.eye(dim)
    return mat


def random_state(cfg: GenConfig, rng: np.random.Generator) -> DensityOperator:
    pure = cfg.mixedness == "pure"
    raw = gaussians(rng, (2, cfg.dim) if pure else (2, cfg.dim, cfg.dim))
    mat = pure_states(complex_stack(raw, axis=-2))[0] if pure else ginibre_states(complex_stack(raw))[0]
    if cfg.mixedness == "blend":
        mat = (1.0 - cfg.blend) * mat + cfg.blend * np.eye(cfg.dim) / cfg.dim
    return DensityOperator(mat)


def random_observable(cfg: GenConfig, rng: np.random.Generator, *, traceless: bool = False) -> HermitianObservable:
    """Gaussian Hermitian matrix (G + G^dag)/2, optionally trace-projected."""
    raw = gaussians(rng, (2, cfg.dim, cfg.dim))
    return HermitianObservable(observable_matrices(complex_stack(raw), traceless=traceless)[0])


def random_povm(cfg: GenConfig, rng: np.random.Generator) -> Povm:
    """Generic full-rank POVM: Gaussian Gram blocks whitened by the inverse
    square root of their sum.  Outcome values default to 1..n."""
    raw = gaussians(rng, (cfg.outcomes, 2, cfg.dim, cfg.dim))
    effects = povm_effects(complex_stack(raw))[0]
    space = OutcomeSpace.from_values(np.arange(1, cfg.outcomes + 1, dtype=float))
    return Povm(space, effects, kind=MeasurementKind.CUSTOM)


def diagonal_meter(ancilla_dim: int) -> np.ndarray:
    """The nondegenerate meter diag(1, ..., ancilla_dim) of random models."""
    return np.diag(np.arange(1, ancilla_dim + 1, dtype=complex))


def random_indirect_model(cfg: GenConfig, rng: np.random.Generator, *, ancilla_dim: int = 2) -> IndirectModel:
    """Haar interaction, random pure ancilla, nondegenerate diagonal meter."""
    ket, factor = gaussians(rng, (2, ancilla_dim), (2,) + (cfg.dim * ancilla_dim,) * 2)
    meter = HermitianObservable(diagonal_meter(ancilla_dim))
    xi = DensityOperator.pure(complex_stack([ket], axis=-2)[0])
    return IndirectModel(cfg.dim, xi, haar_unitaries(complex_stack([factor]))[0], meter)
