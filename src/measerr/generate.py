"""Seeded generators for random states, observables, POVMs, and models.

All randomness flows through an explicit numpy Generator (PCG64 under
``default_rng``); nothing touches global state.  The same generator state
always reproduces the same objects.  Parallel sweeps should derive one child
seed per instance (for example ``default_rng([seed, dim, index])``) so
results do not depend on scheduling.

Generation is split in two.  The ``draw_*`` functions make one instance's
raw Gaussian draws, in stream order; the stacked functions (``povm_effects``,
``state_matrices``, ``observable_matrices``, ``haar_unitaries``) turn a whole
stack of draws into matrices at once.  The ``random_*`` generators are both
steps for one instance; the suites draw instance by instance and build each
block of instances as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indirect import IndirectModel
from .measurement import MeasurementKind, Povm
from .states import DensityOperator, HermitianObservable, OutcomeSpace, pure_states

RNG_ALGORITHM = "numpy default_rng (PCG64)"

MIXEDNESS_CHOICES = ("pure", "ginibre", "blend")

# Smallest ratio of the extreme eigenvalues of S = sum_w G_w^dag G_w that
# povm_effects whitens.
_MIN_CONDITION = 1e-12


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


def _complex_normals(rng: np.random.Generator, count: int, shape) -> np.ndarray:
    """``count`` complex Gaussian arrays of ``shape``, each a real-part draw
    followed by an imaginary-part draw: one call to the generator, and the
    same numbers as 2 * count calls of ``standard_normal(shape)``."""
    x = rng.standard_normal((count, 2) + ((shape,) if isinstance(shape, int) else tuple(shape)))
    return x[:, 0] + 1j * x[:, 1]


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return _complex_normals(rng, 1, shape)[0]


def haar_unitaries(factors: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from complex Gaussian factors, one
    ``(D, D)`` or a stack: QR with the R diagonal phase-fixed to make the
    factorization unique."""
    q, r = np.linalg.qr(factors)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary of dimension ``dim``."""
    return haar_unitaries(_complex_normal(rng, (dim, dim)))


def draw_povm(rng: np.random.Generator, dim: int, outcomes: int, *, retry: bool = False) -> np.ndarray:
    """Gaussian factors G_w, shape ``(outcomes, dim, dim)``, of one random
    POVM.  With ``retry``, factors whose Gram blocks do not whiten (see
    ``povm_effects``) are drawn again from the same stream until they do."""
    while True:
        factors = _complex_normals(rng, outcomes, (dim, dim))
        if not retry or povm_effects(factors)[1]:
            return factors


def povm_effects(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Effects E_w = S^-1/2 G_w^dag G_w S^-1/2 with S = sum_w G_w^dag G_w,
    for one set ``(n, d, d)`` of factors or a stack of them (zero factors
    give zero effects), and per set whether S was well enough conditioned
    (smallest eigenvalue above ``_MIN_CONDITION`` times the largest) to
    whiten."""
    blocks = factors.conj().swapaxes(-1, -2) @ factors
    w, v = np.linalg.eigh(blocks.sum(axis=-3))
    ok = w[..., 0] > _MIN_CONDITION * w[..., -1]
    inv_sqrt = (v / np.sqrt(np.where(ok[..., None], w, 1.0))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    inv_sqrt = inv_sqrt[..., None, :, :]
    effects = inv_sqrt @ blocks @ inv_sqrt
    return (effects + effects.conj().swapaxes(-1, -2)) / 2.0, ok


def draw_state(rng: np.random.Generator, dim: int, mixedness: str) -> np.ndarray:
    """A ket ``(dim,)`` for a pure state, a Ginibre matrix ``(dim, dim)`` otherwise."""
    return _complex_normal(rng, dim if mixedness == "pure" else (dim, dim))


def ginibre_states(g: np.ndarray) -> np.ndarray:
    """G G^dag / Tr[G G^dag] for one Ginibre draw ``(d, d)`` or a stack."""
    mat = g @ g.conj().swapaxes(-1, -2)
    return mat / np.trace(mat, axis1=-2, axis2=-1).real[..., None, None]


def state_matrices(draws, pure) -> np.ndarray:
    """Unvalidated states ``(N, d, d)`` from N state draws: ``pure_states``
    where ``pure`` (one flag per draw, or one for all) holds,
    ``ginibre_states`` otherwise."""
    pure = np.broadcast_to(np.asarray(pure, dtype=bool), (len(draws),))
    dim = len(draws[0])
    out = np.empty((len(draws), dim, dim), dtype=complex)
    if pure.any():
        out[pure] = pure_states(np.stack([x for x, p in zip(draws, pure) if p]))
    if not pure.all():
        out[~pure] = ginibre_states(np.stack([x for x, p in zip(draws, pure) if not p]))
    return out


def draw_observable(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _complex_normal(rng, (dim, dim))


def observable_matrices(draws: np.ndarray, *, traceless: bool = False) -> np.ndarray:
    """Gaussian Hermitian matrices (G + G^dag)/2 from one draw or a stack,
    optionally trace-projected."""
    mat = (draws + draws.conj().swapaxes(-1, -2)) / 2.0
    if traceless:
        dim = mat.shape[-1]
        mat = mat - (np.trace(mat, axis1=-2, axis2=-1).real / dim)[..., None, None] * np.eye(dim)
    return mat


def random_state(cfg: GenConfig, rng: np.random.Generator) -> DensityOperator:
    draw = draw_state(rng, cfg.dim, cfg.mixedness)
    mat = pure_states(draw) if cfg.mixedness == "pure" else ginibre_states(draw)
    if cfg.mixedness == "blend":
        mat = (1.0 - cfg.blend) * mat + cfg.blend * np.eye(cfg.dim) / cfg.dim
    return DensityOperator(mat)


def random_observable(
    cfg: GenConfig,
    rng: np.random.Generator,
    *,
    traceless: bool = False,
) -> HermitianObservable:
    """Gaussian Hermitian matrix (G + G^dag)/2, optionally trace-projected."""
    return HermitianObservable(observable_matrices(draw_observable(rng, cfg.dim), traceless=traceless))


def random_povm(cfg: GenConfig, rng: np.random.Generator) -> Povm:
    """Generic full-rank POVM: Gaussian Gram blocks whitened by the inverse
    square root of their sum.  Outcome values default to 1..n."""
    effects, _ = povm_effects(draw_povm(rng, cfg.dim, cfg.outcomes, retry=True))
    space = OutcomeSpace.from_values(np.arange(1, cfg.outcomes + 1, dtype=float))
    return Povm(space, effects, kind=MeasurementKind.CUSTOM)


def draw_indirect_model(rng: np.random.Generator, dim: int, ancilla_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The ancilla ket ``(ancilla_dim,)`` and the Gaussian factor ``(D, D)``
    of the Haar interaction of one random indirect model, in stream order."""
    return _complex_normal(rng, ancilla_dim), _complex_normal(rng, (dim * ancilla_dim,) * 2)


def diagonal_meter(ancilla_dim: int) -> np.ndarray:
    """The nondegenerate meter diag(1, ..., ancilla_dim) of random models."""
    return np.diag(np.arange(1, ancilla_dim + 1, dtype=complex))


def random_indirect_model(
    cfg: GenConfig,
    rng: np.random.Generator,
    *,
    ancilla_dim: int = 2,
) -> IndirectModel:
    """Haar interaction, random pure ancilla, nondegenerate diagonal meter."""
    ket, factor = draw_indirect_model(rng, cfg.dim, ancilla_dim)
    meter = HermitianObservable(diagonal_meter(ancilla_dim))
    return IndirectModel(cfg.dim, DensityOperator.pure(ket), haar_unitaries(factor), meter)
