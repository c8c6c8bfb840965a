"""Seeded generators for random states, observables, POVMs, and models.

All randomness flows through an explicit numpy Generator (PCG64 under
``default_rng``); nothing touches global state.  The same ``GenConfig``
always reproduces the same objects.  Parallel sweeps should derive one
child seed per instance (for example ``default_rng([seed, dim, index])``)
so results do not depend on scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indirect import IndirectModel
from .measurement import MeasurementKind, Povm
from .states import DensityOperator, HermitianObservable, OutcomeSpace

RNG_ALGORITHM = "numpy default_rng (PCG64)"

MIXEDNESS_CHOICES = ("pure", "ginibre", "blend")


@dataclass(frozen=True)
class GenConfig:
    """Instance-generator knobs.

    mixedness: "pure" for Haar-random pure states, "ginibre" for generic
    full-rank mixed states, "blend" for a ginibre state mixed with the
    maximally mixed one at weight ``blend``.
    """

    seed: int = 0
    dim: int = 2
    outcomes: int = 2
    mixedness: str = "ginibre"
    blend: float = 0.5

    def __post_init__(self):
        if not -(2**63) <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        if self.outcomes < 1:
            raise ValueError("need at least one outcome")
        if self.mixedness not in MIXEDNESS_CHOICES:
            raise ValueError(f"mixedness must be one of {MIXEDNESS_CHOICES}")
        if not 0.0 <= self.blend <= 1.0:
            raise ValueError("blend weight must lie in [0, 1]")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix, with
    the R diagonal phase-fixed to make the factorization unique."""
    q, r = np.linalg.qr(_complex_normal(rng, (dim, dim)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(cfg: GenConfig, rng: np.random.Generator | None = None) -> DensityOperator:
    rng = rng if rng is not None else cfg.rng()
    if cfg.mixedness == "pure":
        return DensityOperator.pure(_complex_normal(rng, cfg.dim))
    g = _complex_normal(rng, (cfg.dim, cfg.dim))
    mat = g @ g.conj().T
    mat = mat / np.trace(mat).real
    if cfg.mixedness == "blend":
        mat = (1.0 - cfg.blend) * mat + cfg.blend * np.eye(cfg.dim) / cfg.dim
    return DensityOperator(mat)


def random_observable(
    cfg: GenConfig,
    rng: np.random.Generator | None = None,
    *,
    traceless: bool = False,
) -> HermitianObservable:
    """Gaussian Hermitian matrix (G + G^dag)/2, optionally trace-projected."""
    rng = rng if rng is not None else cfg.rng()
    g = _complex_normal(rng, (cfg.dim, cfg.dim))
    mat = (g + g.conj().T) / 2.0
    if traceless:
        mat = mat - np.trace(mat).real / cfg.dim * np.eye(cfg.dim)
    return HermitianObservable(mat)


def random_povm(cfg: GenConfig, rng: np.random.Generator | None = None) -> Povm:
    """Generic full-rank POVM: Gaussian Gram blocks whitened by the inverse
    square root of their sum.  Outcome values default to 1..n."""
    rng = rng if rng is not None else cfg.rng()
    dim, n = cfg.dim, cfg.outcomes
    while True:
        blocks = []
        for _ in range(n):
            g = _complex_normal(rng, (dim, dim))
            blocks.append(g.conj().T @ g)
        total = sum(blocks)
        w, v = np.linalg.eigh(total)
        if float(w[0]) > 1e-12 * float(w[-1]):
            break
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    effects = [inv_sqrt @ blk @ inv_sqrt for blk in blocks]
    effects = [(e + e.conj().T) / 2.0 for e in effects]
    space = OutcomeSpace.from_values(np.arange(1, n + 1, dtype=float))
    return Povm(space, effects, kind=MeasurementKind.CUSTOM)


def random_indirect_model(
    cfg: GenConfig,
    rng: np.random.Generator | None = None,
    *,
    ancilla_dim: int = 2,
) -> IndirectModel:
    """Haar interaction, random pure ancilla, nondegenerate diagonal meter."""
    rng = rng if rng is not None else cfg.rng()
    ancilla = DensityOperator.pure(_complex_normal(rng, ancilla_dim))
    interaction = haar_unitary(cfg.dim * ancilla_dim, rng)
    meter = HermitianObservable(np.diag(np.arange(1, ancilla_dim + 1, dtype=complex)))
    return IndirectModel(cfg.dim, ancilla, interaction, meter)
