"""State-local transport of a measurement: pushforward and pullback.

Fixing a measurement and a state attaches a classical geometry at p = M(rho)
and a quantum one at rho.  The pullback carries outcome functions to
operators (the adjoint, descended to equivalence classes); the pushforward
carries observables to outcome functions and is its adjoint with respect to
the two inner products.  Both contract the respective seminorms.
``LocalContext`` pins the pair; its ``arrays`` is the ``kernels.Context``
that ``kernels.pushforward``, ``kernels.pullback`` and ``kernels.transport``
take.  ``kernels.transport`` pushes one observable forward once and returns,
with the pushforward, its round trip, the error and the norm ||A||_rho;
callers read that record instead of deriving any of the four again.

Equivalence classes of functions are represented canonically: zero on every
outcome whose probability is at or below the support cutoff.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .measurement import Povm
from .states import DensityOperator
from .tolerances import DEFAULT_TOL


class LocalContext:
    """A measurement pinned to a state, with the outcome distribution cached.

    ``support`` holds the labels with weight above the cutoff; ``tiny_support``
    flags the ones close enough to zero (at most ``DEFAULT_TOL.tiny_support``) that
    dividing by them is numerically delicate; both are computed when read.
    ``arrays`` is the same context as the ``kernels.Context`` of one instance.
    """

    def __init__(self, povm: Povm, rho: DensityOperator):
        self.povm = povm
        self.rho = rho
        self.prob = povm.apply(rho)
        self.arrays = kernels.context(povm.effects, rho.matrix, self.prob.weights)
        self.arrays.mask.setflags(write=False)

    @property
    def support(self) -> frozenset:
        return self._labels(self.arrays.mask)

    @property
    def tiny_support(self) -> frozenset:
        return self._labels(self.arrays.mask & (self.prob.weights <= DEFAULT_TOL.tiny_support))

    def _labels(self, where: np.ndarray) -> frozenset:
        return frozenset(np.array(self.space.labels, dtype=object)[where])

    @property
    def dim(self) -> int:
        return self.povm.dim

    @property
    def space(self):
        return self.povm.space

    def __repr__(self) -> str:
        return f"LocalContext({self.povm!r}, dim={self.dim})"
