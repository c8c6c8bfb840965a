"""State-local transport of a measurement: pushforward and pullback.

Fixing a measurement and a state attaches a classical geometry at p = M(rho)
and a quantum one at rho.  The pullback carries outcome functions to
operators (the adjoint, descended to equivalence classes); the pushforward
carries observables to outcome functions and is its adjoint with respect to
the two inner products.  Both contract the respective seminorms.
``transport`` pushes one observable forward once and returns, with the
pushforward, its round trip and the error (the ``kernels.Transported``
record of one instance); callers read that record instead of deriving any
of the three again.

Equivalence classes of functions are represented canonically: zero on every
outcome whose probability is at or below the support cutoff.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .measurement import Povm
from .states import DensityOperator, HermitianObservable, OutcomeFunction, _check_same_dim
from .tolerances import DEFAULT_TOL


class LocalContext:
    """A measurement pinned to a state, with the outcome distribution cached.

    ``support`` holds the labels with weight above the cutoff; ``tiny_support``
    flags the ones close enough to zero (at most ``DEFAULT_TOL.tiny_support``) that
    dividing by them is numerically delicate.  ``arrays`` is the same
    context as the ``kernels.Context`` of one instance.
    """

    def __init__(self, povm: Povm, rho: DensityOperator):
        self.povm = povm
        self.rho = rho
        self.prob = povm.apply(rho)
        self.arrays = kernels.context(povm.effects, rho.matrix, self.prob.weights)
        mask = self.arrays.mask
        mask.setflags(write=False)
        labels = np.array(povm.space.labels, dtype=object)
        self.support = frozenset(labels[mask])
        self.tiny_support = frozenset(labels[mask & (self.prob.weights <= DEFAULT_TOL.tiny_support)])

    @property
    def dim(self) -> int:
        return self.povm.dim

    @property
    def space(self):
        return self.povm.space

    def __repr__(self) -> str:
        return f"LocalContext({self.povm!r}, dim={self.dim})"


def pushforward(ctx: LocalContext, a: HermitianObservable) -> OutcomeFunction:
    """Outcome function <A, E_w>_rho / p(w) on the support, zero off it.

    This is the locally optimal estimator of the observable from measurement
    data; its expectation under p equals <A>_rho.
    """
    _check_same_dim(a, ctx)
    return OutcomeFunction(ctx.space, kernels.pushforward(ctx.arrays, a.matrix))


def pullback_rep(ctx: LocalContext, f: OutcomeFunction) -> HermitianObservable:
    """Operator representative of the pullback of f: the adjoint applied to
    the canonical (off-support-zeroed) representative, so equivalent
    functions map to identical operators."""
    if f.space != ctx.space:
        raise ValueError("outcome spaces do not match")
    return HermitianObservable._trusted(kernels.pullback(ctx.arrays, f.values))


def transport(ctx: LocalContext, a: HermitianObservable) -> kernels.Transported:
    """Push ``a`` forward once and derive the round trip and the error from it
    (``kernels.transport``, which raises if contractivity fails)."""
    _check_same_dim(a, ctx)
    return kernels.transport(ctx.arrays, a.matrix)


def adjointness_residual(ctx: LocalContext, a: HermitianObservable, f: OutcomeFunction) -> float:
    """|<A, pullback(f)>_rho - <pushforward(A), f>_p|; zero up to roundoff."""
    if f.space != ctx.space:
        raise ValueError("outcome spaces do not match")
    return kernels.adjointness(ctx.arrays, a.matrix, pushforward(ctx, a).values, f.values)
