"""State-local transport of a measurement: pushforward and pullback.

Fixing a measurement and a state attaches a classical geometry at p = M(rho)
and a quantum one at rho.  The pullback carries outcome functions to
operators (the adjoint, descended to equivalence classes); the pushforward
carries observables to outcome functions and is its adjoint with respect to
the two inner products.  Both contract the respective seminorms.

Equivalence classes of functions are represented canonically: zero on every
outcome whose probability is at or below the support cutoff.
"""

from __future__ import annotations

import numpy as np

from .measurement import Povm
from .states import (
    DensityOperator,
    HermitianObservable,
    OutcomeFunction,
    _real_expectation,
    class_inner,
    state_inner,
)
from .tolerances import DEFAULT_TOL


class LocalContext:
    """A measurement pinned to a state, with the outcome distribution cached.

    ``support`` holds the labels with weight above the cutoff; ``tiny_support``
    flags the ones close enough to zero (at most ``DEFAULT_TOL.tiny_support``) that
    dividing by them is numerically delicate.
    """

    def __init__(self, povm: Povm, rho: DensityOperator):
        self.povm = povm
        self.rho = rho
        self.prob = povm.apply(rho)
        mask = self.prob.weights > DEFAULT_TOL.support_cutoff
        mask.setflags(write=False)
        self.support_mask = mask
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


def support_restrict(ctx: LocalContext, f: OutcomeFunction) -> OutcomeFunction:
    """Canonical representative of f's equivalence class: zero off the support."""
    return OutcomeFunction(ctx.space, np.where(ctx.support_mask, f.values, 0.0))


def pushforward(ctx: LocalContext, a: HermitianObservable) -> OutcomeFunction:
    """Outcome function <A, E_w>_rho / p(w) on the support, zero off it.

    This is the locally optimal estimator of the observable from measurement
    data; its expectation under p equals <A>_rho.
    """
    if a.dim != ctx.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {ctx.dim}")
    effects = ctx.povm.effects
    inner = _real_expectation((a.matrix @ effects + effects @ a.matrix) / 2.0, ctx.rho)
    values = np.divide(inner, ctx.prob.weights, out=np.zeros(ctx.space.size), where=ctx.support_mask)
    return OutcomeFunction(ctx.space, values)


def pullback_rep(ctx: LocalContext, f: OutcomeFunction) -> HermitianObservable:
    """Operator representative of the pullback of f: the adjoint applied to
    the canonical (off-support-zeroed) representative, so equivalent
    functions map to identical operators."""
    if f.space != ctx.space:
        raise ValueError("outcome spaces do not match")
    return ctx.povm.adjoint(support_restrict(ctx, f))


def adjointness_residual(ctx: LocalContext, a: HermitianObservable, f: OutcomeFunction) -> float:
    """|<A, pullback(f)>_rho - <pushforward(A), f>_p|; zero up to roundoff."""
    lhs = state_inner(a, pullback_rep(ctx, f), ctx.rho)
    rhs = class_inner(pushforward(ctx, a), f, ctx.prob)
    return abs(lhs - rhs)
