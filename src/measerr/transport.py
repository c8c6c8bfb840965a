"""State-local transport of a measurement: pushforward and pullback.

Fixing a measurement and a state attaches a classical geometry at p = M(rho)
and a quantum one at rho.  The pullback carries outcome functions to
operators (the adjoint, descended to equivalence classes); the pushforward
carries observables to outcome functions and is its adjoint with respect to
the two inner products.  Both contract the respective seminorms.
``local_context`` pins the pair, for one instance or a stack, as the
``kernels.Context`` that ``kernels.pushforward``, ``kernels.pullback`` and
``kernels.transport`` (one observable's record, read by every caller) take.

Equivalence classes of functions are represented canonically: zero on every
outcome whose probability is at or below the support cutoff.
"""

from __future__ import annotations

import numpy as np

from . import kernels


def local_context(effects: np.ndarray, rho: np.ndarray, *observables: np.ndarray) -> kernels.Context:
    """Validated effects ``(..., n, d, d)`` pinned to validated states
    ``(..., d, d)``: their Born weights (``kernels.born``, which clips, not
    validates, them) and the support mask.  The effects, then each of
    ``observables``, must act on the states' space."""
    for x in (effects, *observables):
        if x.shape[-1] != rho.shape[-1]:
            raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {rho.shape[-1]}")
    return kernels.context(effects, rho, kernels.born(effects, rho))
