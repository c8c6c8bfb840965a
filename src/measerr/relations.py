"""The error-error uncertainty relation and its reductions.

For any measurement and pair of observables, the product of the two errors
is bounded below by sqrt(R^2 + I^2): R is the covariance lost under the
pushforward, I a three-commutator term that survives only for genuinely
quantum measurements.  The bound follows from Cauchy-Schwarz applied to a
composite semi-inner product, which the suites also evaluate
(``kernels.proof_device``) so the implementation stays tied to that
derivation (it catches sign mistakes in the commutator terms).  A trivial
measurement turns the relation into the Schroedinger inequality, hence also
the textbook commutator bound.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .measurement import trivial_measurement
from .transport import local_context


def evaluate_relation(effects: np.ndarray, rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> kernels.Relation:
    """eps_a, eps_b, R, I and the bound of the measurements ``effects`` at the
    states ``rho``, one instance or a stack, from one transport per
    observable (``kernels.relation``, which holds the formulas).  The record
    keeps the transports of A and B, which ``kernels.schroedinger`` and
    ``kernels.proof_device`` read."""
    return kernels.relation(local_context(effects, rho, a, b), a, b)


def schroedinger_reduction(
    weights, rho: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[kernels.Relation, kernels.Schroedinger]:
    """The relation under the trivial measurements of ``weights`` and its
    standard-deviation form (``kernels.schroedinger``), one instance or a
    stack."""
    ctx = local_context(trivial_measurement(weights, rho.shape[-1]), rho, a, b)
    rel = kernels.relation(ctx, a, b)
    return rel, kernels.schroedinger(ctx, a, b, rel)
