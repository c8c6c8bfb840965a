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

from . import kernels
from .measurement import trivial_measurement
from .states import DensityOperator, HermitianObservable, _check_same_dim
from .transport import local_context


def evaluate_relation(ctx: kernels.Context, a: HermitianObservable, b: HermitianObservable) -> kernels.Relation:
    """eps_a, eps_b, R, I and the bound, from one transport per observable
    (``kernels.relation``, which holds the formulas).  The record keeps the
    transports of A and B, which ``kernels.schroedinger`` and
    ``kernels.proof_device`` read."""
    _check_same_dim(a, ctx)
    _check_same_dim(b, ctx)
    return kernels.relation(ctx, a.matrix, b.matrix)


def schroedinger_reduction(rho: DensityOperator, a: HermitianObservable, b: HermitianObservable) -> kernels.Schroedinger:
    """The relation under a trivial measurement (``kernels.schroedinger``)."""
    povm = trivial_measurement([0.5, 0.5], rho.dim)
    ctx = local_context(povm.effects, rho.matrix)
    return kernels.schroedinger(ctx, a.matrix, b.matrix, evaluate_relation(ctx, a, b))
