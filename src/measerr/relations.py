"""The error-error uncertainty relation and its reductions.

For any measurement and pair of observables, the product of the two errors
is bounded below by sqrt(R^2 + I^2): R is the covariance lost under the
pushforward, I a three-commutator term that survives only for genuinely
quantum measurements.  The bound follows from Cauchy-Schwarz applied to a
composite semi-inner product, which is also evaluated here so the
implementation stays tied to that derivation (it catches sign mistakes in
the commutator terms).  A trivial measurement turns the relation into the
Schroedinger inequality, hence also the textbook commutator bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .measurement import trivial_measurement
from .states import (
    DensityOperator,
    HermitianObservable,
    OutcomeSpace,
    ProbabilityDistribution,
    expectation,
    state_inner,
    std_dev_q,
    _check_same_dim,
)
from .transport import LocalContext


def commutator_expectation(
    a: HermitianObservable,
    b: HermitianObservable,
    rho: DensityOperator,
) -> float:
    """<[A,B]/2i>_rho, real for self-adjoint arguments."""
    return float(kernels.comm(a.matrix, b.matrix, rho.matrix))


def evaluate_relation(
    ctx: LocalContext,
    a: HermitianObservable,
    b: HermitianObservable,
    *,
    sign_flip: bool = False,
) -> kernels.Relation:
    """eps_a, eps_b, R, I and the bound, from one transport per observable
    (``kernels.relation``, which holds the formulas and the ``sign_flip``
    hook of the harness self-test).  The transports of A and B are kept for
    ``proof_device_check``."""
    _check_same_dim(a, ctx)
    _check_same_dim(b, ctx)
    return kernels.relation(ctx.arrays, a.matrix, b.matrix, sign_flip=sign_flip)


def proof_device_check(
    ctx: LocalContext,
    a: HermitianObservable,
    b: HermitianObservable,
    report: kernels.Relation,
) -> kernels.ProofDevice:
    """Evaluate the composite semi-inner product on the transports held by
    ``report`` (from ``evaluate_relation(ctx, a, b)``) and compare it with
    the report's errors and R + iI: the composite seminorm of (A -
    roundtrip(A), pushforward(A)) equals the error, and the composite cross
    product equals R + iI."""
    return kernels.proof_device(ctx.arrays, a.matrix, b.matrix, report)


@dataclass(frozen=True)
class SchroedingerReport:
    """The relation specialized to a trivial measurement: errors collapse to
    standard deviations, the bound to the Schroedinger form, and the bare
    commutator bound is the weaker corollary."""

    sigma_a: float
    sigma_b: float
    product: float
    bound: float
    kr_bound: float
    covariance: float
    commutator: float
    eps_sigma_residual_a: float
    eps_sigma_residual_b: float


def schroedinger_reduction(
    rho: DensityOperator,
    a: HermitianObservable,
    b: HermitianObservable,
) -> SchroedingerReport:
    space = OutcomeSpace(("t0", "t1"), (0.0, 1.0))
    p0 = ProbabilityDistribution(space, [0.5, 0.5])
    ctx = LocalContext(trivial_measurement(p0, rho.dim), rho)
    report = evaluate_relation(ctx, a, b)
    sigma_a = std_dev_q(a, rho)
    sigma_b = std_dev_q(b, rho)
    covariance = state_inner(a, b, rho) - expectation(a, rho) * expectation(b, rho)
    commutator = commutator_expectation(a, b, rho)
    return SchroedingerReport(
        sigma_a=sigma_a,
        sigma_b=sigma_b,
        product=sigma_a * sigma_b,
        bound=float(np.hypot(covariance, commutator)),
        kr_bound=abs(commutator),
        covariance=covariance,
        commutator=commutator,
        eps_sigma_residual_a=abs(report.eps_a - sigma_a),
        eps_sigma_residual_b=abs(report.eps_b - sigma_b),
    )
