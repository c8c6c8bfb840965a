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

from dataclasses import dataclass, field

import numpy as np

from .errors import _error_from_pushforward
from .measurement import trivial_measurement
from .states import (
    DensityOperator,
    HermitianObservable,
    OutcomeFunction,
    OutcomeSpace,
    ProbabilityDistribution,
    class_inner,
    expectation,
    state_inner,
    std_dev_q,
    _real_expectation,
)
from .transport import LocalContext, pullback_rep, pushforward


def commutator_expectation(
    a: HermitianObservable,
    b: HermitianObservable,
    rho: DensityOperator,
) -> float:
    """<[A,B]/2i>_rho, real for self-adjoint arguments."""
    comm = (a.matrix @ b.matrix - b.matrix @ a.matrix) / 2j
    return _real_expectation(comm, rho)


@dataclass(frozen=True)
class RelationReport:
    """Everything the error-error relation says about one (M, rho, A, B).

    slack = eps_a*eps_b - bound must be nonnegative up to roundoff;
    naive_violated records the (legitimate) cases where the error product
    undercuts the bare commutator bound.  The pushforwards and round trips
    the terms were derived from are kept for ``proof_device_check``; they
    are not serialized.
    """

    dim: int
    kind: str
    eps_a: float
    eps_b: float
    real_term: float
    imag_term: float
    bound: float
    slack: float
    naive_bound: float
    naive_violated: bool
    pushforward_a: OutcomeFunction = field(repr=False, compare=False)
    pushforward_b: OutcomeFunction = field(repr=False, compare=False)
    roundtrip_a: HermitianObservable = field(repr=False, compare=False)
    roundtrip_b: HermitianObservable = field(repr=False, compare=False)

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "kind": self.kind,
            "epsA": self.eps_a,
            "epsB": self.eps_b,
            "R": self.real_term,
            "I": self.imag_term,
            "bound": self.bound,
            "slack": self.slack,
            "naiveBound": self.naive_bound,
            "naiveViolated": self.naive_violated,
        }


def evaluate_relation(
    ctx: LocalContext,
    a: HermitianObservable,
    b: HermitianObservable,
    *,
    sign_flip: bool = False,
) -> RelationReport:
    """eps_a, eps_b, R, I and the bound, from one pushforward and one round
    trip per observable.

    R = <{A,B}/2>_rho - <f_A, f_B>_p equals Cov_rho(A,B) - Cov_p(f_A,f_B)
    because pushforwards preserve expectation values.  I is <[A,B]/2i>
    minus the two cross commutators with the round-tripped observables.
    ``sign_flip`` enters the first cross commutator with the wrong sign; it
    exists only to prove that the verify harness can fail.
    """
    fwd_a = pushforward(ctx, a)
    fwd_b = pushforward(ctx, b)
    back_a = pullback_rep(ctx, fwd_a)
    back_b = pullback_rep(ctx, fwd_b)
    eps_a = _error_from_pushforward(ctx, a, fwd_a)
    eps_b = _error_from_pushforward(ctx, b, fwd_b)
    r_val = state_inner(a, b, ctx.rho) - class_inner(fwd_a, fwd_b, ctx.prob)
    commutator = commutator_expectation(a, b, ctx.rho)
    sign = -1.0 if sign_flip else 1.0
    i_val = (
        commutator
        - sign * commutator_expectation(back_a, b, ctx.rho)
        - commutator_expectation(a, back_b, ctx.rho)
    )
    bound = float(np.hypot(r_val, i_val))
    naive = abs(commutator)
    product = eps_a * eps_b
    return RelationReport(
        dim=ctx.dim,
        kind=ctx.povm.kind.value,
        eps_a=eps_a,
        eps_b=eps_b,
        real_term=r_val,
        imag_term=i_val,
        bound=bound,
        slack=product - bound,
        naive_bound=naive,
        naive_violated=product < naive - 1e-12,
        pushforward_a=fwd_a,
        pushforward_b=fwd_b,
        roundtrip_a=back_a,
        roundtrip_b=back_b,
    )


def _semi_inner(ctx: LocalContext, u: tuple, v: tuple) -> complex:
    """Composite semi-inner product <(X,f),(Y,g)> =
    <XY>_rho + <fg>_p - <(M'f)(M'g)>_rho on operator-function pairs, each
    given as (X, f, M'f)."""
    (x, f, adj_f), (y, g, adj_g) = u, v
    first = complex(np.trace(x.matrix @ y.matrix @ ctx.rho.matrix))
    second = class_inner(f, g, ctx.prob)
    third = complex(np.trace(adj_f.matrix @ adj_g.matrix @ ctx.rho.matrix))
    return first + second - third


@dataclass(frozen=True)
class ProofDeviceReport:
    """Numerical check of the Cauchy-Schwarz derivation behind the relation:
    the composite seminorm of (A - roundtrip(A), pushforward(A)) equals the
    error, and the composite cross product equals R + iI."""

    seminorm_a: float
    seminorm_b: float
    residual_a: float
    residual_b: float
    cross_value: complex
    cross_residual: float


def proof_device_check(
    ctx: LocalContext,
    a: HermitianObservable,
    b: HermitianObservable,
    report: RelationReport,
) -> ProofDeviceReport:
    """Evaluate the composite semi-inner product on the pushforwards and
    round trips held by ``report`` (from ``evaluate_relation(ctx, a, b)``)
    and compare it with the report's errors and R + iI."""
    u = (a - report.roundtrip_a, report.pushforward_a, report.roundtrip_a)
    v = (b - report.roundtrip_b, report.pushforward_b, report.roundtrip_b)
    seminorm_a = float(np.sqrt(max(_semi_inner(ctx, u, u).real, 0.0)))
    seminorm_b = float(np.sqrt(max(_semi_inner(ctx, v, v).real, 0.0)))
    cross = _semi_inner(ctx, u, v)
    return ProofDeviceReport(
        seminorm_a=seminorm_a,
        seminorm_b=seminorm_b,
        residual_a=abs(seminorm_a - report.eps_a),
        residual_b=abs(seminorm_b - report.eps_b),
        cross_value=cross,
        cross_residual=abs(cross - complex(report.real_term, report.imag_term)),
    )


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
