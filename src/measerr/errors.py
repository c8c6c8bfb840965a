"""Measurement error functionals and the errorless characterization.

The error of a measurement for an observable is the seminorm contraction its
pushforward induces; choosing an explicit estimator f instead gives the
f-error, whose square splits exactly into the squared error plus the squared
classical distance between f and the pushforward.  The pushforward is
therefore the optimal estimator, and the error the minimum over f-errors.

Errorless measurements.  The paper's three equivalent conditions are (a)
eps(A) = 0, (b) the round trip reproduces A and (c) the transport norm chain
is flat.  Numerically each is judged against tau = DEFAULT_TOL.errorless
relative to scale = ||A||_rho, at one order of smallness: for a POVM at
distance mu from the projective measurement of A, the residual of (b) and
the drops of (c) are O(mu), but eps is O(sqrt(mu)), since eps^2 is first
order in mu (the drop of (c) is eps^2 / (scale + ||f_A||_p)).  So (a) is
tested as eps^2 <= tau scale^2, not eps <= tau scale: with the latter, a
measurement of E_1 = P_1 + mu P_2, E_2 = (1 - mu) P_2 at mu = 1e-10 failed
(a) while passing (b) and (c), and so did the rounded projectors of a
projective measurement, whose eps sits near 1e-8 scale.  In a band of mu
around tau the conditions cross their thresholds at slightly different mu;
no single threshold can make them agree there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .states import HermitianObservable, OutcomeFunction, _check_same_dim
from .transport import LocalContext, Transport, transport


def quantum_error(ctx: LocalContext, a: HermitianObservable) -> float:
    """sqrt(||A||_rho^2 - ||pushforward(A)||_p^2), the contraction amount
    (see ``transport`` for the clipping of its radicand)."""
    return transport(ctx, a).error


@dataclass(frozen=True)
class ErrorBreakdown:
    """f-error split into the intrinsic and the estimator-dependent parts:
    f_error^2 = quantum_error^2 + estimation_error^2."""

    quantum_error: float
    estimation_error: float
    f_error: float
    estimator: OutcomeFunction = field(repr=False)

    def __post_init__(self):
        kernels.check_split(self.quantum_error, self.estimation_error, self.f_error)


def f_error(ctx: LocalContext, t: Transport, f: OutcomeFunction) -> ErrorBreakdown:
    """Reconstruction gauge for the estimator f of A = t.observable:
    sqrt(||A - pullback(f)||_rho^2 + (||f||_p^2 - ||pullback(f)||_rho^2))."""
    if f.space != ctx.space:
        raise ValueError("outcome spaces do not match")
    split = kernels.f_error_split(ctx.arrays, t.observable.matrix, t.arrays, f.values)
    return ErrorBreakdown(
        quantum_error=t.error,
        estimation_error=float(split.estimation),
        f_error=float(split.f_error),
        estimator=f,
    )


@dataclass(frozen=True)
class ErrorlessConditions:
    """The three equivalent faces of an errorless measurement of A over rho:
    (a) zero error, (b) the round trip reproduces A as an equivalence class,
    (c) the transport norm chain is flat."""

    cond_a: bool
    cond_b: bool
    cond_c: bool
    error: float
    roundtrip_residual: float
    scale: float

    @classmethod
    def row(cls, e: kernels.Errorless, i=()) -> "ErrorlessConditions":
        """Instance ``i`` of the kernel's stacked conditions (all of them for one instance)."""
        return cls(*(x.item() for x in (np.asarray(f)[i] for f in e)))


def errorless_check(ctx: LocalContext, a: HermitianObservable) -> ErrorlessConditions:
    """Conditions (a), (b) and (c) for A over ``ctx`` (see the module docstring)."""
    _check_same_dim(a, ctx)
    return ErrorlessConditions.row(kernels.errorless(ctx.arrays, a.matrix))
