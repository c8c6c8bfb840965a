"""Measurement error functionals and the errorless characterization.

The error of a measurement for an observable is the seminorm contraction its
pushforward induces; choosing an explicit estimator f instead gives the
f-error, whose square splits exactly into the squared error plus the squared
classical distance between f and the pushforward.  The pushforward is
therefore the optimal estimator, and the error the minimum over f-errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import (
    HermitianObservable,
    OutcomeFunction,
    class_norm,
    state_norm,
)
from .transport import LocalContext, pullback_rep, pushforward
from .tolerances import DEFAULT_TOL


def quantum_error(ctx: LocalContext, a: HermitianObservable) -> float:
    """sqrt(||A||_rho^2 - ||pushforward(A)||_p^2), the contraction amount.

    The radicand is clipped at zero if it is only roundoff-negative; a value
    below -DEFAULT_TOL.psd means contractivity failed and indicates a bug, so it
    raises instead of being hidden.
    """
    return _error_from_pushforward(ctx, a, pushforward(ctx, a))


def _error_from_pushforward(
    ctx: LocalContext, a: HermitianObservable, fwd: OutcomeFunction
) -> float:
    """The error of ``a`` given its already computed pushforward ``fwd``."""
    radicand = state_norm(a, ctx.rho) ** 2 - class_norm(fwd, ctx.prob) ** 2
    if radicand < -DEFAULT_TOL.psd:
        raise RuntimeError(f"contractivity violated: radicand {radicand:.3e}")
    return float(np.sqrt(max(radicand, 0.0)))


@dataclass(frozen=True)
class ErrorBreakdown:
    """f-error split into the intrinsic and the estimator-dependent parts:
    f_error^2 = quantum_error^2 + estimation_error^2.  ``optimal`` is the
    pushforward of the observable, the estimator that attains the error."""

    quantum_error: float
    estimation_error: float
    f_error: float
    estimator: OutcomeFunction = field(repr=False)
    optimal: OutcomeFunction = field(repr=False, compare=False)

    def __post_init__(self):
        residual = abs(self.f_error**2 - self.quantum_error**2 - self.estimation_error**2)
        if residual > DEFAULT_TOL.identity * (1.0 + self.f_error**2):
            raise AssertionError(f"error decomposition violated by {residual:.3e}")


def f_error(ctx: LocalContext, a: HermitianObservable, f: OutcomeFunction) -> ErrorBreakdown:
    """Reconstruction gauge for the estimator f:
    sqrt(||A - pullback(f)||_rho^2 + (||f||_p^2 - ||pullback(f)||_rho^2))."""
    rep = pullback_rep(ctx, f)
    algebraic = state_norm(a - rep, ctx.rho) ** 2
    cost = class_norm(f, ctx.prob) ** 2 - state_norm(rep, ctx.rho) ** 2
    if cost < -DEFAULT_TOL.psd:
        raise RuntimeError(f"contractivity violated: reconstruction cost {cost:.3e}")
    total = float(np.sqrt(max(algebraic + cost, 0.0)))
    optimal = pushforward(ctx, a)
    return ErrorBreakdown(
        quantum_error=_error_from_pushforward(ctx, a, optimal),
        estimation_error=class_norm(optimal - f, ctx.prob),
        f_error=total,
        estimator=f,
        optimal=optimal,
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


def errorless_check(ctx: LocalContext, a: HermitianObservable) -> ErrorlessConditions:
    scale = state_norm(a, ctx.rho)
    threshold = DEFAULT_TOL.errorless * scale
    fwd = pushforward(ctx, a)
    err = _error_from_pushforward(ctx, a, fwd)
    back = pullback_rep(ctx, fwd)
    residual = state_norm(a - back, ctx.rho)
    norm_fwd = class_norm(fwd, ctx.prob)
    norm_back = state_norm(back, ctx.rho)
    return ErrorlessConditions(
        cond_a=err <= threshold,
        cond_b=residual <= threshold,
        cond_c=(scale - norm_fwd) <= threshold and (scale - norm_back) <= threshold,
        error=err,
        roundtrip_residual=residual,
        scale=scale,
    )
