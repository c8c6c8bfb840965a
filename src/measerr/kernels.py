"""The numerical core: pure functions on stacked arrays.

Each formula of the package lives here once.  The CLI and the suites call
it on validated arrays and read its records (named tuples) as they are: the
CLI on single instances, with numpy scalars in the scalar fields, the suites
on whole blocks of one dimension; so do the builders they share
(``trivial_measurement``, ``induced_povm``, ``chain_check``).  All pin
measurements to states by ``context``.

Shapes.  States and observables are ``(..., d, d)``, effects
``(..., n, d, d)``, outcome functions and Born weights ``(..., n)``; any
leading shape works, from none (one instance) to ``(N,)`` (a stack).
Ragged outcome counts are padded with zero effects: a zero effect has zero
weight, falls outside the support and contributes exactly 0.0 to every sum,
which is the canonical-class convention of ``restrict``.

Traces.  Tr[X Y] is one elementwise contraction, O(d^2) where forming X Y is
O(d^3) (``trace_product``).  For Hermitian X, Y, rho, ``anti`` and ``comm``
are Re and Im of Tr[X Y rho], ``pushforward`` takes <A, E_w>_rho as
Re Tr[E_w A rho] and ``norm`` squares as Tr[X X rho]: one product each.
``transport`` forms A rho once for its pushforward and its norm and keeps
it, and ``relation`` and ``schroedinger`` read B rho from B's transport.
Every kernel is stack-invariant: a row of a stacked call equals the call on
that row alone bit for bit, whatever the broadcast (``np.einsum`` is not).

Inputs are trusted: states, effects, observables and interactions are
validated once, where they enter (the JSON loaders, through the ``states``
validators ``check_states``, ``check_observables``, ``check_effects`` and
``check_unitaries``), or are valid by construction (the builders' output on
checked parameters, and the generators' draws; ``povm_effects`` guards its
own whitening); ``born`` clips the derived Born weights and judges none.
``context`` checks only that effects and observables act on the states'
space (``ValueError``).  The other checks left here are the invariants whose
failure means a bug: a non-real ``expect``, ``born`` or ``norm``
(``ArithmeticError``), a broken f-error split (``AssertionError``) and a
square negative beyond what valid input gives (``_guard``).  Each raises
for the whole stack, fails closed on a NaN, and costs one comparison and
one reduction on the clean path, testing further only where that flags.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .tolerances import DEFAULT_TOL


def first_flagged(values, bad):
    """The first value of ``values`` flagged by ``bad``, for an error message."""
    return np.asarray(values)[np.asarray(bad)].flat[0]


def dot(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row-wise f.g over the last axis, summed as numpy's 1-D dot sums it."""
    return (f[..., None, :] @ g[..., :, None])[..., 0, 0]


def trace_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tr[X Y], broadcast over leading axes, as sum_ij X_ij Y_ji."""
    return (x * y.swapaxes(-1, -2)).sum(axis=(-2, -1))


def _real(val: np.ndarray) -> np.ndarray:
    """The real part of expectations ``val``, which must be real up to roundoff: a finite |Im| at most
    DEFAULT_TOL.expectation max(1, |val|), as every |Im| at most DEFAULT_TOL.expectation is."""
    imag = np.abs(val.imag)
    if not (imag <= DEFAULT_TOL.expectation).all():
        bad = ~np.isfinite(imag) | (imag > DEFAULT_TOL.expectation * np.maximum(1.0, np.abs(val)))
        if bad.any():
            raise ArithmeticError(f"expected a real expectation, got {first_flagged(val, bad)}")
    return val.real


def expect(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Real Tr[X rho], broadcast over leading axes."""
    return _real(trace_product(x, rho))


def _anti_comm(x: np.ndarray, y: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<{X,Y}/2>_rho and <[X,Y]/2i>_rho: Re and Im of Tr[X Y rho] (X, Y and rho Hermitian)."""
    val = trace_product(x, y @ rho)
    return val.real, val.imag


def anti(x: np.ndarray, y: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """<{X,Y}/2>_rho = Re Tr[X Y rho], the state inner product."""
    return _anti_comm(x, y, rho)[0]


def comm(x: np.ndarray, y: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """<[X,Y]/2i>_rho = Im Tr[X Y rho]."""
    return _anti_comm(x, y, rho)[1]


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """(X + X^dag)/2 of one matrix or a stack."""
    return (x + x.conj().swapaxes(-1, -2)) / 2.0


def _guard(val: np.ndarray, size, error: type, what: str) -> None:
    """Raise ``error`` where ``val`` (a square, or a difference of squares) is NaN, or below -DEFAULT_TOL.psd
    and below -DEFAULT_TOL.identity times ``size()``, its squared magnitude, formed only if needed; where
    that overflowed nothing is judged, and what passes on is for the caller's checks to fail."""
    ok = val >= -DEFAULT_TOL.psd
    if not ok.all():
        allowance = DEFAULT_TOL.identity * size()
        bad = ~ok & ~(val >= -allowance) & np.isfinite(allowance)
        if bad.any():
            raise error(f"{what} {first_flagged(val, bad):.3e}")


def norm(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Seminorm sqrt(<X^2>_rho) = sqrt(Tr[X (X rho)]); a square below -identity ||X||_F^2 is an error."""
    return _norm(x, x @ rho)


def _norm(x: np.ndarray, x_rho: np.ndarray) -> np.ndarray:
    """``norm`` of X from the product X rho."""
    val = _real(trace_product(x, x_rho))
    _guard(val, lambda: (np.abs(x) ** 2).sum(axis=(-2, -1)), ArithmeticError, "negative squared norm")
    return np.sqrt(np.maximum(val, 0.0))


def _spread(norm_x: np.ndarray, mean_x: np.ndarray) -> np.ndarray:
    """Standard deviation sqrt(||X||_rho^2 - <X>_rho^2) from the norm and the mean, clipped at zero."""
    return np.sqrt(np.maximum(norm_x**2 - mean_x**2, 0.0))


def class_inner(f: np.ndarray, g: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """<fg>_p."""
    return dot(f * g, weights)


def class_norm(f: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Seminorm sqrt(<f^2>_p); zero-weight outcomes contribute exactly nothing."""
    return np.sqrt(class_inner(f, f, weights))


def born(effects: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Born weights Tr[E_w rho], the negative ones (which valid effects may give) clipped to zero, a -0.0 kept."""
    w = expect(effects, rho[..., None, :, :])
    return np.where(w < 0.0, 0.0, w)


def adjoint(effects: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Operator sum_w f(w) E_w."""
    return (f[..., None, None] * effects).sum(axis=-3)


def spectral(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthogonal projectors of Hermitian ``a``, with
    eigenvalues within ``DEFAULT_TOL.eig_merge * max|eig|`` of their
    neighbour merged into one projector (at the mean eigenvalue), in
    ascending order.  Rows with fewer groups than the stack's largest count
    are padded with zero projectors at value 0."""
    w, v = np.linalg.eigh(a)
    threshold = DEFAULT_TOL.eig_merge * np.abs(w).max(axis=-1, keepdims=True)
    starts = (w[..., 1:] - w[..., :-1]) > threshold
    cols = np.swapaxes(v, -1, -2)[..., :, :, None]
    proj = cols @ cols.conj().swapaxes(-1, -2)
    if starts.all():
        values = w
    else:
        group = np.zeros(w.shape, dtype=int)
        group[..., 1:] = np.cumsum(starts, axis=-1)
        member = (group[..., None, :] == np.arange(group.max() + 1)[:, None]).astype(float)
        count = member.sum(axis=-1)
        values = np.divide((member * w[..., None, :]).sum(axis=-1), count, out=np.zeros(count.shape), where=count > 0)
        proj = np.einsum("...gk,...kij->...gij", member, proj)
    return values, hermitian_part(proj)


class Context(namedtuple("Context", "effects rho weights mask")):
    """Measurements pinned to states: effects ``(..., n, d, d)``, states
    ``(..., d, d)``, their Born weights ``(..., n)`` and the support mask
    (weights above ``DEFAULT_TOL.support_cutoff``).  The pair attaches a
    classical geometry at p = M(rho) and a quantum one at rho: the pullback
    carries outcome functions to operators (the adjoint, descended to
    equivalence classes), the pushforward carries observables to outcome
    functions and is its adjoint for the two inner products, and both
    contract the respective seminorms."""


def context(effects: np.ndarray, rho: np.ndarray, *observables: np.ndarray) -> Context:
    """Effects ``(..., n, d, d)`` pinned to states ``(..., d, d)``: their
    Born weights (``born``, which clips, not validates, them) and the
    support mask.  The effects, then each of ``observables``, must act on
    the states' space."""
    for x in (effects, *observables):
        if x.shape[-1] != rho.shape[-1]:
            raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {rho.shape[-1]}")
    weights = born(effects, rho)
    return Context(effects, rho, weights, weights > DEFAULT_TOL.support_cutoff)


def pushforward(ctx: Context, a: np.ndarray) -> np.ndarray:
    """<A, E_w>_rho / p(w) on the support, zero off it: the optimal estimator.
    <A, E_w>_rho = Tr[E_w (A rho + rho A)/2] = Re Tr[E_w A rho]."""
    return _pushforward(ctx, a @ ctx.rho)


def _pushforward(ctx: Context, a_rho: np.ndarray) -> np.ndarray:
    """``pushforward`` of A from the product A rho."""
    inner = trace_product(ctx.effects, a_rho[..., None, :, :]).real
    return np.divide(inner, ctx.weights, out=np.zeros(ctx.weights.shape), where=ctx.mask)


def restrict(ctx: Context, f: np.ndarray) -> np.ndarray:
    """Canonical representative of f's equivalence class: zero on every
    outcome whose weight is at or below the support cutoff."""
    return np.where(ctx.mask, f, 0.0)


def pullback(ctx: Context, f: np.ndarray) -> np.ndarray:
    """Operator representative of the pullback of f: the adjoint of its
    canonical representative."""
    return adjoint(ctx.effects, restrict(ctx, f))


class Transported(namedtuple("Transported", "pushforward roundtrip error norm product")):
    """An observable A carried through a context: pushforward, round trip, error, ||A||_rho (``norm``) and A rho."""


def transport(ctx: Context, a: np.ndarray) -> Transported:
    """Push ``a`` forward once; the round trip is its pullback and the error
    sqrt(||A||_rho^2 - ||pushforward(A)||_p^2), the pushforward and the norm
    read from one product A rho.  On valid effects the radicand is at least
    -d DEFAULT_TOL.identity ||A||_rho^2 (Cauchy-Schwarz), and is clipped at
    zero; below that contractivity failed, a bug, so it raises (``_guard``)."""
    a_rho = a @ ctx.rho
    fwd, norm_a = _pushforward(ctx, a_rho), _norm(a, a_rho)
    radicand = norm_a**2 - class_norm(fwd, ctx.weights) ** 2
    _guard(radicand, lambda: a.shape[-1] * norm_a**2, RuntimeError, "contractivity violated: radicand")
    return Transported(fwd, pullback(ctx, fwd), np.sqrt(np.maximum(radicand, 0.0)), norm_a, a_rho)


def adjointness(ctx: Context, a: np.ndarray, fwd: np.ndarray, f: np.ndarray) -> np.ndarray:
    """|<A, pullback(f)>_rho - <pushforward(A), f>_p|; zero up to roundoff."""
    return np.abs(anti(a, pullback(ctx, f), ctx.rho) - class_inner(fwd, f, ctx.weights))


class Contractivity(namedtuple("Contractivity", "classical_norm adjoint_norm gap_min_eigenvalue")):
    """Both sides of the classical-vs-quantum norm inequality ||f||_p >=
    ||M'f||_rho and the smallest eigenvalue of the operator gap M'(f^2) -
    (M'f)^2."""


def contractivity(ctx: Context, f: np.ndarray) -> Contractivity:
    adj = adjoint(ctx.effects, f)
    gap = adjoint(ctx.effects, f**2) - adj @ adj
    return Contractivity(class_norm(f, ctx.weights), norm(adj, ctx.rho), np.linalg.eigvalsh(gap)[..., 0])


def split_residual(quantum: np.ndarray, estimation: np.ndarray, f_err: np.ndarray) -> np.ndarray:
    """|f_error^2 - quantum_error^2 - estimation_error^2|, zero up to roundoff."""
    return np.abs(f_err**2 - quantum**2 - estimation**2)


def check_split(quantum, estimation, f_err, size) -> None:
    """Raise AssertionError unless the f-error splits into the error and the
    estimation error within DEFAULT_TOL.identity * ``size``: 1 + ||A||_rho^2
    + ||f||_p^2, the size of the squares whose differences the three squared
    terms are, so a small f-error of a large A is judged at the roundoff of
    ||A||_rho^2, not of 1.  A NaN residual fails."""
    residual = split_residual(quantum, estimation, f_err)
    ok = residual <= DEFAULT_TOL.identity * size
    if not ok.all():
        raise AssertionError(f"error decomposition violated by {first_flagged(residual, ~ok):.3e}")


class FError(namedtuple("FError", "quantum_error estimation_error f_error")):
    """An f-error and its split into the intrinsic and the estimator-dependent
    parts: f_error^2 = quantum_error^2 + estimation_error^2, the last the
    squared classical distance of f from the pushforward.  The pushforward
    is therefore the optimal estimator, and the error the least f-error."""


def f_error_split(ctx: Context, f: np.ndarray, *pairs) -> list[FError]:
    """The f-error sqrt(||X - M'f||_rho^2 + (||f||_p^2 - ||M'f||_rho^2)) of the estimator f for each
    (X, t) of ``pairs``, t X's transport and M' the pullback, with its split into t.error and
    ||pushforward(X) - f||_p: one ``FError`` per pair, from one pullback of f and its cost
    ||f||_p^2 - ||M'f||_rho^2, guarded as ``transport``'s radicand is, with f for X."""
    rep, f_square = pullback(ctx, f), class_norm(f, ctx.weights) ** 2
    cost = f_square - norm(rep, ctx.rho) ** 2
    _guard(cost, lambda: ctx.rho.shape[-1] * f_square, RuntimeError, "contractivity violated: reconstruction cost")
    out = [FError(t.error, class_norm(t.pushforward - f, ctx.weights),
                  np.sqrt(np.maximum(norm(x - rep, ctx.rho) ** 2 + cost, 0.0))) for x, t in pairs]
    for split, (_, t) in zip(out, pairs):
        check_split(*split, 1.0 + t.norm**2 + f_square)
    return out


class Relation(namedtuple("Relation", "eps_a eps_b real_term imag_term bound slack naive_bound naive_violated "
                                      "transport_a transport_b")):
    """The errors, R, I, the bound sqrt(R^2 + I^2), the slack eps_a*eps_b -
    bound (nonnegative up to roundoff), the bare commutator bound and whether
    the error product (legitimately) undercuts it, and the transports of A
    and B the terms were derived from."""


def relation(ctx: Context, a: np.ndarray, b: np.ndarray, *, sign_flip: bool = False) -> Relation:
    """eps_a, eps_b, R, I and the bound sqrt(R^2 + I^2), from one transport
    per observable, whose B rho gives Tr[A B rho] and Tr[roundtrip(A) B rho].
    For every measurement and pair, eps_a eps_b >= sqrt(R^2 + I^2): the
    Cauchy-Schwarz inequality of ``gram``.

    R = <{A,B}/2>_rho - <f_A, f_B>_p equals Cov_rho(A,B) - Cov_p(f_A,f_B)
    because pushforwards preserve expectation values.  I is <[A,B]/2i>
    minus the two cross commutators with the round-tripped observables; it
    survives only for genuinely quantum measurements.  ``sign_flip`` enters
    the first cross commutator with the wrong sign; it exists only to prove
    that the verify harness can fail.
    """
    t_a, t_b = transport(ctx, a), transport(ctx, b)
    abr = trace_product(a, t_b.product)
    symmetric, commutator = abr.real, abr.imag
    real = symmetric - class_inner(t_a.pushforward, t_b.pushforward, ctx.weights)
    sign = -1.0 if sign_flip else 1.0
    imag = commutator - sign * trace_product(t_a.roundtrip, t_b.product).imag - comm(a, t_b.roundtrip, ctx.rho)
    bound = np.hypot(real, imag)
    naive = np.abs(commutator)
    product = t_a.error * t_b.error
    return Relation(t_a.error, t_b.error, real, imag, bound, product - bound, naive, product < naive - 1e-12, t_a, t_b)


def relation_allowance(rel: Relation, slack: float) -> np.ndarray:
    """How far below zero the relation's slack may fall: slack (1 + eps_a eps_b)."""
    return slack * (1.0 + rel.eps_a * rel.eps_b)


class Schroedinger(namedtuple("Schroedinger", "sigma_a sigma_b product bound kr_bound covariance commutator "
                                              "eps_sigma_residual_a eps_sigma_residual_b")):
    """The standard deviations, their product, the Schroedinger bound sqrt(Cov^2 + C^2) with C =
    <[A,B]/2i>_rho, the commutator bound |C|, Cov and C, and the errors' residuals against them."""


def schroedinger(ctx: Context, a: np.ndarray, b: np.ndarray) -> tuple[Relation, Schroedinger]:
    """The relation of A and B on a trivial measurement ``ctx`` and its
    standard-deviation form: there each error is the standard deviation and
    the relation the Schroedinger inequality, hence also the textbook
    commutator bound."""
    rel = relation(ctx, a, b)
    mean_a, mean_b = expect(a, ctx.rho), expect(b, ctx.rho)
    sigma_a, sigma_b = _spread(rel.transport_a.norm, mean_a), _spread(rel.transport_b.norm, mean_b)
    abr = trace_product(a, rel.transport_b.product)
    symmetric, commutator = abr.real, abr.imag
    covariance = symmetric - mean_a * mean_b
    return rel, Schroedinger(sigma_a, sigma_b, sigma_a * sigma_b, np.hypot(covariance, commutator),
                             np.abs(commutator), covariance, commutator, np.abs(rel.eps_a - sigma_a),
                             np.abs(rel.eps_b - sigma_b))


def gram(ctx: Context, *pairs) -> np.ndarray:
    """The Hermitian Gram matrix ``(..., k, k)`` of the (X, t) ``pairs``, t
    X's transport: G_ij = <u_i, u_j> for u = (X - roundtrip, pushforward,
    roundtrip) in the composite semi-inner product <(X,f,M'f),(Y,g,M'g)> =
    <XY>_rho + <fg>_p - <(M'f)(M'g)>_rho.  Each entry above the diagonal is
    formed once and mirrored as its conjugate; the diagonal keeps its real
    part.  For A and B, G = [[eps_A^2, R + iI], [R - iI, eps_B^2]], so
    det G >= 0 is the relation (Cauchy-Schwarz); the suites check G against
    the relation's values, which catches sign mistakes in its commutator
    terms."""
    u = [(x - t.roundtrip, t.pushforward, t.roundtrip) for x, t in pairs]
    upper = {(i, j): trace_product(x @ y, ctx.rho) + class_inner(f, g, ctx.weights) - trace_product(m @ n, ctx.rho)
             for i, (x, f, m) in enumerate(u) for j, (y, g, n) in enumerate(u[i:], i)}
    out = np.empty(upper[0, 0].shape + (len(u),) * 2, dtype=complex)
    for (i, j), val in upper.items():
        out[..., i, j] = val if i < j else val.real
        out[..., j, i] = np.conj(out[..., i, j])
    return out


class Errorless(namedtuple("Errorless", "errorless violation error roundtrip_residual scale")):
    """Condition (a) of an errorless measurement, the violation of the bound
    tying it to (b) and (c), and the error, round-trip residual and scale.

    The paper's three equivalent conditions are (a) eps(A) = 0, (b) the
    round trip reproduces A and (c) the transport norm chain ||A||_rho >=
    ||f_A||_p >= m = ||roundtrip||_rho is flat.  With s = ||A||_rho and r =
    ||A - roundtrip||_rho, r^2 = eps^2 - (||f_A||_p^2 - m^2) and s <= m + r
    give r^2 <= eps^2 <= r (2m + r), and eps^2 and r^2 fix both drops of
    (c): each side is zero exactly when the others are, with no threshold.
    Only (a) decides "errorless", as eps^2 <= tau s^2 (tau =
    DEFAULT_TOL.errorless): eps is O(sqrt(mu)) at distance mu from the
    projective measurement of A, whose rounded projectors give eps near
    1e-8 s."""


def errorless(ctx: Context, a: np.ndarray, t: Transported) -> Errorless:
    """(a) of A (transported as ``t``) and the violation max(r^2 - eps^2,
    eps^2 - r (2m + r)) of the exact bound (``Errorless``): roundoff of
    scale^2 on every instance."""
    residual, back = norm(a - t.roundtrip, ctx.rho), norm(t.roundtrip, ctx.rho)
    square = t.error**2
    violation = np.maximum(residual**2 - square, square - residual * (2.0 * back + residual))
    return Errorless(square <= DEFAULT_TOL.errorless * t.norm**2, violation, t.error, residual, t.norm)


def kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker product x (x) y of the last two axes, broadcast over leading axes."""
    rows, cols = x.shape[-2] * y.shape[-2], x.shape[-1] * y.shape[-1]
    out = x[..., :, None, :, None] * y[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (rows, cols))


def heisenberg(u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """U^dag (I (x) P) U: ancilla operators P ``(..., a, a)`` evolved back
    through joint unitaries U ``(..., D, D)``, the system factor first."""
    return u.conj().swapaxes(-1, -2) @ kron(np.eye(u.shape[-1] // p.shape[-1]), p) @ u


def induced_effects(u: np.ndarray, xi: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """Effects Tr_anc[(I (x) xi) U^dag (I (x) P_w) U] ``(..., n, d, d)``
    induced on the system by the meter projectors P_w ``(..., n, a, a)``
    read after U ``(..., D, D)`` from the ancilla state xi ``(..., a, a)``."""
    da = xi.shape[-1]
    ds = u.shape[-1] // da
    evolved = heisenberg(u[..., None, :, :], projectors)
    evolved = evolved.reshape(evolved.shape[:-2] + (ds, da, ds, da))
    return hermitian_part(np.einsum("...jl,...ilmj->...im", xi[..., None, :, :], evolved))


def rms_error(meter_h: np.ndarray, joint: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Ozawa's root-mean-square error ||M_H - A (x) I||_{rho (x) xi} of the
    Heisenberg meter M_H for A, over the joint state ``joint``."""
    return norm(meter_h - kron(a, np.eye(meter_h.shape[-1] // a.shape[-1])), joint)


class Chain(namedtuple("Chain", "values holds rms_a rms_b eps_a eps_b sigma_a sigma_b bridge_residual_a bridge_residual_b "
                                "dominance_a dominance_b")):
    """The five chain terms ``(..., 5)``, whether each is at least the next
    ``(..., 4)``, and the rms errors, errors, standard deviations, bridge
    residuals and dominance flags of A and B."""


def chain(
    ctx: Context, a: np.ndarray, b: np.ndarray, meter_h: np.ndarray, joint: np.ndarray,
    estimator: np.ndarray, slack: float,
) -> Chain:
    """rms(A)rms(B) >= eps(A)eps(B) >= sqrt(R^2+I^2) >= |I| >= |<[A,B]/2i>|
    - rms(A)sigma(B) - sigma(A)rms(B) on the induced measurement ``ctx``
    of an indirect model with Heisenberg meter ``meter_h`` and joint state
    ``joint``.  Each link holds within slack (1 + |left term|), and rms >=
    eps within slack (1 + rms(A) + rms(B)).  The bridge residual |rms -
    f-error of ``estimator``| (the meter's eigenvalues) ties the rms error
    to the induced measurement."""
    rel = relation(ctx, a, b)
    rms_a, rms_b = rms_error(meter_h, joint, a), rms_error(meter_h, joint, b)
    sigma_a, sigma_b = _spread(rel.transport_a.norm, expect(a, ctx.rho)), _spread(rel.transport_b.norm, expect(b, ctx.rho))
    split_a, split_b = f_error_split(ctx, estimator, (a, rel.transport_a), (b, rel.transport_b))
    values = np.stack([
        rms_a * rms_b,
        rel.eps_a * rel.eps_b,
        rel.bound,
        np.abs(rel.imag_term),
        rel.naive_bound - rms_a * sigma_b - sigma_a * rms_b,
    ], axis=-1)
    holds = values[..., :-1] >= values[..., 1:] - slack * (1.0 + np.abs(values[..., :-1]))
    rms_slack = slack * (1.0 + rms_a + rms_b)
    return Chain(
        values, holds, rms_a, rms_b, rel.eps_a, rel.eps_b, sigma_a, sigma_b,
        np.abs(rms_a - split_a.f_error), np.abs(rms_b - split_b.f_error),
        rms_a >= rel.eps_a - rms_slack,
        rms_b >= rel.eps_b - rms_slack,
    )
