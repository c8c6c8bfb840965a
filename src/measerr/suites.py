"""Randomized property suites behind the ``verify`` command.

Each suite sweeps seeded random instances and records how many checks ran,
how many failed, and the worst residual seen.

The suites work on stacks: the instances of one dimension (of one
(dimension, ancilla) pair for ``ozawa-chain``) are taken in blocks of at
most ``_BLOCK``, and the whole block is drawn, built and checked with the
stacked formulas of ``kernels``.  A block draws each of its arrays for all
its instances by one numpy call on a stream of its own,
``default_rng([seed % 2**63, stream, *key, block, j])``, j the array's
place in the draw order (``_sweep``).  numpy fills an array row by row, so
instance i is row i % ``_BLOCK`` of its block's streams whatever ``--n``
is: results are independent of ``--n`` and of execution order, and an
instance can be drawn again from (key, index, seed) alone.  The drawn
states, observables, unitaries and POVMs, the measurements built from them
and their Born weights (``kernels.born`` clips them) are valid by
construction and are not validated again (``povm_effects`` guards its own
whitening).  The verify suites share one stream id, ``_VERIFY_STREAM``,
and one instance layout: ``_draw_block`` draws each (dimension, block)
once, ``_run`` derives its context, relation and spectral decomposition
once, and the checks function of each result, its ``_SUITES`` entry,
reads them from that block.  ``suite_ozawa_chain``, keyed by (dimension,
ancilla) pairs, sweeps its own models on ``_CHAIN_STREAM``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import count

import numpy as np

from . import kernels
from .generate import diagonal_meter, gaussians, ginibre_states, haar_unitaries, povm_effects
from .indirect import chain_check
from .measurement import trivial_measurement
from .states import pure_states
from .tolerances import DEFAULT_TOL

# The stream ids of the verify layout and of the chain models, the second word of every stream key.
_VERIFY_STREAM, _CHAIN_STREAM = 0, 9


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: int = 0
    worst: float = 0.0
    messages: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record_block(self, dim, block: range, checks) -> None:
        """Count the checks of the instances ``block`` of dimension ``dim`` (a
        number, or a label such as "3x2"), instance by instance and, within
        an instance, in the order of ``checks``.  A check is (what, residual,
        slack[, detail]), residual and slack arrays over the block or one
        value for all.  It passes where its residual is finite and at most its
        slack or, for a boolean slack (a kernel's verdict), true.  The worst
        residual is the largest seen or the first NaN or infinite one, which
        then stays; it starts at 0.0, so a negative residual (a check met with
        room) needs no clamp.  The first five failures read "<what> at
        dim=<dim> i=<index>: <detail>", detail the residual as ``.3e``,
        ``detail(i)`` when given (i indexes the block), or nothing after the
        index when it is ``None``."""
        shape = (len(block), len(checks))
        residual, verdict = np.empty(shape), np.empty(shape, dtype=bool)
        for k, (_, r, slack, *_) in enumerate(checks):
            residual[:, k], slack = r, np.asarray(slack)
            verdict[:, k] = slack if slack.dtype == bool else residual[:, k] <= slack
        finite = np.isfinite(residual)
        failed = np.flatnonzero(~(finite & verdict))
        self.checks += residual.size
        self.failures += len(failed)
        if math.isfinite(self.worst):
            self.worst = max(self.worst, float(residual.max())) if finite.all() else float(residual[~finite][0])
        for i, k in zip(*np.divmod(failed[: 5 - len(self.messages)], len(checks))):
            what, _, _, *detail = checks[k]
            detail = detail[0] if detail else lambda i: f"{residual[i, k]:.3e}"
            text = f"{what} at dim={dim} i={block[i]}"
            self.messages.append(f"{text}: {detail(int(i))}" if detail else text)

    def as_dict(self) -> dict:
        return {
            "checks": self.checks,
            "failures": self.failures,
            "worst_residual": self.worst,
            "messages": list(self.messages),
        }


# Largest number of instances checked as one stack, and drawn from one stream per array.
_BLOCK = 128


def _streams(*key: int):
    """The generators ``default_rng([*key, j])`` for j = 0, 1, ...: one per
    array of a block, in draw order."""
    return (np.random.default_rng([*key, j]) for j in count())


def _sweep(seed: int, stream: int, keys, n: int):
    """(key, block, streams) for every key (a dim, or a (dim, ancilla) pair),
    with its n instance indices in consecutive blocks of at most ``_BLOCK``,
    so the stacked arrays of a sweep stay small whatever n is.  Block
    lo // ``_BLOCK`` of a key draws its j-th array from
    ``default_rng([seed % 2**63, stream, *key, lo // _BLOCK, j])``."""
    for key in keys:
        for lo in range(0, n, _BLOCK):
            streams = _streams(seed % 2**63, stream, *np.ravel(key).tolist(), lo // _BLOCK)
            yield key, range(lo, min(lo + _BLOCK, n)), streams


# Most outcomes of a verify POVM, and of the trivial measurement.
_OUTCOMES, _WEIGHTS = 6, 4

# The uniforms of a verify block in draw order, each (name, (lo, hi),
# per_outcome): one number per instance, or ``_OUTCOMES``.
_UNIFORMS = (("f", (-2.0, 2.0), True), ("alpha", (-2.0, 2.0), False), ("beta", (-2.0, 2.0), False),
             ("delta", (-2.0, 2.0), True), ("step", (-1.0, 1.0), False), ("lam", (0.0, 1.0), False),
             ("scale", (0.5, 2.0), False), ("shift", (-1.0, 1.0), False))


def _draw_block(streams, m: int, dim: int) -> dict:
    """The columns of a block of m verify instances, which every verify
    suite reads.  Each array is drawn for all of them by one call on the
    next of ``streams``, in this order: the POVM's outcome counts
    ``integers(2, _OUTCOMES + 1)`` and its ``_OUTCOMES`` factors, the
    pure-state coins ``random() < 0.3``, the Gaussians of "rho", "a", "b",
    "rho2" and "ket", the uniforms of ``_UNIFORMS``, then the trivial
    measurement's weights "p0": counts ``integers(1, _WEIGHTS + 1)`` and
    ``_WEIGHTS`` standard exponentials, each row times the reciprocal of its
    sum.  Factors, uniforms and weights past an instance's count are zero.
    "rho" is a normalized Ginibre matrix or, on a pure row, the projector of
    its draw's first row, "rho2" always a Ginibre state, "ket" a pure one,
    and "a" and "b" the Hermitian parts of their draws.  The factors are
    whitened (a block whose factors do not whiten raises, ``povm_effects``)."""
    padding = np.arange(_OUTCOMES) >= next(streams).integers(2, _OUTCOMES + 1, m)[:, None]
    factors = gaussians(next(streams), m, _OUTCOMES, dim, dim)
    factors[padding] = 0.0
    cols = {"povm": povm_effects(factors)}
    pure = next(streams).random(m) < 0.3
    z = gaussians(next(streams), m, dim, dim)
    cols["rho"] = ginibre_states(z)
    cols["rho"][pure] = pure_states(z[pure, 0])
    for name in ("a", "b"):
        cols[name] = kernels.hermitian_part(gaussians(next(streams), m, dim, dim))
    cols["rho2"] = ginibre_states(gaussians(next(streams), m, dim, dim))
    cols["ket"] = pure_states(gaussians(next(streams), m, dim))
    for name, (lo, hi), per in _UNIFORMS:
        cols[name] = next(streams).uniform(lo, hi, (m, _OUTCOMES) if per else m)
        if per:
            cols[name][padding] = 0.0
    padding = np.arange(_WEIGHTS) >= next(streams).integers(1, _WEIGHTS + 1, m)[:, None]
    weights = next(streams).standard_exponential((m, _WEIGHTS))
    weights[padding] = 0.0
    cols["p0"] = weights * (1.0 / weights.sum(axis=1))[:, None]
    return cols


def _max_abs(x: np.ndarray) -> np.ndarray:
    return np.abs(x).max(axis=tuple(range(1, x.ndim)))


def _affineness(cols, slack) -> list:
    """Measurements respect probabilistic mixtures of states exactly: of a
    Ginibre state and a pure one."""
    effects, rho, ket, lam = cols["povm"], cols["rho2"], cols["ket"], cols["lam"]
    mixed = lam[:, None, None] * rho + (1.0 - lam[:, None, None]) * ket
    direct, p1, p2 = kernels.born(effects, mixed), kernels.born(effects, rho), kernels.born(effects, ket)
    residual = _max_abs(direct - (lam[:, None] * p1 + (1.0 - lam[:, None]) * p2))
    return [("affineness broke", residual, DEFAULT_TOL.validation)]


def _adjoint_characterization(cols, slack) -> list:
    """<M'f>_rho = <f>_{M rho}, and the projective measurement of A together
    with the identity estimator reconstructs A."""
    a, f, ctx = cols["a"], cols["f"], cols["ctx"]
    rhs = kernels.dot(f, ctx.weights)
    identity = np.abs(kernels.expect(kernels.adjoint(ctx.effects, f), ctx.rho) - rhs)
    values, projectors = cols["spectral"]
    rebuilt = _max_abs(kernels.adjoint(projectors, values) - a)
    return [
        ("adjoint identity broke", identity, DEFAULT_TOL.expectation * (1.0 + np.abs(rhs))),
        ("projective reconstruction broke", rebuilt, slack * (1.0 + _max_abs(a))),
    ]


def _contractivity(cols, slack) -> list:
    """Classical norm dominates the adjoint's state norm, and the operator
    gap M'(f^2) - (M'f)^2 stays positive semidefinite."""
    classical, adjoint_norm, gap_min = kernels.contractivity(cols["ctx"], cols["f"])
    gap = adjoint_norm - classical
    return [
        ("norm contraction broke", gap, slack * (1.0 + classical), lambda i: f"gap {gap[i]:.3e}"),
        ("operator gap not PSD", -gap_min, slack, lambda i: f"{gap_min[i]:.3e}"),
    ]


def _transport_adjointness(cols, slack) -> list:
    """The pushforward is the adjoint of the pullback, preserves expectation
    values, contracts twice, and is linear."""
    a, b, f, ctx = cols["a"], cols["b"], cols["f"], cols["ctx"]
    t, t_b = cols["rel"].transport_a, cols["rel"].transport_b
    adjointness = kernels.adjointness(ctx, a, t.pushforward, f)

    mean_a = kernels.expect(a, ctx.rho)
    drift = np.abs(kernels.dot(t.pushforward, ctx.weights) - mean_a)

    norm_fwd = kernels.class_norm(t.pushforward, ctx.weights)
    norm_back = kernels.norm(t.roundtrip, ctx.rho)
    chain = np.maximum(norm_fwd - t.norm, norm_back - norm_fwd)

    alpha, beta = cols["alpha"], cols["beta"]
    lin = kernels.pushforward(ctx, alpha[:, None, None] * a + beta[:, None, None] * b)
    combo = alpha[:, None] * t.pushforward + beta[:, None] * t_b.pushforward
    linearity = _max_abs(lin - combo)
    return [
        ("adjointness broke", adjointness, slack * (1.0 + t.norm * kernels.class_norm(f, ctx.weights))),
        ("expectation not preserved", drift, DEFAULT_TOL.expectation * (1.0 + np.abs(mean_a))),
        ("double contraction broke", chain, slack * (1.0 + t.norm), None),
        ("linearity broke", linearity, DEFAULT_TOL.expectation * (1.0 + _max_abs(combo))),
    ]


def _error_decomposition(cols, slack) -> list:
    """Exact split of the f-error, optimality of the pushforward, and the
    quadratic excess law for perturbed estimators."""
    a, ctx, t = cols["a"], cols["ctx"], cols["rel"].transport_a
    [split] = kernels.f_error_split(ctx, cols["f"], (a, t))

    delta, step = cols["delta"], cols["step"]
    [perturbed] = kernels.f_error_split(ctx, t.pushforward + step[:, None] * delta, (a, t))
    expected = step * step * kernels.class_norm(kernels.restrict(ctx, delta), ctx.weights) ** 2
    excess_law = np.abs(perturbed.f_error**2 - split.quantum_error**2 - expected)
    return [
        ("decomposition broke", kernels.split_residual(*split), slack),
        ("estimator beat the optimum", split.quantum_error - split.f_error, slack),
        ("quadratic excess law broke", excess_law, slack),
    ]


def _main_relation(cols, slack) -> list:
    """Slack of eps_a*eps_b >= sqrt(R^2+I^2), and the bound hierarchy."""
    rel = cols["rel"]
    return [
        ("relation violated", -rel.slack, kernels.relation_allowance(rel, slack), lambda i: f"slack {rel.slack[i]:.3e}"),
        ("bound hierarchy broke", np.abs(rel.imag_term) - rel.bound, 1e-12, None),
    ]


def _proof_tie(cols, slack) -> list:
    """The Gram matrix G of the composite vectors of A and B
    (``kernels.gram``) against the relation's values: sqrt(G_AA) and
    sqrt(G_BB) against the errors, G_AB against R + iI."""
    rel = cols["rel"]
    g = kernels.gram(cols["ctx"], (cols["a"], rel.transport_a), (cols["b"], rel.transport_b))
    seminorm_a, seminorm_b = (np.sqrt(np.maximum(g[:, i, i].real, 0.0)) for i in (0, 1))
    seminorm_residual = np.maximum(np.abs(seminorm_a - rel.eps_a), np.abs(seminorm_b - rel.eps_b))
    return [
        ("seminorm-error identity broke", seminorm_residual, slack),
        ("cross-product identity broke", np.abs(g[:, 0, 1] - (rel.real_term + 1j * rel.imag_term)), slack),
    ]


def _row(record, i) -> str:
    """Instance ``i`` of a stacked record: its fields as Python scalars."""
    return ", ".join(f"{name}={np.asarray(value)[i].item()!r}" for name, value in zip(record._fields, record))


# Roundoff allowed to the exact errorless bound's violation, relative to ||A||_rho^2.
_BOUND_ROUNDOFF = 1e-14


def _bound(e: kernels.Errorless) -> tuple:
    """The check that the exact bound r^2 <= eps^2 <= r (2m + r) holds up to roundoff."""
    return "errorless bound broke", e.violation, _BOUND_ROUNDOFF * e.scale**2, partial(_row, e)


def _errorless(e: kernels.Errorless) -> tuple:
    """The check that a constructed errorless case is errorless and meets the bound."""
    _, violation, roundoff, detail = _bound(e)
    return "constructed errorless case failed", e.error, e.errorless & (violation <= roundoff), detail


def _errorless_equivalence(cols, slack) -> list:
    """The exact errorless bound holds on random and constructed-errorless
    instances, and no measurement is errorless for both members of a pair
    whose |<[A,B]/2i>_rho| (the relation's ``naive_bound``) exceeds 1e-6."""
    a, ctx, rel = cols["a"], cols["ctx"], cols["rel"]
    conds_a, conds_b = kernels.errorless(ctx, a, rel.transport_a), kernels.errorless(ctx, cols["b"], rel.transport_b)
    both = conds_a.errorless & conds_b.errorless

    # constructed errorless case: projectively measure a itself
    rho = cols["rho2"]
    exact = kernels.context(cols["spectral"][1], rho)
    scale, shift = (cols[key][:, None, None] for key in ("scale", "shift"))
    shifted = scale * a + shift * np.eye(a.shape[-1], dtype=complex)
    exact_a, exact_shifted = (kernels.errorless(exact, x, kernels.transport(exact, x)) for x in (a, shifted))
    # a and its affine shift commute, so a simultaneous errorless
    # pair here is consistent with the noncommutativity statement
    shifted_comm = np.abs(kernels.comm(a, shifted, rho))

    return [
        _bound(conds_a),
        _bound(conds_b),
        ("simultaneous errorless noncommuting pair", np.where(both, rel.naive_bound, 0.0), 1e-6, None),
        _errorless(exact_a),
        _errorless(exact_shifted),
        ("constructed commuting pair has nonzero commutator", shifted_comm, 1e-6, None),
    ]


def _trivial_reduction(cols, slack) -> list:
    """Non-informative measurements collapse the error to the standard
    deviation and the relation to its standard-deviation form, with the bare
    commutator bound below it, at Ginibre states."""
    rho = cols["rho2"]
    ctx = kernels.context(trivial_measurement(cols["p0"], rho.shape[-1]), rho)
    rel, red = kernels.schroedinger(ctx, cols["a"], cols["b"])
    terms = np.maximum(np.abs(rel.real_term - red.covariance), np.abs(rel.imag_term - red.commutator))
    terms = np.maximum(terms, np.abs(rel.bound - red.bound))
    return [
        ("error != standard deviation", np.maximum(red.eps_sigma_residual_a, red.eps_sigma_residual_b),
         DEFAULT_TOL.expectation * (1.0 + red.sigma_a + red.sigma_b)),
        ("reduced terms mismatch", terms, DEFAULT_TOL.expectation * (1.0 + np.abs(red.covariance) + red.kr_bound)),
        ("commutator bound above the reduced bound", red.kr_bound - rel.bound, 1e-12, None),
        ("reduced relation violated", -rel.slack, kernels.relation_allowance(rel, slack),
         lambda i: f"{rel.slack[i]:.3e}"),
    ]


# The verify suites in report order, one per result, keyed by its name:
# ``checks(cols, slack)`` returns the checks of a block's columns ``cols``
# (``_draw_block``) and the values ``_run`` derives from them.
_SUITES = {
    "affineness": _affineness,
    "adjoint-characterization": _adjoint_characterization,
    "contractivity": _contractivity,
    "transport-adjointness": _transport_adjointness,
    "error-decomposition": _error_decomposition,
    "main-relation": _main_relation,
    "proof-tie-identity": _proof_tie,
    "errorless-equivalence": _errorless_equivalence,
    "trivial-reduction": _trivial_reduction,
}


def _run(entries: dict, dims, n: int, seed: int, slack: float, sign_flip: bool) -> list[SuiteResult]:
    """The results of the suites ``entries`` (entries of ``_SUITES``), in
    entry order: each block is swept and drawn once, its POVM pinned to its
    "rho" as "ctx", the relation of "a" and "b" on it as "rel" and
    ``kernels.spectral`` of "a" as "spectral", and checked by every entry.
    ``sign_flip`` corrupts I of "rel" on purpose (``kernels.relation``), not
    the shared transports."""
    results = {name: SuiteResult(name) for name in entries}
    for dim, block, streams in _sweep(seed, _VERIFY_STREAM, dims, n):
        cols = _draw_block(streams, len(block), dim)
        ctx = cols["ctx"] = kernels.context(cols["povm"], cols["rho"])
        cols["rel"] = kernels.relation(ctx, cols["a"], cols["b"], sign_flip=sign_flip)
        cols["spectral"] = kernels.spectral(cols["a"])
        for name, checks in entries.items():
            results[name].record_block(dim, block, checks(cols, slack))
    return list(results.values())


def _chain_models(streams, m: int, dim: int, ancilla: int) -> tuple:
    """The ancilla states, interactions, Ginibre states and observables A and
    B of m models, each array drawn for all of them by one call on the next
    of ``streams``: the ancilla ket, the interaction's factor, the state, A,
    then B."""
    ket, u, rho, a, b = (gaussians(next(streams), m, *shape)
                         for shape in ((ancilla,), (dim * ancilla,) * 2, (dim, dim), (dim, dim), (dim, dim)))
    return pure_states(ket), haar_unitaries(u), ginibre_states(rho), kernels.hermitian_part(a), kernels.hermitian_part(b)


def suite_ozawa_chain(pairs, n, seed, slack: float = DEFAULT_TOL.identity) -> SuiteResult:
    """Random indirect models: induced POVM consistency with the joint meter
    statistics, the rms-error bridge identity, per-observable dominance, and
    the full five-term comparison chain."""
    out = SuiteResult("ozawa-chain")
    for (dim, ancilla), block, streams in _sweep(seed, _CHAIN_STREAM, pairs, n):
        meter = diagonal_meter(ancilla)
        xi, u, rho, a, b = _chain_models(streams, len(block), dim, ancilla)
        ctx, c = chain_check(xi, u, meter, rho, a, b, slack)

        # the induced distribution, read off the evolved joint state
        evolved = (u @ kernels.kron(rho, xi) @ u.conj().swapaxes(-1, -2))[:, None]
        direct = kernels.trace_product(evolved, kernels.kron(np.eye(dim), kernels.spectral(meter)[1])).real
        links = np.where(c.holds, 0.0, c.values[:, 1:] - c.values[:, :-1]).max(axis=1)
        out.record_block(f"{dim}x{ancilla}", block, [
            ("induced distribution mismatch", _max_abs(ctx.weights - direct), DEFAULT_TOL.expectation),
            ("bridge identity broke", np.maximum(c.bridge_residual_a, c.bridge_residual_b),
             slack * (1.0 + c.rms_a + c.rms_b)),
            ("rms error below intrinsic error", np.maximum(c.eps_a - c.rms_a, c.eps_b - c.rms_b),
             c.dominance_a & c.dominance_b, None),
            ("chain broke", links, c.holds.all(axis=1), lambda i: f"{tuple(c.values[i].tolist())}"),
        ])
    return out


def run_verify(dims, n: int, seed: int, slack: float = DEFAULT_TOL.identity, sign_flip: bool = False) -> list[SuiteResult]:
    """Run every property suite of ``_SUITES``.  ``slack`` is the slack of
    the derived identities and inequalities (``DEFAULT_TOL.identity`` unless
    the CLI's ``--tolerance`` sets it); every other check keeps its fixed
    slack.  ``sign_flip`` exists for harness self-tests."""
    return _run(_SUITES, dims, n, seed, slack, sign_flip)
