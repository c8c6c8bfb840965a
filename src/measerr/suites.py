"""Randomized property suites behind the ``verify`` command.

Each suite sweeps seeded random instances and records how many checks ran,
how many failed, and the worst residual seen.  Instance randomness is
derived per (suite, dim, index), so results are independent of execution
order and stable across runs with the same seed.

The suites work on stacks: the instances of one dimension (of one
(dimension, ancilla) pair for ``ozawa-chain``) are taken in blocks of at
most ``_BLOCK``; each instance is drawn from its own stream, in index order,
then the whole block is built, validated once and checked with the stacked
formulas of ``kernels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import kernels
from .generate import (
    complex_stack,
    diagonal_meter,
    gaussians,
    ginibre_states,
    haar_unitaries,
    observable_matrices,
    povm_effects,
    state_matrices,
    whitens,
)
from .indirect import check_unitaries
from .measurement import check_effects
from .states import check_observables, check_states, check_weights, pure_states
from .tolerances import DEFAULT_TOL, Tolerances

_SUITE_STREAM = {
    "affineness": 1,
    "adjoint-characterization": 2,
    "contractivity": 3,
    "transport-adjointness": 4,
    "error-decomposition": 5,
    "main-relation": 6,
    "errorless-equivalence": 7,
    "trivial-reduction": 8,
    "ozawa-chain": 9,
}


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

    def record(self, ok: bool, residual: float, message) -> None:
        """Count one check.  A NaN or infinite residual is a failure whatever
        ``ok`` says, and the first one seen stays the suite's worst.
        ``message`` is the failure's text, or a function returning it that
        is called only if the failure is kept."""
        self.checks += 1
        finite = math.isfinite(residual)
        if math.isfinite(self.worst):
            self.worst = max(self.worst, residual) if finite else residual
        if not (ok and finite):
            self.failures += 1
            if len(self.messages) < 5:
                self.messages.append(message() if callable(message) else message)

    def record_block(self, dim, block: range, checks) -> None:
        """Count the checks of the instances ``block`` of dimension ``dim`` (a
        number, or a label such as "3x2") as ``record`` counts them, instance
        by instance and, within an instance, in the order of ``checks``.  A
        check is (ok, residual, what, detail):
        ok and residual are arrays over the block (or one value for all), and
        a failure reads "<what> at dim=<dim> i=<index>", followed by
        ": <detail(i)>" when ``detail`` is given (i indexes the block).  A
        block that passes with finite residuals is counted at once."""
        n = len(block)
        ok = np.stack([np.broadcast_to(c[0], (n,)) for c in checks], axis=1)
        residual = np.stack([np.broadcast_to(np.asarray(c[1], dtype=float), (n,)) for c in checks], axis=1)
        if ok.all() and np.isfinite(residual).all():
            self.checks += ok.size
            if math.isfinite(self.worst):
                self.worst = max(self.worst, float(residual.max()))
            return
        for i in range(n):
            for k, (_, _, what, *detail) in enumerate(checks):
                def message(i=i, what=what, detail=detail):
                    text = f"{what} at dim={dim} i={block[i]}"
                    return f"{text}: {detail[0](i)}" if detail else text

                self.record(bool(ok[i, k]), float(residual[i, k]), message)

    def as_dict(self) -> dict:
        return {
            "checks": self.checks,
            "failures": self.failures,
            "worst_residual": self.worst,
            "messages": list(self.messages),
        }


# Largest number of instances checked as one stack.
_BLOCK = 128


@lru_cache(maxsize=16)
def _seed_words(seed: int) -> tuple[int, ...]:
    """The little-endian 32-bit words of ``seed % 2**63``: two from 2**32 on."""
    low, high = seed % 2**32, seed % 2**63 >> 32
    return (low, high) if high else (low,)


def _rng(seed: int, suite: str, *parts: int) -> np.random.Generator:
    """The stream of one instance: ``default_rng`` keyed by the seed's words,
    the suite's stream id and ``parts`` (each below 2**32), the words numpy
    derives from the list ``[seed % 2**63, stream, *parts]``."""
    return np.random.default_rng(np.array((*_seed_words(seed), _SUITE_STREAM[suite], *parts), dtype=np.uint32))


def _pad(rows) -> np.ndarray:
    """Stack arrays whose first axis (the outcomes) is ragged, zero-padded at the end."""
    out = np.zeros((len(rows), max(len(r) for r in rows)) + rows[0].shape[1:], dtype=rows[0].dtype)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def _sweep(dims, n: int):
    """(dim, block) for every dimension, with its n instance indices in
    consecutive blocks of at most ``_BLOCK``, so the stacked arrays of a
    suite stay small whatever n is."""
    return [(dim, range(lo, min(lo + _BLOCK, n))) for dim in dims for lo in range(0, n, _BLOCK)]


def _draw_block(seed: int, suite: str, dim: int, block: range, draw) -> dict:
    """Draw the instances ``block`` of one (suite, dim) sweep, each from its
    own stream and in index order, as columns: ``draw(rng, dim, retry)``
    returns one instance's raw draws as a dict.  Raw POVM factors under
    "povm" come back as validated effects (zero-padded), and an instance
    whose factors do not whiten is drawn again with ``retry``, so its stream
    runs as ``random_povm`` would run it."""
    rows = [draw(_rng(seed, suite, dim, i), dim, False) for i in block]
    cols = {key: [row[key] for row in rows] for key in rows[0]}
    if "povm" in cols:
        effects, ok = povm_effects(complex_stack(_pad(cols["povm"])))
        for k in np.flatnonzero(~ok):
            redrawn = draw(_rng(seed, suite, dim, block[k]), dim, True)
            for key in cols:
                cols[key][k] = redrawn[key]
        if not ok.all():
            effects, _ = povm_effects(complex_stack(_pad(cols["povm"])))
        check_effects(effects)
        cols["povm"] = effects
    return cols


def _draw_instance(rng: np.random.Generator, dim: int, retry: bool, with_f: bool = False, **more) -> dict:
    """A random POVM of 2..6 outcomes, a pure (30%) or Ginibre state, two
    observables, the complex Gaussian arrays of the raw shapes ``more`` (by
    name) and, ``with_f``, an outcome function uniform in [-2, 2)."""
    outcomes = int(rng.integers(2, 7))
    pure = bool(rng.random() < 0.3)
    shapes = {"povm": (outcomes, 2, dim, dim), "rho": (2, dim) if pure else (2, dim, dim)}
    shapes.update(a=(2, dim, dim), b=(2, dim, dim), **more)
    inst = dict(zip(shapes, gaussians(rng, *shapes.values(), accept=whitens if retry else None)))
    inst["pure"] = pure
    if with_f:
        inst["f"] = rng.uniform(-2.0, 2.0, outcomes)
    return inst


def _states(draws, pure) -> np.ndarray:
    return check_states(state_matrices(draws, pure))


def _observables(raws) -> np.ndarray:
    mat = observable_matrices(complex_stack(raws))
    check_observables(mat)
    return mat


def _context(effects: np.ndarray, rho: np.ndarray) -> kernels.Context:
    return kernels.context(effects, rho, check_weights(kernels.born(effects, rho)))


def _instances(cols: dict) -> tuple[kernels.Context, np.ndarray, np.ndarray]:
    """The context and the two observables of ``_draw_instance`` columns."""
    ctx = _context(cols["povm"], _states(cols["rho"], cols["pure"]))
    return ctx, _observables(cols["a"]), _observables(cols["b"])


def _projective(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projective measurements of a stack of observables (``projective_from``):
    outcome values and validated effects, both zero-padded."""
    values, effects = kernels.spectral(a)
    check_effects(effects)
    return values, effects


def _max_abs(x: np.ndarray) -> np.ndarray:
    return np.abs(x).max(axis=tuple(range(1, x.ndim)))


def _draw_affineness(rng, dim, retry):
    outcomes = int(rng.integers(2, 7))
    shapes = (outcomes, 2, dim, dim), (2, dim, dim), (2, dim)
    povm, rho1, rho2 = gaussians(rng, *shapes, accept=whitens if retry else None)
    return {"povm": povm, "rho1": rho1, "rho2": rho2, "lam": rng.uniform()}


def suite_affineness(dims, n, seed, tol: Tolerances = DEFAULT_TOL) -> SuiteResult:
    """Measurements respect probabilistic mixtures of states exactly."""
    out = SuiteResult("affineness")
    for dim, block in _sweep(dims, n):
        cols = _draw_block(seed, out.name, dim, block, _draw_affineness)
        effects = cols["povm"]
        rho1, rho2 = _states(cols["rho1"], False), _states(cols["rho2"], True)
        lam = np.array(cols["lam"])
        mixed = check_states(lam[:, None, None] * rho1 + (1.0 - lam[:, None, None]) * rho2)
        direct = check_weights(kernels.born(effects, mixed))
        p1, p2 = check_weights(kernels.born(effects, rho1)), check_weights(kernels.born(effects, rho2))
        residual = _max_abs(direct - (lam[:, None] * p1 + (1.0 - lam[:, None]) * p2))
        out.record_block(dim, block, [
            (residual <= tol.validation, residual,
             "affineness broke", lambda i: f"{residual[i]:.3e}"),
        ])
    return out


def suite_adjoint_characterization(dims, n, seed, tol: Tolerances = DEFAULT_TOL) -> SuiteResult:
    """<M'f>_rho = <f>_{M rho}, and the projective measurement of A together
    with the identity estimator reconstructs A."""
    out = SuiteResult("adjoint-characterization")
    for dim, block in _sweep(dims, n):
        cols = _draw_block(seed, out.name, dim, block, partial(_draw_instance, with_f=True))
        ctx, a, _ = _instances(cols)
        f = _pad(cols["f"])
        rhs = kernels.dot(f, ctx.weights)
        identity = np.abs(kernels.expect(kernels.adjoint(ctx.effects, f), ctx.rho) - rhs)
        values, projectors = _projective(a)
        rebuilt = _max_abs(kernels.adjoint(projectors, values) - a)
        out.record_block(dim, block, [
            (identity <= tol.expectation * (1.0 + np.abs(rhs)), identity,
             "adjoint identity broke", lambda i: f"{identity[i]:.3e}"),
            (rebuilt <= tol.identity * (1.0 + _max_abs(a)), rebuilt,
             "projective reconstruction broke", lambda i: f"{rebuilt[i]:.3e}"),
        ])
    return out


def suite_contractivity(dims, n, seed, tol: Tolerances = DEFAULT_TOL) -> SuiteResult:
    """Classical norm dominates the adjoint's state norm, and the operator
    gap M'(f^2) - (M'f)^2 stays positive semidefinite."""
    out = SuiteResult("contractivity")
    for dim, block in _sweep(dims, n):
        cols = _draw_block(seed, out.name, dim, block, partial(_draw_instance, with_f=True))
        ctx, _, _ = _instances(cols)
        classical, adjoint_norm, gap_min = kernels.contractivity(ctx, _pad(cols["f"]))
        gap = adjoint_norm - classical
        out.record_block(dim, block, [
            (gap <= tol.identity * (1.0 + classical), np.maximum(gap, 0.0),
             "norm contraction broke", lambda i: f"gap {gap[i]:.3e}"),
            (gap_min >= -tol.identity, np.maximum(-gap_min, 0.0),
             "operator gap not PSD", lambda i: f"{gap_min[i]:.3e}"),
        ])
    return out


def _draw_transport_adjointness(rng, dim, retry):
    inst = _draw_instance(rng, dim, retry, with_f=True)
    inst["alpha"], inst["beta"] = rng.uniform(-2.0, 2.0, 2)
    return inst


def suite_transport_adjointness(dims, n, seed, tol: Tolerances = DEFAULT_TOL) -> SuiteResult:
    """The pushforward is the adjoint of the pullback, preserves expectation
    values, contracts twice, and is linear."""
    out = SuiteResult("transport-adjointness")
    for dim, block in _sweep(dims, n):
        cols = _draw_block(seed, out.name, dim, block, _draw_transport_adjointness)
        ctx, a, b = _instances(cols)
        f = _pad(cols["f"])
        t = kernels.transport(ctx, a)
        norm_a = kernels.norm(a, ctx.rho)
        adjointness = kernels.adjointness(ctx, a, t.pushforward, f)
        adjointness_ok = adjointness <= tol.identity * (1.0 + norm_a * kernels.class_norm(f, ctx.weights))

        mean_a = kernels.expect(a, ctx.rho)
        drift = np.abs(kernels.dot(t.pushforward, ctx.weights) - mean_a)

        norm_fwd = kernels.class_norm(t.pushforward, ctx.weights)
        norm_back = kernels.norm(t.roundtrip, ctx.rho)
        slack = tol.identity * (1.0 + norm_a)
        chain_ok = (norm_a >= norm_fwd - slack) & (norm_fwd >= norm_back - slack)
        chain = np.maximum(np.maximum(norm_fwd - norm_a, norm_back - norm_fwd), 0.0)

        alpha, beta = np.array(cols["alpha"]), np.array(cols["beta"])
        lin = kernels.pushforward(ctx, alpha[:, None, None] * a + beta[:, None, None] * b)
        combo = alpha[:, None] * t.pushforward + beta[:, None] * kernels.pushforward(ctx, b)
        linearity = _max_abs(lin - combo)
        out.record_block(dim, block, [
            (adjointness_ok, adjointness,
             "adjointness broke", lambda i: f"{adjointness[i]:.3e}"),
            (drift <= tol.expectation * (1.0 + np.abs(mean_a)), drift,
             "expectation not preserved", lambda i: f"{drift[i]:.3e}"),
            (chain_ok, chain, "double contraction broke"),
            (linearity <= tol.expectation * (1.0 + _max_abs(combo)), linearity,
             "linearity broke", lambda i: f"{linearity[i]:.3e}"),
        ])
    return out


def _draw_error_decomposition(rng, dim, retry):
    inst = _draw_instance(rng, dim, retry, with_f=True)
    inst["delta"] = rng.uniform(-2.0, 2.0, len(inst["f"]))
    inst["step"] = rng.uniform(-1.0, 1.0)
    return inst


def suite_error_decomposition(dims, n, seed, tol: Tolerances = DEFAULT_TOL) -> SuiteResult:
    """Exact split of the f-error, optimality of the pushforward, and the
    quadratic excess law for perturbed estimators."""
    out = SuiteResult("error-decomposition")
    for dim, block in _sweep(dims, n):
        cols = _draw_block(seed, out.name, dim, block, _draw_error_decomposition)
        ctx, a, _ = _instances(cols)
        t = kernels.transport(ctx, a)
        split = kernels.f_error_split(ctx, a, t, _pad(cols["f"]))
        decomposition = kernels.split_residual(*split)
        shortfall = split.quantum_error - split.f_error

        delta, step = _pad(cols["delta"]), np.array(cols["step"])
        perturbed = kernels.f_error_split(ctx, a, t, t.pushforward + step[:, None] * delta)
        expected = step * step * kernels.class_norm(kernels.restrict(ctx, delta), ctx.weights) ** 2
        excess_law = np.abs(perturbed.f_error**2 - split.quantum_error**2 - expected)
        out.record_block(dim, block, [
            (decomposition <= tol.identity, decomposition,
             "decomposition broke", lambda i: f"{decomposition[i]:.3e}"),
            (shortfall <= tol.identity, np.maximum(shortfall, 0.0),
             "estimator beat the optimum", lambda i: f"{shortfall[i]:.3e}"),
            (excess_law <= tol.identity, excess_law,
             "quadratic excess law broke", lambda i: f"{excess_law[i]:.3e}"),
        ])
    return out


def suite_relation_and_proof_tie(
    dims, n, seed, tol: Tolerances = DEFAULT_TOL, sign_flip: bool = False
) -> tuple[SuiteResult, SuiteResult]:
    """Main relation sweep plus the proof-tie identities, on the same
    instances: slack of eps_a*eps_b >= sqrt(R^2+I^2), the bound hierarchy,
    the composite-seminorm-equals-error identity, and R+iI against the
    composite cross product.  ``sign_flip`` corrupts I on purpose (see
    ``kernels.relation``)."""
    relation = SuiteResult("main-relation")
    proof = SuiteResult("proof-tie-identity")
    for dim, block in _sweep(dims, n):
        ctx, a, b = _instances(_draw_block(seed, "main-relation", dim, block, _draw_instance))
        rel = kernels.relation(ctx, a, b, sign_flip=sign_flip)
        hierarchy = np.abs(rel.imag_term)
        relation.record_block(dim, block, [
            (rel.slack >= -tol.identity * (1.0 + np.abs(rel.eps_a * rel.eps_b)), np.maximum(-rel.slack, 0.0),
             "relation violated", lambda i: f"slack {rel.slack[i]:.3e}"),
            (rel.bound >= hierarchy - 1e-12, np.maximum(hierarchy - rel.bound, 0.0),
             "bound hierarchy broke"),
        ])

        device = kernels.proof_device(ctx, a, b, rel)
        seminorm = np.maximum(device.residual_a, device.residual_b)
        cross = device.cross_residual
        proof.record_block(dim, block, [
            (seminorm <= tol.identity, seminorm,
             "seminorm-error identity broke", lambda i: f"{seminorm[i]:.3e}"),
            (cross <= tol.identity, cross,
             "cross-product identity broke", lambda i: f"{cross[i]:.3e}"),
        ])
    return relation, proof


def _draw_errorless_equivalence(rng, dim, retry):
    inst = _draw_instance(rng, dim, retry, rho2=(2, dim, dim))
    inst["scale"] = rng.uniform(0.5, 2.0)
    inst["shift"] = rng.uniform(-1.0, 1.0)
    return inst


def _row(record, i) -> str:
    """Instance ``i`` of a stacked record: its fields as Python scalars."""
    return ", ".join(f"{name}={np.asarray(value)[i].item()!r}" for name, value in zip(record.__slots__, record))


def _agreement(e: kernels.Errorless) -> tuple:
    """The check that conditions (a), (b) and (c) agree."""
    same = (e.cond_a == e.cond_b) & (e.cond_b == e.cond_c)
    return same, np.where(same, 0.0, 1.0), "conditions disagree", partial(_row, e)


def _errorless(e: kernels.Errorless) -> tuple:
    """The check that a constructed errorless case meets all three conditions."""
    ok = e.cond_a & e.cond_b & e.cond_c
    return ok, e.error, "constructed errorless case failed", partial(_row, e)


def suite_errorless_equivalence(dims, n, seed, tol: Tolerances = DEFAULT_TOL) -> SuiteResult:
    """Conditions (a), (b), (c) agree on random and constructed-errorless
    instances, and no measurement is errorless for both members of a
    noncommuting pair."""
    out = SuiteResult("errorless-equivalence")
    for dim, block in _sweep(dims, n):
        cols = _draw_block(seed, out.name, dim, block, _draw_errorless_equivalence)
        ctx, a, b = _instances(cols)
        conds_a, conds_b = kernels.errorless(ctx, a), kernels.errorless(ctx, b)
        comm = np.abs(kernels.comm(a, b, ctx.rho))
        both = conds_a.cond_a & conds_b.cond_a

        # constructed errorless case: projectively measure a itself
        rho = _states(cols["rho2"], False)
        exact = _context(_projective(a)[1], rho)
        scale, shift = (np.array(cols[key])[:, None, None] for key in ("scale", "shift"))
        shifted = scale * a + shift * np.eye(dim, dtype=complex)
        exact_a, exact_shifted = kernels.errorless(exact, a), kernels.errorless(exact, shifted)
        # a and its affine shift commute, so a simultaneous errorless
        # pair here is consistent with the noncommutativity statement
        shifted_comm = np.abs(kernels.comm(a, shifted, rho))

        out.record_block(dim, block, [
            _agreement(conds_a),
            _agreement(conds_b),
            (~(both & (comm > 1e-6)), np.where(both, comm, 0.0),
             "simultaneous errorless noncommuting pair"),
            _errorless(exact_a),
            _errorless(exact_shifted),
            (shifted_comm <= 1e-6, shifted_comm,
             "constructed commuting pair has nonzero commutator"),
        ])
    return out


def _draw_trivial_reduction(rng, dim, retry):
    inst = dict(zip(("rho", "a", "b"), gaussians(rng, *[(2, dim, dim)] * 3)))
    inst["p0"] = rng.dirichlet(np.ones(int(rng.integers(1, 5))))
    return inst


def suite_trivial_reduction(dims, n, seed, tol: Tolerances = DEFAULT_TOL) -> SuiteResult:
    """Non-informative measurements collapse the error to the standard
    deviation and the relation to its standard-deviation form, with the bare
    commutator bound below it."""
    out = SuiteResult("trivial-reduction")
    for dim, block in _sweep(dims, n):
        cols = _draw_block(seed, out.name, dim, block, _draw_trivial_reduction)
        rho = _states(cols["rho"], False)
        a, b = _observables(cols["a"]), _observables(cols["b"])
        effects = check_weights(_pad(cols["p0"]))[:, :, None, None] * np.eye(dim, dtype=complex)
        check_effects(effects)
        rel = kernels.relation(_context(effects, rho), a, b)

        sigma_a, sigma_b = kernels.std_dev(a, rho), kernels.std_dev(b, rho)
        sigma = np.maximum(np.abs(rel.eps_a - sigma_a), np.abs(rel.eps_b - sigma_b))
        cov = kernels.anti(a, b, rho) - kernels.expect(a, rho) * kernels.expect(b, rho)
        comm = kernels.comm(a, b, rho)
        bound_gap = np.abs(rel.bound - np.hypot(cov, comm))
        terms = np.maximum(np.maximum(np.abs(rel.real_term - cov), np.abs(rel.imag_term - comm)), bound_gap)
        out.record_block(dim, block, [
            (sigma <= tol.expectation * (1.0 + sigma_a + sigma_b), sigma,
             "error != standard deviation", lambda i: f"{sigma[i]:.3e}"),
            (terms <= tol.expectation * (1.0 + np.abs(cov) + np.abs(comm)), terms,
             "reduced terms mismatch", lambda i: f"{terms[i]:.3e}"),
            (np.abs(comm) <= rel.bound + 1e-12, np.maximum(np.abs(comm) - rel.bound, 0.0),
             "commutator bound above the reduced bound"),
            (rel.slack >= -tol.identity * (1.0 + rel.eps_a * rel.eps_b), np.maximum(-rel.slack, 0.0),
             "reduced relation violated", lambda i: f"{rel.slack[i]:.3e}"),
        ])
    return out


def _chain_models(seed: int, dim: int, ancilla: int, block: range) -> tuple:
    """The validated ancilla states, interactions, Ginibre states and two
    observables of the random models ``block``, each drawn from its own
    stream in the order of ``random_indirect_model``, ``random_state`` and
    ``random_observable``."""
    joint = dim * ancilla
    shapes = (2, ancilla), (2, joint, joint), (2, dim, dim), (2, dim, dim), (2, dim, dim)
    kets, factors, g, a, b = zip(*(gaussians(_rng(seed, "ozawa-chain", dim, ancilla, i), *shapes) for i in block))
    u = haar_unitaries(complex_stack(factors))
    check_unitaries(u)
    xi = check_states(pure_states(complex_stack(kets, axis=-2)))
    return xi, u, check_states(ginibre_states(complex_stack(g))), _observables(a), _observables(b)


def suite_ozawa_chain(pairs, n, seed, tol: Tolerances = DEFAULT_TOL) -> SuiteResult:
    """Random indirect models: induced POVM consistency with the joint meter
    statistics, the rms-error bridge identity, per-observable dominance, and
    the full five-term comparison chain."""
    out = SuiteResult("ozawa-chain")
    for dim, ancilla in pairs:
        meter = diagonal_meter(ancilla)
        values, projectors = kernels.spectral(meter)
        for _, block in _sweep((dim,), n):
            xi, u, rho, a, b = _chain_models(seed, dim, ancilla, block)
            effects = kernels.induced_effects(u, xi, projectors)
            check_effects(effects)
            ctx = _context(effects, rho)
            joint = kernels.kron(rho, xi)
            c = kernels.chain(ctx, a, b, kernels.heisenberg(u, meter), joint, values, tol.identity)

            # the induced distribution, read off the evolved joint state
            evolved = (u @ joint @ u.conj().swapaxes(-1, -2))[:, None]
            direct = np.trace(evolved @ kernels.kron(np.eye(dim), projectors), axis1=-2, axis2=-1).real
            distribution = _max_abs(ctx.weights - direct)
            bridge = np.maximum(c.bridge_residual_a, c.bridge_residual_b)
            links = np.where(c.holds, 0.0, c.values[:, 1:] - c.values[:, :-1]).max(axis=1)
            out.record_block(f"{dim}x{ancilla}", block, [
                (distribution <= tol.expectation, distribution,
                 "induced distribution mismatch", lambda i: f"{distribution[i]:.3e}"),
                (bridge <= tol.identity * (1.0 + c.rms_a + c.rms_b), bridge,
                 "bridge identity broke", lambda i: f"{bridge[i]:.3e}"),
                (c.dominance_a & c.dominance_b, np.maximum(np.maximum(c.eps_a - c.rms_a, c.eps_b - c.rms_b), 0.0),
                 "rms error below intrinsic error"),
                (c.holds.all(axis=1), links,
                 "chain broke", lambda i: f"{tuple(c.values[i].tolist())}"),
            ])
    return out


def run_verify(
    dims,
    n: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOL,
    sign_flip: bool = False,
) -> list[SuiteResult]:
    """Run every property suite; ``sign_flip`` exists for harness
    self-tests."""
    relation, proof = suite_relation_and_proof_tie(dims, n, seed, tol, sign_flip)
    return [
        suite_affineness(dims, n, seed, tol),
        suite_adjoint_characterization(dims, n, seed, tol),
        suite_contractivity(dims, n, seed, tol),
        suite_transport_adjointness(dims, n, seed, tol),
        suite_error_decomposition(dims, n, seed, tol),
        relation,
        proof,
        suite_errorless_equivalence(dims, n, seed, tol),
        suite_trivial_reduction(dims, n, seed, tol),
    ]
