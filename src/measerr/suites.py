"""Randomized property suites behind the ``verify`` command.

Each suite sweeps seeded random instances and records how many checks ran,
how many failed, and the worst residual seen.  Instance randomness is
derived per (suite, dim, index), so results are independent of execution
order and stable across runs with the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import errorless_check, f_error
from .generate import GenConfig, random_indirect_model, random_observable, random_povm, random_state
from .indirect import chain_check
from .measurement import contractivity_check, projective_from, trivial_measurement
from .relations import commutator_expectation, evaluate_relation, proof_device_check
from .states import (
    DensityOperator,
    HermitianObservable,
    OutcomeFunction,
    OutcomeSpace,
    ProbabilityDistribution,
    class_mean,
    class_norm,
    expectation,
    spectral_decompose,
    state_inner,
    state_norm,
    std_dev_q,
)
from .transport import LocalContext, adjointness_residual, pushforward, support_restrict, transport
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

    def record(self, ok: bool, residual: float, message: str) -> None:
        """Count one check.  A NaN or infinite residual is a failure whatever
        ``ok`` says, and the first one seen stays the suite's worst."""
        self.checks += 1
        finite = math.isfinite(residual)
        if math.isfinite(self.worst):
            self.worst = max(self.worst, residual) if finite else residual
        if not (ok and finite):
            self.failures += 1
            if len(self.messages) < 5:
                self.messages.append(message)

    def as_dict(self) -> dict:
        return {
            "checks": self.checks,
            "failures": self.failures,
            "worst_residual": self.worst,
            "messages": list(self.messages),
        }


def _rng(seed: int, suite: str, *parts: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, _SUITE_STREAM[suite], *map(int, parts)])


def _instance(dim: int, rng: np.random.Generator):
    outcomes = int(rng.integers(2, 7))
    mixedness = "pure" if rng.random() < 0.3 else "ginibre"
    cfg = GenConfig(seed=0, dim=dim, outcomes=outcomes, mixedness=mixedness)
    povm = random_povm(cfg, rng)
    rho = random_state(cfg, rng)
    a = random_observable(cfg, rng)
    b = random_observable(cfg, rng)
    return LocalContext(povm, rho), a, b


def _random_function(space: OutcomeSpace, rng: np.random.Generator) -> OutcomeFunction:
    return OutcomeFunction(space, rng.uniform(-2.0, 2.0, space.size))


def suite_affineness(dims, n, seed, tol: Tolerances = DEFAULT_TOL) -> SuiteResult:
    """Measurements respect probabilistic mixtures of states exactly."""
    out = SuiteResult("affineness")
    for dim in dims:
        for i in range(n):
            rng = _rng(seed, out.name, dim, i)
            cfg = GenConfig(seed=0, dim=dim, outcomes=int(rng.integers(2, 7)))
            povm = random_povm(cfg, rng)
            rho1 = random_state(cfg, rng)
            rho2 = random_state(GenConfig(seed=0, dim=dim, mixedness="pure"), rng)
            lam = float(rng.uniform())
            mixed = DensityOperator(lam * rho1.matrix + (1.0 - lam) * rho2.matrix)
            direct = povm.apply(mixed).weights
            combined = lam * povm.apply(rho1).weights + (1.0 - lam) * povm.apply(rho2).weights
            residual = float(np.max(np.abs(direct - combined)))
            out.record(
                residual <= tol.validation,
                residual,
                f"affineness broke at dim={dim} i={i}: {residual:.3e}",
            )
    return out


def suite_adjoint_characterization(dims, n, seed, tol: Tolerances = DEFAULT_TOL) -> SuiteResult:
    """<M'f>_rho = <f>_{M rho}, and the projective measurement of A together
    with the identity estimator reconstructs A."""
    out = SuiteResult("adjoint-characterization")
    for dim in dims:
        for i in range(n):
            rng = _rng(seed, out.name, dim, i)
            ctx, a, _ = _instance(dim, rng)
            f = _random_function(ctx.space, rng)
            lhs = expectation(ctx.povm.adjoint(f), ctx.rho)
            rhs = class_mean(f, ctx.prob)
            residual = abs(lhs - rhs)
            out.record(
                residual <= tol.expectation * (1.0 + abs(rhs)),
                residual,
                f"adjoint identity broke at dim={dim} i={i}: {residual:.3e}",
            )
            projective = projective_from(a)
            rebuilt = projective.adjoint(OutcomeFunction.identity(projective.space))
            residual = float(np.max(np.abs(rebuilt.matrix - a.matrix)))
            scale = float(np.max(np.abs(a.matrix)))
            out.record(
                residual <= tol.identity * (1.0 + scale),
                residual,
                f"projective reconstruction broke at dim={dim} i={i}: {residual:.3e}",
            )
    return out


def suite_contractivity(dims, n, seed, tol: Tolerances = DEFAULT_TOL) -> SuiteResult:
    """Classical norm dominates the adjoint's state norm, and the operator
    gap M'(f^2) - (M'f)^2 stays positive semidefinite."""
    out = SuiteResult("contractivity")
    for dim in dims:
        for i in range(n):
            rng = _rng(seed, out.name, dim, i)
            ctx, _, _ = _instance(dim, rng)
            f = _random_function(ctx.space, rng)
            report = contractivity_check(ctx.povm, f, ctx.rho)
            gap = report.adjoint_norm - report.classical_norm
            out.record(
                gap <= tol.identity * (1.0 + report.classical_norm),
                max(gap, 0.0),
                f"norm contraction broke at dim={dim} i={i}: gap {gap:.3e}",
            )
            out.record(
                report.gap_min_eigenvalue >= -tol.identity,
                max(-report.gap_min_eigenvalue, 0.0),
                f"operator gap not PSD at dim={dim} i={i}: {report.gap_min_eigenvalue:.3e}",
            )
    return out


def suite_transport_adjointness(dims, n, seed, tol: Tolerances = DEFAULT_TOL) -> SuiteResult:
    """The pushforward is the adjoint of the pullback, preserves expectation
    values, contracts twice, and is linear."""
    out = SuiteResult("transport-adjointness")
    for dim in dims:
        for i in range(n):
            rng = _rng(seed, out.name, dim, i)
            ctx, a, b = _instance(dim, rng)
            f = _random_function(ctx.space, rng)

            t = transport(ctx, a)
            residual = adjointness_residual(ctx, t, f)
            scale = 1.0 + state_norm(a, ctx.rho) * class_norm(f, ctx.prob)
            out.record(
                residual <= tol.identity * scale,
                residual,
                f"adjointness broke at dim={dim} i={i}: {residual:.3e}",
            )

            fwd = t.pushforward
            drift = abs(class_mean(fwd, ctx.prob) - expectation(a, ctx.rho))
            out.record(
                drift <= tol.expectation * (1.0 + abs(expectation(a, ctx.rho))),
                drift,
                f"expectation not preserved at dim={dim} i={i}: {drift:.3e}",
            )

            norm_a = state_norm(a, ctx.rho)
            norm_fwd = class_norm(fwd, ctx.prob)
            norm_back = state_norm(t.roundtrip, ctx.rho)
            slack = tol.identity * (1.0 + norm_a)
            chain_ok = norm_a >= norm_fwd - slack and norm_fwd >= norm_back - slack
            out.record(
                chain_ok,
                max(norm_fwd - norm_a, norm_back - norm_fwd, 0.0),
                f"double contraction broke at dim={dim} i={i}",
            )

            alpha, beta = rng.uniform(-2.0, 2.0, 2)
            lin = pushforward(ctx, float(alpha) * a + float(beta) * b)
            combo = float(alpha) * fwd + float(beta) * pushforward(ctx, b)
            residual = float(np.max(np.abs(lin.values - combo.values)))
            lin_scale = 1.0 + float(np.max(np.abs(combo.values)))
            out.record(
                residual <= tol.expectation * lin_scale,
                residual,
                f"linearity broke at dim={dim} i={i}: {residual:.3e}",
            )
    return out


def suite_error_decomposition(dims, n, seed, tol: Tolerances = DEFAULT_TOL) -> SuiteResult:
    """Exact split of the f-error, optimality of the pushforward, and the
    quadratic excess law for perturbed estimators."""
    out = SuiteResult("error-decomposition")
    for dim in dims:
        for i in range(n):
            rng = _rng(seed, out.name, dim, i)
            ctx, a, _ = _instance(dim, rng)
            f = _random_function(ctx.space, rng)
            t = transport(ctx, a)
            breakdown = f_error(ctx, t, f)
            residual = abs(
                breakdown.f_error**2
                - breakdown.quantum_error**2
                - breakdown.estimation_error**2
            )
            out.record(
                residual <= tol.identity,
                residual,
                f"decomposition broke at dim={dim} i={i}: {residual:.3e}",
            )

            base = breakdown.quantum_error
            shortfall = base - breakdown.f_error
            out.record(
                shortfall <= tol.identity,
                max(shortfall, 0.0),
                f"estimator beat the optimum at dim={dim} i={i}: {shortfall:.3e}",
            )

            delta = _random_function(ctx.space, rng)
            step = float(rng.uniform(-1.0, 1.0))
            perturbed = f_error(ctx, t, t.pushforward + step * delta)
            excess = perturbed.f_error**2 - base**2
            expected = step * step * class_norm(support_restrict(ctx, delta), ctx.prob) ** 2
            residual = abs(excess - expected)
            out.record(
                residual <= tol.identity,
                residual,
                f"quadratic excess law broke at dim={dim} i={i}: {residual:.3e}",
            )
    return out


def suite_relation_and_proof_tie(
    dims, n, seed, tol: Tolerances = DEFAULT_TOL, sign_flip: bool = False
) -> tuple[SuiteResult, SuiteResult]:
    """Main relation sweep plus the proof-tie identities, on the same
    instances: slack of eps_a*eps_b >= sqrt(R^2+I^2), the bound hierarchy,
    the composite-seminorm-equals-error identity, and R+iI against the
    composite cross product.  ``sign_flip`` corrupts I on purpose (see
    ``evaluate_relation``)."""
    relation = SuiteResult("main-relation")
    proof = SuiteResult("proof-tie-identity")
    for dim in dims:
        for i in range(n):
            rng = _rng(seed, "main-relation", dim, i)
            ctx, a, b = _instance(dim, rng)
            report = evaluate_relation(ctx, a, b, sign_flip=sign_flip)
            relation.record(
                report.slack >= -tol.identity * (1.0 + abs(report.eps_a * report.eps_b)),
                max(-report.slack, 0.0),
                f"relation violated at dim={dim} i={i}: slack {report.slack:.3e}",
            )
            relation.record(
                report.bound >= abs(report.imag_term) - 1e-12,
                max(abs(report.imag_term) - report.bound, 0.0),
                f"bound hierarchy broke at dim={dim} i={i}",
            )

            device = proof_device_check(ctx, a, b, report)
            residual = max(device.residual_a, device.residual_b)
            proof.record(
                residual <= tol.identity,
                residual,
                f"seminorm-error identity broke at dim={dim} i={i}: {residual:.3e}",
            )
            proof.record(
                device.cross_residual <= tol.identity,
                device.cross_residual,
                f"cross-product identity broke at dim={dim} i={i}: {device.cross_residual:.3e}",
            )
    return relation, proof


def suite_errorless_equivalence(dims, n, seed, tol: Tolerances = DEFAULT_TOL) -> SuiteResult:
    """Conditions (a), (b), (c) agree on random and constructed-errorless
    instances, and no measurement is errorless for both members of a
    noncommuting pair."""
    out = SuiteResult("errorless-equivalence")
    for dim in dims:
        for i in range(n):
            rng = _rng(seed, out.name, dim, i)
            ctx, a, b = _instance(dim, rng)
            conds_a, conds_b = (errorless_check(ctx, obs) for obs in (a, b))
            for conds in (conds_a, conds_b):
                out.record(
                    conds.cond_a == conds.cond_b == conds.cond_c,
                    0.0 if conds.cond_a == conds.cond_b == conds.cond_c else 1.0,
                    f"conditions disagree at dim={dim} i={i}: {conds}",
                )
            comm = abs(commutator_expectation(a, b, ctx.rho))
            both = conds_a.cond_a and conds_b.cond_a
            out.record(
                not (both and comm > 1e-6),
                comm if both else 0.0,
                f"simultaneous errorless noncommuting pair at dim={dim} i={i}",
            )

            # constructed errorless case: projectively measure a itself
            cfg = GenConfig(seed=0, dim=dim)
            rho = random_state(cfg, rng)
            exact_ctx = LocalContext(projective_from(a), rho)
            shifted = float(rng.uniform(0.5, 2.0)) * a + float(rng.uniform(-1.0, 1.0)) * (
                HermitianObservable.identity(dim)
            )
            for obs in (a, shifted):
                conds = errorless_check(exact_ctx, obs)
                out.record(
                    conds.cond_a and conds.cond_b and conds.cond_c,
                    conds.error,
                    f"constructed errorless case failed at dim={dim} i={i}: {conds}",
                )
            # a and its affine shift commute, so a simultaneous errorless
            # pair here is consistent with the noncommutativity statement
            comm = abs(commutator_expectation(a, shifted, rho))
            out.record(
                comm <= 1e-6,
                comm,
                f"constructed commuting pair has nonzero commutator at dim={dim} i={i}",
            )
    return out


def suite_trivial_reduction(dims, n, seed, tol: Tolerances = DEFAULT_TOL) -> SuiteResult:
    """Non-informative measurements collapse the error to the standard
    deviation and the relation to its standard-deviation form, with the bare
    commutator bound below it."""
    out = SuiteResult("trivial-reduction")
    for dim in dims:
        for i in range(n):
            rng = _rng(seed, out.name, dim, i)
            cfg = GenConfig(seed=0, dim=dim, mixedness="ginibre")
            rho = random_state(cfg, rng)
            a = random_observable(cfg, rng)
            b = random_observable(cfg, rng)
            k = int(rng.integers(1, 5))
            space = OutcomeSpace.from_values(np.arange(k, dtype=float))
            p0 = ProbabilityDistribution(space, rng.dirichlet(np.ones(k)))
            ctx = LocalContext(trivial_measurement(p0, dim), rho)
            report = evaluate_relation(ctx, a, b)

            sigma_a = std_dev_q(a, rho)
            sigma_b = std_dev_q(b, rho)
            residual = max(abs(report.eps_a - sigma_a), abs(report.eps_b - sigma_b))
            out.record(
                residual <= tol.expectation * (1.0 + sigma_a + sigma_b),
                residual,
                f"error != standard deviation at dim={dim} i={i}: {residual:.3e}",
            )

            cov = state_inner(a, b, rho) - expectation(a, rho) * expectation(b, rho)
            comm = commutator_expectation(a, b, rho)
            residual = max(abs(report.real_term - cov), abs(report.imag_term - comm))
            out.record(
                residual <= tol.expectation * (1.0 + abs(cov) + abs(comm)),
                residual,
                f"reduced terms mismatch at dim={dim} i={i}: {residual:.3e}",
            )

            out.record(
                abs(comm) <= report.bound + 1e-12,
                max(abs(comm) - report.bound, 0.0),
                f"commutator bound above the reduced bound at dim={dim} i={i}",
            )
            out.record(
                report.slack >= -tol.identity * (1.0 + report.eps_a * report.eps_b),
                max(-report.slack, 0.0),
                f"reduced relation violated at dim={dim} i={i}: {report.slack:.3e}",
            )
    return out


def suite_ozawa_chain(pairs, n, seed, tol: Tolerances = DEFAULT_TOL) -> SuiteResult:
    """Random indirect models: induced POVM consistency with the joint meter
    statistics, the rms-error bridge identity, per-observable dominance, and
    the full five-term comparison chain."""
    out = SuiteResult("ozawa-chain")
    for dim, ancilla in pairs:
        for i in range(n):
            rng = _rng(seed, out.name, dim, ancilla, i)
            cfg = GenConfig(seed=0, dim=dim, mixedness="ginibre")
            model = random_indirect_model(cfg, rng, ancilla_dim=ancilla)
            rho = random_state(cfg, rng)
            a = random_observable(cfg, rng)
            b = random_observable(cfg, rng)

            report = chain_check(model, rho, a, b, tol=tol)
            meter_projs = [proj for _, proj in spectral_decompose(model.meter)]
            joint = model.interaction @ np.kron(rho.matrix, model.ancilla_state.matrix) @ model.interaction.conj().T
            direct = np.array(
                [
                    np.trace(joint @ np.kron(np.eye(dim), proj.matrix)).real
                    for proj in meter_projs
                ]
            )
            residual = float(np.max(np.abs(report.distribution.weights - direct)))
            out.record(
                residual <= tol.expectation,
                residual,
                f"induced distribution mismatch at dim={dim}x{ancilla} i={i}: {residual:.3e}",
            )

            residual = max(report.bridge_residual_a, report.bridge_residual_b)
            out.record(
                residual <= tol.identity * (1.0 + report.rms_a + report.rms_b),
                residual,
                f"bridge identity broke at dim={dim}x{ancilla} i={i}: {residual:.3e}",
            )
            out.record(
                report.dominance_a and report.dominance_b,
                max(report.eps_a - report.rms_a, report.eps_b - report.rms_b, 0.0),
                f"rms error below intrinsic error at dim={dim}x{ancilla} i={i}",
            )
            values = report.values
            out.record(
                report.all_hold,
                max(
                    (rhs - lhs for lhs, rhs, ok in zip(values, values[1:], report.holds) if not ok),
                    default=0.0,
                ),
                f"chain broke at dim={dim}x{ancilla} i={i}: {values}",
            )
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
