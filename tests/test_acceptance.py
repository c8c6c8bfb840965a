"""Acceptance gate: every exit criterion at its stated tolerance.

Each criterion prints one pass/fail line (run with -s to watch them live).
The heavy sweeps reuse the suite machinery with per-instance derived seeds,
so the run is deterministic.
"""

import numpy as np
import pytest

import oracles
from instances import mixed, pure
from measerr import (
    PAULI_X as X,
    PAULI_Y as Y,
    PAULI_Z as Z,
    chain_check,
    cnot_model,
    kernels,
    qubit_state,
    trivial_measurement,
    unsharp_qubit,
)
from measerr.cli import main as cli_main
from measerr.suites import _SUITES, _run, suite_ozawa_chain
from measerr.tolerances import DEFAULT_TOL

SEED = 20240811


def run_suites(dims, n, *names):
    """The results of the verify suites ``names`` at ``SEED``, run with their table entries."""
    return _run({name: _SUITES[name] for name in names}, dims, n, SEED, DEFAULT_TOL.identity, False)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d}: {status} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def relation_sweep():
    # 1000 instances per dimension in {2,3,4,5}, shared by criteria 1 and 2
    return run_suites((2, 3, 4, 5), 1000, "main-relation", "proof-tie-identity")


def test_criterion_1_main_relation(relation_sweep):
    relation, _ = relation_sweep
    ok = relation.failures == 0 and relation.checks >= 8000
    report(
        1,
        ok,
        f"main relation on 4000 instances: {relation.failures} violations, "
        f"worst residual {relation.worst:.3e}",
    )


def test_criterion_2_proof_tie_identities(relation_sweep):
    _, proof = relation_sweep
    ok = proof.failures == 0 and proof.worst <= 1e-9
    report(
        2,
        ok,
        f"seminorm and cross-product identities on the same sweep: "
        f"worst residual {proof.worst:.3e}",
    )


def test_criterion_3_decomposition_and_minimality():
    [result] = run_suites((2, 3, 4), 334, "error-decomposition")
    ok = result.failures == 0 and result.checks >= 3000
    report(
        3,
        ok,
        f"error decomposition, minimality, quadratic excess on 1002 instances: "
        f"{result.failures} failures, worst {result.worst:.3e}",
    )


def test_criterion_4_contractivity():
    [result] = run_suites((2, 3, 4, 5), 250, "contractivity")
    ok = result.failures == 0
    report(
        4,
        ok,
        f"norm contraction and operator-gap positivity on 1000 instances: "
        f"{result.failures} failures, worst {result.worst:.3e}",
    )


def test_criterion_5_trivial_reduction():
    [result] = run_suites((2, 3, 4, 5), 50, "trivial-reduction")
    saturation = kernels.schroedinger(kernels.context(trivial_measurement([0.5, 0.5], 2), pure([1, 0])), X, Y)[1]
    saturated = (
        abs(saturation.product - 1.0) <= 1e-10
        and abs(saturation.bound - 1.0) <= 1e-10
        and max(saturation.eps_sigma_residual_a, saturation.eps_sigma_residual_b) <= 1e-10
    )
    ok = result.failures == 0 and saturated
    report(
        5,
        ok,
        f"non-informative reduction on 200 triples (worst {result.worst:.3e}); "
        f"saturation case 1 = 1 within 1e-10: {saturated}",
    )


def test_criterion_6_closed_form_family():
    worst = 0.0
    for eta in [k / 10.0 for k in range(11)]:
        ctx = kernels.context(unsharp_qubit((0, 0, 1), eta), mixed(2))
        measured = kernels.transport(ctx, Z).error
        brute = oracles.unsharp_eps_z(eta)
        closed = float(np.sqrt(1.0 - eta * eta))
        worst = max(worst, abs(measured - brute), abs(measured - closed))
    ok = worst <= 1e-9
    report(6, ok, f"sharpness family error sqrt(1 - eta^2) across the grid, worst {worst:.3e}")


def test_criterion_7_commutator_bound_undercut():
    rel = kernels.relation(kernels.context(kernels.spectral(Z)[1], qubit_state(y=0.8)), X, Z)
    ok = (
        abs(rel.eps_a * rel.eps_b) <= 1e-10
        and abs(rel.bound) <= 1e-10
        and abs(rel.naive_bound - 0.8) <= 1e-10
        and rel.naive_violated
        and rel.slack >= -1e-9
    )
    report(
        7,
        ok,
        f"error product {rel.eps_a * rel.eps_b:.1e}, bound {rel.bound:.1e}, "
        f"commutator bound {rel.naive_bound}: relation holds while the bare bound is undercut",
    )


def test_criterion_8_errorless_equivalence():
    [result] = run_suites((2, 3, 4, 5), 125, "errorless-equivalence")
    ok = result.failures == 0
    report(
        8,
        ok,
        f"errorless bound r^2 <= eps^2 <= r(2m + r) and no simultaneous errorless noncommuting pair "
        f"on 500 random + constructed instances: {result.failures} failures",
    )


def test_criterion_9_ozawa_chain():
    result = suite_ozawa_chain(((2, 2), (3, 2)), 150, SEED)
    _, cnot = chain_check(*cnot_model(), mixed(2), X, Z)
    exact = (
        abs(cnot.rms_a - np.sqrt(2.0)) <= 1e-9
        and abs(cnot.eps_a - 1.0) <= 1e-9
        and abs(cnot.eps_b) <= 1e-9
    )
    ok = result.failures == 0 and exact and cnot.holds.all()
    report(
        9,
        ok,
        f"bridge identity and five-term chain on 300 random models "
        f"(worst {result.worst:.3e}); controlled-flip values sqrt(2), 1, 0: {exact}",
    )


def test_criterion_10_harness_self_test(capsys):
    code = cli_main(
        ["verify", "--dims", "2", "--n", "10", "--seed", "3", "--self-test-sign-flip"]
    )
    err = capsys.readouterr().err
    ok = code == 1 and "proof-tie-identity" in err
    with capsys.disabled():
        report(10, ok, "sign-flipped commutator build detected with exit code 1")
