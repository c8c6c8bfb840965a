"""The numerical tolerance constants.

Policy: construction-time validation is absolute and tight (1e-12 scale),
derived identities and inequality slacks are checked at 1e-9 relative to the
magnitudes involved.  The library validates, builds and judges at
``DEFAULT_TOL``, always, with one exception: the code that judges a property
with the ``identity`` slack (``run_verify`` and the suites, ``chain_check``,
and the CLI's scan and its naive-violation and ozawa-chain demos) takes that
slack as one float, ``slack``, which the CLI's ``--tolerance`` sets.  The
kr-reduction demo's checks keep fixed slacks, so it rejects ``--tolerance``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    validation: float = 1e-12       # construction residuals (hermiticity, trace-one)
    psd: float = 1e-10              # how negative an eigenvalue may drift before rejection
    prob_sum: float = 1e-10         # distribution normalization residual
    identity: float = 1e-9          # derived identities and inequality slack
    expectation: float = 1e-10      # adjoint / expectation-preservation identities
    eig_merge: float = 1e-8         # eigenvalue clustering threshold, scaled by max |eig|
    errorless: float = 1e-7         # tau: errorless where eps^2 <= tau ||A||_rho^2 (condition (a)
                                    # only), well above roundoff of that O(||A||_rho^2) cancellation
    support_cutoff: float = 1e-12   # outcome weights at or below this are off-support


DEFAULT_TOL = Tolerances()
