"""Measurement error functionals and the errorless characterization.

The error of a measurement for an observable is the seminorm contraction its
pushforward induces; choosing an explicit estimator f instead gives the
f-error, whose square splits exactly into the squared error plus the squared
classical distance between f and the pushforward.  The pushforward is
therefore the optimal estimator, and the error the minimum over f-errors.
The formulas are ``kernels.transport``, ``kernels.f_error_split`` and
``kernels.errorless``; this module holds only their rationale.

Errorless measurements.  The paper's three equivalent conditions are (a)
eps(A) = 0, (b) the round trip reproduces A and (c) the transport norm chain
||A||_rho >= ||f_A||_p >= m = ||roundtrip||_rho is flat.  With s = ||A||_rho
and r = ||A - roundtrip||_rho, r^2 = eps^2 - (||f_A||_p^2 - m^2) and s <= m +
r give r^2 <= eps^2 <= r (2m + r), and eps^2 and r^2 fix both drops of (c):
each side is zero exactly when the others are, with no threshold.  Only (a)
decides "errorless", as eps^2 <= tau s^2 (tau = DEFAULT_TOL.errorless): eps
is O(sqrt(mu)) at distance mu from the projective measurement of A, whose
rounded projectors give eps near 1e-8 s.
"""
