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
is flat.  Numerically each is judged against tau = DEFAULT_TOL.errorless
relative to scale = ||A||_rho.  At distance mu from the projective
measurement of A, eps is O(sqrt(mu)) while the drops of (c) are O(mu) (the
first is eps^2 / (scale + ||f_A||_p)), so (a) is tested as eps^2 <= tau
scale^2: eps <= tau scale failed the rounded projectors of a projective
measurement, whose eps sits near 1e-8 scale.  The residual r of (b) obeys
r^2 = eps^2 - (||f_A||_p^2 - ||roundtrip||_rho^2), so it ranges from about
eps^2/scale to about eps.  Near tau no single threshold makes the three
conditions agree (README, "Errorless conditions").
"""
