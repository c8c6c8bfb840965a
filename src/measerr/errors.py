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
