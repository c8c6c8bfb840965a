"""Independent brute-force routines used to freeze expected test values.

Everything in this module works on raw numpy arrays and deliberately avoids
the package's own code paths, so tests can cross-check results against a
second, dumber route (explicit summation, generic least-squares solves,
joint-system evaluation).
"""

from __future__ import annotations

import itertools

import numpy as np

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# Hand diagonalization of the qubit flip operator: eigenvectors (|0>+-|1>)/sqrt(2).
FLIP_PROJ_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
FLIP_PROJ_MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def trace_expectation(x, rho):
    """Tr[x rho] by explicit index summation."""
    x = np.asarray(x, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    total = 0j
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            total += x[i, j] * rho[j, i]
    return total


def trace_matmul(x, rho):
    """Tr[x rho] by forming the product x @ rho, broadcast over leading axes."""
    return np.trace(np.asarray(x) @ np.asarray(rho), axis1=-2, axis2=-1)


def norm_square_matmul(x, rho):
    """<X^2>_rho as Tr[X X rho] with both products formed, broadcast over leading axes."""
    return trace_matmul(np.asarray(x) @ np.asarray(x), rho).real


def sym_inner(a, b, rho):
    """Symmetrized product expectation <{a,b}/2> over rho."""
    return trace_expectation((a @ b + b @ a) / 2.0, rho).real


def comm_over_2i(a, b, rho):
    """Commutator expectation <[a,b]/2i> over rho."""
    return (trace_expectation(a @ b - b @ a, rho) / 2j).real


def probabilities(effects, rho):
    """Born weights Tr[E rho] for a list of effect matrices."""
    return np.array([trace_expectation(e, rho).real for e in effects])


def pushforward_lstsq(effects, rho, a, cutoff=1e-12, probes=None, seed=0):
    """Pushforward values solved as a generic linear system.

    Uses random probe functions g and the adjointness requirement
    <a, M'g>_rho = sum_w f(w) g(w) p(w), solved by least squares.  This is
    an independent route to the same object the package computes by
    per-outcome division, and pins down the off-support convention (zero).
    """
    p = probabilities(effects, rho)
    support = p > cutoff
    n = len(effects)
    rng = np.random.default_rng(seed)
    probes = probes if probes is not None else 3 * n + 4
    rows, rhs = [], []
    for _ in range(probes):
        g = rng.uniform(-1.0, 1.0, n)
        adj = adjoint_brute(effects, g)
        rows.append((g * p)[support])
        rhs.append(sym_inner(a, adj, rho))
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    f = np.zeros(n)
    f[support] = sol
    return f


def pushforward_brute(effects, rho, a, cutoff=1e-12):
    """Pushforward by per-outcome division: <a, e>_rho / p(w) on the
    support, zero off it."""
    p = probabilities(effects, rho)
    return np.array(
        [
            sym_inner(a, e, rho) / pi if pi > cutoff else 0.0
            for e, pi in zip(effects, p)
        ]
    )


def adjoint_brute(effects, g):
    """Operator sum_w g(w) e_w by explicit summation."""
    return sum(gi * e for gi, e in zip(g, effects))


def quantum_error_brute(effects, rho, a, cutoff=1e-12):
    """Error of a measurement by direct summation of the defining formula:
    sqrt(<a^2>_rho - sum_w f(w)^2 p(w)) with f the per-outcome division."""
    p = probabilities(effects, rho)
    f = pushforward_brute(effects, rho, a, cutoff)
    norm_sq = trace_expectation(a @ a, rho).real
    return np.sqrt(max(norm_sq - float(np.sum(f * f * p)), 0.0))


def unsharp_eps_z(eta):
    """Error for Z under the sharpness-eta qubit family at the maximally
    mixed state; expected closed form sqrt(1 - eta^2)."""
    effects = [(ID2 + eta * SZ) / 2.0, (ID2 - eta * SZ) / 2.0]
    return quantum_error_brute(effects, ID2 / 2.0, SZ)


def joint_meter_distribution(rho, xi, u, meter_projs):
    """Outcome distribution computed on the joint system: evolve rho (x) xi
    with u, then read the meter projectors on the second factor."""
    ds = rho.shape[0]
    joint = u @ np.kron(rho, xi) @ u.conj().T
    return np.array(
        [trace_expectation(np.kron(np.eye(ds), pr), joint).real for pr in meter_projs]
    )


def ozawa_error_brute(rho, xi, u, meter, a):
    """Root-mean-square meter-vs-observable deviation on the joint system."""
    ds = a.shape[0]
    da = meter.shape[0]
    noise = u.conj().T @ np.kron(np.eye(ds), meter) @ u - np.kron(a, np.eye(da))
    val = trace_expectation(noise @ noise, np.kron(rho, xi)).real
    return np.sqrt(max(val, 0.0))


def induced_effects_brute(xi, u, meter_projs):
    """Effects induced on the system, read off their defining property
    Tr[E rho] = Tr[(rho (x) xi) U^dag (I (x) P) U] entry by entry, with the
    matrix units rho = |i><m| as probes: E[m, i] = Tr[(|i><m| (x) xi) X]."""
    ds = u.shape[0] // xi.shape[0]
    effects = []
    for pr in meter_projs:
        x = u.conj().T @ np.kron(np.eye(ds), pr) @ u
        e = np.zeros((ds, ds), dtype=complex)
        for i in range(ds):
            for m in range(ds):
                unit = np.zeros((ds, ds), dtype=complex)
                unit[i, m] = 1.0
                e[m, i] = trace_expectation(x, np.kron(unit, xi))
        effects.append(e)
    return effects


def effects_psd_message(stack, psd):
    """The PSD verdict of ``check_effects`` by the plain eigenvalue test on
    the whole stack: None when no effect has an eigenvalue below -psd, else
    the message naming the smallest one."""
    smallest = float(np.linalg.eigvalsh(stack)[..., 0].min())
    return None if smallest >= -psd else f"effect has eigenvalue {smallest:.3e}, not PSD"


def states_psd(stack, psd):
    """The positivity test of density operators by plain ``eigvalsh``,
    matrix by matrix: the message naming the smallest eigenvalue of the
    stack when one lies below -psd, else the stack with each matrix whose
    smallest eigenvalue is negative rebuilt from its eigenvalues clipped at
    zero and renormalized, by the formulas of ``check_states``."""
    smallest = np.array([np.linalg.eigvalsh(m)[0] for m in stack])
    if (smallest < -psd).any():
        return f"density operator has eigenvalue {smallest.min():.3e} below -{psd:.0e}"
    out = np.array(stack)
    for k in np.flatnonzero(smallest < 0.0):
        w, v = np.linalg.eigh(stack[k])
        fixed = (v * np.maximum(w, 0.0)[None, :]) @ v.conj().T
        fixed = (fixed + fixed.conj().T) / 2.0
        out[k] = fixed / np.trace(fixed).real
    return out


def real_message(val, tol):
    """The realness rule of expectations, element by element: None when no
    value has a NaN or infinite Im, or |Im| above tol max(1, |val|), else
    the message naming the first that has."""
    val = np.asarray(val)
    bad = ~np.isfinite(val.imag) | (np.abs(val.imag) > tol * np.maximum(1.0, np.abs(val)))
    return f"expected a real expectation, got {val[bad].flat[0]}" if bad.any() else None


def hermitian_message(arr, tol, what):
    """The Hermitian rule, matrix by matrix, on the residual max |X - X^dag|
    of every matrix: None when none exceeds tol max |X|, else the message
    naming the largest residual of the stack."""
    residual = np.abs(arr - np.swapaxes(arr, -1, -2).conj()).max(axis=(-2, -1))
    if (residual > tol * np.abs(arr).max(axis=(-2, -1))).any():
        return f"{what} is not Hermitian (residual {float(np.max(residual)):.3e})"
    return None


def guard_message(val, size, psd, identity, what):
    """The guard of squares that valid input keeps non-negative: None when
    no value is NaN or lies below both -psd and -identity ``size``, a finite
    size, else the message naming the first that does."""
    val = np.asarray(val)
    bad = (np.isnan(val) | ((val < -psd) & (val < -identity * size))) & np.isfinite(size)
    return f"{what} {val[bad].flat[0]:.3e}" if bad.any() else None


def std_dev_brute(a, rho):
    """sqrt(<a^2> - <a>^2) over rho, clipped at zero."""
    mean = trace_expectation(a, rho).real
    return np.sqrt(max(trace_expectation(a @ a, rho).real - mean * mean, 0.0))


def complex_gaussian(rng, shape):
    """One complex Gaussian array drawn plainly: a ``standard_normal(shape)``
    call for the real part, then one for the imaginary part."""
    re = rng.standard_normal(shape)
    return re + 1j * rng.standard_normal(shape)


def povm_factors(rng, outcomes, dim):
    """The Gaussian factors of one random POVM, factor by factor."""
    return np.stack([complex_gaussian(rng, (dim, dim)) for _ in range(outcomes)])


def whitened_effects(factors):
    """Effects S^-1/2 G_w^dag G_w S^-1/2 of one set of POVM factors G_w,
    with S = sum_w G_w^dag G_w, each effect formed by its own products."""
    blocks = [g.conj().T @ g for g in factors]
    w, v = np.linalg.eigh(sum(blocks))
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return np.array([inv_sqrt @ block @ inv_sqrt for block in blocks])


# Instances per block of a sweep: instance i is row i % BLOCK of block i // BLOCK.
BLOCK = 128


def instance_streams(key, i):
    """The generators of instance ``i``'s arrays of a sweep keyed ``key``
    (``[seed % 2**63, stream, *dims]``), in draw order: array j is drawn
    from ``default_rng([*key, i // BLOCK, j])``."""
    return (np.random.default_rng([*key, i // BLOCK, j]) for j in itertools.count())


def instance_rows(streams, rows):
    """A function ``draw(call, *args, shape=())`` that draws the next array
    of ``streams`` plainly, ``rows`` rows of ``shape`` by the numpy call
    ``call(*args, size=(rows, *shape))``, and returns the last row: a
    block's instance ``rows - 1``."""
    return lambda call, *args, shape=(): getattr(next(streams), call)(*args, size=(rows, *shape))[-1]


def gaussian(draw, *shape):
    """One complex Gaussian array, drawn as ``(2, *shape)`` standard normals:
    the real block, then the imaginary block."""
    re, im = draw("standard_normal", shape=(2, *shape))
    return re + 1j * im


def verify_draws(streams, rows, dim):
    """One ``verify`` instance, row ``rows - 1`` of each array drawn plainly
    from the next of ``streams``, in the documented order: the outcome
    count, the POVM's 6 factors, the pure-state coin, the matrices rho, a, b
    and rho2 and the ket, the uniforms f, alpha, beta, delta, step, lam,
    scale and shift (f and delta over 6 outcomes), then the weights' count
    and 4 standard exponentials.  The POVM factors, f, delta and the weights
    are cut to their counts, the weights normalized; a pure instance's rho is
    its draw's first row."""
    draw = instance_rows(streams, rows)
    outcomes = draw("integers", 2, 7)
    out = {"povm": gaussian(draw, 6, dim, dim)[:outcomes]}
    out["pure"] = bool(draw("random") < 0.3)
    rho = gaussian(draw, dim, dim)
    out["rho"] = rho[0] if out["pure"] else rho
    out["a"] = gaussian(draw, dim, dim)
    out["b"] = gaussian(draw, dim, dim)
    out["rho2"] = gaussian(draw, dim, dim)
    out["ket"] = gaussian(draw, dim)
    out["f"] = draw("uniform", -2.0, 2.0, shape=(6,))[:outcomes]
    out["alpha"] = draw("uniform", -2.0, 2.0)
    out["beta"] = draw("uniform", -2.0, 2.0)
    out["delta"] = draw("uniform", -2.0, 2.0, shape=(6,))[:outcomes]
    out["step"] = draw("uniform", -1.0, 1.0)
    out["lam"] = draw("uniform", 0.0, 1.0)
    out["scale"] = draw("uniform", 0.5, 2.0)
    out["shift"] = draw("uniform", -1.0, 1.0)
    count = draw("integers", 1, 5)
    weights = draw("standard_exponential", shape=(4,))[:count]
    out["p0"] = weights * (1.0 / weights.sum())
    return out


def chain_draws(streams, rows, dim, ancilla):
    """The Gaussian draws of one random ``chain`` model, row ``rows - 1`` of
    each drawn plainly from the next of ``streams``, in order: the ancilla
    ket, the interaction's factor, a Ginibre state and two observables."""
    draw = instance_rows(streams, rows)
    joint = dim * ancilla
    shapes = [(ancilla,), (joint, joint), (dim, dim), (dim, dim), (dim, dim)]
    return [gaussian(draw, *shape) for shape in shapes]
