"""Stacked generators for random states, observables, POVMs and models.

All randomness flows through an explicit numpy Generator (PCG64 under
``default_rng``); nothing touches global state.  Every complex Gaussian
array is drawn by ``gaussians``: m of them by one ``standard_normal`` call,
each row its real block, then its imaginary block.  A sweep block draws
each such array for all its instances on a stream of its own
(``suites._sweep``), a verify block once, as one layout that every verify
suite reads (``suites._draw_block``), and ``chain --model`` its state and
two observables by one call.  ``povm_effects``, ``ginibre_states`` and
``haar_unitaries`` (with ``kernels.hermitian_part`` for observables) build
from a stack of draws at once matrices that are Hermitian, positive or
unitary by construction, which the callers pass on unvalidated
(``test_generated_arrays_are_valid_by_construction`` pins that).  Every
instance is drawn in one pass: effects whitened from ill-conditioned
factors, the one output a correct generator can spoil, are rejected by
``povm_effects``' own guard, not drawn again.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .states import check_completeness

RNG_ALGORITHM = "numpy default_rng (PCG64)"


def gaussians(rng: np.random.Generator, m: int, *shape: int) -> np.ndarray:
    """m complex Gaussian arrays of ``shape`` by one ``standard_normal((m,
    2, *shape))`` call: each row's real block, then its imaginary block.
    It holds the bits of ``re + 1j * im``, a drawn -0.0 keeping its sign,
    in one array."""
    raws = rng.standard_normal((m, 2, *shape))
    out = np.empty((m, *shape), complex)
    out.real, out.imag = raws[:, 0], raws[:, 1]
    return out


def haar_unitaries(factors: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from complex Gaussian factors, one
    ``(D, D)`` or a stack: QR with the R diagonal phase-fixed to make the
    factorization unique."""
    q, r = np.linalg.qr(factors)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def povm_effects(factors: np.ndarray) -> np.ndarray:
    """Effects E_w = S^-1/2 G_w^dag G_w S^-1/2 with S = sum_w G_w^dag G_w,
    for one set ``(n, d, d)`` of factors or a stack of them (zero factors
    give zero effects), by n + 3 products: with the factors stacked as one
    ``(n d, d)`` matrix F, S = F^dag F, Y = F S^-1/2 and E_w = Y_w^dag Y_w,
    symmetrized: Hermitian Gram matrices by construction.  Their sum, which
    the whitening can spoil, passes ``states.check_completeness``: a
    singular S gives non-finite effects, ill-conditioned factors ones that
    miss I."""
    f = factors.reshape(*factors.shape[:-3], -1, factors.shape[-1])
    w, v = np.linalg.eigh(f.conj().swapaxes(-1, -2) @ f)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_sqrt = (v / np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    y = (f @ inv_sqrt).reshape(factors.shape)
    return check_completeness(kernels.hermitian_part(y.conj().swapaxes(-1, -2) @ y))


def ginibre_states(g: np.ndarray) -> np.ndarray:
    """G G^dag / Tr[G G^dag], symmetrized, for one Ginibre draw ``(d, d)`` or a stack."""
    mat = kernels.hermitian_part(g @ g.conj().swapaxes(-1, -2))
    return mat / np.trace(mat, axis1=-2, axis2=-1).real[..., None, None]


def diagonal_meter(ancilla_dim: int) -> np.ndarray:
    """The nondegenerate meter diag(1, ..., ancilla_dim) of random models."""
    return np.diag(np.arange(1, ancilla_dim + 1, dtype=complex))
