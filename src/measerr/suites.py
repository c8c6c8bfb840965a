"""Randomized property suites behind the ``verify`` command.

Each suite sweeps seeded random instances and records how many checks ran,
how many failed, and the worst residual seen.  Instance randomness is
derived per (suite, dim, index), so results are independent of execution
order and stable across runs with the same seed.

The suites work on stacks: the instances of one dimension (of one
(dimension, ancilla) pair for ``ozawa-chain``) are taken in blocks of at
most ``_BLOCK``; each instance is drawn from its own stream, in index order,
then the whole block is built and checked with the stacked formulas of
``kernels``.  The drawn states, observables, unitaries and POVMs, the
measurements built from them and their Born weights (``kernels.born`` clips
them) are valid by construction and are not validated again
(``povm_effects`` guards its own whitening).  The verify suites are the
rows of one table, ``_SUITES``: each row's draws as data (a layout, an
outcome range, a pure-state coin and uniform fields), which ``_draw_block``
draws in one loop and cuts apart in one gather, and a checks function.
One driver, ``_run``, sweeps the table; ``suite_ozawa_chain``, keyed by
(dimension, ancilla) pairs, sweeps its own models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, islice

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import kernels
from .generate import (
    complex_stack,
    diagonal_meter,
    ginibre_states,
    haar_unitaries,
    observable_matrices,
    povm_effects,
)
from .indirect import chain_check
from .measurement import projective_from
from .relations import schroedinger_reduction
from .states import pure_states
from .tolerances import DEFAULT_TOL
from .transport import local_context

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


# Largest number of instances checked as one stack, and of blocks whose
# streams are seeded by one hash pass.
_BLOCK, _BATCH = 128, 8


def _seed_words(seed: int) -> tuple[int, ...]:
    """The little-endian 32-bit words of ``seed % 2**63``: two from 2**32 on."""
    low, high = seed % 2**32, seed % 2**63 >> 32
    return (low, high) if high else (low,)


# numpy's SeedSequence constants (pool of 4 words); a hash constant steps by one product per use.
_POOL_HASH, _OUT_HASH = (np.array([c * pow(m, j, 2**32) % 2**32 for j in range(k)], dtype=np.uint32)[:, None]
                         for c, m, k in ((0x43B0D7E5, 0x931E8875, 33), (0x8B51F9DD, 0x58F38DED, 9)))
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def _hash(value: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Hash ``value`` with each consecutive pair of ``table``: one row per pair."""
    value = (value ^ table[:-1]) * table[1:]
    return value ^ value >> _SHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ out >> _SHIFT


def _seed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` for each key of 4 to
    8 uint32 words, the keys as the columns of ``words`` (one row per word):
    each hash step acts on a pool row of all the keys at once.  Operands
    stay arrays, where uint32 wrap-around is silent."""
    pool = _hash(words[:4], _POOL_HASH[:5])
    for src, others in enumerate(([1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2])):
        pool[others] = _mix(pool[others], _hash(pool[src], _POOL_HASH[4 + 3 * src : 8 + 3 * src]))
    for k, word in enumerate(words[4:]):
        pool = _mix(pool, _hash(word, _POOL_HASH[16 + 4 * k : 21 + 4 * k]))
    out = _hash(np.tile(pool, (2, 1)), _OUT_HASH)
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """A row of ``_seed_states``: all ``PCG64`` asks of its seed sequence."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.state


def _generator(state: np.ndarray) -> np.random.Generator:
    """The generator ``default_rng`` makes of the key of a seed state row."""
    return np.random.Generator(np.random.PCG64(_SeedState(state)))


def _stream_states(seed: int, suite: str, parts) -> np.ndarray:
    """The seed states of the streams keyed by the rows of ``parts`` (each
    entry below 2**32), those numpy derives from ``[seed % 2**63, stream, *row]``."""
    parts = np.asarray(parts, dtype=np.uint32).T
    head = np.array((*_seed_words(seed), _SUITE_STREAM[suite]), dtype=np.uint32)[:, None]
    return _seed_states(np.vstack([np.repeat(head, parts.shape[1], axis=1), parts]))


def _rng(seed: int, suite: str, *parts: int) -> np.random.Generator:
    """The stream of one instance: ``default_rng([seed % 2**63, stream, *parts])``."""
    return _generator(_stream_states(seed, suite, [parts])[0])


def _sweep(seed: int, suite: str, keys, n: int):
    """(key, block, states) for every key (a dim, or a (dim, ancilla) pair),
    with its n instance indices in consecutive blocks of at most ``_BLOCK``,
    so the stacked arrays of a suite stay small whatever n is, and the seed
    states of the blocks' streams, keyed (*key, index).  The states are
    hashed in one pass per ``_BATCH`` consecutive blocks, as the blocks are
    reached, so a suite's memory stays bounded too."""
    blocks = ((key, range(lo, min(lo + _BLOCK, n))) for key in keys for lo in range(0, n, _BLOCK))
    while batch := list(islice(blocks, _BATCH)):
        sizes = [len(block) for _, block in batch]
        index = np.concatenate([np.arange(block.start, block.stop) for _, block in batch])
        states = _stream_states(seed, suite, np.column_stack([np.repeat([key for key, _ in batch], sizes, axis=0), index]))
        for (key, block), end in zip(batch, accumulate(sizes)):
            yield key, block, states[end - len(block) : end]


# Most outcomes, and most complex Gaussian (d, d) arrays, of one verify instance.
_OUTCOMES, _MATRICES = 6, 10

# The fixed layouts of verify instances: after the POVM factors, each complex
# Gaussian array in draw order as (name, rank), rank 2 a (d, d) matrix and
# rank 1 a (d,) ket; "rho" names are states.  The pure-state coin, where a
# suite tosses it, makes the first array a ket.
_INSTANCE = (("rho", 2), ("a", 2), ("b", 2))
_AFFINE = (("rho1", 2), ("rho2", 1))
_ERRORLESS = _INSTANCE + (("rho2", 2),)

# The range of the trivial measurement's outcome count, drawn after its Gaussians.
_WEIGHTS = (1, 5)


def _integer(raw, low: int, high: int) -> int:
    """numpy's ``integers(low, high)`` (1 < high - low < 2**32) as a
    generator's first 32-bit draw, read from its raw outputs ``raw()``:
    Lemire's multiply-shift on each 32-bit half of an output, low half
    first, taking the next half while the product's low word is below
    2**32 mod (high - low).  An unused high half, which numpy keeps for the
    generator's next 32-bit draw, is dropped: no later draw takes one."""
    span = high - low
    while True:
        x = raw()
        for half in (x & 0xFFFFFFFF, x >> 32):
            m = half * span
            if m & 0xFFFFFFFF >= 2**32 % span:
                return low + (m >> 32)


def _states(z: np.ndarray, dim: int, rank: int) -> np.ndarray:
    """The states of raw draws ``z`` (one row each): kets as their
    projectors, (d, d) draws as normalized Ginibre matrices."""
    z = complex_stack(z.reshape(len(z), 2, *(dim,) * rank), axis=-1 - rank)
    return pure_states(z) if rank == 1 else ginibre_states(z)


def _draw_block(states: np.ndarray, dim: int, layout, outcomes, coin: bool, fields) -> dict:
    """The columns of a block of verify instances, each drawn once from the
    stream of its seed state in ``states``: with a POVM of ``integers(*outcomes)``
    outcomes (none when ``outcomes`` is None), a pure (30%) or Ginibre state
    when ``coin``, the arrays of ``layout``, then the uniforms of ``fields``,
    each (name, (lo, hi), per_outcome): one number, or one per outcome.
    Without a POVM the trivial measurement's weights come last (``_WEIGHTS``).

    The outcome count is read from raw outputs (``_integer``) and the coin is
    numpy's ``random() < 0.3``, (x >> 11) 2**-53 of the next raw output x,
    so every draw is the plain call's (``oracles.verify_draws``).  Row k of
    ``buffer`` takes instance k's complex Gaussians by one call, each array
    its real block, then its imaginary block; row k of ``uniform`` its
    uniform doubles by one call, field after field, or its weights as
    standard exponentials.  The columns read the uniforms as lo + (hi - lo) u,
    numpy's ``uniform(lo, hi)``, the weights times the reciprocal of their
    sum, numpy's ``dirichlet`` of ones, and rows over outcomes zero-padded to
    the widest drawn, the POVM factors whitened among them (a block whose
    factors do not whiten raises, ``povm_effects``).  One gather cuts the
    layout's arrays out of ``buffer``: a pure row's window starts 2 d^2 - 2 d
    doubles early, so its ket fills the end of the state's (d, d) slot and
    every later array lies at one offset in all rows."""
    n, size, shift = len(states), 2 * dim * dim, 2 * dim * dim - 2 * dim
    buffer, width = np.empty((n, _MATRICES * size)), sum(2 * dim**rank for _, rank in layout)
    per_outcome = sum(per for *_, per in fields)
    # a field takes at most _OUTCOMES doubles, as do the weights
    uniform = np.zeros((n, _OUTCOMES * max(len(fields), 1)))
    counts, pures, weights = [0] * n, [False] * n, []
    for k, state in enumerate(states):
        rng = _generator(state)
        raw = rng.bit_generator.random_raw
        counts[k] = count = _integer(raw, *outcomes) if outcomes else 0
        pures[k] = pure = coin and (raw() >> 11) * 2**-53 < 0.3
        rng.standard_normal(out=buffer[k, : size * count + width - shift * pure])
        if fields:
            rng.random(out=uniform[k, : len(fields) + per_outcome * (count - 1)])
        elif not outcomes:
            weights.append(_integer(raw, *_WEIGHTS))
            rng.standard_exponential(out=uniform[k, : weights[-1]])

    count, pure, cols = np.array(counts), np.array(pures), {}
    index, top = np.arange(n), count.max()
    padding, start = np.arange(top) >= count[:, None], np.zeros(n, dtype=int)
    for name, (lo, hi), per in fields:
        if per:
            cols[name] = lo + (hi - lo) * uniform[index[:, None], start[:, None] + np.arange(top)]
            cols[name][padding] = 0.0
        else:
            cols[name] = lo + (hi - lo) * uniform[index, start]
        start = start + (count if per else 1)
    if weights:
        col = uniform[:, : max(weights)]
        cols["p0"] = col * (1.0 / col.sum(axis=1))[:, None]
    if top:
        povm = complex_stack(buffer[:, : top * size].reshape(n, top, 2, dim, dim))
        povm[padding] = 0.0
        cols["povm"] = povm_effects(povm)
    window, at = buffer[index[:, None], (size * count - shift * pure)[:, None] + np.arange(width)], 0
    for j, (name, rank) in enumerate(layout):
        z, at = window[:, at : at + 2 * dim**rank], at + 2 * dim**rank
        if coin and j == 0:
            cols[name] = np.empty((n, dim, dim), complex)
            cols[name][pure] = _states(z[pure, shift:], dim, 1)
            cols[name][~pure] = _states(z[~pure], dim, 2)
        elif name.startswith("rho"):
            cols[name] = _states(z, dim, rank)
        else:
            cols[name] = complex_stack(z.reshape(n, 2, dim, dim))
    return cols


def _instances(cols: dict) -> tuple[kernels.Context, np.ndarray, np.ndarray]:
    """The context and the two observables of a block's columns."""
    return local_context(cols["povm"], cols["rho"]), observable_matrices(cols["a"]), observable_matrices(cols["b"])


def _max_abs(x: np.ndarray) -> np.ndarray:
    return np.abs(x).max(axis=tuple(range(1, x.ndim)))


def _affineness(cols, slack, sign_flip) -> dict:
    """Measurements respect probabilistic mixtures of states exactly."""
    effects, rho1, rho2, lam = cols["povm"], cols["rho1"], cols["rho2"], cols["lam"]
    mixed = lam[:, None, None] * rho1 + (1.0 - lam[:, None, None]) * rho2
    direct, p1, p2 = kernels.born(effects, mixed), kernels.born(effects, rho1), kernels.born(effects, rho2)
    residual = _max_abs(direct - (lam[:, None] * p1 + (1.0 - lam[:, None]) * p2))
    return {"affineness": [("affineness broke", residual, DEFAULT_TOL.validation)]}


def _adjoint_characterization(cols, slack, sign_flip) -> dict:
    """<M'f>_rho = <f>_{M rho}, and the projective measurement of A together
    with the identity estimator reconstructs A."""
    ctx, a, _ = _instances(cols)
    f = cols["f"]
    rhs = kernels.dot(f, ctx.weights)
    identity = np.abs(kernels.expect(kernels.adjoint(ctx.effects, f), ctx.rho) - rhs)
    values, projectors = projective_from(a)
    rebuilt = _max_abs(kernels.adjoint(projectors, values) - a)
    return {"adjoint-characterization": [
        ("adjoint identity broke", identity, DEFAULT_TOL.expectation * (1.0 + np.abs(rhs))),
        ("projective reconstruction broke", rebuilt, slack * (1.0 + _max_abs(a))),
    ]}


def _contractivity(cols, slack, sign_flip) -> dict:
    """Classical norm dominates the adjoint's state norm, and the operator
    gap M'(f^2) - (M'f)^2 stays positive semidefinite."""
    ctx, _, _ = _instances(cols)
    classical, adjoint_norm, gap_min = kernels.contractivity(ctx, cols["f"])
    gap = adjoint_norm - classical
    return {"contractivity": [
        ("norm contraction broke", gap, slack * (1.0 + classical), lambda i: f"gap {gap[i]:.3e}"),
        ("operator gap not PSD", -gap_min, slack, lambda i: f"{gap_min[i]:.3e}"),
    ]}


def _transport_adjointness(cols, slack, sign_flip) -> dict:
    """The pushforward is the adjoint of the pullback, preserves expectation
    values, contracts twice, and is linear."""
    ctx, a, b = _instances(cols)
    f = cols["f"]
    t = kernels.transport(ctx, a)
    adjointness = kernels.adjointness(ctx, a, t.pushforward, f)

    mean_a = kernels.expect(a, ctx.rho)
    drift = np.abs(kernels.dot(t.pushforward, ctx.weights) - mean_a)

    norm_fwd = kernels.class_norm(t.pushforward, ctx.weights)
    norm_back = kernels.norm(t.roundtrip, ctx.rho)
    chain = np.maximum(norm_fwd - t.norm, norm_back - norm_fwd)

    alpha, beta = cols["alpha"], cols["beta"]
    lin = kernels.pushforward(ctx, alpha[:, None, None] * a + beta[:, None, None] * b)
    combo = alpha[:, None] * t.pushforward + beta[:, None] * kernels.pushforward(ctx, b)
    linearity = _max_abs(lin - combo)
    return {"transport-adjointness": [
        ("adjointness broke", adjointness, slack * (1.0 + t.norm * kernels.class_norm(f, ctx.weights))),
        ("expectation not preserved", drift, DEFAULT_TOL.expectation * (1.0 + np.abs(mean_a))),
        ("double contraction broke", chain, slack * (1.0 + t.norm), None),
        ("linearity broke", linearity, DEFAULT_TOL.expectation * (1.0 + _max_abs(combo))),
    ]}


def _error_decomposition(cols, slack, sign_flip) -> dict:
    """Exact split of the f-error, optimality of the pushforward, and the
    quadratic excess law for perturbed estimators."""
    ctx, a, _ = _instances(cols)
    t = kernels.transport(ctx, a)
    split = kernels.f_error_split(ctx, a, t, cols["f"])

    delta, step = cols["delta"], cols["step"]
    perturbed = kernels.f_error_split(ctx, a, t, t.pushforward + step[:, None] * delta)
    expected = step * step * kernels.class_norm(kernels.restrict(ctx, delta), ctx.weights) ** 2
    excess_law = np.abs(perturbed.f_error**2 - split.quantum_error**2 - expected)
    return {"error-decomposition": [
        ("decomposition broke", kernels.split_residual(*split), slack),
        ("estimator beat the optimum", split.quantum_error - split.f_error, slack),
        ("quadratic excess law broke", excess_law, slack),
    ]}


def _relation_and_proof_tie(cols, slack, sign_flip) -> dict:
    """Main relation plus the proof-tie identities, on the same instances:
    slack of eps_a*eps_b >= sqrt(R^2+I^2), the bound hierarchy, the
    composite-seminorm-equals-error identity, and R+iI against the composite
    cross product.  ``sign_flip`` corrupts I on purpose (see
    ``kernels.relation``)."""
    ctx, a, b = _instances(cols)
    rel = kernels.relation(ctx, a, b, sign_flip=sign_flip)
    device = kernels.proof_device(ctx, a, b, rel)
    return {
        "main-relation": [
            ("relation violated", -rel.slack, kernels.relation_allowance(rel, slack),
             lambda i: f"slack {rel.slack[i]:.3e}"),
            ("bound hierarchy broke", np.abs(rel.imag_term) - rel.bound, 1e-12, None),
        ],
        "proof-tie-identity": [
            ("seminorm-error identity broke", np.maximum(device.residual_a, device.residual_b), slack),
            ("cross-product identity broke", device.cross_residual, slack),
        ],
    }


def _row(record, i) -> str:
    """Instance ``i`` of a stacked record: its fields as Python scalars."""
    return ", ".join(f"{name}={np.asarray(value)[i].item()!r}" for name, value in zip(record.__slots__, record))


# Roundoff allowed to the exact errorless bound's violation, relative to ||A||_rho^2.
_BOUND_ROUNDOFF = 1e-14


def _bound(e: kernels.Errorless) -> tuple:
    """The check that the exact bound r^2 <= eps^2 <= r (2m + r) holds up to roundoff."""
    return "errorless bound broke", e.violation, _BOUND_ROUNDOFF * e.scale**2, partial(_row, e)


def _errorless(e: kernels.Errorless) -> tuple:
    """The check that a constructed errorless case is errorless and meets the bound."""
    _, violation, roundoff, detail = _bound(e)
    return "constructed errorless case failed", e.error, e.errorless & (violation <= roundoff), detail


def _errorless_equivalence(cols, slack, sign_flip) -> dict:
    """The exact errorless bound holds on random and constructed-errorless
    instances, and no measurement is errorless for both members of a
    noncommuting pair."""
    ctx, a, b = _instances(cols)
    conds_a, conds_b = kernels.errorless(ctx, a), kernels.errorless(ctx, b)
    comm = np.abs(kernels.comm(a, b, ctx.rho))
    both = conds_a.errorless & conds_b.errorless

    # constructed errorless case: projectively measure a itself
    rho = cols["rho2"]
    exact = local_context(projective_from(a)[1], rho)
    scale, shift = (cols[key][:, None, None] for key in ("scale", "shift"))
    shifted = scale * a + shift * np.eye(a.shape[-1], dtype=complex)
    exact_a, exact_shifted = kernels.errorless(exact, a), kernels.errorless(exact, shifted)
    # a and its affine shift commute, so a simultaneous errorless
    # pair here is consistent with the noncommutativity statement
    shifted_comm = np.abs(kernels.comm(a, shifted, rho))

    return {"errorless-equivalence": [
        _bound(conds_a),
        _bound(conds_b),
        ("simultaneous errorless noncommuting pair", np.where(both, comm, 0.0), 1e-6, None),
        _errorless(exact_a),
        _errorless(exact_shifted),
        ("constructed commuting pair has nonzero commutator", shifted_comm, 1e-6, None),
    ]}


def _trivial_reduction(cols, slack, sign_flip) -> dict:
    """Non-informative measurements collapse the error to the standard
    deviation and the relation to its standard-deviation form, with the bare
    commutator bound below it."""
    a, b = observable_matrices(cols["a"]), observable_matrices(cols["b"])
    rel, red = schroedinger_reduction(cols["p0"], cols["rho"], a, b)
    terms = np.maximum(np.abs(rel.real_term - red.covariance), np.abs(rel.imag_term - red.commutator))
    terms = np.maximum(terms, np.abs(rel.bound - red.bound))
    return {"trivial-reduction": [
        ("error != standard deviation", np.maximum(red.eps_sigma_residual_a, red.eps_sigma_residual_b),
         DEFAULT_TOL.expectation * (1.0 + red.sigma_a + red.sigma_b)),
        ("reduced terms mismatch", terms, DEFAULT_TOL.expectation * (1.0 + np.abs(red.covariance) + red.kr_bound)),
        ("commutator bound above the reduced bound", red.kr_bound - rel.bound, 1e-12, None),
        ("reduced relation violated", -rel.slack, kernels.relation_allowance(rel, slack),
         lambda i: f"{rel.slack[i]:.3e}"),
    ]}


# An outcome function uniform in [-2, 2), as a uniform field of ``_draw_block``.
_F = ("f", (-2.0, 2.0), True)

# The POVM's outcome count, 2..6, drawn first.
_POVM = (2, 7)

# The verify suites in report order, keyed by stream name: (draws, checks).
# ``draws`` are the arguments (layout, outcomes, coin, fields) of
# ``_draw_block``; ``checks(cols, slack, sign_flip)`` maps each result name
# to the checks of a block's columns.
_SUITES = {
    "affineness": ((_AFFINE, _POVM, False, (("lam", (0.0, 1.0), False),)), _affineness),
    "adjoint-characterization": ((_INSTANCE, _POVM, True, (_F,)), _adjoint_characterization),
    "contractivity": ((_INSTANCE, _POVM, True, (_F,)), _contractivity),
    "transport-adjointness": (
        (_INSTANCE, _POVM, True, (_F, ("alpha", (-2.0, 2.0), False), ("beta", (-2.0, 2.0), False))),
        _transport_adjointness),
    "error-decomposition": (
        (_INSTANCE, _POVM, True, (_F, ("delta", (-2.0, 2.0), True), ("step", (-1.0, 1.0), False))),
        _error_decomposition),
    "main-relation": ((_INSTANCE, _POVM, True, ()), _relation_and_proof_tie),
    "errorless-equivalence": (
        (_ERRORLESS, _POVM, True, (("scale", (0.5, 2.0), False), ("shift", (-1.0, 1.0), False))),
        _errorless_equivalence),
    "trivial-reduction": ((_INSTANCE, None, False, ()), _trivial_reduction),
}


def _run(entries: dict, dims, n: int, seed: int, slack: float, sign_flip: bool) -> list[SuiteResult]:
    """The results of the suites ``entries`` (entries of ``_SUITES``), in
    entry order and, within an entry, in the order its checks name them:
    each block of each entry is swept, drawn and checked once."""
    results = {}
    for stream, (draws, checks) in entries.items():
        for dim, block, states in _sweep(seed, stream, dims, n):
            for name, rows in checks(_draw_block(states, dim, *draws), slack, sign_flip).items():
                results.setdefault(name, SuiteResult(name)).record_block(dim, block, rows)
    return list(results.values())


def _chain_models(states: np.ndarray, dim: int, ancilla: int) -> tuple:
    """The ancilla states, interactions, Ginibre states and observables A and
    B of the models with seed ``states``, as the generators build them, in
    ``oracles.chain_draws`` order (the ancilla ket, the interaction's
    factor, the state, A, then B): one call fills a model's buffer row, and
    each array is a view of the buffer at a fixed offset."""
    n, shapes = len(states), [(2, ancilla), (2, dim * ancilla, dim * ancilla)] + [(2, dim, dim)] * 3
    ends = np.cumsum([math.prod(s) for s in shapes])
    buffer = np.empty((n, ends[-1]))
    for row, state in zip(buffer, states):
        _generator(state).standard_normal(out=row)
    ket, u, rho, a, b = (complex_stack(part.reshape(n, *s), axis=-len(s))
                         for part, s in zip(np.split(buffer, ends[:-1], axis=1), shapes))
    return pure_states(ket), haar_unitaries(u), ginibre_states(rho), observable_matrices(a), observable_matrices(b)


def suite_ozawa_chain(pairs, n, seed, slack: float = DEFAULT_TOL.identity) -> SuiteResult:
    """Random indirect models: induced POVM consistency with the joint meter
    statistics, the rms-error bridge identity, per-observable dominance, and
    the full five-term comparison chain."""
    out = SuiteResult("ozawa-chain")
    for (dim, ancilla), block, states in _sweep(seed, out.name, pairs, n):
        meter = diagonal_meter(ancilla)
        xi, u, rho, a, b = _chain_models(states, dim, ancilla)
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
