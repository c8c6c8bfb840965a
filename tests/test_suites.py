"""Suite bookkeeping: how checks, failures and the worst residual add up,
and how often the suites transport an observable."""

import ast
import collections
import itertools
import math
import re
import sys
from dataclasses import replace
from functools import cache, partial

import instances
import numpy as np
import oracles
import pytest

import measerr
from measerr import chain_check, trivial_measurement
from measerr import generate, kernels, states, suites
from measerr.cli import main
from measerr.serialize import model_from_json, model_to_json
from measerr.states import pure_states
from measerr.tolerances import DEFAULT_TOL
from measerr.suites import SuiteResult
from test_chain_kernels import chain_arguments
from test_generate import ill_conditioned_factors


class TestSuiteResult:
    def test_finite_residuals_keep_the_largest(self):
        out = SuiteResult("s")
        for residual in (1e-12, 3e-12, 2e-12):
            out.record_block(2, range(1), [("s", residual, 1.0)])
        assert (out.checks, out.failures, out.worst) == (3, 0, 3e-12)

    def test_non_finite_residual_is_a_failure_and_the_worst(self):
        # whatever a kernel's verdict (True) or a numeric slack (inf) says
        for slack, bad in itertools.product((True, math.inf), (math.nan, math.inf)):
            out = SuiteResult("s")
            out.record_block(2, range(1), [("fine", 1e-12, slack)])
            out.record_block(2, range(1), [("non-finite", bad, slack, None)])
            out.record_block(2, range(1), [("fine again", 5.0, slack)])
            assert out.checks == 3
            assert out.failures == 1
            assert not out.passed
            assert out.messages == ["non-finite at dim=2 i=0"]
            assert not math.isfinite(out.worst)
            assert repr(out.worst) == repr(bad)


def run(suite, dims, n, seed, slack=DEFAULT_TOL.identity, sign_flip=False) -> list:
    """The results of one verify suite, run by ``suites._run`` with its one entry."""
    return suites._run({suite: suites._SUITES[suite]}, dims, n, seed, slack, sign_flip)


@pytest.fixture
def transport_calls(monkeypatch):
    """Count the calls of the transport kernel ``kernels._pushforward`` (the
    pushforward of A from A rho), which ``kernels.transport`` and
    ``kernels.pushforward`` call once: one call transports one observable,
    for one instance or for a whole verify block."""
    calls = []
    original = kernels._pushforward

    def counted(ctx, a_rho):
        calls.append(a_rho.shape)
        return original(ctx, a_rho)

    monkeypatch.setattr(kernels, "_pushforward", counted)
    return calls


@pytest.fixture
def kernel_calls(monkeypatch):
    """The names of the ``kernels._norm`` (which every norm, ``kernels.norm``
    or ``transport``'s, calls once) and ``kernels.pullback`` calls, in call
    order, each ``_norm`` call counted as "norm"."""
    calls = []
    for name, counted_as in (("_norm", "norm"), ("pullback", "pullback")):
        def counted(*args, counted_as=counted_as, original=getattr(kernels, name)):
            calls.append(counted_as)
            return original(*args)

        monkeypatch.setattr(kernels, name, counted)
    return calls


class TestTransportOnce:
    """Each (context, observable) is transported once: by one kernel call per
    observable per verify block, which every verify suite shares.  A kernel
    reads the transports, norms ||A||_rho, the estimator's pullback and its
    reconstruction cost that the block has already computed instead of
    computing them again."""

    @pytest.mark.parametrize("kernel,norms,pullbacks", [("chain", 7, 3), ("errorless", 2, 0), ("relation", 2, 2)])
    def test_norm_and_pullback_calls(self, kernel_calls, kernel, norms, pullbacks):
        ctx, a, b, meter_h, joint, values = chain_arguments(5, 3, 2, range(4))
        args = {"chain": (ctx, a, b, meter_h, joint, values, 1e-9), "errorless": (ctx, a, kernels.transport(ctx, a)),
                "relation": (ctx, a, b)}
        kernel_calls.clear()
        getattr(kernels, kernel)(*args[kernel])
        assert (kernel_calls.count("norm"), kernel_calls.count("pullback")) == (norms, pullbacks)

    def test_evaluate_relation(self, transport_calls):
        """The relation, and the relation with its standard-deviation form on
        a trivial measurement, as the CLI evaluates them: each transports A
        and B once."""
        rng = np.random.default_rng(1)
        effects, rho = instances.povm(rng, 3, 4), instances.state(rng, 3)
        a, b = instances.observable(rng, 3), instances.observable(rng, 3)
        kernels.relation(kernels.context(effects, rho, a, b), a, b)
        kernels.schroedinger(kernels.context(trivial_measurement([0.5, 0.5], 3), rho, a, b), a, b)
        assert transport_calls == [(3, 3)] * 4

    def test_chain_check(self, transport_calls):
        rng = np.random.default_rng(2)
        for dim in (2, 3, 5):
            model = instances.indirect_model(rng, dim)
            rho = instances.state(rng, dim)
            chain_check(*model, rho, instances.observable(rng, dim), instances.observable(rng, dim))
        assert len(transport_calls) == 2 * 3

    def test_error_decomposition(self, transport_calls):
        # a and b per block, for the block's shared relation
        run("error-decomposition", (2, 4), 3, seed=5)
        assert transport_calls == [(3, 2, 2)] * 2 + [(3, 4, 4)] * 2

    def test_blocks_bound_the_stack(self, transport_calls):
        n = 2 * suites._BLOCK + 1
        run("error-decomposition", (3,), n, seed=5)
        assert transport_calls == [(suites._BLOCK, 3, 3)] * 4 + [(1, 3, 3)] * 2

    def test_ozawa_chain(self, transport_calls):
        # a and b per block, with a partial last block
        n = 2 * suites._BLOCK + 1
        suites.suite_ozawa_chain(((3, 2),), n, seed=5)
        assert transport_calls == [(suites._BLOCK, 3, 3)] * 4 + [(1, 3, 3)] * 2

    def test_transport_adjointness(self, transport_calls):
        # a, b and the linear combination alpha a + beta b, per block
        run("transport-adjointness", (2, 4), 3, seed=5)
        assert transport_calls == [(3, 2, 2)] * 3 + [(3, 4, 4)] * 3

    def test_run_verify(self, transport_calls, monkeypatch):
        """A full verify block transports a and b once for all nine suites,
        pushes alpha a + beta b forward once (transport-adjointness), and
        transports a and its affine shift on the constructed errorless
        context and a and b on the trivial one: seven pushforwards.  It
        diagonalizes twice: to whiten its POVM factors and to decompose a."""
        eighs, eigh = [], np.linalg.eigh

        def counted(x):
            eighs.append(x.shape)
            return eigh(x)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        suites.run_verify((2, 3, 4, 5), 100, 8)
        assert transport_calls == [(100, d, d) for d in (2, 3, 4, 5) for _ in range(7)]
        assert eighs == [(100, d, d) for d in (2, 3, 4, 5) for _ in range(2)]


@pytest.fixture
def validator_calls(monkeypatch):
    """The names of the calls of the array validators, counted under every
    name a ``measerr`` module imports them as."""
    calls = []
    modules = [m for name, m in sys.modules.items() if name == "measerr" or name.startswith("measerr.")]
    for name in ("check_effects", "check_states", "check_observables", "check_unitaries", "check_weights"):
        original = getattr(states, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


class TestValidateOnce:
    """Arrays are validated once, where they enter: the sweeps' draws, what
    the builders build from them and the Born weights derived from both
    (clipped in ``kernels.born``) are valid by construction.  So a CLI run
    that loads no file calls no validator, and a sweep none but the one of
    ``trivial_measurement``, the builder that takes its weights as given."""

    def test_loader_calls_are_counted(self, validator_calls):
        model_from_json(model_to_json(*instances.indirect_model(np.random.default_rng(3), 2)))
        assert validator_calls == ["check_states", "check_observables", "check_unitaries", "check_effects"]

    def test_given_weights_are_counted(self, validator_calls):
        measerr.trivial_measurement([0.25, 0.75], 2)
        assert validator_calls == ["check_weights"]

    @pytest.mark.parametrize("argv", [["demo", "ozawa-chain"], ["demo", "naive-violation"],
                                      ["scan", "--family", "noisy-projective"]])
    def test_cli_runs_without_files(self, argv, validator_calls, capsys):
        """``qubit_state`` and the default state of ``scan`` are valid by construction."""
        assert main(argv) == 0
        assert validator_calls == []

    def test_verify(self, validator_calls):
        # the trivial-reduction suite's drawn weights, one stack per block
        suites.run_verify((2, 3), 5, 1)
        assert validator_calls == ["check_weights"] * 2

    def test_ozawa_chain(self, validator_calls):
        suites.suite_ozawa_chain(((2, 2),), 5, 1)
        assert validator_calls == []


class TestRecordBlock:
    def test_matches_one_instance_blocks_check_by_check(self):
        rng = np.random.default_rng(0)
        n = 40
        residuals = [rng.uniform(0.0, 2.0, n) for _ in range(4)]
        residuals[1][[7, 30]] = [math.nan, math.inf]

        def checks(rows, label):
            """The checks of the instances ``rows``, each kind of slack and detail."""
            r = [x[rows] for x in residuals]
            return [
                ("check 0", r[0], 1.5),
                ("check 1", r[1], 1.5, lambda i: f"{label(i)}"),
                ("check 2", r[2], r[2] <= 1.5, None),
                ("check 3", r[3], np.full(len(r[3]), 1.5)),
            ]

        block = SuiteResult("s")
        block.record_block(3, range(1), [("first", 0.25, 1.0)])
        block.record_block(3, range(10, 10 + n), checks(slice(None), lambda i: i))
        single = SuiteResult("s")
        single.record_block(3, range(1), [("first", 0.25, 1.0)])
        for i in range(n):
            single.record_block(3, range(10 + i, 11 + i), checks(slice(i, i + 1), lambda _, i=i: i))
        assert block.failures > 5
        assert (block.checks, block.failures, block.messages) == (single.checks, single.failures, single.messages)
        assert repr(block.worst) == repr(single.worst) == "nan"

    def test_scalar_checks_broadcast(self):
        out = SuiteResult("s")
        out.record_block(2, range(2), [("a", 0.0, 1.0), ("b", np.array([1.0, 2.0]), 1.5, None)])
        assert (out.checks, out.failures, out.worst, out.messages) == (4, 1, 2.0, ["b at dim=2 i=1"])

    def test_boolean_slack_is_the_verdict(self):
        # a residual above any numeric slack passes on a true verdict, one
        # of 0 fails on a false one, and a NaN fails on a true one
        out = SuiteResult("s")
        out.record_block(2, range(3), [("v", np.array([5.0, 0.0, math.nan]), np.array([True, False, True]))])
        assert (out.checks, out.failures) == (3, 2)
        assert out.messages == ["v at dim=2 i=1: 0.000e+00", "v at dim=2 i=2: nan"]
        assert repr(out.worst) == "nan"

    def test_detail_default_none_and_callable(self):
        out = SuiteResult("s")
        out.record_block(4, range(5, 6), [
            ("default", 2.0, 1.0), ("none", 2.0, 1.0, None), ("callable", 2.0, 1.0, lambda i: f"row {i}"),
        ])
        assert out.messages == [
            "default at dim=4 i=5: 2.000e+00", "none at dim=4 i=5", "callable at dim=4 i=5: row 0",
        ]

    def test_negative_residual_is_never_the_worst(self):
        out = SuiteResult("s")
        out.record_block(2, range(2), [("room", np.array([-3.0, -1e-300]), 0.0)])
        assert (out.checks, out.failures, out.worst) == (2, 0, 0.0)


def draw_block(seed, dim, n, b=0):
    """Block ``b`` of a verify sweep of n instances at ``dim``, and its
    ``suites._draw_block`` columns."""
    _, block, streams = list(suites._sweep(seed, suites._VERIFY_STREAM, (dim,), n))[b]
    return block, suites._draw_block(streams, len(block), dim)


def plain_draws(seed, dim, i):
    """``oracles.verify_draws`` of instance ``i`` of a verify sweep at ``dim``."""
    streams = oracles.instance_streams([seed % 2**63, suites._VERIFY_STREAM, dim], i)
    return oracles.verify_draws(streams, i % oracles.BLOCK + 1, dim)


# The columns of a verify block that each suite reads, directly or through
# the values ``_run`` derives from them (``DERIVED``): the instances, with
# the same kinds of state, that each suite drew when it drew a layout of its
# own, and "b" for error-decomposition, through the shared relation.
READS = {
    "affineness": {"povm", "rho2", "ket", "lam"},
    "adjoint-characterization": {"povm", "rho", "a", "f"},
    "contractivity": {"povm", "rho", "f"},
    "transport-adjointness": {"povm", "rho", "a", "b", "f", "alpha", "beta"},
    "error-decomposition": {"povm", "rho", "a", "b", "f", "delta", "step"},
    "main-relation": {"povm", "rho", "a", "b"},
    "proof-tie-identity": {"povm", "rho", "a", "b"},
    "errorless-equivalence": {"povm", "rho", "a", "b", "rho2", "scale", "shift"},
    "trivial-reduction": {"rho2", "a", "b", "p0"},
}


class Reading(dict):
    """A block's columns that add each key read to ``read``."""

    def __init__(self, cols, read):
        super().__init__(cols)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# The values ``_run`` derives from a block's columns, and the columns each is built from.
DERIVED = {"ctx": {"povm", "rho"}, "rel": {"povm", "rho", "a", "b"}, "spectral": {"a"}}


def run_cols(dims, n, seed) -> list:
    """The columns, the derived values among them, that ``_run`` hands its
    entries, one dict per block (the spy entry returns one passing row)."""
    seen = []

    def spy(cols, slack):
        seen.append(cols)
        return [("spy", 0.0, 0.0)]

    suites._run({"spy": spy}, dims, n, seed, DEFAULT_TOL.identity, False)
    return seen


@pytest.mark.parametrize("suite", suites._SUITES)
def test_each_suite_reads_its_columns(suite):
    """A suite reads the columns ``READS`` names of the shared block: the
    Ginibre "rho2" and the pure "ket" for affineness, the Ginibre "rho2" for
    trivial-reduction, the coin-tossed "rho" for the others."""
    [cols] = run_cols((3,), 20, 3)
    assert cols.keys() == draw_block(3, 3, 20)[1].keys() | DERIVED.keys()
    read = set()
    suites._SUITES[suite](Reading(cols, read), DEFAULT_TOL.identity)
    assert set().union(*(DERIVED.get(key, {key}) for key in read)) == READS[suite]


def assert_block_is_the_plain_draws(cols, block, draws, keys):
    """The columns ``keys`` of a ``_draw_block`` result equal, instance by
    instance, ``draws(i)`` (``oracles.verify_draws`` of instance i): the
    POVM as the effects of the plain factors, a state as the projector of
    its ket or normalized Ginibre matrix and an observable as the Hermitian
    part of its draw, as the generators build them (so the pure-state coin
    decides which state), and every other draw exactly, with rows over
    outcomes zero-padded.  The block holds the plain draws' columns."""
    for k, i in enumerate(block):
        plain = draws(i)
        assert cols.keys() == plain.keys() - {"pure"}
        for key in keys:
            want, got = plain[key], cols[key][k]
            if key == "povm":
                want = generate.povm_effects(want)
            elif key.startswith("rho") or key == "ket":
                want = pure_states(want) if want.ndim == 1 else generate.ginibre_states(want)
            elif key in ("a", "b"):
                want = kernels.hermitian_part(want)
            if np.ndim(want) and len(want) < len(got):
                assert np.all(got[len(want) :] == 0.0), key
                got = got[: len(want)]
            assert np.array_equal(got, want), key


@pytest.mark.parametrize("suite", suites._SUITES)
@pytest.mark.parametrize("dim", [2, 5, 8])
def test_block_columns_are_the_plain_sequential_draws(suite, dim):
    """The columns a suite reads, of a block of 15 and of the 12 instances
    of a sweep's second block, equal their plain draws."""
    for n, b in ((15, 0), (140, 1)):
        block, cols = draw_block(19, dim, n, b)
        assert_block_is_the_plain_draws(cols, block, partial(plain_draws, 19, dim), READS[suite])


# The columns that split a block into groups: how each plain draw falls
# into one, and the groups there are.
GROUPS = {
    "povm": (lambda d: len(d["povm"]), range(2, 7)),
    "rho": (lambda d: d["pure"], (False, True)),
    "p0": (lambda d: len(d["p0"]), range(1, 5)),
}


@cache
def full_block(seed, dim):
    """A full first block of a verify sweep at ``dim``, its columns and the
    plain draws of its instances, drawn once for every suite that reads them."""
    block, cols = draw_block(seed, dim, suites._BLOCK)
    return block, cols, [plain_draws(seed, dim, i) for i in block]


@pytest.mark.parametrize("suite", suites._SUITES)
@pytest.mark.parametrize("dim", [2, 5, 8])
def test_full_block_unpacks_every_group(suite, dim):
    """A full block of ``_BLOCK`` instances holds every group of the columns
    a suite reads (outcome count, pure-state coin, or the trivial
    measurement's outcome count), and each instance equals its plain draws."""
    block, cols, draws = full_block(29, dim)
    assert block == range(suites._BLOCK)
    assert_block_is_the_plain_draws(cols, block, lambda i: draws[i], READS[suite])
    kinds = [group for key, group in GROUPS.items() if key in READS[suite]]
    groups = {tuple(of(d) for of, _ in kinds) for d in draws}
    assert groups == set(itertools.product(*(values for _, values in kinds)))


@cache
def one_instance_block(dim, pure):
    """The one-instance verify block at ``dim`` of the first seed whose
    coin-tossed state is a ket (``pure``) or a Ginibre draw, its columns and
    its instance's plain draws, drawn once for every suite that reads them."""
    seed = next(seed for seed in itertools.count() if plain_draws(seed, dim, 0)["pure"] == pure)
    block, cols = draw_block(seed, dim, 1)
    return block, cols, plain_draws(seed, dim, 0)


@pytest.mark.parametrize("suite", [suite for suite in suites._SUITES if "rho" in READS[suite]])
@pytest.mark.parametrize("dim", [2, 8])
@pytest.mark.parametrize("pure", [False, True])
def test_one_instance_blocks_of_one_kind_of_state(suite, dim, pure):
    """A one-instance block whose coin-tossed state is only a ket, or only a
    Ginibre draw, leaves the other kind's rows empty, and the columns a
    suite reads equal their plain draws."""
    block, cols, plain = one_instance_block(dim, pure)
    assert_block_is_the_plain_draws(cols, block, lambda i: plain, READS[suite])


def chain_plain_draws(seed, dim, ancilla, i):
    """``oracles.chain_draws`` of model ``i`` of a (dim, ancilla) chain sweep."""
    streams = oracles.instance_streams([seed % 2**63, suites._CHAIN_STREAM, dim, ancilla], i)
    return oracles.chain_draws(streams, i % oracles.BLOCK + 1, dim, ancilla)


@pytest.mark.parametrize("dim,ancilla", [(2, 1), (3, 2), (5, 3)])
def test_chain_models_are_the_plain_sequential_draws(dim, ancilla):
    for n, b in ((10, 0), (134, 1)):
        _, block, streams = list(suites._sweep(23, suites._CHAIN_STREAM, ((dim, ancilla),), n))[b]
        xi, u, rho, a, b = suites._chain_models(streams, len(block), dim, ancilla)
        for k, i in enumerate(block):
            ket, factor, g, a_i, b_i = chain_plain_draws(23, dim, ancilla, i)
            assert np.array_equal(xi[k], pure_states(ket))
            assert np.array_equal(u[k], generate.haar_unitaries(factor))
            assert np.array_equal(rho[k], generate.ginibre_states(g))
            assert np.array_equal(a[k], kernels.hermitian_part(a_i))
            assert np.array_equal(b[k], kernels.hermitian_part(b_i))


@pytest.mark.parametrize("seed", [0, 1, -1, 812, 20240811, 2**32 - 1, 2**32, 2**63 - 1])
@pytest.mark.parametrize("suite,parts", [("main-relation", (2, 0)), ("ozawa-chain", (3, 0, 7)), ("affineness", (0, 0))])
def test_stream_key_is_the_key_numpy_derives_from_the_list(seed, suite, parts):
    """``_sweep`` keys the j-th array of block b of a key (``parts`` is the
    key, then b) by ``default_rng([seed % 2**63, stream, *key, b, j])``,
    the seed taken modulo 2**63 (one 32-bit word, or two from 2**32 on),
    and stream ``_CHAIN_STREAM`` for the chain suite, ``_VERIFY_STREAM``
    for every verify suite."""
    *key, b = parts
    key = key[0] if len(key) == 1 else tuple(key)
    stream = suites._CHAIN_STREAM if suite == "ozawa-chain" else suites._VERIFY_STREAM
    sweeps = list(suites._sweep(seed, stream, [key], b * suites._BLOCK + 1))
    assert [(k, block) for k, block, _ in sweeps[b:]] == [(key, range(b * suites._BLOCK, b * suites._BLOCK + 1))]
    streams = sweeps[b][2]
    for j in range(3):
        plain = np.random.default_rng([seed % 2**63, stream, *parts, j])
        ours = next(streams)
        assert np.array_equal(ours.standard_normal(64), plain.standard_normal(64))
        assert np.array_equal(ours.integers(0, 2**62, 64), plain.integers(0, 2**62, 64))


def test_block_instances_are_the_generators_on_their_own_streams():
    """The columns of a sweep's first 12 instances are the same, bit for bit,
    whether their block holds 12 instances or 128."""
    _, short = draw_block(11, 4, 12)
    _, full = draw_block(11, 4, 140)
    assert short.keys() == full.keys()
    assert all(np.array_equal(short[key], full[key][:12]) for key in full)


# numpy's PCG64 multiplier.  A step maps the 128-bit state S to S mult + inc
# and outputs rotr64(hi ^ lo, hi >> 58) of the stepped state's two words.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def generator_next_raw(x, hi=0x9E3779B97F4A7C15, inc=0xDA3E39CB94B95BDB):
    """A fresh ``PCG64`` generator whose next raw output is ``x``: the stepped
    state of high word ``hi`` that outputs x, stepped back once."""
    rot = hi >> 58
    stepped = hi << 64 | hi ^ ((x << rot | x >> (64 - rot)) & (2**64 - 1))
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": (stepped - inc) * pow(_PCG64_MULT, -1, 2**128) % 2**128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bit_generator)


# A rejected low half, both halves rejected (the next output decides), two plain outputs.
_RAW = [0xDEADBEEF00000000, 0, 0x0123456789ABCDEF, 0xFEDCBA9876543210]


# The places in the draw order of the two bounded counts: the POVM's outcome count and the weights' count.
_COUNTS = (0, 16)


@pytest.mark.parametrize("x", _RAW)
@pytest.mark.parametrize("suite", suites._SUITES)
def test_drawers_are_the_plain_draws_on_any_raw_output(x, suite):
    """The columns a suite reads, with both counts drawn from streams whose
    first raw output is ``x``, are the plain calls' instance, whichever
    branch numpy's bounded draw of a count takes (its rejection branches,
    which no seed reaches in practice, among them)."""
    assert generator_next_raw(x).bit_generator.random_raw() == x

    def streams():
        for j in itertools.count():
            yield generator_next_raw(x) if j in _COUNTS else np.random.default_rng(j)

    cols = suites._draw_block(streams(), 1, 3)
    plain = oracles.verify_draws(streams(), 1, 3)
    assert_block_is_the_plain_draws(cols, range(1), lambda i: plain, READS[suite])


class CountingGenerator:
    """A generator that counts the calls of its methods by name in ``calls``."""

    def __init__(self, rng, calls):
        self.rng, self.calls = rng, calls

    def __getattr__(self, name):
        attr = getattr(self.rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


@pytest.mark.parametrize("suite", suites._SUITES)
def test_each_array_is_one_call(suite, monkeypatch):
    """A suite run alone draws its block's whole layout, each array for all
    the block's instances by one call on a stream of its own, as many
    streams as the plain draws of an instance take."""
    calls, streams = [], suites._streams

    def counted(*key):
        for rng in streams(*key):
            calls.append(collections.Counter())
            yield CountingGenerator(rng, calls[-1])

    monkeypatch.setattr(suites, "_streams", counted)
    run(suite, (3,), 40, 3)
    plain = []
    oracles.verify_draws((plain.append(rng) or rng for rng in oracles.instance_streams([3, 0, 3], 0)), 1, 3)
    assert [sum(c.values()) for c in calls] == [1] * len(plain)
    assert [j for j, c in enumerate(calls) if "integers" in c] == list(_COUNTS)


def spoil_factors(monkeypatch, spoil):
    """Make ``_draw_block`` pass instance 1 of each block's POVM factors, as
    complex ``(outcomes, d, d)`` without the zero padding, through ``spoil``
    before it whitens them (``suites.povm_effects``)."""
    whiten = suites.povm_effects

    def spoiled(factors):
        outcomes = int(np.any(factors[1] != 0.0, axis=(-2, -1)).sum())
        factors[1, :outcomes] = spoil(factors[1, :outcomes])
        return whiten(factors)

    monkeypatch.setattr(suites, "povm_effects", spoiled)


def test_unwhitenable_factors_fail_closed(monkeypatch, capsys):
    """Zero POVM factors (a singular sum_w G_w^dag G_w) in one instance are not
    drawn again: ``_draw_block`` raises, with no numpy warning (pytest fails
    on one), and ``verify`` exits 2 with one "error:" line and no report, the
    non-finite branch of ``povm_effects``' guard."""
    spoil_factors(monkeypatch, np.zeros_like)
    with pytest.raises(ValueError):
        draw_block(5, 3, 4)
    code = main(["verify", "--dims", "2,3", "--n", "4", "--seed", "5"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: effect entries must be finite\n")


def test_ill_conditioned_factors_fail_closed(monkeypatch, capsys):
    """Finite factors too ill-conditioned to whiten in one instance make
    ``_draw_block`` raise, and ``verify`` exit 2 with one "error:" line and
    no report, the identity branch of ``povm_effects``' guard."""
    rng = np.random.default_rng(1)
    spoil_factors(monkeypatch, lambda factors: ill_conditioned_factors(factors, rng))
    with pytest.raises(ValueError, match="^effects sum to identity only within "):
        draw_block(5, 3, 4)
    code = main(["verify", "--dims", "2,3", "--n", "4", "--seed", "5"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: effects sum to identity only within \d\.\d{3}e-\d\d\n", err)


def test_chain_failure_names_the_model():
    """A chain failure reads "<what> at dim=<d>x<a> i=<i>", and its values
    are those of ``chain_check`` on the same model."""
    out = suites.suite_ozawa_chain(((3, 2),), 2, seed=4, slack=-1.0)
    assert out.failures == 6 and len(out.messages) == 5
    assert out.messages[0].startswith("bridge identity broke at dim=3x2 i=0: ")
    assert out.messages[1] == "rms error below intrinsic error at dim=3x2 i=0"
    head, values = out.messages[2].split(": ", 1)
    assert head == "chain broke at dim=3x2 i=0"
    ket, factor, g, a, b = chain_plain_draws(4, 3, 2, 0)
    model = pure_states(ket), generate.haar_unitaries(factor), generate.diagonal_meter(2)
    rho, a, b = generate.ginibre_states(g), kernels.hermitian_part(a), kernels.hermitian_part(b)
    _, report = chain_check(*model, rho, a, b, slack=-1.0)
    assert np.allclose(ast.literal_eval(values), report.values, rtol=0.0, atol=1e-12)
    assert out.messages[3].startswith("bridge identity broke at dim=3x2 i=1: ")


def test_errorless_failure_lists_the_conditions(monkeypatch):
    """An errorless-equivalence failure reads "<what> at dim=<d> i=<i>: "
    followed by the five fields of the instance's ``kernels.Errorless`` as
    Python scalars."""
    monkeypatch.setattr(kernels, "DEFAULT_TOL", replace(kernels.DEFAULT_TOL, errorless=0.0))
    [out] = run("errorless-equivalence", (2, 3), 4, seed=6)
    assert out.failures > 0 and out.messages
    number = r"(-?[0-9][0-9.e+-]*|nan|inf)"
    numbers = [f"{name}={number}" for name in ("violation", "error", "roundtrip_residual", "scale")]
    fields = ", ".join(["errorless=(True|False)", *numbers])
    for message in out.messages:
        assert re.fullmatch(rf"[a-z ]+ at dim=[23] i=[0-3]: .*?{fields}\)?", message), message
        assert "np." not in message


def test_errorless_bound_holds_between_the_thresholds():
    """Instance 31 at dim 2 of seed 2608764119, as it was drawn when each
    instance had a stream of its own and errorless-equivalence the stream id
    7 (every draw from ``default_rng([2608764119, 7, 2, 31])``, call by
    call), is errorless by (a), eps^2 <= tau ||A||_rho^2, while its
    round-trip residual r exceeds tau ||A||_rho, so no threshold on r agrees
    with (a) there; the exact bound r^2 <= eps^2 <= r (2m + r) holds on it,
    and the suite's checks pass on it."""
    rng = np.random.default_rng([2608764119, 7, 2, 31])
    outcomes = int(rng.integers(2, 7))
    pure = rng.random() < 0.3
    cols = {"povm": generate.povm_effects(oracles.povm_factors(rng, outcomes, 2))}
    rho = oracles.complex_gaussian(rng, (2,) if pure else (2, 2))
    cols["rho"] = pure_states(rho) if pure else generate.ginibre_states(rho)
    cols["a"], cols["b"] = (kernels.hermitian_part(oracles.complex_gaussian(rng, (2, 2))) for _ in range(2))
    cols["rho2"] = generate.ginibre_states(oracles.complex_gaussian(rng, (2, 2)))
    cols["scale"], cols["shift"] = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    cols = {key: np.asarray(value)[None] for key, value in cols.items()}
    ctx = cols["ctx"] = kernels.context(cols["povm"], cols["rho"])
    cols["rel"], cols["spectral"] = kernels.relation(ctx, cols["a"], cols["b"]), kernels.spectral(cols["a"])
    e = kernels.errorless(ctx, cols["a"], cols["rel"].transport_a)
    assert e.errorless[0] and e.roundtrip_residual[0] > DEFAULT_TOL.errorless * e.scale[0]
    assert e.violation[0] <= suites._BOUND_ROUNDOFF * e.scale[0] ** 2
    out = SuiteResult("errorless-equivalence")
    out.record_block(2, range(31, 32), suites._errorless_equivalence(cols, DEFAULT_TOL.identity))
    assert (out.checks, out.failures) == (6, 0)


def summaries(results) -> list:
    return [(r.name, r.checks, r.failures, repr(r.worst), r.messages) for r in results]


def sweep_summaries(failing: bool = False, n: int = 7) -> list:
    """Every verify suite and the chain suite at dims 2 and 3, n instances,
    seed 9; ``failing``, with the sign flip and a roundoff-level slack."""
    slack = 1e-16 if failing else DEFAULT_TOL.identity
    results = suites.run_verify((2, 3), n, seed=9, slack=slack, sign_flip=failing)
    return summaries([*results, suites.suite_ozawa_chain(((2, 2), (3, 2)), n, seed=9, slack=slack)])


@pytest.mark.parametrize("failing", [False, True])
def test_results_do_not_depend_on_the_block_size(monkeypatch, failing):
    """Every check of instances 0..31 of every suite has the same residual
    and slack, bit for bit, whether their block holds 32 instances (``--n
    32``) or 128 (``--n 300``: two full blocks and a ragged last one); also
    on failing runs, with the sign flip and roundoff-level slacks: the
    slack, and the suites' fixed validation and expectation slacks."""
    if failing:
        monkeypatch.setattr(suites, "DEFAULT_TOL", replace(DEFAULT_TOL, validation=1e-16, expectation=1e-16))
    seen, record = [], SuiteResult.record_block

    def recording(self, dim, block, checks):
        for what, residual, slack, *_ in checks:
            for name, value in (("residual", residual), ("slack", slack)):
                for i, x in zip(block, np.broadcast_to(value, len(block))):
                    seen[-1][self.name, dim, what, name, i] = x.tobytes()
        record(self, dim, block, checks)

    monkeypatch.setattr(SuiteResult, "record_block", recording)
    for n in (32, 300):
        seen.append({})
        failed = sum(failures > 0 for _, _, failures, _, _ in sweep_summaries(failing, n))
        assert failed == (8 if failing else 0)
    short, long = seen
    assert short == {key: value for key, value in long.items() if key[-1] < 32}


def test_run_verify_draws_each_block_once(monkeypatch):
    """One sweep block per dimension at n = 100, drawn once for all nine
    verify suites."""
    calls, draw = [], suites._draw_block

    def counted(streams, m, dim):
        calls.append((m, dim))
        return draw(streams, m, dim)

    monkeypatch.setattr(suites, "_draw_block", counted)
    suites.run_verify((2, 3, 4, 5), 100, 8)
    assert calls == [(100, 2), (100, 3), (100, 4), (100, 5)]


@pytest.mark.parametrize("failing", [False, True])
def test_results_are_the_table_rows_in_order(failing):
    """``run_verify`` reports one result per ``_SUITES`` entry, named by its
    key, in table order, passing or failing."""
    results = suites.run_verify((2,), 5, 3, 1e-16 if failing else DEFAULT_TOL.identity, failing)
    assert [r.name for r in results] == list(suites._SUITES)
    assert any(not r.passed for r in results) is failing


@pytest.mark.parametrize("failing", [False, True])
def test_each_suite_alone_is_as_in_the_full_run(monkeypatch, failing):
    """Each verify suite, proof-tie-identity among them, run alone by
    ``_run`` counts the same checks and failures, the same worst residual
    and the same messages as in the full run, where the suites before it
    have read the same columns: no checks function writes into the block
    they share.  Also on failing runs, with the sign flip and
    roundoff-level slacks."""
    if failing:
        monkeypatch.setattr(suites, "DEFAULT_TOL", replace(DEFAULT_TOL, validation=1e-16, expectation=1e-16))
    slack = 1e-16 if failing else DEFAULT_TOL.identity
    full = summaries(suites.run_verify((2, 3), 150, 9, slack, failing))
    alone = [row for suite in suites._SUITES for row in summaries(run(suite, (2, 3), 150, 9, slack, failing))]
    assert alone == full
    assert sum(failures > 0 for _, _, failures, _, _ in full) == (7 if failing else 0)


def test_dropped_real_term_fails_trivial_reduction(monkeypatch):
    """With the bound |I| in place of sqrt(R^2 + I^2) (R dropped), every
    instance fails trivial-reduction, which checks the bound against
    hypot(Cov, <[A,B]/2i>); unmutated, the suite passes."""
    relation = kernels.relation

    def dropped_r(*args, **kwargs):
        rel = relation(*args, **kwargs)
        bound = np.abs(rel.imag_term)
        return rel._replace(bound=bound, slack=rel.eps_a * rel.eps_b - bound)

    assert run("trivial-reduction", (2, 3), 20, seed=3)[0].passed
    monkeypatch.setattr(kernels, "relation", dropped_r)
    [out] = run("trivial-reduction", (2, 3), 20, seed=3)
    assert (out.checks, out.failures) == (160, 40)
    assert all(m.startswith("reduced terms mismatch at dim=2 i=") for m in out.messages)
