"""Suite bookkeeping: how checks, failures and the worst residual add up,
and how often the suites transport an observable."""

import ast
import itertools
import math
import re
from dataclasses import replace

import instances
import numpy as np
import oracles
import pytest

from measerr import chain_check, evaluate_relation, local_context
from measerr import generate, kernels, suites
from measerr.cli import main
from measerr.states import check_states, pure_states
from measerr.tolerances import DEFAULT_TOL
from measerr.suites import SuiteResult
from test_chain_kernels import chain_arguments


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
    """Count the calls of the transport kernel ``kernels.pushforward``, which
    ``kernels.transport`` calls once: one call transports one observable, for
    one instance or for a whole (suite, dim) block."""
    calls = []
    original = kernels.pushforward

    def counted(ctx, a):
        calls.append(a.shape)
        return original(ctx, a)

    monkeypatch.setattr(kernels, "pushforward", counted)
    return calls


@pytest.fixture
def kernel_calls(monkeypatch):
    """The names of the ``kernels.norm`` and ``kernels.pullback`` calls, in call order."""
    calls = []
    for name in ("norm", "pullback"):
        def counted(*args, name=name, original=getattr(kernels, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(kernels, name, counted)
    return calls


class TestTransportOnce:
    """Each (context, observable) is transported once: by one kernel call per
    observable per (suite, dim) block.  A kernel reads the norms ||A||_rho,
    the estimator's pullback and its reconstruction cost that the block has
    already computed instead of computing them again."""

    @pytest.mark.parametrize("kernel,norms,pullbacks", [("chain", 7, 3), ("errorless", 3, 1), ("relation", 2, 2)])
    def test_norm_and_pullback_calls(self, kernel_calls, kernel, norms, pullbacks):
        ctx, a, b, meter_h, joint, values = chain_arguments(5, 3, 2, range(4))
        args = {"chain": (ctx, a, b, meter_h, joint, values, 1e-9), "errorless": (ctx, a), "relation": (ctx, a, b)}
        kernel_calls.clear()
        getattr(kernels, kernel)(*args[kernel])
        assert (kernel_calls.count("norm"), kernel_calls.count("pullback")) == (norms, pullbacks)

    def test_evaluate_relation(self, transport_calls):
        rng = np.random.default_rng(1)
        ctx = local_context(instances.povm(rng, 3, 4).effects, instances.state(rng, 3).matrix)
        evaluate_relation(ctx, instances.observable(rng, 3), instances.observable(rng, 3))
        assert transport_calls == [(3, 3)] * 2

    def test_chain_check(self, transport_calls):
        rng = np.random.default_rng(2)
        for dim in (2, 3, 5):
            model = instances.indirect_model(rng, dim)
            rho = instances.state(rng, dim)
            chain_check(model, rho, instances.observable(rng, dim), instances.observable(rng, dim))
        assert len(transport_calls) == 2 * 3

    def test_error_decomposition(self, transport_calls):
        run("error-decomposition", (2, 4), 3, seed=5)
        assert transport_calls == [(3, 2, 2), (3, 4, 4)]

    def test_blocks_bound_the_stack(self, transport_calls):
        n = 2 * suites._BLOCK + 1
        run("error-decomposition", (3,), n, seed=5)
        assert transport_calls == [(suites._BLOCK, 3, 3)] * 2 + [(1, 3, 3)]

    def test_ozawa_chain(self, transport_calls):
        # a and b per block, with a partial last block
        n = 2 * suites._BLOCK + 1
        suites.suite_ozawa_chain(((3, 2),), n, seed=5)
        assert transport_calls == [(suites._BLOCK, 3, 3)] * 4 + [(1, 3, 3)] * 2

    def test_transport_adjointness(self, transport_calls):
        # a, b and the linear combination alpha a + beta b, per block
        run("transport-adjointness", (2, 4), 3, seed=5)
        assert transport_calls == [(3, 2, 2)] * 3 + [(3, 4, 4)] * 3


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


def draw_block(seed, suite, dim, block):
    """``suites._draw_block`` of the instances ``block`` of one (suite, dim)
    sweep, in the suite's layout and by its drawer."""
    layout, draw, _ = suites._SUITES[suite]
    states = suites._stream_states(seed, suite, [(dim, i) for i in block])
    return suites._draw_block(states, dim, layout, draw)


def assert_block_is_the_plain_draws(cols, seed, suite, dim, block):
    """Every column of a ``_draw_block`` result equals, instance by instance,
    ``oracles.verify_draws`` on the instance's stream: the POVM as the
    effects of the plain factors, a state as the validated projector of its
    ket or normalized Ginibre matrix (so the pure-state coin decides which),
    the other complex arrays and every other draw exactly, with rows over
    outcomes zero-padded."""
    for k, i in enumerate(block):
        plain = oracles.verify_draws(suites._rng(seed, suite, dim, i), suite, dim)
        plain.pop("pure", None)
        assert cols.keys() == plain.keys()
        for key, want in plain.items():
            got = cols[key][k]
            if key == "povm":
                want = generate.povm_effects(want)
            elif key.startswith("rho"):
                want = check_states(pure_states(want) if want.ndim == 1 else generate.ginibre_states(want))
            if np.ndim(want) and len(want) < len(got):
                assert np.all(got[len(want) :] == 0.0), key
                got = got[: len(want)]
            assert np.array_equal(got, want), key


@pytest.mark.parametrize("suite", suites._SUITES)
@pytest.mark.parametrize("dim", [2, 5])
def test_block_columns_are_the_plain_sequential_draws(suite, dim):
    block = range(3, 15)
    cols = draw_block(19, suite, dim, block)
    assert_block_is_the_plain_draws(cols, 19, suite, dim, block)


@pytest.mark.parametrize("suite", suites._SUITES)
@pytest.mark.parametrize("dim", [2, 5])
def test_full_block_unpacks_every_group(suite, dim):
    """A full block of ``_BLOCK`` instances holds every row layout its
    drawer makes, (outcome count, pure) pairs (the trivial measurement's
    outcome count alone), and each instance equals its plain draws."""
    block = range(suites._BLOCK)
    cols = draw_block(29, suite, dim, block)
    assert_block_is_the_plain_draws(cols, 29, suite, dim, block)
    draws = [oracles.verify_draws(suites._rng(29, suite, dim, i), suite, dim) for i in block]
    groups = {(len(d["povm"]), d.get("pure")) if "povm" in d else len(d["p0"]) for d in draws}
    pure = (False, True) if "pure" in draws[0] else (None,)
    assert groups == ({1, 2, 3, 4} if suite == "trivial-reduction" else {(n, p) for n in range(2, 7) for p in pure})


@pytest.mark.parametrize("dim,ancilla", [(2, 1), (3, 2), (5, 3)])
def test_chain_models_are_the_plain_sequential_draws(dim, ancilla):
    block = range(4, 10)
    states = suites._stream_states(23, "ozawa-chain", [(dim, ancilla, i) for i in block])
    xi, u, rho, a, b = suites._chain_models(states, dim, ancilla)
    for k, i in enumerate(block):
        ket, factor, g, a_i, b_i = oracles.chain_draws(suites._rng(23, "ozawa-chain", dim, ancilla, i), dim, ancilla)
        assert np.array_equal(xi[k], check_states(pure_states(ket)))
        assert np.array_equal(u[k], generate.haar_unitaries(factor))
        assert np.array_equal(rho[k], check_states(generate.ginibre_states(g)))
        assert np.array_equal(a[k], generate.observable_matrices(a_i))
        assert np.array_equal(b[k], generate.observable_matrices(b_i))


@pytest.mark.parametrize("seed", [0, 1, -1, 812, 20240811, 2**32 - 1, 2**32, 2**63 - 1])
@pytest.mark.parametrize("suite,parts", [("main-relation", (2, 0)), ("ozawa-chain", (3, 0, 7)), ("affineness", (0, 0))])
def test_stream_key_is_the_key_numpy_derives_from_the_list(seed, suite, parts):
    """``_rng`` keys each stream by the seed's 32-bit words (two from 2**32
    on), the suite's stream id and the parts: the same stream as numpy's
    ``default_rng`` of the list.  The block seeding hashes batches of such
    keys (keys of 4 to 6 words, zero parts among them) in one pass to the
    seed states numpy derives, and so to the same streams."""
    ours = suites._rng(seed, suite, *parts)
    plain = np.random.default_rng([seed % 2**63, suites._SUITE_STREAM[suite], *parts])
    assert np.array_equal(ours.standard_normal(64), plain.standard_normal(64))
    assert np.array_equal(ours.integers(0, 2**62, 64), plain.integers(0, 2**62, 64))
    assert len(suites._seed_words(seed)) == (2 if seed % 2**63 >= 2**32 else 1)
    for batch in (1, 3, 128, 129, 400):
        rows = [(*parts[:-1], parts[-1] + i) for i in range(batch)]
        states = suites._stream_states(seed, suite, rows)
        assert states.shape == (batch, 4)
        keys = [[seed % 2**63, suites._SUITE_STREAM[suite], *row] for row in rows]
        for key, state in zip(keys, states):
            assert np.array_equal(state, np.random.SeedSequence(key).generate_state(4, np.uint64))
        for k in {0, batch // 2, batch - 1}:
            ours, plain = suites._generator(states[k]), np.random.default_rng(keys[k])
            assert np.array_equal(ours.standard_normal(64), plain.standard_normal(64))
            assert np.array_equal(ours.integers(0, 2**62, 64), plain.integers(0, 2**62, 64))


@pytest.mark.parametrize("words", [4, 5, 6, 7, 8])
def test_seed_states_are_numpys_seed_sequence(words):
    """``_seed_states`` hashes any keys of 4 to 8 uint32 words, all-zero and
    all-ones keys among them, as ``SeedSequence(key).generate_state(4, np.uint64)``."""
    keys = np.random.default_rng(words).integers(0, 2**32, (200, words), dtype=np.uint64).astype(np.uint32)
    keys[0], keys[1], keys[2, 1:] = 0, 2**32 - 1, 0
    states = suites._seed_states(keys.T)
    for key, state in zip(keys, states):
        assert np.array_equal(state, np.random.SeedSequence(key).generate_state(4, np.uint64))


def test_block_instances_are_the_generators_on_their_own_streams():
    """Each instance's POVM, state and first observable are those drawn on
    its stream one instance at a time (``instances``); also in the suites
    that draw more after the POVM."""
    for suite in ("main-relation", "error-decomposition", "errorless-equivalence"):
        cols = draw_block(11, suite, 4, range(12))
        for i in range(12):
            rng = suites._rng(11, suite, 4, i)
            outcomes = int(rng.integers(2, 7))
            pure = rng.random() < 0.3
            assert np.array_equal(cols["povm"][i, :outcomes], instances.povm(rng, 4, outcomes).effects)
            assert np.all(cols["povm"][i, outcomes:] == 0.0)
            assert np.array_equal(cols["rho"][i], instances.state(rng, 4, pure).matrix)
            assert np.array_equal(suites._observables([cols["a"][i]])[0], instances.observable(rng, 4).matrix)
        assert_block_is_the_plain_draws(cols, 11, suite, 4, range(12))


def test_unwhitenable_factors_fail_closed(monkeypatch, capsys):
    """Zero POVM factors (a singular sum_w G_w^dag G_w) in one instance are not
    drawn again: ``_draw_block`` raises, and ``verify`` exits 2 with one
    "error:" line and no report, as any block that ``check_effects`` rejects."""
    gaussians = suites._Block.gaussians

    def zeroed(block, k, rng, outcomes=0, pure=False):
        gaussians(block, k, rng, outcomes, pure)
        if k == 1:
            block.buffer[k, : outcomes * 2 * block.dim**2] = 0.0

    monkeypatch.setattr(suites._Block, "gaussians", zeroed)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            draw_block(5, "main-relation", 3, range(4))
        code = main(["verify", "--dims", "2,3", "--n", "4", "--seed", "5"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: effect entries must be finite\n")


def test_chain_failure_names_the_model():
    """A chain failure reads "<what> at dim=<d>x<a> i=<i>", and its values
    are those of ``chain_check`` on the same model."""
    out = suites.suite_ozawa_chain(((3, 2),), 2, seed=4, slack=-1.0)
    assert out.failures == 6 and len(out.messages) == 5
    assert out.messages[0].startswith("bridge identity broke at dim=3x2 i=0: ")
    assert out.messages[1] == "rms error below intrinsic error at dim=3x2 i=0"
    head, values = out.messages[2].split(": ", 1)
    assert head == "chain broke at dim=3x2 i=0"
    rng = suites._rng(4, "ozawa-chain", 3, 2, 0)
    model = instances.indirect_model(rng, 3)
    rho = instances.state(rng, 3)
    report = chain_check(model, rho, instances.observable(rng, 3), instances.observable(rng, 3), slack=-1.0)
    assert np.allclose(ast.literal_eval(values), report.values, rtol=0.0, atol=1e-12)
    assert out.messages[3].startswith("bridge identity broke at dim=3x2 i=1: ")


def test_errorless_failure_lists_the_conditions(monkeypatch):
    """An errorless-equivalence failure reads "<what> at dim=<d> i=<i>: "
    followed by the six fields of the instance's conditions as Python
    scalars."""
    monkeypatch.setattr(kernels, "DEFAULT_TOL", replace(kernels.DEFAULT_TOL, errorless=0.0))
    [out] = run("errorless-equivalence", (2, 3), 4, seed=6)
    assert out.failures > 0 and out.messages
    flag, number = r"(True|False)", r"(-?[0-9][0-9.e+-]*|nan|inf)"
    fields = ", ".join(
        [f"cond_{c}={flag}" for c in "abc"] + [f"{name}={number}" for name in ("error", "roundtrip_residual", "scale")]
    )
    for message in out.messages:
        assert re.fullmatch(rf"[a-z ]+ at dim=[23] i=[0-3]: .*?{fields}\)?", message), message
        assert "np." not in message


def summaries(results) -> list:
    return [(r.name, r.checks, r.failures, repr(r.worst), r.messages) for r in results]


def sweep_summaries(failing: bool = False) -> list:
    """Every verify suite and the chain suite at dims 2 and 3, n 7, seed 9;
    ``failing``, with the sign flip and a roundoff-level slack."""
    slack = 1e-16 if failing else DEFAULT_TOL.identity
    results = suites.run_verify((2, 3), 7, seed=9, slack=slack, sign_flip=failing)
    return summaries([*results, suites.suite_ozawa_chain(((2, 2), (3, 2)), 7, seed=9, slack=slack)])


@pytest.mark.parametrize("failing", [False, True])
def test_results_do_not_depend_on_the_block_size(monkeypatch, failing):
    """Blocks of 3 (two full blocks and a ragged last one) give every suite
    the checks, failures, worst residual and messages of one block; also on
    failing runs, with the sign flip and roundoff-level slacks: the slack,
    and the suites' fixed validation and expectation slacks."""
    if failing:
        monkeypatch.setattr(suites, "DEFAULT_TOL", replace(DEFAULT_TOL, validation=1e-16, expectation=1e-16))
    default = sweep_summaries(failing)
    assert sum(failures > 0 for _, _, failures, _, _ in default) == (8 if failing else 0)
    monkeypatch.setattr(suites, "_BLOCK", 3)
    assert sweep_summaries(failing) == default


@pytest.mark.parametrize("batch,passes", [(1, [3, 3, 1, 3, 3, 1]), (2, [6, 4, 4])])
def test_results_do_not_depend_on_the_hash_batch(monkeypatch, batch, passes):
    """In blocks of 3, the seed states hashed one block per pass, or two
    blocks per pass (which splits a dimension's three blocks over two
    passes), give every suite the results of one pass over all six blocks."""
    monkeypatch.setattr(suites, "_BLOCK", 3)
    default = sweep_summaries()
    monkeypatch.setattr(suites, "_BATCH", batch)
    hashed, stream_states = [], suites._stream_states
    monkeypatch.setattr(suites, "_stream_states", lambda seed, suite, parts: hashed.append(len(parts)) or
                        stream_states(seed, suite, parts))
    sweeps = list(suites._sweep(9, "main-relation", (2, 3), 7))
    assert [block for _, block, _ in sweeps] == [range(0, 3), range(3, 6), range(6, 7)] * 2
    assert hashed == passes
    assert sweep_summaries() == default


def test_dropped_real_term_fails_trivial_reduction(monkeypatch):
    """With the bound |I| in place of sqrt(R^2 + I^2) (R dropped), every
    instance fails trivial-reduction, which checks the bound against
    hypot(Cov, <[A,B]/2i>); unmutated, the suite passes."""
    relation = kernels.relation

    def dropped_r(*args, **kwargs):
        rel = relation(*args, **kwargs)
        rel.bound = np.abs(rel.imag_term)
        rel.slack = rel.eps_a * rel.eps_b - rel.bound
        return rel

    assert run("trivial-reduction", (2, 3), 20, seed=3)[0].passed
    monkeypatch.setattr(kernels, "relation", dropped_r)
    [out] = run("trivial-reduction", (2, 3), 20, seed=3)
    assert (out.checks, out.failures) == (160, 40)
    assert all(m.startswith("reduced terms mismatch at dim=2 i=") for m in out.messages)
