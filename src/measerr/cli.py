"""Command-line surface.

Subcommands: ``verify`` (property suites), ``scan`` (parameter families to CSV), ``demo`` (named
scenarios), ``chain`` (indirect-model comparison).  Exit codes: 0 all checks pass, 1 a property was
violated, 2 usage or I/O error, 3 internal error: a numerical one (contractivity violated, a
non-real expectation, a broken error decomposition) or a ``KeyError`` from a bug.  Every report
embeds a run manifest for reproducibility.  ``main`` has glibc keep its process's freed heap for
reuse (``_keep_freed_heap``), so blocks stop faulting in fresh pages.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import math
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .generate import RNG_ALGORITHM, gaussians, ginibre_states
from .indirect import chain_check, cnot_model
from .kernels import context, hermitian_part, relation, relation_allowance, schroedinger, spectral
from .measurement import noisy_projective, trivial_measurement, unsharp_qubit
from .serialize import (
    CSV_HEADER,
    format_float,
    json_text,
    load_model,
    load_observable,
    load_povm,
    load_state,
    relation_csv_row,
)
from .states import PAULI_X, PAULI_Y, PAULI_Z, qubit_state
from .suites import run_verify, suite_ozawa_chain
from .tolerances import DEFAULT_TOL

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_FAMILIES = ("unsharp", "noisy-projective", "custom")
# Largest number of points a start:stop:step grid may hold.
_MAX_GRID_POINTS = 10_000
# Largest ancilla dimension of random chain models: joint dimensions stay at most 8 * 8.
_MAX_ANCILLA = 8
# Freed heap that glibc keeps above the heap's top for reuse (mallopt's M_TOP_PAD, -2).
_KEPT_HEAP_BYTES = 64 << 20


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}") from exc
    if not dims or any(not 2 <= d <= 8 for d in dims):
        raise argparse.ArgumentTypeError("dimensions must lie in 2..8")
    if len(set(dims)) < len(dims):
        raise argparse.ArgumentTypeError(f"repeated dimension in {text!r}")
    return dims


def _int_range(low: int, high: float = math.inf):
    """argparse type accepting one integer in ``low..high``."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
        if not low <= n <= high:
            bound = f"lie in {low}..{high}" if high < math.inf else f"be at least {low}"
            raise argparse.ArgumentTypeError(f"must {bound}, got {n}")
        return n

    return parse


def _parse_tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}") from exc
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {text}")
    return value


def _parse_grid(text: str) -> tuple[float, ...]:
    """Accept 'a,b,c' or 'start:stop:step' (stop inclusive up to roundoff).

    A range holds start + k step for k up to the floor of (stop - start) /
    step plus 1e-9 for roundoff, so no point runs past stop.  The grid must
    not be empty, and a range may hold at most ``_MAX_GRID_POINTS`` points;
    that count is checked before any point is built."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("grid range must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise argparse.ArgumentTypeError("grid range must be finite")
        if step <= 0:
            raise argparse.ArgumentTypeError("grid step must be positive")
        span = (stop - start) / step
        if not span <= _MAX_GRID_POINTS - 1:
            raise argparse.ArgumentTypeError(f"grid range holds more than {_MAX_GRID_POINTS} points")
        grid = tuple(start + k * step for k in range(math.floor(span + 1e-9) + 1))
    else:
        try:
            grid = tuple(float(p) for p in text.split(",") if p.strip())
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad grid {text!r}") from exc
    if not grid:
        raise argparse.ArgumentTypeError(f"grid {text!r} holds no points")
    return grid


def _manifest(args, subcommand: str, passed: int, failed: int, started: float, dims=(), instances: int = 0) -> dict:
    """The provenance block embedded in every report."""
    return {
        "spec_version": __version__,
        "subcommand": subcommand,
        "seed": getattr(args, "seed", 0),
        "dims": list(dims),
        "instances": instances,
        "rng_algorithm": RNG_ALGORITHM,
        "tolerances": {**asdict(DEFAULT_TOL), "identity": args.tolerance},
        "checks_passed": passed,
        "checks_failed": failed,
        "wall_time_s": time.perf_counter() - started,
    }


def _emit_json(args, payload: dict) -> None:
    text = json_text(payload)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _print_suites(results) -> tuple[int, int]:
    """Print each suite's status line and messages; return (checks passed, checks failed)."""
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{status:4s} {r.name}: {r.checks} checks, {r.failures} failures, worst {r.worst:.3e}")
        for msg in r.messages:
            print(f"     {msg}")
    failed = sum(r.failures for r in results)
    return sum(r.checks for r in results) - failed, failed


def cmd_verify(args) -> int:
    started = time.perf_counter()
    results = run_verify(args.dims, args.n, args.seed, args.tolerance, sign_flip=args.self_test_sign_flip)
    passed, failed = _print_suites(results)
    manifest = _manifest(args, "verify", passed, failed, started, dims=args.dims, instances=args.n)
    payload = {
        "manifest": manifest,
        "suites": {r.name: r.as_dict() for r in results},
    }
    _emit_json(args, payload)
    if failed:
        failing = ", ".join(r.name for r in results if not r.passed)
        print(f"FAILED suites: {failing}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _relation_holds(rep, slack: float) -> bool:
    """main-relation's rule: -rep.slack is finite and at most ``kernels.relation_allowance``."""
    return math.isfinite(rep.slack) and -rep.slack <= relation_allowance(rep, slack)


def cmd_scan(args) -> int:
    started = time.perf_counter()
    custom = args.family == "custom"
    if args.family not in _FAMILIES:
        raise ValueError(f"unknown family {args.family!r}; choose from {_FAMILIES}")
    if custom and not args.povm:
        raise ValueError("family 'custom' needs --povm FILE")
    if custom and args.grid is not None:
        raise ValueError("family 'custom' takes no --grid")
    if not custom and args.povm is not None:
        raise ValueError(f"family {args.family!r} takes no --povm")
    rho = load_state(args.state) if args.state else np.eye(2, dtype=complex) / 2.0
    obs_a = load_observable(args.obs_a) if args.obs_a else PAULI_Z
    obs_b = load_observable(args.obs_b) if args.obs_b else PAULI_X

    if custom:
        kind, effects = load_povm(args.povm)
        grid, build = (None,), lambda _: effects
    else:
        kind = args.family
        grid = args.grid if args.grid is not None else tuple(k / 10.0 for k in range(11))
        build = (functools.partial(unsharp_qubit, (0.0, 0.0, 1.0)) if kind == "unsharp"
                 else functools.partial(noisy_projective, obs_a))
    rows = [(param, relation(context(build(param), rho, obs_a, obs_b), obs_a, obs_b)) for param in grid]

    dim = rho.shape[-1]
    lines = [CSV_HEADER] + [relation_csv_row(dim, kind, rep, param) for param, rep in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")

    failed = sum(not _relation_holds(rep, args.tolerance) for _, rep in rows)
    if args.json:
        manifest = _manifest(
            args, "scan", len(rows) - failed, failed, started, dims=(dim,), instances=len(rows)
        )
        _emit_json(args, {"manifest": manifest, "rows": len(rows), "family": args.family})
    return EXIT_VIOLATION if failed else EXIT_OK


def _demo_naive_violation(slack: float) -> tuple[list[str], int]:
    report = relation(context(spectral(PAULI_Z)[1], qubit_state(y=0.8)), PAULI_X, PAULI_Z)
    holds = _relation_holds(report, slack)
    lines = [
        "scenario: sharp Z readout on the qubit state (I + 0.8 Y)/2, observables X and Z",
        f"error product  = {format_float(report.eps_a * report.eps_b, 12)}",
        f"bound sqrt(R^2+I^2) = {format_float(report.bound, 12)}",
        f"bare commutator bound = {format_float(report.naive_bound, 12)}",
        f"commutator bound undercut: {report.naive_violated} (relation itself holds: {holds})",
    ]
    return lines, 0 if report.naive_violated and holds else EXIT_VIOLATION


def _demo_kr_reduction(slack: float) -> tuple[list[str], int]:
    """Its three checks keep fixed slacks, so it takes only the default ``slack``."""
    if slack != DEFAULT_TOL.identity:
        raise ValueError("demo kr-reduction takes no --tolerance: its checks keep fixed slacks")
    _, report = schroedinger(context(trivial_measurement([0.5, 0.5], 2), qubit_state(z=1.0)), PAULI_X, PAULI_Y)
    ok = (
        abs(report.product - report.bound) <= DEFAULT_TOL.expectation
        and report.kr_bound <= report.bound + 1e-12
        and max(report.eps_sigma_residual_a, report.eps_sigma_residual_b) <= DEFAULT_TOL.expectation
    )
    lines = [
        "scenario: non-informative measurement on |0><0|, observables X and Y",
        f"sigma(X) sigma(Y) = {format_float(report.product, 12)}",
        f"standard-deviation bound = {format_float(report.bound, 12)} (saturated)",
        f"commutator-only bound = {format_float(report.kr_bound, 12)}",
        f"error equals standard deviation within {format_float(max(report.eps_sigma_residual_a, report.eps_sigma_residual_b), 3)}",
    ]
    return lines, 0 if ok else EXIT_VIOLATION


def _demo_ozawa_chain(slack: float) -> tuple[list[str], int]:
    _, report = chain_check(*cnot_model(), qubit_state(y=0.8), PAULI_X, PAULI_Z, slack)
    names = (
        "rms product",
        "error product",
        "bound",
        "|I|",
        "rms-based lower bound",
    )
    lines = ["scenario: controlled-flip probe on (I + 0.8 Y)/2, observables X and Z"]
    lines += [f"{name} = {format_float(val, 12)}" for name, val in zip(names, report.values)]
    lines += [
        f"chain holds: {report.holds.all()}",
        f"rms(X) = {format_float(report.rms_a, 12)}, intrinsic error(X) = {format_float(report.eps_a, 12)}, error(Z) = {format_float(report.eps_b, 12)}",
    ]
    return lines, 0 if report.holds.all() else EXIT_VIOLATION


_DEMOS = {
    "naive-violation": _demo_naive_violation,
    "kr-reduction": _demo_kr_reduction,
    "ozawa-chain": _demo_ozawa_chain,
}


def cmd_demo(args) -> int:
    started = time.perf_counter()
    if args.name not in _DEMOS:
        raise ValueError(f"unknown demo {args.name!r}; choose from {tuple(_DEMOS)}")
    lines, code = _DEMOS[args.name](args.tolerance)
    for line in lines:
        print(line)
    manifest = _manifest(args, f"demo:{args.name}", int(code == 0), int(code != 0), started)
    print("manifest: " + json_text(manifest).replace("\n", " "))
    if args.json:
        _emit_json(args, {"manifest": manifest, "lines": lines})
    return code


# The random chain sweep's flags and their defaults; ``chain --model`` reads none of them.
_CHAIN_SWEEP = {"dims": (2, 3), "ancilla": 2, "n": 50}


def cmd_chain(args) -> int:
    started = time.perf_counter()
    checks_failed = 0
    checks_passed = 0

    given = {name: getattr(args, name) for name in _CHAIN_SWEEP if getattr(args, name) is not None}
    if args.model:
        if given:
            flags = ", ".join(f"--{name}" for name in given)
            raise ValueError(f"chain --model takes no {flags}: it checks the one model on one drawn state")
        xi, u, meter = load_model(args.model)
        dim = u.shape[-1] // xi.shape[-1]
        dims, instances = (dim,), 1
        # a Ginibre state, then A, then B: each its real block, then its imaginary block
        draws = gaussians(np.random.default_rng(args.seed), 3, dim, dim)
        a, b = hermitian_part(draws[1:])
        _, report = chain_check(xi, u, meter, ginibre_states(draws[0]), a, b, args.tolerance)
        print(f"custom model chain values: {[format_float(v, 12) for v in report.values]}")
        holds = report.holds.all()
        print(f"chain holds: {holds}")
        checks_passed += int(holds)
        checks_failed += int(not holds)
    else:
        demo_lines, demo_code = _demo_ozawa_chain(args.tolerance)
        for line in demo_lines:
            print(line)
        checks_passed += int(demo_code == 0)
        checks_failed += int(demo_code != 0)

        sweep = {**_CHAIN_SWEEP, **given}
        dims, instances = sweep["dims"], sweep["n"]
        pairs = tuple((d, sweep["ancilla"]) for d in dims)
        passed, failed = _print_suites([suite_ozawa_chain(pairs, instances, args.seed, args.tolerance)])
        checks_passed += passed
        checks_failed += failed

    manifest = _manifest(args, "chain", checks_passed, checks_failed, started, dims=dims, instances=instances)
    if args.json:
        _emit_json(args, {"manifest": manifest})
    return EXIT_VIOLATION if checks_failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The parser of every argv, built once per process (``_parsers``)."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's, built once per process: argparse keeps no
    state between ``parse_args`` calls, and ``main`` looks up the command functions itself."""
    parser = argparse.ArgumentParser(
        prog="measerr",
        description="Numerical laboratory for measurement-error geometry and its uncertainty bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=_parse_tolerance, default=DEFAULT_TOL.identity, help="slack of the property checks (default 1e-9); inputs are always validated at the defaults")
    common.add_argument("--json", type=str, default=None, help="write the JSON report to this path")

    p_verify = sub.add_parser("verify", parents=[common], help="run every property suite")
    p_verify.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p_verify.add_argument("--dims", type=_parse_dims, default=(2, 3), help="comma-separated dimensions in 2..8")
    p_verify.add_argument("--n", type=_int_range(1), default=200, help="instances per dimension per suite")
    p_verify.add_argument(
        "--self-test-sign-flip",
        action="store_true",
        help="corrupt a commutator sign on purpose to prove the harness can fail",
    )

    p_scan = sub.add_parser("scan", parents=[common], help="parameter-family scan to CSV")
    p_scan.add_argument("--family", type=str, required=True, help=f"one of {_FAMILIES}")
    p_scan.add_argument("--grid", type=_parse_grid, default=None, help="comma list or start:stop:step")
    p_scan.add_argument("--state", type=str, default=None, help="JSON density matrix (default: maximally mixed qubit)")
    p_scan.add_argument("--obs-a", type=str, default=None, help="JSON observable A (default: qubit Z)")
    p_scan.add_argument("--obs-b", type=str, default=None, help="JSON observable B (default: qubit X)")
    p_scan.add_argument("--povm", type=str, default=None, help="JSON POVM (family 'custom' only)")
    p_scan.add_argument("--out", type=str, default=None, help="CSV output path (default: stdout)")

    p_demo = sub.add_parser("demo", parents=[common], help="named deterministic scenarios")
    p_demo.add_argument("name", type=str, help=f"one of {tuple(_DEMOS)}")

    p_chain = sub.add_parser("chain", parents=[common], help="indirect-model error comparison chain")
    p_chain.add_argument("--seed", type=int, default=0, help="base RNG seed")
    # The random sweep's flags default to None, so that ``--model`` can reject them.
    p_chain.add_argument("--dims", type=_parse_dims, default=None, help="system dimensions (default 2,3)")
    p_chain.add_argument("--ancilla", type=_int_range(1, _MAX_ANCILLA), default=None, help=f"ancilla dimension in 1..{_MAX_ANCILLA} for random models (default 2)")
    p_chain.add_argument("--n", type=_int_range(1), default=None, help="random models per dimension (default 50)")
    p_chain.add_argument("--model", type=str, default=None, help="JSON indirect model to check instead")

    return parser, {"verify": p_verify, "scan": p_scan, "demo": p_demo, "chain": p_chain}


@functools.cache
def _keep_freed_heap() -> None:
    with contextlib.suppress(OSError, TypeError, AttributeError):  # no mallopt off glibc
        ctypes.CDLL(None).mallopt(-2, _KEPT_HEAP_BYTES)


def _parse(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one pass where argv starts with a subcommand: its
    parser alone reads the rest, and leftovers get the top-level parser's error, as they would."""
    parser, subparsers = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in subparsers:
        return parser.parse_args(argv)
    args, extras = subparsers[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _parse(argv)
    command = {"verify": cmd_verify, "scan": cmd_scan, "demo": cmd_demo, "chain": cmd_chain}[args.command]
    try:
        return command(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ArithmeticError, AssertionError, KeyError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
