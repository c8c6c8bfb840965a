"""Benchmark for measerr: one workload per process, driven through ``measerr.cli.main``.

    python3 perfbench/run.py --workload verify-ref --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload scan-custom --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout; ``measerr`` is imported from the
checkout's ``src``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Work files go to ``.perfbench_work`` at the checkout root.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
# BLAS reads its thread count when numpy loads, so the cap is set first.
for _var in BLAS_ENV:
    _current = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_current), NPROC) if _current.isdigit() and int(_current) > 0 else NPROC)

import numpy as np  # noqa: E402

from gates import GateFailure, check_report, check_scan_csv, scan_reference, strict_json  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
# call_p99_ms is the median of the p99s of this many consecutive windows of
# calls, so one burst of interference from other tenants moves it little.
P99_WINDOWS = 5
TRACE_SEED = 0
# Calibration time, in seconds, of the reference machine: a 2-vCPU shared
# virtual machine with numpy 2.4.6 and OpenBLAS, at its typical speed.
REFERENCE_CALIBRATION_S = 0.005
# Every scan pool holds one pure-state and one mixed-state instance for each
# (dimension, outcome count), so seeds change matrix entries but not the mix
# of shapes, which sets most of the per-call cost.
POOL_SHAPES = tuple((d, n, pure) for d in (2, 3, 5, 8) for n in range(2, 7) for pure in (False, True))


@dataclass
class Call:
    """One call of ``measerr.cli.main``: its wall time, the units of work it
    covers, and why it failed (None when every gate passed)."""

    seconds: float
    units: int
    error: str | None


class Bench:
    """The imported program plus the optional tracer that watches it."""

    def __init__(self):
        self.cli = None
        self.tracer = None
        self.calls = 0

    def main(self, argv: list[str]) -> tuple[float, str | None]:
        """Run the CLI in-process with its output captured; gate the exit code."""
        if self.tracer is not None:
            self.tracer.unit = self.calls
        self.calls += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash of the program under test fails the call
            return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if code != 0:
            return elapsed, f"exit code {code}: {err.getvalue().strip()[-300:]}"
        return elapsed, None


class Calibration:
    """Fixed work that measures how fast the machine runs right now.

    The machine shares its CPUs with other tenants, and its speed drifts by
    up to ±25% over minutes.  That moves every wall time alike, so it is
    timed before and after each measured interval, and the interval is
    scaled by REFERENCE_CALIBRATION_S over the mean of the two.  This turns
    wall seconds into reference seconds, in which the drift cancels.  The
    work mixes small numpy linear algebra with Python arithmetic and
    formatting, as measerr does.  It runs with the garbage collector off, so
    that objects the program keeps alive do not slow it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((300, 4, 4)) + 1j * rng.standard_normal((300, 4, 4))
        self.matrices = list((m + m.conj().swapaxes(-1, -2)) / 2.0)

    def measure(self) -> float:
        """Best of three timings of the fixed work, in seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                acc = 0.0
                for h in self.matrices:
                    acc += float(np.linalg.eigvalsh(h)[0]) + abs(complex(np.trace(h @ h)))
                    acc += len(f"{acc:.12g}") * 1e-12
                best = min(best, time.perf_counter() - start)
            return best
        finally:
            if enabled:
                gc.enable()


def scales(calibrations: list[float]) -> list[float]:
    """Reference seconds per wall second for each interval between two calibrations."""
    return [2.0 * REFERENCE_CALIBRATION_S / (a + b) for a, b in zip(calibrations, calibrations[1:])]


def chunk_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


@dataclass(frozen=True)
class Sweep:
    """A sweep subcommand run in fixed-size chunks, each chunk on its own
    seed derived from the workload seed.  ``n`` instances per dimension per
    chunk is the batch size a batched core would see."""

    name: str
    unit: str
    args: tuple[str, ...]
    dims: int
    n: int
    checks_per_unit: int
    extra_checks: int
    trace_chunks: int

    def shape(self) -> dict:
        return {"argv": [*self.args, "--n", str(self.n)], "units_per_chunk": self.dims * self.n,
                "checks_per_chunk": self.expected_checks(self.n)}

    def expected_checks(self, n: int) -> int:
        return self.checks_per_unit * self.dims * n + self.extra_checks

    def prepare(self, seed: int) -> None:
        """Sweeps generate their instances inside the program."""

    def run(self, bench: Bench, n: int, seed: int) -> Call:
        report = WORK / f"{self.name}.json"
        report.unlink(missing_ok=True)
        argv = [*self.args, "--n", str(n), "--seed", str(seed), "--json", str(report)]
        elapsed, error = bench.main(argv)
        if error is None:
            try:
                check_report(report.read_text(encoding="utf-8"), self.expected_checks(n))
            except (OSError, GateFailure) as exc:
                error = str(exc)
        return Call(elapsed, self.dims * n, error)

    def warmup(self, bench: Bench, seed: int) -> list[Call]:
        return [self.run(bench, 1, chunk_seed(seed, 0))]

    def chunk(self, bench: Bench, seed: int, k: int) -> list[Call]:
        return [self.run(bench, self.n, chunk_seed(seed, k))]


@dataclass
class PoolEntry:
    argv: list[str]
    dim: int
    reference: dict
    scale: float


class ScanCustom:
    """Single-instance ``scan --family custom`` calls cycling through a pool
    of serialized instances; one chunk is one pass over the pool."""

    name = "scan-custom"
    unit = "call"
    trace_chunks = 8

    def __init__(self):
        self.pool: list[PoolEntry] = []

    def shape(self) -> dict:
        return {"argv": ["scan", "--family", "custom", "--povm", "P", "--state", "S",
                         "--obs-a", "A", "--obs-b", "B", "--out", "O"],
                "pool_shapes": [list(shape) for shape in POOL_SHAPES]}

    def prepare(self, seed: int) -> None:
        """Generate the pool with plain numpy and write it in measerr's JSON formats."""
        rng = np.random.default_rng([seed, 4])
        folder = WORK / "pool"
        folder.mkdir(parents=True, exist_ok=True)
        self.pool = []
        for i, (dim, n, pure) in enumerate(POOL_SHAPES):
            effects, rho, a, b = _random_instance(rng, dim, n, pure)
            files = {
                "povm": {"kind": "custom", "labels": [f"m{w}" for w in range(n)],
                         "values": [float(w + 1) for w in range(n)], "dim": dim,
                         "effects": [_matrix_json(e) for e in effects]},
                "state": _matrix_json(rho),
                "obs-a": _matrix_json(a),
                "obs-b": _matrix_json(b),
            }
            argv = ["scan", "--family", "custom"]
            for flag, content in files.items():
                path = folder / f"{i}-{flag}.json"
                path.write_text(json.dumps(content), encoding="utf-8")
                argv += [f"--{flag}", str(path)]
            argv += ["--out", str(WORK / "scan.csv")]
            scale = max(1.0, float(np.linalg.norm(a) * np.linalg.norm(b)))
            self.pool.append(PoolEntry(argv, dim, scan_reference(effects, rho, a, b), scale))

    def run(self, bench: Bench, entry: PoolEntry, corrupt: bool = False) -> Call:
        out = WORK / "scan.csv"
        out.unlink(missing_ok=True)
        elapsed, error = bench.main(entry.argv)
        if error is None:
            try:
                text = out.read_text(encoding="utf-8")
                if corrupt:
                    text = _corrupt_eps_a(text)
                check_scan_csv(text, entry.dim, entry.reference, entry.scale)
            except (OSError, GateFailure) as exc:
                error = str(exc)
        return Call(elapsed, 1, error)

    def warmup(self, bench: Bench, seed: int) -> list[Call]:
        return [self.run(bench, self.pool[-1])]

    def chunk(self, bench: Bench, seed: int, k: int) -> list[Call]:
        return [self.run(bench, entry) for entry in self.pool]


def _matrix_json(matrix) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in matrix]


def _random_instance(rng, dim: int, n: int, pure: bool):
    """A full-rank POVM of n outcomes (whitened Gaussian Gram blocks), a pure
    or mixed state, and two Gaussian Hermitian observables."""

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def hermitian(m):
        return (m + m.conj().swapaxes(-1, -2)) / 2.0

    g = gaussian(n, dim, dim)
    blocks = g.conj().swapaxes(-1, -2) @ g
    w, v = np.linalg.eigh(blocks.sum(axis=0))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    effects = hermitian(inv_sqrt @ blocks @ inv_sqrt)
    if pure:
        psi = gaussian(dim)
        rho = np.outer(psi, psi.conj()) / float(np.vdot(psi, psi).real)
    else:
        m = gaussian(dim, dim)
        rho = hermitian(m @ m.conj().T)
        rho = rho / np.trace(rho).real
    return effects, rho, hermitian(gaussian(dim, dim)), hermitian(gaussian(dim, dim))


def _corrupt_eps_a(csv_text: str) -> str:
    header, row = csv_text.splitlines()[:2]
    cells = row.split(",")
    cells[3] = repr(float(cells[3]) * 1.001)
    return "\n".join([header, ",".join(cells)]) + "\n"


WORKLOADS = {
    "verify-ref": lambda: Sweep("verify-ref", "instance", ("verify", "--dims", "2,3,4,5"),
                                dims=4, n=100, checks_per_unit=26, extra_checks=0, trace_chunks=1),
    "chain": lambda: Sweep("chain", "model", ("chain", "--dims", "2,3,5,8", "--ancilla", "2"),
                           dims=4, n=50, checks_per_unit=4, extra_checks=1, trace_chunks=4),
    "scan-custom": ScanCustom,
}


def import_cli():
    """(Re-)import measerr from the checkout, dropping any loaded copy first."""
    for name in [m for m in sys.modules if m == "measerr" or m.startswith("measerr.")]:
        del sys.modules[name]
    cli = importlib.import_module("measerr.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"measerr imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(bench: Bench, workload, seed: int) -> tuple[float, list[Call]]:
    """Import measerr, build the inputs and run one warm-up operation."""
    start = time.perf_counter()
    bench.cli = import_cli()
    workload.prepare(seed)
    calls = workload.warmup(bench, seed)
    return time.perf_counter() - start, calls


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def windowed_p99(values: list[float]) -> float:
    """Median over P99_WINDOWS consecutive windows of each window's p99."""
    count = min(P99_WINDOWS, len(values))
    size = len(values) / count
    windows = [values[round(i * size):round((i + 1) * size)] for i in range(count)]
    return statistics.median(percentile(w, 0.99) for w in windows)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def context(args, workload, chunk_seeds: list[int]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ[BLAS_ENV[0]]),
        "nproc": NPROC,
        "workload": workload.name,
        "seed": args.seed,
        "chunk_seeds": chunk_seeds,
        "chunk_shape": workload.shape(),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def timed_phase(bench: Bench, workload, seed: int, seconds: float, calibration: Calibration):
    """Chunks until ``seconds`` have passed, with a calibration around each."""
    chunks, seeds, calibrations = [], [], [calibration.measure()]
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        chunks.append(workload.chunk(bench, seed, k))
        seeds.append(chunk_seed(seed, k))
        calibrations.append(calibration.measure())
        k += 1
    return chunks, seeds, calibrations


def end_to_end(setup_times: list[float], setup_scales: list[float],
               chunks: list[list[Call]], chunk_scales: list[float]) -> dict:
    """The end-to-end metrics, with each interval's times multiplied by its scale."""
    rates = [sum(c.units for c in chunk) / (sum(c.seconds for c in chunk) * scale)
             for chunk, scale in zip(chunks, chunk_scales)]
    latencies = [c.seconds * scale * 1e3 for chunk, scale in zip(chunks, chunk_scales) for c in chunk]
    return {
        "setup_s": (statistics.median(t * f for t, f in zip(setup_times, setup_scales)), "s"),
        "throughput_per_s": (statistics.median(rates), "1/s"),
        "call_p50_ms": (statistics.median(latencies), "ms"),
        "call_p99_ms": (windowed_p99(latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced(bench: Bench, workload) -> tuple[dict, list[Call]]:
    """Untraced then traced passes over the same fixed chunks and seeds."""

    def one_pass():
        return [c for k in range(workload.trace_chunks) for c in workload.chunk(bench, TRACE_SEED, k)]

    plain = one_pass()
    bench.tracer = Tracer()
    bench.tracer.install()
    spanned = one_pass()
    units = sum(c.units for c in spanned)
    metrics = bench.tracer.summarize(units)
    ratio = sum(c.seconds for c in spanned) / sum(c.seconds for c in plain)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    bench.tracer.write(WORK / f"trace-{workload.name}.npz")
    return metrics, plain + spanned


def report(args, workload, metrics: dict, calls: list[Call], ctx: dict, wall: dict | None = None) -> None:
    """Print every metric, save the result file, and print the result line last.

    ``wall`` holds the end-to-end metrics before conversion to reference
    seconds; they are printed and saved but are not part of the result line.
    """
    attempted = sum(c.units for c in calls)
    failed = sum(c.units for c in calls if c.error is not None)
    errors = [c.error for c in calls if c.error is not None]
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    for name, (value, unit) in (wall or {}).items():
        print(f"{'wall.' + name:45s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':45s} {failed / max(attempted, 1):14.6g} ratio ({failed}/{attempted} {workload.unit}s)")
    print(f"{'calls':45s} {len(calls):14d} count")
    for error in errors[:5]:
        print(f"FAILED: {error}")
    print("context: " + json.dumps(ctx))
    result = {
        "correct": not errors and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    saved = {"context": ctx, "errors": errors, **result}
    if wall:
        saved["wall_metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in wall.items()}
    out.write_text(json.dumps(saved, indent=1), encoding="utf-8")
    print(json.dumps(result))


def self_test(bench: Bench) -> int:
    """Prove that each gate can fail: every case must give the expected ratio."""
    bench.cli = import_cli()
    sweep = WORKLOADS["verify-ref"]()
    scan = ScanCustom()
    scan.prepare(TRACE_SEED)

    def ratio(calls):
        return sum(1 for c in calls if c.error) / len(calls)

    flipped = replace(sweep, args=sweep.args + ("--self-test-sign-flip",))
    try:
        strict_json('{"worst_residual": nan}')
        nan_rejected = 0.0
    except GateFailure:
        nan_rejected = 1.0
    cases = {
        "verify chunk passes": (ratio([sweep.run(bench, 5, 1)]), False),
        "verify sign flip fails": (ratio([flipped.run(bench, 5, 1)]), True),
        "verify zero-check chunk fails": (ratio([sweep.run(bench, 0, 1)]), True),
        "scan row passes": (ratio([scan.run(bench, e) for e in scan.pool[:4]]), False),
        "scan corrupted row fails": (ratio([scan.run(bench, e, corrupt=True) for e in scan.pool[:4]]), True),
        "report with bare nan fails": (nan_rejected, True),
    }
    ok = True
    for name, (fail_ratio, should_fail) in cases.items():
        good = (fail_ratio > 0) == should_fail
        ok = ok and good
        print(f"{'ok' if good else 'WRONG':5s} {name}: fail_ratio {fail_ratio:g}")
    print(json.dumps({"self_test_passed": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="measerr benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="prove the correctness gates can fail")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "measerr" / "__init__.py").is_file():
        print(f"measerr sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    bench = Bench()
    if args.self_test:
        return self_test(bench)

    workload = WORKLOADS[args.workload]()
    if args.trace:
        _, calls = setup(bench, workload, TRACE_SEED)
        metrics, traced_calls = traced(bench, workload)
        seeds = [chunk_seed(TRACE_SEED, k) for k in range(workload.trace_chunks)]
        report(args, workload, metrics, calls + traced_calls, context(args, workload, seeds))
        return 0

    calibration = Calibration()
    setup_times, setup_calibrations, calls = [], [calibration.measure()], []
    for _ in range(SETUP_REPEATS):
        seconds, warm = setup(bench, workload, args.seed)
        setup_times.append(seconds)
        setup_calibrations.append(calibration.measure())
        calls += warm
    chunks, seeds, calibrations = timed_phase(bench, workload, args.seed, args.seconds, calibration)
    calls += [c for chunk in chunks for c in chunk]
    metrics = end_to_end(setup_times, scales(setup_calibrations), chunks, scales(calibrations))
    wall = end_to_end(setup_times, [1.0] * len(setup_times), chunks, [1.0] * len(chunks))
    ctx = context(args, workload, seeds)
    ctx["calibration_s_median"] = statistics.median(setup_calibrations + calibrations)
    report(args, workload, metrics, calls, ctx, wall)
    return 0


if __name__ == "__main__":
    sys.exit(main())
