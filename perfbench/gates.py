"""Correctness gates: every benchmark operation passes one of these or fails.

The gates fail closed.  A report that does not parse as strict JSON (bare
``nan``/``inf`` included), that holds fewer checks than the chunk shape
implies, that holds no checks at all, or that records a failed check is a
failure.  Scan rows are compared with a plain-numpy reference that shares no
code with ``measerr``: per-outcome division for the pushforward and einsum
traces for every expectation.
"""

from __future__ import annotations

import json
import math

import numpy as np

CSV_HEADER = "dim,kind,param,epsA,epsB,R,I,bound,slack,naiveBound,naiveViolated"
SCAN_COLUMNS = ("epsA", "epsB", "R", "I", "bound")
SUPPORT_CUTOFF = 1e-12
# The CSV carries 12 significant digits; allow one unit in the 11th so that a
# reference computed in a different summation order still agrees.
CSV_RTOL = 1e-11


class GateFailure(Exception):
    """An operation's output is missing, malformed or wrong."""


def _reject_constant(name: str):
    raise GateFailure(f"report holds non-finite value {name}")


def strict_json(text: str) -> dict:
    """Parse a report, rejecting NaN/Infinity and anything unparseable."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise GateFailure(f"unparseable report: {exc}") from exc


def check_report(text: str, expected_checks: int) -> None:
    """Gate for a ``verify`` or ``chain`` JSON report."""
    manifest = strict_json(text).get("manifest")
    if not isinstance(manifest, dict):
        raise GateFailure("report has no manifest")
    passed = manifest.get("checks_passed")
    failed = manifest.get("checks_failed")
    if not isinstance(passed, int) or not isinstance(failed, int):
        raise GateFailure("manifest check counts are missing")
    if expected_checks <= 0 or passed + failed == 0:
        raise GateFailure("zero-check chunk")
    if passed + failed < expected_checks:
        raise GateFailure(f"{passed + failed} checks ran, expected {expected_checks}")
    if failed:
        raise GateFailure(f"{failed} checks failed")


def _expect(x: np.ndarray, rho: np.ndarray) -> complex:
    return complex(np.einsum("ij,ji->", x, rho))


def scan_reference(effects: np.ndarray, rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> dict:
    """epsA, epsB, R, I and bound from the defining formulas.

    effects has shape (n, d, d).  For Hermitian operators Re Tr[E A rho]
    equals <{A,E}/2>_rho and Im Tr[X Y rho] equals <[X,Y]/2i>_rho.
    """
    p = np.einsum("wij,ji->w", effects, rho).real
    support = p > SUPPORT_CUTOFF

    def push(x):
        vals = np.einsum("wij,ji->w", effects, x @ rho).real
        out = np.zeros_like(p)
        for w in np.flatnonzero(support):
            out[w] = vals[w] / p[w]
        return out

    def back(f):
        return np.einsum("w,wij->ij", f, effects)

    def comm(x, y):
        return float(np.einsum("ij,jk,ki->", x, y, rho).imag)

    fa, fb = push(a), push(b)
    eps_a = math.sqrt(max(_expect(a @ a, rho).real - float(fa * fa @ p), 0.0))
    eps_b = math.sqrt(max(_expect(b @ b, rho).real - float(fb * fb @ p), 0.0))
    r_val = _expect(a @ b, rho).real - float(fa * fb @ p)
    i_val = comm(a, b) - comm(back(fa), b) - comm(a, back(fb))
    return {
        "epsA": eps_a,
        "epsB": eps_b,
        "R": r_val,
        "I": i_val,
        "bound": math.hypot(r_val, i_val),
    }


def check_scan_csv(text: str, dim: int, reference: dict, scale: float) -> None:
    """Gate for one ``scan --family custom`` CSV.

    ``scale`` is the magnitude of the instance's terms (here the product of
    the observables' Frobenius norms, at least 1); values that nearly cancel
    are compared against it instead of against their own size.
    """
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != CSV_HEADER:
        raise GateFailure(f"scan CSV has {len(lines)} lines or a wrong header")
    columns, cells = CSV_HEADER.split(","), lines[1].split(",")
    row = dict(zip(columns, cells))
    if len(cells) != len(columns) or row["dim"] != str(dim):
        raise GateFailure(f"scan row malformed: {lines[1]!r}")
    for key in SCAN_COLUMNS:
        try:
            got = float(row[key])
        except ValueError as exc:
            raise GateFailure(f"scan column {key} unparseable: {row[key]!r}") from exc
        want = reference[key]
        if not math.isfinite(got) or abs(got - want) > CSV_RTOL * max(abs(want), scale):
            raise GateFailure(f"scan column {key}: got {got!r}, reference {want!r}")
