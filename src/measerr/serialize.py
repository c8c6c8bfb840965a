"""JSON and CSV interchange.

Complex matrices serialize as nested arrays of [re, im] pairs.  JSON floats
are emitted at 17 significant digits (round-trip exact), CSV at 12
(plot-ready).  All formatting is locale-independent.  The loaders reject a
malformed file with ``ValueError`` before building anything from it.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .indirect import IndirectModel
from .measurement import MeasurementKind, Povm
from .states import DensityOperator, HermitianObservable, OutcomeSpace

CSV_HEADER = "dim,kind,param,epsA,epsB,R,I,bound,slack,naiveBound,naiveViolated"


def matrix_to_json(matrix) -> list:
    arr = np.asarray(matrix, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in arr]


def _numbers(items) -> bool:
    """Whether every item is a JSON number, which ``json`` reads as exactly an
    int or a float: a bool is neither."""
    return {type(x) for x in items} <= {int, float}


def matrix_from_json(data) -> np.ndarray:
    message = "matrix JSON must be nested arrays of [re, im] pairs"
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(message) from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(message)
    if not _numbers(x for row in data for entry in row for x in entry):
        raise ValueError("matrix entries must be numbers")
    return arr[..., 0] + 1j * arr[..., 1]


def povm_to_json(povm: Povm) -> dict:
    return {
        "kind": povm.kind.value,
        "labels": list(povm.space.labels),
        "values": [float(v) for v in povm.space.values],
        "dim": povm.dim,
        "effects": [matrix_to_json(e) for e in povm.effects],
    }


def _json_object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object, got {type(data).__name__}")
    return data


def _json_list(data: dict, key: str) -> list:
    value = data[key]
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a JSON list, got {type(value).__name__}")
    return value


def _check_declared(data: dict, key: str, actual: int) -> None:
    """A dimension the file declares under ``key`` must be an integer (a bool
    is not one) equal to that of its matrices."""
    value = data.get(key, actual)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value != actual:
        raise ValueError(f"{key} is {value!r}, but the matrices are {actual}-dimensional")


def povm_from_json(data: dict) -> Povm:
    data = _json_object(data, "POVM")
    values = _json_list(data, "values")
    if not _numbers(values):
        raise ValueError("values must be numbers")
    space = OutcomeSpace(tuple(_json_list(data, "labels")), tuple(values))
    effects = [matrix_from_json(e) for e in _json_list(data, "effects")]
    kind = MeasurementKind(data.get("kind", "custom"))
    povm = Povm(space, effects, kind=kind)
    _check_declared(data, "dim", povm.dim)
    return povm


def model_to_json(model: IndirectModel) -> dict:
    return {
        "system_dim": model.system_dim,
        "ancilla_dim": model.ancilla_dim,
        "ancilla_state": matrix_to_json(model.ancilla_state.matrix),
        "interaction": matrix_to_json(model.interaction),
        "meter": matrix_to_json(model.meter.matrix),
    }


def model_from_json(data: dict) -> IndirectModel:
    data = _json_object(data, "model")
    system_dim = data["system_dim"]
    if not isinstance(system_dim, int) or isinstance(system_dim, bool):
        raise ValueError(f"system_dim must be an integer, got {system_dim!r}")
    model = IndirectModel(
        system_dim,
        DensityOperator(matrix_from_json(data["ancilla_state"])),
        matrix_from_json(data["interaction"]),
        HermitianObservable(matrix_from_json(data["meter"])),
    )
    _check_declared(data, "ancilla_dim", model.ancilla_dim)
    return model


def load_state(path) -> DensityOperator:
    with open(path, encoding="utf-8") as fh:
        return DensityOperator(matrix_from_json(json.load(fh)))


def load_observable(path) -> HermitianObservable:
    with open(path, encoding="utf-8") as fh:
        return HermitianObservable(matrix_from_json(json.load(fh)))


def load_povm(path) -> Povm:
    with open(path, encoding="utf-8") as fh:
        return povm_from_json(json.load(fh))


def load_model(path) -> IndirectModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_json(json.load(fh))


def format_float(x: float, sig: int) -> str:
    return format(float(x), f".{sig}g")


def json_text(obj, sig: int = 17, indent: int = 0) -> str:
    """Serialize to JSON with floats at a fixed number of significant digits."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {json_text(v, sig, indent + 2).lstrip()}'
            for k, v in obj.items()
        )
        return f"{pad}{{\n{items}\n{pad}}}" if obj else f"{pad}{{}}"
    if isinstance(obj, (list, tuple)):
        inner = ", ".join(json_text(v, sig).strip() for v in obj)
        return f"{pad}[{inner}]"
    if obj is None or isinstance(obj, (bool, np.bool_)):
        return pad + json.dumps(None if obj is None else bool(obj))
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            # strict JSON has no NaN or infinity: write them as strings
            return pad + json.dumps(format_float(obj, sig))
        return pad + format_float(float(obj), sig)
    return pad + json.dumps(str(obj))


def relation_as_dict(povm: Povm, report) -> dict:
    """The relation ``report`` (from ``evaluate_relation``) under ``povm``
    with its serialized names, in CSV column order."""
    return {
        "dim": povm.dim,
        "kind": povm.kind.value,
        "epsA": report.eps_a,
        "epsB": report.eps_b,
        "R": report.real_term,
        "I": report.imag_term,
        "bound": report.bound,
        "slack": report.slack,
        "naiveBound": report.naive_bound,
        "naiveViolated": report.naive_violated,
    }


def relation_csv_row(povm: Povm, report, param: float | None) -> str:
    """One CSV line in the fixed column order; the param cell is empty when
    the row does not belong to a parameter scan."""
    d = relation_as_dict(povm, report)
    numbers = [format_float(d[key], 12) for key in ("epsA", "epsB", "R", "I", "bound", "slack", "naiveBound")]
    param_cell = "" if param is None else format_float(param, 12)
    return ",".join([str(d["dim"]), d["kind"], param_cell, *numbers, "true" if d["naiveViolated"] else "false"])
