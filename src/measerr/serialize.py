"""JSON and CSV interchange.

Complex matrices serialize as nested arrays of [re, im] pairs, read and
written as a view of those floats, so signed zeros are kept.  JSON floats
are emitted at 17 significant digits (round-trip exact), CSV at 12
(plot-ready), all locale-independent.  The loaders are the boundary where
files enter: each file is read as strict UTF-8 and converted once, each
array they return passes its ``states`` validator, as do a model's induced
effects (``check_effects``), and a malformed file raises ``ValueError``.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .indirect import induced_povm
from .states import check_effects, check_observables, check_states, check_unitaries

CSV_HEADER = "dim,kind,param,epsA,epsB,R,I,bound,slack,naiveBound,naiveViolated"
# The kinds a POVM file may declare.
KINDS = ("projective", "trivial", "unsharp", "noisy-projective", "induced-from-indirect", "custom")
_NUMBER_TYPES = {int, float}  # the types json reads a JSON number as: a bool is neither


def matrix_to_json(matrix) -> list:
    """One matrix, or a stack of them, as nested arrays of [re, im] pairs."""
    return np.ascontiguousarray(matrix, dtype=complex)[..., None].view(float).tolist()


def matrix_from_json(data, ndim: int | None = None) -> np.ndarray:
    """One matrix or a stack (``ndim`` axes where given), a complex view of one float conversion."""
    message = "matrix JSON must be nested arrays of [re, im] pairs"
    try:
        arr = np.asarray(data, dtype=float)
    except OverflowError as exc:
        raise ValueError("matrix entries must be numbers a double can hold") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(message) from exc
    if arr.ndim < 3 or arr.shape[-1] != 2 or ndim not in (None, arr.ndim - 1):
        raise ValueError(message)
    for _ in range(arr.ndim - 1):
        data = itertools.chain.from_iterable(data)
    if not set(map(type, data)) <= _NUMBER_TYPES:
        raise ValueError("matrix entries must be numbers")
    return arr.view(complex)[..., 0]


def _square_from_json(data) -> np.ndarray:
    matrix = matrix_from_json(data, 2)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return matrix


def povm_to_json(kind: str, values, effects: np.ndarray) -> dict:
    """A POVM file of ``kind`` holding ``effects`` and their outcome
    ``values``, labelled m0, m1, ..."""
    return {
        "kind": kind,
        "labels": [f"m{i}" for i in range(len(effects))],
        "values": [float(v) for v in values],
        "dim": effects.shape[-1],
        "effects": matrix_to_json(effects),
    }


def _json_object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object, got {type(data).__name__}")
    return data


def _field(data: dict, key: str, what: str):
    if key not in data:
        raise ValueError(f"{what} JSON has no {key!r}")
    return data[key]


def _json_list(data: dict, key: str) -> list:
    value = _field(data, key, "POVM")
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


def povm_from_json(data: dict) -> tuple[str, np.ndarray]:
    """The kind and validated ``(n, d, d)`` effects of a POVM file, whose n
    labels must be distinct and whose n values finite numbers."""
    data = _json_object(data, "POVM")
    values = _json_list(data, "values")
    if not set(map(type, values)) <= _NUMBER_TYPES:
        raise ValueError("values must be numbers")
    try:
        values = [float(v) for v in values]
    except OverflowError as exc:
        raise ValueError("outcome values must be finite") from exc
    labels = [str(x) for x in _json_list(data, "labels")]
    if not labels:
        raise ValueError("outcome space needs at least one label")
    if len(set(labels)) != len(labels):
        raise ValueError("outcome labels must be distinct")
    if len(values) != len(labels):
        raise ValueError("need exactly one value per label")
    if not all(np.isfinite(values)):
        raise ValueError("outcome values must be finite")
    effects = matrix_from_json(_json_list(data, "effects"), 3)
    kind = data.get("kind", "custom")
    if kind not in KINDS:
        raise ValueError(f"unknown POVM kind {kind!r}; choose from {KINDS}")
    if effects.shape != (len(labels), effects.shape[2], effects.shape[2]):
        raise ValueError(f"need {len(labels)} square effects of one dimension, got shape {effects.shape}")
    check_effects(effects)
    _check_declared(data, "dim", effects.shape[-1])
    return kind, effects


def model_to_json(xi: np.ndarray, u: np.ndarray, meter: np.ndarray) -> dict:
    """A model file of ancilla state ``xi``, interaction ``u`` and ``meter``."""
    return {
        "system_dim": u.shape[-1] // xi.shape[-1],
        "ancilla_dim": xi.shape[-1],
        "ancilla_state": matrix_to_json(xi),
        "interaction": matrix_to_json(u),
        "meter": matrix_to_json(meter),
    }


def model_from_json(data: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The validated ancilla state, interaction and meter of a model file,
    whose induced effects pass ``check_effects`` (a near-unitary U can miss I)."""
    data = _json_object(data, "model")
    system_dim = _field(data, "system_dim", "model")
    if not isinstance(system_dim, int) or isinstance(system_dim, bool):
        raise ValueError(f"system_dim must be an integer, got {system_dim!r}")
    xi = check_states(_square_from_json(_field(data, "ancilla_state", "model")))
    u = matrix_from_json(_field(data, "interaction", "model"), 2)
    meter = check_observables(_square_from_json(_field(data, "meter", "model")))
    if system_dim < 2:
        raise ValueError("system dimension must be at least 2")
    joint_dim = system_dim * xi.shape[-1]
    if u.shape != (joint_dim, joint_dim):
        raise ValueError(f"interaction must act on the {joint_dim}-dimensional joint system")
    check_unitaries(u)
    if meter.shape[-1] != xi.shape[-1]:
        raise ValueError("meter must act on the ancilla")
    _check_declared(data, "ancilla_dim", xi.shape[-1])
    check_effects(induced_povm(xi, u, meter)[1])
    return xi, u, meter


def _load(path, parse):
    with open(path, "rb") as fh:
        return parse(json.loads(fh.read().decode("utf-8")))


def load_state(path) -> np.ndarray:
    return check_states(_load(path, _square_from_json))


def load_observable(path) -> np.ndarray:
    return check_observables(_load(path, _square_from_json))


def load_povm(path) -> tuple[str, np.ndarray]:
    return _load(path, povm_from_json)


def load_model(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _load(path, model_from_json)


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


def relation_csv_row(dim: int, kind: str, report, param: float | None) -> str:
    """One CSV line of the relation ``report`` (from ``evaluate_relation``)
    of a ``dim``-dimensional measurement of ``kind``, in the fixed column
    order; the param cell is empty when the row does not belong to a
    parameter scan."""
    numbers = (report.eps_a, report.eps_b, report.real_term, report.imag_term, report.bound, report.slack,
               report.naive_bound)
    param_cell = "" if param is None else format_float(param, 12)
    flag = "true" if report.naive_violated else "false"
    return ",".join([str(dim), kind, param_cell, *(format_float(x, 12) for x in numbers), flag])
