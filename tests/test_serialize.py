"""Wire formats: matrix/POVM/model JSON, float digit policy, CSV rows."""

import json
import re

import instances
import numpy as np
import pytest

from measerr import (
    cnot_model,
    evaluate_relation,
    local_context,
    unsharp_qubit,
)
from measerr.serialize import (
    CSV_HEADER,
    format_float,
    json_text,
    matrix_from_json,
    matrix_to_json,
    model_from_json,
    model_to_json,
    povm_from_json,
    povm_to_json,
    relation_csv_row,
)


class TestMatrixFormat:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(matrix_from_json(matrix_to_json(mat)), mat)

    def test_shape_is_re_im_pairs(self):
        data = matrix_to_json(np.array([[1 + 2j]]))
        assert data == [[[1.0, 2.0]]]

    def test_bad_payload_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json([[1.0, 2.0]])


class TestPovmFormat:
    def test_round_trip(self):
        povm = unsharp_qubit((0, 0, 1), 0.3)
        clone = povm_from_json(povm_to_json(povm))
        assert clone.kind == povm.kind
        assert clone.space == povm.space
        for e1, e2 in zip(clone.effects, povm.effects):
            assert np.array_equal(e1, e2)

    def test_round_trip_through_text(self):
        povm = instances.povm(np.random.default_rng(3), 3, 3)
        text = json_text(povm_to_json(povm))
        clone = povm_from_json(json.loads(text))
        for e1, e2 in zip(clone.effects, povm.effects):
            assert np.max(np.abs(e1 - e2)) == 0.0


    def test_declared_dim_must_match_the_effects(self):
        data = povm_to_json(unsharp_qubit((0, 0, 1), 0.3))
        data["dim"] = 5
        with pytest.raises(ValueError, match="dim is 5, but the matrices are 2-dimensional"):
            povm_from_json(data)
        del data["dim"]
        assert povm_from_json(data).dim == 2


class TestModelFormat:
    def test_round_trip(self):
        model = cnot_model()
        clone = model_from_json(model_to_json(model))
        assert clone.system_dim == 2 and clone.ancilla_dim == 2
        assert np.array_equal(clone.interaction, model.interaction)
        assert np.array_equal(clone.meter.matrix, model.meter.matrix)

    def test_declared_ancilla_dim_must_match_the_ancilla_state(self):
        data = model_to_json(cnot_model())
        data["ancilla_dim"] = 3
        with pytest.raises(ValueError, match="ancilla_dim is 3, but the matrices are 2-dimensional"):
            model_from_json(data)
        del data["ancilla_dim"]
        assert model_from_json(data).ancilla_dim == 2


@pytest.mark.parametrize("key", ["dim", "ancilla_dim"])
@pytest.mark.parametrize("declared", ["2", 2.0, True])
def test_declared_dimension_must_be_an_integer(key, declared):
    """A declared dimension that is a string, a float or a bool is rejected
    with its own repr, whether or not it compares equal to the true one."""
    to_json, from_json, make = {
        "dim": (povm_to_json, povm_from_json, lambda: unsharp_qubit((0, 0, 1), 0.3)),
        "ancilla_dim": (model_to_json, model_from_json, cnot_model),
    }[key]
    data = to_json(make())
    data[key] = declared
    with pytest.raises(ValueError, match=re.escape(f"{key} must be an integer, got {declared!r}")):
        from_json(data)


class TestFloatPolicy:
    def test_seventeen_significant_digits(self):
        text = format_float(1.0 / 3.0, 17)
        digits = text.replace(".", "").lstrip("0")
        assert len(digits) == 17
        assert float(text) == 1.0 / 3.0  # round-trip exact

    def test_twelve_digits_for_csv(self):
        text = format_float(1.0 / 3.0, 12)
        assert text == "0.333333333333"

    def test_json_text_parses_and_round_trips(self):
        payload = {"x": 0.1 + 0.2, "flag": True, "items": [1, 2.5, None], "name": "abc"}
        parsed = json.loads(json_text(payload))
        assert parsed["x"] == 0.1 + 0.2
        assert parsed["flag"] is True
        assert parsed["items"] == [1, 2.5, None]
        assert parsed["name"] == "abc"

    def test_numpy_bools_are_json_booleans(self):
        assert json_text(np.True_) == "true"
        assert json_text(np.False_) == "false"
        text = json_text({"x": np.bool_(False), "flags": [np.bool_(True), np.False_, True]})
        assert json.loads(text) == {"x": False, "flags": [True, False, True]}
        assert '"True"' not in text and '"False"' not in text

    def test_non_finite_floats_stay_strict_json(self):
        text = json_text({"w": float("nan"), "up": np.inf, "down": [-np.inf, 1.5]})

        def reject(name):
            raise ValueError(f"bare {name} in JSON output")

        parsed = json.loads(text, parse_constant=reject)
        assert parsed == {"w": "nan", "up": "inf", "down": ["-inf", 1.5]}


class TestCsvRow:
    def _report(self):
        povm = instances.povm(np.random.default_rng(2), 2, 3)
        ctx = local_context(povm.effects, instances.state(np.random.default_rng(2), 2).matrix)
        rng = np.random.default_rng(5)
        return povm, evaluate_relation(ctx, instances.observable(rng, 2), instances.observable(rng, 2))

    def test_header_and_width(self):
        assert CSV_HEADER.split(",") == [
            "dim", "kind", "param", "epsA", "epsB", "R", "I", "bound",
            "slack", "naiveBound", "naiveViolated",
        ]
        povm, report = self._report()
        cells = relation_csv_row(povm, report, 0.25).split(",")
        assert len(cells) == 11
        assert cells[0] == "2"
        assert cells[1] == povm.kind.value
        assert cells[2] == "0.25"
        fields = ("eps_a", "eps_b", "real_term", "imag_term", "bound", "slack", "naive_bound")
        assert cells[3:10] == [format_float(getattr(report, field), 12) for field in fields]
        assert cells[-1] == ("true" if report.naive_violated else "false")

    def test_param_cell_empty_outside_scans(self):
        row = relation_csv_row(*self._report(), None)
        assert row.split(",")[2] == ""
