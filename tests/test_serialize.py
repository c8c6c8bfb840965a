"""Wire formats: matrix/POVM/model JSON, float digit policy, CSV rows."""

import json
import re

import instances
import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from measerr import cnot_model, evaluate_relation, unsharp_qubit
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

    def test_stack_is_one_array_of_matrices(self):
        effects = unsharp_qubit((0, 0, 1), 0.3)
        data = matrix_to_json(effects)
        assert data == [matrix_to_json(e) for e in effects]
        assert np.array_equal(matrix_from_json(data), effects)
        assert np.array_equal(matrix_from_json(data, 3), effects)
        with pytest.raises(ValueError, match=re.escape("matrix JSON must be nested arrays of [re, im] pairs")):
            matrix_from_json(data, 2)

    def test_signed_zeros_are_kept(self):
        """The loader views the [re, im] floats as complex numbers, so a -0.0
        survives, where ``re + 1j * im`` turns it into +0.0."""
        data = [[[-0.0, -0.0], [0.0, -0.0]], [[-0.0, 0.0], [1.0, -0.0]]]
        matrix = matrix_from_json(data)
        assert np.signbit(np.stack([matrix.real, matrix.imag], axis=-1)).tolist() == np.signbit(data).tolist()


# Finite doubles with the edge cases of a text round trip: both zeros,
# subnormals and magnitudes near the top of the range.
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e300, 1e300, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_SHAPES = st.one_of(
    st.integers(1, 4).map(lambda d: (d, d)),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(lambda nd: (nd[0], nd[1], nd[1])),
)


@given(pairs=_SHAPES.flatmap(lambda shape: hnp.arrays(float, (*shape, 2), elements=_EDGE_FLOATS)))
def test_round_trip_is_bit_exact(pairs):
    """``matrix_to_json`` and ``matrix_from_json`` round-trip one matrix or
    a stack through JSON text bit for bit, the sign of every zero included."""
    x = pairs.view(complex)[..., 0]
    clone = matrix_from_json(json.loads(json.dumps(matrix_to_json(x))))
    assert clone.shape == x.shape
    assert np.array_equal(clone.view(float), x.view(float))
    assert np.array_equal(np.signbit(clone.view(float)), np.signbit(x.view(float)))


# -0.0 + 0.0 is +0.0, and every other float is left as it is.
@given(pairs=_SHAPES.flatmap(lambda shape: hnp.arrays(float, (*shape, 2), elements=_EDGE_FLOATS.map(lambda v: v + 0.0))))
def test_load_equals_the_re_plus_i_im_formula_without_negative_zeros(pairs):
    """On finite entries with no -0.0, the loaded array is, bit for bit, the
    one ``re + 1j * im`` builds from the same floats."""
    formula = pairs[..., 0] + 1j * pairs[..., 1]
    assert np.array_equal(matrix_from_json(pairs.tolist()).view(np.uint64), formula.view(np.uint64))


class TestPovmFormat:
    def test_round_trip(self):
        effects = unsharp_qubit((0, 0, 1), 0.3)
        data = povm_to_json("unsharp", (1.0, -1.0), effects)
        kind, clone = povm_from_json(data)
        assert kind == "unsharp"
        assert (data["labels"], data["values"]) == (["m0", "m1"], [1.0, -1.0])
        for e1, e2 in zip(clone, effects):
            assert np.array_equal(e1, e2)

    def test_round_trip_through_text(self):
        effects = instances.povm(np.random.default_rng(3), 3, 3)
        text = json_text(povm_to_json("custom", (1.0, 2.0, 3.0), effects))
        _, clone = povm_from_json(json.loads(text))
        for e1, e2 in zip(clone, effects):
            assert np.max(np.abs(e1 - e2)) == 0.0

    def test_unknown_kind_rejected(self):
        data = povm_to_json("x", (1.0, -1.0), unsharp_qubit((0, 0, 1), 0.3))
        with pytest.raises(ValueError, match="unknown POVM kind 'x'"):
            povm_from_json(data)

    def test_declared_dim_must_match_the_effects(self):
        data = povm_to_json("unsharp", (1.0, -1.0), unsharp_qubit((0, 0, 1), 0.3))
        data["dim"] = 5
        with pytest.raises(ValueError, match="dim is 5, but the matrices are 2-dimensional"):
            povm_from_json(data)
        del data["dim"]
        assert povm_from_json(data)[1].shape[-1] == 2


class TestModelFormat:
    def test_round_trip(self):
        model = cnot_model()
        data = model_to_json(*model)
        clone = model_from_json(data)
        assert data["system_dim"] == 2 and data["ancilla_dim"] == 2
        for got, want in zip(clone, model):
            assert np.array_equal(got, want)

    def test_declared_ancilla_dim_must_match_the_ancilla_state(self):
        data = model_to_json(*cnot_model())
        data["ancilla_dim"] = 3
        with pytest.raises(ValueError, match="ancilla_dim is 3, but the matrices are 2-dimensional"):
            model_from_json(data)
        del data["ancilla_dim"]
        assert model_from_json(data)[0].shape[-1] == 2


@pytest.mark.parametrize("key", ["dim", "ancilla_dim"])
@pytest.mark.parametrize("declared", ["2", 2.0, True])
def test_declared_dimension_must_be_an_integer(key, declared):
    """A declared dimension that is a string, a float or a bool is rejected
    with its own repr, whether or not it compares equal to the true one."""
    make, from_json = {
        "dim": (lambda: povm_to_json("unsharp", (1.0, -1.0), unsharp_qubit((0, 0, 1), 0.3)), povm_from_json),
        "ancilla_dim": (lambda: model_to_json(*cnot_model()), model_from_json),
    }[key]
    data = make()
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
        effects = instances.povm(np.random.default_rng(2), 2, 3)
        rho = instances.state(np.random.default_rng(2), 2)
        rng = np.random.default_rng(5)
        return 2, "custom", evaluate_relation(effects, rho, instances.observable(rng, 2), instances.observable(rng, 2))

    def test_header_and_width(self):
        assert CSV_HEADER.split(",") == [
            "dim", "kind", "param", "epsA", "epsB", "R", "I", "bound",
            "slack", "naiveBound", "naiveViolated",
        ]
        dim, kind, report = self._report()
        cells = relation_csv_row(dim, kind, report, 0.25).split(",")
        assert len(cells) == 11
        assert cells[0] == "2"
        assert cells[1] == kind
        assert cells[2] == "0.25"
        fields = ("eps_a", "eps_b", "real_term", "imag_term", "bound", "slack", "naive_bound")
        assert cells[3:10] == [format_float(getattr(report, field), 12) for field in fields]
        assert cells[-1] == ("true" if report.naive_violated else "false")

    def test_param_cell_empty_outside_scans(self):
        row = relation_csv_row(*self._report(), None)
        assert row.split(",")[2] == ""
