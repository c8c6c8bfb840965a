"""The cheap first tests decide as the full rules do.

``kernels._real`` runs its per-element realness test only where some |Im|
exceeds DEFAULT_TOL.expectation, ``states._check_hermitian`` its residual
test only where a stack differs from its conjugate transpose, and
``kernels._guard`` its size test only where a value lies below
-DEFAULT_TOL.psd.  Each must raise exactly where the full rule in
``oracles`` flags, with the same message, and ``_real`` must return the
same bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from measerr import kernels, states
from measerr.tolerances import DEFAULT_TOL

EXPECTATION, VALIDATION = DEFAULT_TOL.expectation, DEFAULT_TOL.validation
PSD, IDENTITY = DEFAULT_TOL.psd, DEFAULT_TOL.identity
# The realness allowance of a value of modulus 1000 (|1000 + i ALLOWANCE| is 1000 exactly).
ALLOWANCE = EXPECTATION * 1000.0


def up(x):
    return np.nextafter(x, np.inf)


def down(x):
    return np.nextafter(x, -np.inf)


def real_as_oracle(val) -> bool:
    """``_real(val)`` raises exactly where ``oracles.real_message`` flags,
    with its message, and otherwise returns the bits of ``val.real``;
    returns whether it raised."""
    with np.errstate(all="ignore"):
        expected = oracles.real_message(val, EXPECTATION)
        if expected is None:
            out = kernels._real(val)
            assert np.shape(out) == np.shape(val) and np.asarray(out).tobytes() == np.asarray(val).real.tobytes()
            return False
        with pytest.raises(ArithmeticError) as excinfo:
            kernels._real(val)
    assert str(excinfo.value) == expected
    return True


def hermitian_as_oracle(arr) -> bool:
    """``_check_hermitian(arr)`` raises exactly where ``oracles.hermitian_message``
    flags, with its message; returns whether it raised."""
    with np.errstate(all="ignore"):
        expected = oracles.hermitian_message(arr, VALIDATION, "observable")
        if expected is None:
            states._check_hermitian(arr, "observable")
            return False
        with pytest.raises(ValueError) as excinfo:
            states._check_hermitian(arr, "observable")
    assert str(excinfo.value) == expected
    return True


def one_failing_row():
    """A (4, 3) stack of real values, one of them not."""
    val = np.full((4, 3), 0.5 + 0j)
    val[2, 1] = 0.5 + 1e-6j
    return val


NAN, INF = np.nan, np.inf
REAL_CASES = {
    "nan real part": ([complex(NAN, 0.0)], False),
    "nan imaginary part": ([complex(0.0, NAN), 0.25], False),
    "nan beside a failing value": ([complex(0.0, NAN), 1j], True),
    "inf real part": ([complex(INF, 0.0), complex(-INF, 1.0)], False),
    "inf imaginary part": ([complex(0.0, INF), complex(0.0, -INF)], False),
    "negative zeros": ([complex(-0.0, -0.0), complex(-0.0, 0.0)], False),
    "zeros": (np.zeros(3, complex), False),
    "empty": (np.zeros(0, complex), False),
    "unit allowance": ([complex(0.5, EXPECTATION)], False),
    "one ulp below the unit allowance": ([complex(0.5, down(EXPECTATION))], False),
    "one ulp above the unit allowance": ([complex(0.5, up(EXPECTATION))], True),
    "one ulp above, negative": ([complex(-0.5, -up(EXPECTATION))], True),
    "allowance at modulus 1000": ([complex(1000.0, ALLOWANCE)], False),
    "one ulp below it": ([complex(1000.0, down(ALLOWANCE))], False),
    "one ulp above it": ([complex(1000.0, up(ALLOWANCE))], True),
    "above the tolerance, no value fails": ([complex(1000.0, 50 * EXPECTATION), 0.25, complex(-1e6, -1e-5)], False),
    "a stack with one failing row": (one_failing_row(), True),
}


@pytest.mark.parametrize("val,raises", REAL_CASES.values(), ids=REAL_CASES)
def test_real_decides_as_the_per_element_rule(val, raises):
    val = np.asarray(val, dtype=complex)
    assert real_as_oracle(val) is raises
    if val.size == 1:  # as a numpy scalar, as one instance's expectation is
        assert real_as_oracle(val.reshape(())[()]) is raises


_PARTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 0.5, 1000.0, -1000.0, EXPECTATION, up(EXPECTATION), down(EXPECTATION),
                     -EXPECTATION, ALLOWANCE, up(ALLOWANCE), down(ALLOWANCE), 50 * EXPECTATION]),
)
_VALUES = st.builds(complex, _PARTS, _PARTS)


@settings(max_examples=300, deadline=None)
@given(val=hnp.arrays(complex, hnp.array_shapes(min_dims=0, max_dims=2, max_side=4), elements=_VALUES))
def test_real_decides_as_the_per_element_rule_on_drawn_values(val):
    real_as_oracle(val)
    if val.ndim == 0:
        real_as_oracle(val[()])


def hermitian_stack(seed):
    """Four exactly Hermitian 3 x 3 matrices."""
    rng = np.random.default_rng(seed)
    return kernels.hermitian_part(rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3)))


def with_entry(arr, index, value):
    out = np.array(arr, dtype=complex)
    out[index] = value
    return out


def one_failing_matrix():
    arr = hermitian_stack(3)
    arr[2, 0, 1] += 1e-6
    return arr


HERMITIAN_CASES = {
    "zero matrix": (np.zeros((2, 2), complex), False),
    "zero stack": (np.zeros((3, 2, 2), complex), False),
    "negative zeros": (np.array([[-0.0, complex(0.0, -0.0)], [complex(-0.0, 0.0), -0.0]]), False),
    "tiny asymmetry of a zero matrix": (with_entry(np.zeros((2, 2)), (0, 1), 1e-300), True),
    "nan on the diagonal": (np.array([[NAN, 0.0], [0.0, 1.0]], complex), False),
    "nan off the diagonal": (np.array([[0.0, NAN], [1.0, 0.0]], complex), False),
    "inf on the diagonal": (np.array([[INF, 1j], [-1j, 0.0]]), False),
    "-inf off the diagonal": (np.array([[0.0, -INF], [-INF, 0.0]], complex), False),
    "inf against a finite entry": (np.array([[0.0, INF], [1.0, 0.0]], complex), False),
    "at the allowance": (with_entry(np.eye(2), (0, 1), VALIDATION), False),
    "one ulp below the allowance": (with_entry(np.eye(2), (0, 1), down(VALIDATION)), False),
    "one ulp above the allowance": (with_entry(np.eye(2), (0, 1), up(VALIDATION)), True),
    "one ulp above, imaginary": (with_entry(np.eye(2), (1, 0), complex(0.0, up(VALIDATION))), True),
    "exactly Hermitian stack": (hermitian_stack(2), False),
    "a stack with one failing matrix": (one_failing_matrix(), True),
}


@pytest.mark.parametrize("arr,raises", HERMITIAN_CASES.values(), ids=HERMITIAN_CASES)
def test_hermitian_check_decides_as_the_residual_rule(arr, raises):
    assert hermitian_as_oracle(arr) is raises


def test_an_exactly_hermitian_matrix_passes_on_one_comparison():
    """No residual is formed: inf - inf would raise here."""
    arr = HERMITIAN_CASES["inf on the diagonal"][0]
    with np.errstate(invalid="raise"):
        states._check_hermitian(arr, "observable")
        with pytest.raises(FloatingPointError):
            oracles.hermitian_message(arr, VALIDATION, "observable")


_ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, VALIDATION, up(VALIDATION), down(VALIDATION)]),
)


@st.composite
def near_hermitian(draw):
    """A stack built Hermitian from drawn entries (its upper triangle, the
    real part of its diagonal), then maybe one entry replaced."""
    count, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    parts = draw(hnp.arrays(float, (2, count, dim, dim), elements=_ENTRIES))
    arr = np.empty(parts.shape[1:], complex)
    arr.real, arr.imag = parts
    arr = np.triu(arr)
    arr = arr + np.triu(arr, 1).conj().swapaxes(-1, -2)
    arr[..., range(dim), range(dim)] = arr[..., range(dim), range(dim)].real
    if draw(st.booleans()):
        index = (draw(st.integers(0, count - 1)), draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1)))
        arr[index] = complex(draw(_ENTRIES), draw(_ENTRIES))
    return arr


@settings(max_examples=300, deadline=None)
@given(arr=near_hermitian())
def test_hermitian_check_decides_as_the_residual_rule_on_drawn_stacks(arr):
    hermitian_as_oracle(arr)
    hermitian_as_oracle(arr[0])


def guard_as_oracle(val, size) -> bool:
    """``_guard`` raises exactly where ``oracles.guard_message`` flags, with
    its message, and forms the size only where a value lies below -psd;
    returns whether it raised."""
    formed = []

    def sizes():
        formed.append(size)
        return size

    expected = oracles.guard_message(val, size, PSD, IDENTITY, "negative squared norm")
    if expected is None:
        kernels._guard(val, sizes, ArithmeticError, "negative squared norm")
    else:
        with pytest.raises(ArithmeticError) as excinfo:
            kernels._guard(val, sizes, ArithmeticError, "negative squared norm")
        assert str(excinfo.value) == expected
    assert len(formed) == int(bool((np.asarray(val) < -PSD).any()))
    return expected is not None


# With size 0 only -psd decides; with size 1, -identity lies below it and decides.
GUARD_CASES = {
    "one ulp above -psd": (up(-PSD), 0.0, False),
    "at -psd": (-PSD, 0.0, False),
    "one ulp below -psd": (down(-PSD), 0.0, True),
    "one ulp above -identity size": (up(-IDENTITY * 1.0), 1.0, False),
    "at -identity size": (-IDENTITY * 1.0, 1.0, False),
    "one ulp below -identity size": (down(-IDENTITY * 1.0), 1.0, True),
    "below -psd, above -identity size": (-2 * PSD, 1.0, False),
    "zero": (0.0, 1.0, False),
    "negative zero": (-0.0, 1.0, False),
    "nan": (NAN, 1.0, False),
    "-inf": (-INF, 1.0, True),
}


@pytest.mark.parametrize("value,size,raises", GUARD_CASES.values(), ids=GUARD_CASES)
@pytest.mark.parametrize("stacked", [False, True], ids=["scalar", "stack"])
def test_guard_decides_as_its_rule(value, size, raises, stacked):
    val = np.array([0.0, value, -0.5 * PSD, 1.0]) if stacked else np.float64(value)
    assert guard_as_oracle(val, size) is raises


@settings(max_examples=200, deadline=None)
@given(
    val=hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, max_side=4), elements=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([-PSD, up(-PSD), down(-PSD), -IDENTITY, up(-IDENTITY), down(-IDENTITY), -0.0]),
    )),
    size=st.sampled_from([0.0, 1.0, 0.5, 4.0]),
)
def test_guard_decides_as_its_rule_on_drawn_values(val, size):
    guard_as_oracle(val, size)
