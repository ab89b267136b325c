"""Property tests of the file formats (curve CSV round trips and the real-field
parser) and of the Monte Carlo's vectorised sample streams."""

import math
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from rbmpo.errors import InputError  # noqa: E402
from rbmpo.quantum import _draw_indices  # noqa: E402
from rbmpo.rb import AsfCurve, _stream_indices, sample_stream  # noqa: E402
from rbmpo.serialize import _number  # noqa: E402

FLOAT_MAX_INT = int(sys.float_info.max)


@st.composite
def curves(draw):
    lengths = sorted(draw(st.sets(st.integers(1, 10**6), min_size=1, max_size=25)))
    k = len(lengths)
    means = draw(st.lists(st.floats(-1e-12, 1.0 + 1e-12), min_size=k, max_size=k))
    stderrs = draw(st.lists(st.floats(0.0, allow_infinity=False), min_size=k, max_size=k))
    return AsfCurve(tuple(lengths), tuple(means), tuple(stderrs), draw(st.integers(1, 10**9)))


def _bits(values):
    return [float(v).hex() + ("-" if math.copysign(1.0, v) < 0 else "+") for v in values]


@given(curves())
def test_curve_csv_round_trip_is_bit_exact(curve):
    back = AsfCurve.from_csv(curve.to_csv())
    assert back.lengths == curve.lengths
    assert _bits(back.means) == _bits(curve.means)
    assert _bits(back.stderrs) == _bits(curve.stderrs)
    assert back.n_samples == curve.n_samples


@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.integers(-FLOAT_MAX_INT, FLOAT_MAX_INT)))
def test_real_field_accepts_finite_numbers(value):
    parsed = _number({"x": value}, "x", float, "record")
    assert type(parsed) is float
    assert _bits([parsed]) == _bits([float(value)])


@given(st.one_of(st.booleans(), st.text(), st.none(),
                 st.sampled_from([math.nan, math.inf, -math.inf]),
                 st.integers(min_value=2**1024), st.integers(max_value=-2**1024)))
def test_real_field_rejects_non_numbers(value):
    with pytest.raises(InputError):
        _number({"x": value}, "x", float, "record")


@settings(max_examples=60, deadline=None)
@given(st.integers(-2**70, 2**70), st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_stream_draw_equals_sample_stream(seed, m, k):
    """One row of the vectorised draw is numpy's own stream (see test_rb.TestStreams, NEP 19)."""
    picks = _stream_indices(seed, np.array([m]), np.array([k]), 24)
    assert np.array_equal(picks[0], _draw_indices(24, m, sample_stream(seed, m, k)))
