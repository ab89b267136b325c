"""Property tests of the file formats (curve CSV round trips and the real-field
parser), of the Monte Carlo's vectorised sample streams, and of direct
evolution against the dense oracle on random models.

The random models are drawn as seeds, not arrays, so that shrinking stays
cheap: :func:`random_model` builds one from its seed."""

import math
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from rbmpo.errors import InputError  # noqa: E402
from rbmpo.noise import NoiseSteps  # noqa: E402
from rbmpo.process_tensor import contract_asf_dense  # noqa: E402
from rbmpo.quantum import _draw_indices  # noqa: E402
from rbmpo.rb import AsfCurve, _stream_indices, run_sequence, sample_stream  # noqa: E402
from rbmpo.selfcheck import haar_unitary  # noqa: E402
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


def _density_matrix(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _slot(dim, rng):
    """A Haar unitary, or a Stinespring channel: the Kraus operators are the
    (dim, dim) blocks of a Haar isometry from dim to k * dim dimensions."""
    if rng.random() < 0.5:
        return (haar_unitary(dim, rng),)
    k = int(rng.integers(2, 4))
    return tuple(haar_unitary(k * dim, rng)[:, :dim].reshape(k, dim, dim))


def random_model(seed):
    """Noise on d_env in {1, 2, 3} x one qubit, a generic rho_env, its own slot
    in each of prep, bulk and final; with a generic state, POVM element and
    gate sequence of length 1 or 2."""
    rng = np.random.default_rng(seed)
    d_env = int(rng.integers(1, 4))
    model = NoiseSteps(_density_matrix(d_env, rng), *(_slot(2 * d_env, rng) for _ in range(3)))
    u = haar_unitary(2, rng)
    povm = u @ np.diag(rng.uniform(0.0, 1.0, 2)) @ u.conj().T
    gates = [haar_unitary(2, rng) for _ in range(int(rng.integers(1, 3)))]
    return model, _density_matrix(2, rng), povm, gates


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_direct_evolution_equals_dense_oracle(seed):
    """run_sequence against the dense contraction, criterion 1's bound."""
    model, rho_sys, povm, gates = random_model(seed)
    assert abs(run_sequence(model, gates, rho_sys, povm)
               - contract_asf_dense(model, gates, rho_sys, povm)) < 1e-10
