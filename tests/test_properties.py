"""Property tests of the file formats (curve CSV round trips and the real-field
parser), of the command line on edited input files, of the Monte Carlo's
vectorised sample streams, and, on random models, of direct evolution against
the dense oracle, of batches against single sequences, of the closed form
against the Clifford enumeration and the [0, 1] bound of a probability, of the
exponential fit against the decay of a memoryless channel, and of noise
records against the model they were written from.

The random models are drawn as seeds, not arrays, so that shrinking stays
cheap: :func:`random_model` builds one from its seed."""

import copy
import dataclasses
import functools
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402
from rbmpo.average import clifford_averaged_asf_curve, fit_exponential  # noqa: E402
from rbmpo.cli import EXIT_INPUT, EXIT_NOT_CONVERGED, EXIT_NUMERICAL, EXIT_OK, main  # noqa: E402
from rbmpo.errors import InputError  # noqa: E402
from rbmpo.learner import train  # noqa: E402
from rbmpo.linalg import matrix_to_json_dict  # noqa: E402
from rbmpo.noise import NoiseSteps  # noqa: E402
from rbmpo.process_tensor import contract_asf_dense  # noqa: E402
from rbmpo.quantum import basis_state  # noqa: E402
from rbmpo.rb import AsfCurve, estimate_asf, run_sequence  # noqa: E402
from rbmpo.selfcheck import enumeration_mean, haar_unitary, sample_stream  # noqa: E402
from rbmpo.serialize import (  # noqa: E402
    _number, experiment_config_from_dict, learner_config_from_dict, noise_model_from_dict,
    noise_model_to_dict, training_result_to_dict,
)
from test_rb import stream_table  # noqa: E402

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


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
EXPERIMENTS = ["amplitude_damping", "depolarizing", "identity", "phase_flip", "spin_model"]
#: The largest value drawn for each size field: larger ones are valid inputs that only take long.
CAPS = {"m_max": 4, "n_samples": 3, "departure_rounds": 1, "max_iterations": 2, "d_env": 3}
DELETE = "<delete the field>"
VALUES = [DELETE, None, True, False, -1, 0, 1, 2, 3, 0.5, 2.9, -0.5, 1e308, 2**40, 2**64,
          math.nan, math.inf, "", "zero", "x", [], [1, 2], {}, {"kind": "phase_flip", "p": 0.1}]
CELLS = ["", "x", "nan", "inf", "-1", "0", "1", "2", "5", "0.5", "1e309", "1e-320", "9" * 20]
#: The length column's pool: a valid length of 10^20 only takes long.
LENGTH_CELLS = ["", "x", "nan", "-1", "0", "1", "2", "5", "0.5"]


def _above(value, cap: float) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value > cap


@functools.cache
def bundled(name: str) -> dict:
    """A bundled config with its size fields capped."""
    record = json.loads((CONFIGS / f"{name}.json").read_text())
    return {k: min(v, CAPS[k]) if k in CAPS else v for k, v in record.items()}


@functools.cache
def generated_csv() -> str:
    return estimate_asf(experiment_config_from_dict(bundled("phase_flip"))).to_csv()


@functools.cache
def training_record() -> dict:
    cfg = learner_config_from_dict(bundled("learner_adagrad"))
    curve = AsfCurve.from_csv(generated_csv())
    return training_result_to_dict(train(curve, *(basis_state(0, 2),) * 2, cfg), cfg)


def _paths(value, prefix=()):
    """The path of every field and list item in a JSON value, and of a new field in each object."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    out = [(*prefix, "extra")] if isinstance(value, dict) else []
    for key, item in items:
        out.append((*prefix, key))
        if isinstance(item, (dict, list)):
            out += _paths(item, (*prefix, key))
    return out


@st.composite
def edited(draw, record):
    """`record` with up to two fields or items replaced by, or deleted for, a pool value."""
    record = copy.deepcopy(record)
    for _ in range(draw(st.integers(0, 2))):
        *parents, key = draw(st.sampled_from(_paths(record)))
        value = draw(st.sampled_from([v for v in VALUES if not _above(v, CAPS.get(key, math.inf))]))
        target = functools.reduce(lambda node, k: node[k], parents, record)
        if value != DELETE:
            target[key] = copy.deepcopy(value)
        elif key in target or isinstance(target, list):
            del target[key]
    return record


@st.composite
def edited_csv(draw, text):
    """`text` with up to two cells replaced by a pool value or rows dropped; lengths stay small."""
    rows = [line.split(",") for line in text.splitlines()]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(0, len(rows) - 1))
        col = draw(st.integers(-1, len(rows[row]) - 1))
        if col < 0:
            del rows[row]
            if not rows:
                break
        else:
            rows[row][col] = draw(st.sampled_from(CELLS if col else LENGTH_CELLS))
    return "\n".join(",".join(row) for row in rows) + "\n"


@st.composite
def cli_runs(draw):
    """A command, its edited input files (name -> JSON record or text) and its flags."""
    command = draw(st.sampled_from(["generate", "learn", "diagnose"]))
    flags = draw(st.sampled_from([[], ["--json"]]))
    if command == "generate":
        return command, {"cfg.json": draw(edited(bundled(draw(st.sampled_from(EXPERIMENTS)))))}, flags
    if command == "learn":
        files = {"data/asf.csv": draw(edited_csv(generated_csv())),
                 "learner.json": draw(edited(bundled(draw(st.sampled_from(
                     ["learner_adagrad", "learner_adam"])))))}
        if draw(st.booleans()):  # the generate manifest that learn reads its state and POVM from
            files["data/manifest.json"] = draw(edited(
                {"command": "generate", "config": bundled("phase_flip")}))
        return command, files, flags + draw(st.sampled_from([[], ["--require-convergence"]]))
    record = training_record() if draw(st.booleans()) else training_record()["node"]
    return command, {"result.json": draw(edited(record))}, flags + draw(st.sampled_from(
        [[], ["--tol", "0"], ["--tol", "nan"], ["--tol", "-1"]]))


#: Inputs that escaped main before they were mended: an identity dim of 2^64
#: (ValueError), overflows in a spin unitary's phases and in a node's
#: unitarity check (RuntimeWarning), and a length of 10^15 in an ASF table,
#: whose averaged chain numpy cannot allocate (MemoryError, at once).
IDENTITY_DIM = ("generate", {"cfg.json": {**bundled("identity"),
                                          "noise": {"kind": "identity", "dim": 2**64}}}, [])
SPIN_PHASE = ("generate", {"cfg.json": {**bundled("spin_model"), "noise": {
    **bundled("spin_model")["noise"], "delta": 1e308}}}, [])
NODE_OVERFLOW = ("diagnose", {"result.json": matrix_to_json_dict(np.diag([1e308, 1, 1, 1]))}, [])
HUGE_LENGTH = ("learn", {"data/asf.csv": "m,mean,stderr,n_samples\n1,0.96,0.003,100\n"
                                         "1000000000000000,0.5,0.01,100\n",
                         "learner.json": bundled("learner_adagrad")}, [])
INPUTS = {"generate": ["cfg.json"], "learn": ["data/asf.csv", "learner.json"],
          "diagnose": ["result.json"]}


@settings(max_examples=40, deadline=None)
@example(IDENTITY_DIM)
@example(SPIN_PHASE)
@example(NODE_OVERFLOW)
@example(HUGE_LENGTH)
@given(cli_runs())
def test_cli_returns_an_exit_code_on_edited_inputs(run):
    """generate, learn and diagnose on bundled inputs with fields edited exit
    0-3 and raise nothing (a RuntimeWarning is an error under pyproject.toml)."""
    command, files, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            path = Path(tmp, name)
            path.parent.mkdir(exist_ok=True)
            path.write_text(content if isinstance(content, str) else json.dumps(content))
        inputs = [str(Path(tmp, name)) for name in INPUTS[command]]
        out = [] if command == "diagnose" else ["-o", str(Path(tmp, "out"))]
        assert main([command, *inputs, *out, *flags]) in (
            EXIT_OK, EXIT_INPUT, EXIT_NUMERICAL, EXIT_NOT_CONVERGED)


@settings(max_examples=60, deadline=None)
@given(st.integers(-2**70, 2**70), st.integers(1, 64), st.integers(0, 2**32 - 1),
       st.sampled_from([24, 1, 5, 2**31 + 1, 3 * 2**30 + 1, 2**32]))
def test_stream_draw_equals_sample_stream(seed, m, k, n_gates):
    """One row of the vectorised draw is numpy's own stream (see test_rb.TestStreams, NEP 19).
    At 2**31 + 1 and 3 * 2**30 + 1 gates, Lemire's draw rejects about half and a quarter of
    the 32-bit words."""
    picks = stream_table(seed, np.array([m]), np.array([k]), n_gates)
    assert np.array_equal(picks[0], sample_stream(seed, m, k).integers(0, n_gates, size=m))


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


def random_model(seed, d_env=None):
    """Noise on d_env in {1, 2, 3} (or the given d_env) x one qubit, a generic
    rho_env, its own slot in each of prep, bulk and final; with a generic
    state, POVM element and gate sequence of length 1 or 2."""
    rng = np.random.default_rng(seed)
    drawn = int(rng.integers(1, 4))  # drawn either way, so that the later draws stay put
    d_env = drawn if d_env is None else d_env
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


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_batch_equals_sequences_one_at_a_time(seed):
    """A batch of three sequences against each run alone, bit for bit."""
    model, rho_sys, povm, gates = random_model(seed)
    stack = np.array([gates, gates[::-1], [g.conj() for g in gates]])
    assert np.array_equal(run_sequence(model, stack, rho_sys, povm),
                          [run_sequence(model, list(seq), rho_sys, povm) for seq in stack])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_closed_form_equals_enumeration_at_m1(seed):
    """The closed form against all 24 length-1 Clifford sequences, criterion 2's bound."""
    model, rho_sys, povm, _ = random_model(seed)
    assert abs(clifford_averaged_asf_curve(model, rho_sys, povm, 1)[0]
               - enumeration_mean(model, 1, rho_sys, povm)) < 1e-10


@settings(max_examples=20, deadline=None)
@example(27)  # a model whose curve leaves [0, 1] when the loop map changes sign
@given(st.integers(0, 2**64 - 1))
def test_averaged_curve_is_a_probability(seed):
    """The closed form's curve up to m = 30 is a survival probability: it lies in [0, 1]."""
    model, rho_sys, povm, _ = random_model(seed)
    curve = clifford_averaged_asf_curve(model, rho_sys, povm, 30)
    assert -1e-12 <= curve.min() and curve.max() <= 1.0 + 1e-12


@settings(max_examples=5, deadline=None)  # each fit takes about 0.1 s
@given(st.integers(0, 2**64 - 1))
def test_fit_exponential_recovers_a_memoryless_decay(seed):
    """At d_env 1 the closed form is an exact A p^m + B, with the bulk channel's
    p = (sum_k |tr K_k|^2 - 1) / 3; fit_exponential recovers that p.  The
    bound is on A (p_fit - p), since p is only as well determined as A is large."""
    model, rho_sys, povm, _ = random_model(seed, d_env=1)
    lengths = tuple(range(1, 21))
    curve = clifford_averaged_asf_curve(model, rho_sys, povm, len(lengths))
    fit = fit_exponential(AsfCurve(lengths, tuple(curve), (0.0,) * len(lengths), 1))
    p = (sum(abs(np.trace(k)) ** 2 for k in model.bulk) - 1.0) / 3.0
    assert not fit.degenerate and abs(fit.amplitude * (fit.decay - p)) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_noise_record_round_trips_bit_for_bit(seed):
    """A model read back from its JSON record equals it bit for bit, but for a
    one-dimensional environment, whose state a memoryless record does not
    store and reads back as exactly 1; a model with an environment and more
    than one bulk operator has no record."""
    model, *_ = random_model(seed)
    if model.d_env > 1 and len(model.bulk) > 1:
        with pytest.raises(InputError):
            noise_model_to_dict(model)
        return
    if model.d_env == 1:  # random_model's 1 x 1 state can be 1 - 2^-53
        model = dataclasses.replace(model, rho_env=np.ones((1, 1), dtype=np.complex128))
    back = noise_model_from_dict(json.loads(json.dumps(noise_model_to_dict(model))))
    assert back.label == model.label
    for field in ("rho_env", "bulk", "prep", "final"):
        assert np.array(getattr(back, field)).tobytes() == np.array(getattr(model, field)).tobytes()
