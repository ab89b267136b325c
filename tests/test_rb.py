"""Monte Carlo RB engine: single sequences, curves, reproducibility."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rbmpo.average import clifford_averaged_asf_curve
from rbmpo.errors import InputError, NumericalError, ShapeError
from rbmpo.noise import (NoiseSteps, amplitude_damping, depolarizing, joint_unitary,
                         markovian_channel, phase_flip, spin_unitary)
from rbmpo import rb
from rbmpo.quantum import HADAMARD, I2, KrausChannel, basis_state, compile_undo, sample_sequence
from rbmpo.rb import AsfCurve, ExperimentConfig, _stream_indices, estimate_asf, run_sequence
from rbmpo.selfcheck import enumeration_mean, haar_unitary, sample_stream
from rbmpo.serialize import experiment_config_from_dict, load_json

RHO = basis_state(0, 2)
POVM = basis_state(0, 2)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def identity_model(dim=2):
    return markovian_channel(KrausChannel((np.eye(dim, dtype=complex),)), label="identity")


def qutrit_env_model():
    """A joint model with d_env = 3 next to d_sys = 2, a mixed environment
    and a unitary preparation slot: a swap of environment and system legs
    cannot go unseen on it."""
    rng = np.random.default_rng(1234)
    return joint_unitary(haar_unitary(6, rng), np.diag([0.5, 0.3, 0.2]).astype(complex),
                         prep=KrausChannel((haar_unitary(6, rng),)), label="qutrit_env")


def stream_table(seed, lengths, index, n_gates):
    """``_stream_indices``' columns stacked as rows: row i holds its lengths[i]
    gate indices, then -1."""
    table = np.full((len(lengths), int(lengths[0])), -1, dtype=np.int64)
    for j, column in enumerate(_stream_indices(seed, lengths, index, n_gates)):
        table[:len(column), j] = column
    return table


def kraus_loop_survival(model, gates, rho_sys, povm):
    """Survival probability by evolving the dense joint state slot by slot
    with K rho K^dag: a reference that shares no code with run_sequence."""
    d_env = model.d_env
    inverse = np.eye(model.d_sys, dtype=complex)
    for g in gates:
        inverse = g @ inverse
    rho = np.kron(model.rho_env, rho_sys)
    controls = [None, *gates, inverse.conj().T]
    for g, ops in zip(controls, [model.prep] + [model.bulk] * len(gates) + [model.final]):
        if g is not None:
            lifted = np.kron(np.eye(d_env), g)
            rho = lifted @ rho @ lifted.conj().T
        rho = sum(k @ rho @ k.conj().T for k in ops)
    return float(np.trace(np.kron(np.eye(d_env), povm) @ rho).real)


class TestRunSequence:
    def test_no_noise_gives_unity(self, cliffords):
        rng = np.random.default_rng(0)
        for m in (1, 3, 7):
            gates = sample_sequence(cliffords, m, rng)
            assert abs(run_sequence(identity_model(), gates, RHO, POVM) - 1.0) < 1e-12

    def test_phase_flip_single_step_hand_oracle(self):
        # one Hadamard, then its inverse, phase flip after each: work the
        # 2x2 algebra out independently
        p = 0.06
        model = phase_flip(p)
        got = run_sequence(model, [HADAMARD], RHO, POVM)
        plus = HADAMARD @ RHO @ HADAMARD
        plus[0, 1] *= 1 - 2 * p
        plus[1, 0] *= 1 - 2 * p
        back = HADAMARD @ plus @ HADAMARD
        back[0, 1] *= 1 - 2 * p
        back[1, 0] *= 1 - 2 * p
        assert abs(got - np.real(np.trace(POVM @ back))) < 1e-14

    def test_identity_joint_noise_gives_unity(self, cliffords):
        model = joint_unitary(np.eye(4, dtype=complex), basis_state(0, 2))
        rng = np.random.default_rng(1)
        gates = sample_sequence(cliffords, 5, rng)
        assert abs(run_sequence(model, gates, RHO, POVM) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_survival_in_unit_interval(self, cliffords, seed):
        rng = np.random.default_rng(700 + seed)
        model = joint_unitary(haar_unitary(4, rng), basis_state(0, 2))
        gates = sample_sequence(cliffords, int(rng.integers(1, 8)), rng)
        f = run_sequence(model, gates, RHO, POVM)
        assert -1e-10 <= f <= 1 + 1e-10

    @pytest.mark.parametrize("m", [1, 5])
    def test_qutrit_environment_matches_kraus_loop(self, m):
        # a generic state, POVM element and gates, so that a swap of the bra
        # and ket legs changes the numbers too
        rng = np.random.default_rng(1300 + m)
        a, b = haar_unitary(2, rng), haar_unitary(2, rng)
        rho_sys = a @ np.diag([0.8, 0.2]) @ a.conj().T
        povm = b @ np.diag([0.9, 0.3]) @ b.conj().T
        stack = np.array([[haar_unitary(2, rng) for _ in range(m)] for _ in range(8)])
        model = qutrit_env_model()
        got = run_sequence(model, stack, rho_sys, povm)
        want = [kraus_loop_survival(model, list(seq), rho_sys, povm) for seq in stack]
        assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("seed", range(3))
    def test_markovian_equals_embedded_joint(self, cliffords, seed):
        # a joint unitary I_env x u acts exactly like the Markovian channel u . u^dag
        rng = np.random.default_rng(800 + seed)
        u = haar_unitary(2, rng)
        markov = markovian_channel(KrausChannel((u,)))
        joint = joint_unitary(np.kron(np.eye(2), u), basis_state(0, 2))
        gates = sample_sequence(cliffords, 4, rng)
        fa = run_sequence(markov, gates, RHO, POVM)
        fb = run_sequence(joint, gates, RHO, POVM)
        assert abs(fa - fb) < 1e-12

    @pytest.mark.parametrize("model", [
        phase_flip(0.06),
        markovian_channel(KrausChannel(amplitude_damping(0.3).bulk),
                          final=KrausChannel(depolarizing(0.2).bulk)),
        dataclasses.replace(spin_unitary(1.2, 1.17, -1.15, 0.3),
                            prep=(np.kron(HADAMARD, I2),),
                            final=(np.kron(HADAMARD, I2),)),
    ], ids=["phase_flip", "markovian_final", "joint_prep_final"])
    def test_enumeration_mean_matches_closed_form(self, model):
        exact = clifford_averaged_asf_curve(model, RHO, POVM, 1)[-1]
        assert abs(enumeration_mean(model, 1, RHO, POVM) - exact) < 1e-10

    def test_probability_escape_is_numerical(self, cliffords):
        # passes the 1e-9 unitarity check (defect 8e-10), yet six noise slots
        # inflate the survival probability to 1 + 2.4e-9
        model = joint_unitary((1 + 2e-10) * np.eye(4, dtype=complex), basis_state(0, 2))
        with pytest.raises(NumericalError):
            run_sequence(model, [cliffords.gates[0]] * 5, RHO, POVM)
        # a stack escapes when any one of its sequences does, here the last:
        # the leak grows |1><1| and leaves |0><0| alone
        leak = (np.diag([1.0, 1.0 + 1e-6]).astype(complex),)
        leaky = NoiseSteps(np.ones((1, 1), dtype=complex), leak, (I2,), (I2,))
        stack = np.array([[I2], [I2], [HADAMARD]])
        assert np.array_equal(run_sequence(leaky, stack[:2], RHO, POVM), [1.0, 1.0])
        with pytest.raises(NumericalError):
            run_sequence(leaky, stack, RHO, POVM)

    @pytest.mark.parametrize("gate", [0.5 * I2, np.array([[1, 1], [0, 1]], dtype=complex),
                                      np.full((2, 2), np.nan, dtype=complex)],
                             ids=["half_identity", "shear", "nan"])
    def test_non_unitary_gate_is_input_error(self, cliffords, gate):
        # unchecked, a one-gate sequence of each gave 0.0625, 1.0 and a
        # NumericalError; in the stack the bad gate sits in the last sequence
        stack = np.array([cliffords.gates[:2], cliffords.gates[2:4], [cliffords.gates[4], gate]])
        with pytest.raises(InputError, match="not unitary"):
            run_sequence(phase_flip(0.06), stack, RHO, POVM)
        with pytest.raises(InputError, match="not unitary"):
            run_sequence(phase_flip(0.06), [gate], RHO, POVM)

    @pytest.mark.parametrize("m", [20, 200])
    def test_memory_is_a_multiple_of_the_gate_stack(self, cliffords, m):
        # a chunk's rows x m gates are lifted to d^4 superoperators up front,
        # so the peak grows with m: 8.1 times the stack's bytes at both lengths
        model = phase_flip(0.06)
        stack = np.stack(cliffords.gates)[np.random.default_rng(902).integers(0, 24, (100, m))]
        run_sequence(model, stack[:1], RHO, POVM)
        tracemalloc.start()
        try:
            run_sequence(model, stack, RHO, POVM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * stack.nbytes, peak / stack.nbytes

    def test_shape_errors(self):
        model = identity_model()
        for empty in ([], np.zeros((3, 0, 2, 2)), np.zeros((0, 3, 2, 2))):
            with pytest.raises(InputError):
                run_sequence(model, empty, RHO, POVM)
        for bad in (np.zeros((3, 4, 2, 3)), np.zeros((2, 3, 4, 4)), np.zeros((2, 2)),
                    np.zeros((1, 1, 3, 2, 2)), [np.eye(2), np.eye(3)]):
            with pytest.raises(ShapeError):
                run_sequence(model, bad, RHO, POVM)

    @pytest.mark.parametrize("model", [
        amplitude_damping(0.2),
        dataclasses.replace(spin_unitary(1.2, 1.17, -1.15, 0.3),
                            prep=(np.kron(HADAMARD, I2),), final=(np.kron(I2, HADAMARD),)),
        qutrit_env_model(),
    ], ids=["kraus", "joint_prep_final", "qutrit_env"])
    def test_batch_equals_sequence_by_sequence(self, cliffords, model):
        rng = np.random.default_rng(900)
        stack = np.stack(cliffords.gates)[rng.integers(0, 24, size=(30, 6))]
        batch = run_sequence(model, stack, RHO, POVM)
        assert batch.shape == (30,)
        assert np.array_equal(batch, [run_sequence(model, list(seq), RHO, POVM) for seq in stack])

    def test_loop_inverse_equals_compile_undo(self, cliffords, monkeypatch):
        # the loop's running product, lifted for the last gate, is the dense
        # oracle's inverse; chunks of 7 split the 30 sequences unevenly
        monkeypatch.setattr(rb, "_chunk_rows", lambda noise: 7)
        lifted = []
        lift = rb._gate_superoperators
        monkeypatch.setattr(rb, "_gate_superoperators", lambda g: lifted.append(g) or lift(g))
        rng = np.random.default_rng(901)
        stack = np.stack(cliffords.gates)[rng.integers(0, 24, size=(30, 6))]
        chunked = run_sequence(qutrit_env_model(), stack, RHO, POVM)
        undo = np.concatenate(lifted[1::2])  # each chunk lifts its table, then its inverses
        assert np.array_equal(undo, compile_undo(stack))
        monkeypatch.undo()
        assert np.array_equal(chunked, run_sequence(qutrit_env_model(), stack, RHO, POVM))


def estimate_peak(model, m_max, n_samples):
    """The tracemalloc peak of one estimate_asf run, in bytes."""
    tracemalloc.start()
    try:
        estimate_asf(ExperimentConfig(noise=model, m_max=m_max, n_samples=n_samples, seed=3))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: Models of the batched estimate's checks against the one-sample-at-a-time reference.
ESTIMATE_MODELS = [
    amplitude_damping(0.1),
    dataclasses.replace(spin_unitary(1.2, 1.17, -1.15, 0.05),
                        prep=(np.kron(HADAMARD, I2),), final=(np.kron(I2, HADAMARD),)),
]


class TestEstimateAsf:
    def test_identity_noise_flat_curve(self):
        cfg = ExperimentConfig(noise=identity_model(), m_max=5, n_samples=10, seed=1)
        curve = estimate_asf(cfg)
        assert all(abs(v - 1.0) < 1e-12 for v in curve.means)
        assert all(s < 1e-12 for s in curve.stderrs)

    def test_reproducible_for_fixed_seed(self):
        cfg = ExperimentConfig(noise=phase_flip(0.1), m_max=4, n_samples=20, seed=7)
        a, b = estimate_asf(cfg), estimate_asf(cfg)
        assert a.means == b.means and a.stderrs == b.stderrs

    def test_phase_flip_tracks_closed_form(self):
        cfg = ExperimentConfig(noise=phase_flip(0.06), m_max=20, n_samples=100, seed=2024)
        curve = estimate_asf(cfg)
        exact = clifford_averaged_asf_curve(cfg.noise, RHO, POVM, cfg.m_max)
        exact = exact[np.array(curve.lengths) - 1]
        for mean, se, ex in zip(curve.means, curve.stderrs, exact):
            assert abs(mean - ex) <= 3 * max(se, 1e-6)

    @pytest.mark.parametrize("model", ESTIMATE_MODELS, ids=["kraus", "joint_prep_final"])
    def test_equals_one_sample_at_a_time(self, model):
        # the batched estimate is bitwise the one-sequence-per-call reference
        cfg = ExperimentConfig(noise=model, m_max=6, n_samples=25, seed=11)
        curve = estimate_asf(cfg)
        for m, mean, stderr in zip(curve.lengths, curve.means, curve.stderrs):
            vals = np.array([
                run_sequence(model, sample_sequence(cfg.gate_set, m, sample_stream(11, m, k)),
                             RHO, POVM)
                for k in range(25)])
            assert mean == float(vals.mean())
            assert stderr == float(vals.std(ddof=1) / np.sqrt(25))

    @pytest.mark.parametrize("model", ESTIMATE_MODELS, ids=["kraus", "joint_prep_final"])
    def test_chunks_do_not_move_the_estimate(self, model, monkeypatch):
        # chunks of 7 rows over 6 lengths of 25 samples: most chunks hold two
        # lengths, and every length spans four or five chunks; the whole
        # estimate is the one-sample-at-a-time reference (test above)
        cfg = ExperimentConfig(noise=model, m_max=6, n_samples=25, seed=11)
        whole = estimate_asf(cfg)
        monkeypatch.setattr(rb, "_chunk_rows", lambda noise: 7)
        assert estimate_asf(cfg) == whole

    def test_memory_does_not_grow_with_m_max(self):
        # one chunk of 1,000 rows each, m_max 1,000 x 1 sample and m_max 50 x
        # 20 samples, so only m_max differs: the gate indices are drawn one
        # step at a time, where a (rows, m_max) int64 table of them would add 7.6 MB
        peaks = [estimate_peak(phase_flip(0.1), m_max, n) for m_max, n in ((1000, 1), (50, 20))]
        assert abs(peaks[0] - peaks[1]) < 256 * 1024

    def test_memory_does_not_grow_with_width(self):
        # 1,200 rows fill a chunk at d_env 1, 2 and 3, whose rows hold 20, 32
        # and 52 complex entries; chunks of 1,024 rows at every width would
        # put the three peaks 1 MB apart
        models = [amplitude_damping(0.1), ESTIMATE_MODELS[1], qutrit_env_model()]
        peaks = [estimate_peak(model, 20, 60) for model in models]
        assert max(peaks) - min(peaks) < 128 * 1024

    def test_leaves_numpy_random_unimported(self):
        # the streams are numpy's arithmetic on arrays: generate does not pay
        # for importing numpy.random, even where Lemire's draw rejects words
        # (a quarter of them at 3 * 2**30 + 1 gates)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(CONFIGS.parent / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
        code = ("import sys; import numpy as np; from rbmpo.noise import phase_flip; "
                "from rbmpo.rb import ExperimentConfig, _stream_indices, estimate_asf; "
                "estimate_asf(ExperimentConfig(noise=phase_flip(0.1), m_max=5, n_samples=20, seed=7)); "
                "list(_stream_indices(7, np.repeat([17, 3], 20), np.tile(np.arange(20), 2), "
                "3 * 2**30 + 1)); "
                "print('numpy.random' in sys.modules)")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"

    @pytest.mark.parametrize("field", ["m_max", "n_samples"])
    def test_sizes_fit_one_entropy_word(self, field):
        cfg = ExperimentConfig(noise=phase_flip(0.1), m_max=2, n_samples=2, seed=1)
        dataclasses.replace(cfg, **{field: 2**32 - 1})  # valid, though never run
        with pytest.raises(InputError):
            dataclasses.replace(cfg, **{field: 2**32})


class TestStreams:
    """The vectorised gate draws reproduce numpy's per-sample streams bit for bit.

    Sample k at length m draws ``default_rng([seed & (2**64 - 1), m, k])``
    ``.integers(0, G, size=m)``.  numpy's stream policy (NEP 19) lets the
    Generator's streams change between numpy versions; such a change fails
    these tests first, and ``_stream_indices`` must follow it.
    """

    SEEDS = (2024, 7, 0, 1, 2**40 + 5, -3, 12345678901234)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_sample_stream(self, seed):
        lengths = np.repeat([40, 17, 3, 2, 1], 300)
        index = np.tile(np.arange(300), 5)
        picks = stream_table(seed, lengths, index, 24)
        for row, m, k in zip(picks, lengths, index):
            assert np.array_equal(row[:m], sample_stream(seed, m, k).integers(0, 24, size=m))

    def test_rejected_rows_redrawn(self):
        # with 3 * 2**30 + 1 gates a quarter of the 32-bit words fall below
        # Lemire's threshold, so numpy skips them and draws again.  With 2**32
        # gates the threshold is 0, and the draw returns the raw words: a row
        # meets a rejection when one of its first m words would be skipped
        n_gates = 3 * 2**30 + 1
        lengths = np.repeat([17, 3, 1], 40)
        index = np.tile(np.arange(40), 3)
        words = stream_table(-3, lengths, index, 2**32).astype(np.uint64)
        skipped = (words * n_gates & 0xFFFFFFFF) < (2**32 - n_gates) % n_gates
        rejecting = [skipped[i, :m].any() for i, m in enumerate(lengths)]
        assert 0 < sum(rejecting) < len(lengths)
        picks = stream_table(-3, lengths, index, n_gates)
        for row, m, k in zip(picks, lengths, index):
            assert np.array_equal(row[:m], sample_stream(-3, m, k).integers(0, n_gates, size=m))


class TestGoldenValues:
    """Monte Carlo curves captured before the sequence simulator was
    rewritten; a refactor must reproduce them to 1e-14."""

    SPIN = (
        (0.9880486155712497, 0.9794755367614923, 0.9756590919026239, 0.9694197658889386,
         0.9553617076605228, 0.963629680264539, 0.9721985065827079, 0.9606454901875894,
         0.9568667697369635, 0.9535723591933805),
        (0.001980789793902141, 0.0031907399069490833, 0.003782433522244585,
         0.0029383875867134324, 0.0064156873787205955, 0.004996740502407473,
         0.004489800383586918, 0.007422681311222785, 0.005060099933650012,
         0.01119789625684536),
    )
    AMPLITUDE_DAMPING = (
        (0.9759898646797746, 0.9492712317047957, 0.8976001999460529, 0.8998825310697043,
         0.8703475700643477, 0.8728995389197298, 0.831571534363577, 0.8195800745980684,
         0.7848091586958356, 0.7654618018461324),
        (0.00552570638545427, 0.008566099715055984, 0.011044616440199747,
         0.011000153585673772, 0.010179298136499449, 0.008987134387074708,
         0.01399419610534541, 0.009665973332716743, 0.011894859177037044,
         0.016121575560505058),
    )

    @pytest.mark.parametrize("name, expected", [
        ("spin_model", SPIN), ("amplitude_damping", AMPLITUDE_DAMPING),
    ])
    def test_bundled_config_estimates(self, name, expected):
        cfg = experiment_config_from_dict(load_json(CONFIGS / f"{name}.json"))
        curve = estimate_asf(dataclasses.replace(cfg, n_samples=20, m_max=10))
        assert curve.lengths == tuple(range(1, 11)) and curve.n_samples == 20
        assert np.max(np.abs(np.asarray(curve.means) - expected[0])) < 1e-14
        assert np.max(np.abs(np.asarray(curve.stderrs) - expected[1])) < 1e-14


class TestAsfCurveFormat:
    def test_csv_round_trip(self):
        curve = AsfCurve((1, 2, 3, 4), (1.0, 0.96, 0.5, 0.25), (0.0, 0.01, 0.002, 0.3), 100)
        back = AsfCurve.from_csv(curve.to_csv())
        assert back == curve

    def test_header_enforced(self):
        with pytest.raises(InputError):
            AsfCurve.from_csv("a,b,c\n1,2,3")

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            AsfCurve.from_csv("")
        with pytest.raises(InputError):
            AsfCurve.from_csv("m,mean,stderr,n_samples\n")

    def test_invariants(self):
        with pytest.raises(InputError):
            AsfCurve((1,), (1.5,), (0.0,), 10)
        with pytest.raises(InputError):
            AsfCurve((0,), (0.5,), (0.0,), 10)
        for stderr in (np.nan, np.inf, -np.inf, -1e-3):
            with pytest.raises(InputError):
                AsfCurve((1, 2), (0.9, 0.8), (0.01, stderr), 10)
        for lengths in ((1, 1), (2, 1)):
            with pytest.raises(InputError):
                AsfCurve(lengths, (0.9, 0.8), (0.01, 0.01), 10)
