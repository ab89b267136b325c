"""Monte Carlo RB engine: single sequences, curves, reproducibility."""

import dataclasses

import numpy as np
import pytest

from rbmpo.average import clifford_averaged_asf
from rbmpo.errors import InputError, NumericalError, ShapeError
from rbmpo.noise import (
    NoiseSteps,
    amplitude_damping,
    depolarizing,
    joint_unitary,
    markovian_channel,
    phase_flip,
    spin_unitary,
)
from rbmpo.quantum import (
    HADAMARD,
    I2,
    KrausChannel,
    basis_state,
    dagger,
    sample_sequence,
    single_qubit_cliffords,
)
from rbmpo.rb import AsfCurve, ExperimentConfig, estimate_asf, run_sequence, sample_stream

RHO = basis_state(0, 2)
POVM = basis_state(0, 2)


def haar_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def identity_model(dim=2):
    return markovian_channel(KrausChannel((np.eye(dim, dtype=complex),)), label="identity")


@pytest.fixture(scope="module")
def cliffords():
    return single_qubit_cliffords()


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
        model = joint_unitary(np.eye(4, dtype=complex), basis_state(0, 2), 2)
        rng = np.random.default_rng(1)
        gates = sample_sequence(cliffords, 5, rng)
        assert abs(run_sequence(model, gates, RHO, POVM) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_survival_in_unit_interval(self, cliffords, seed):
        rng = np.random.default_rng(700 + seed)
        model = joint_unitary(haar_unitary(4, rng), basis_state(0, 2), 2)
        gates = sample_sequence(cliffords, int(rng.integers(1, 8)), rng)
        f = run_sequence(model, gates, RHO, POVM)
        assert -1e-10 <= f <= 1 + 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_markovian_equals_embedded_joint(self, cliffords, seed):
        # a joint unitary I_env x u acts exactly like the Markovian channel u . u^dag
        rng = np.random.default_rng(800 + seed)
        u = haar_unitary(2, rng)
        markov = markovian_channel(KrausChannel((u,)))
        joint = joint_unitary(np.kron(np.eye(2), u), basis_state(0, 2), 2)
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
    def test_enumeration_mean_matches_closed_form(self, cliffords, model):
        vals = [run_sequence(model, [g], RHO, POVM) for g in cliffords.gates]
        exact = clifford_averaged_asf(model, RHO, POVM, 1)
        assert abs(np.mean(vals) - exact) < 1e-10

    def test_probability_escape_is_numerical(self, cliffords):
        # passes the 1e-9 unitarity check (defect 8e-10), yet six noise slots
        # inflate the survival probability to 1 + 2.4e-9
        model = joint_unitary((1 + 2e-10) * np.eye(4, dtype=complex), basis_state(0, 2), 2)
        with pytest.raises(NumericalError):
            run_sequence(model, [cliffords.gates[0]] * 5, RHO, POVM)
        # a stack escapes when any one of its sequences does, here the last:
        # the leak grows |1><1| and leaves |0><0| alone
        leak = (np.diag([1.0, 1.0 + 1e-6]).astype(complex),)
        leaky = NoiseSteps(1, 2, np.ones((1, 1), dtype=complex), leak, (I2,), (I2,))
        stack = np.array([[I2], [I2], [HADAMARD]])
        assert np.array_equal(run_sequence(leaky, stack[:2], RHO, POVM), [1.0, 1.0])
        with pytest.raises(NumericalError):
            run_sequence(leaky, stack, RHO, POVM)

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
    ], ids=["kraus", "joint_prep_final"])
    def test_batch_equals_sequence_by_sequence(self, cliffords, model):
        rng = np.random.default_rng(900)
        stack = np.stack(cliffords.gates)[rng.integers(0, 24, size=(30, 6))]
        batch = run_sequence(model, stack, RHO, POVM)
        assert batch.shape == (30,)
        assert np.array_equal(batch, [run_sequence(model, list(seq), RHO, POVM) for seq in stack])


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
        exact = [clifford_averaged_asf(cfg.noise, RHO, POVM, m) for m in curve.lengths]
        for mean, se, ex in zip(curve.means, curve.stderrs, exact):
            assert abs(mean - ex) <= 3 * max(se, 1e-6)

    def test_stderr_convention(self):
        # sample std with ddof=1, divided by sqrt(n)
        cfg = ExperimentConfig(noise=phase_flip(0.2), m_max=1, n_samples=50, seed=3)
        curve = estimate_asf(cfg)
        vals = []
        for k in range(50):
            rng = sample_stream(3, 1, k)
            gates = sample_sequence(cfg.gate_set, 1, rng)
            vals.append(run_sequence(cfg.noise, gates, RHO, POVM))
        vals = np.asarray(vals)
        assert abs(curve.means[0] - vals.mean()) < 1e-14
        assert abs(curve.stderrs[0] - vals.std(ddof=1) / np.sqrt(50)) < 1e-14

    @pytest.mark.parametrize("model", [
        amplitude_damping(0.1),
        dataclasses.replace(spin_unitary(1.2, 1.17, -1.15, 0.05),
                            prep=(np.kron(HADAMARD, I2),), final=(np.kron(I2, HADAMARD),)),
    ], ids=["kraus", "joint_prep_final"])
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
        from pathlib import Path

        from rbmpo.serialize import experiment_config_from_dict, load_json

        path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
        cfg = experiment_config_from_dict(load_json(path))
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
