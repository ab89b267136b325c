"""Monte Carlo RB engine: single sequences, curves, reproducibility."""

import numpy as np
import pytest

from rbmpo.average import clifford_averaged_asf
from rbmpo.errors import InputError
from rbmpo.noise import JointUnitary, MarkovianChannel, phase_flip
from rbmpo.quantum import (
    KrausChannel,
    basis_state,
    dagger,
    sample_sequence,
    single_qubit_cliffords,
)
from rbmpo.rb import AsfCurve, ExperimentConfig, estimate_asf, run_sequence

RHO = basis_state(0, 2)
POVM = basis_state(0, 2)


def haar_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def identity_model(dim=2):
    return MarkovianChannel(KrausChannel((np.eye(dim, dtype=complex),)), label="identity")


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
        from rbmpo.quantum import HADAMARD

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
        model = JointUnitary(unitary=np.eye(4, dtype=complex), rho_env=basis_state(0, 2), d_env=2)
        rng = np.random.default_rng(1)
        gates = sample_sequence(cliffords, 5, rng)
        assert abs(run_sequence(model, gates, RHO, POVM) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_survival_in_unit_interval(self, cliffords, seed):
        rng = np.random.default_rng(700 + seed)
        model = JointUnitary(unitary=haar_unitary(4, rng), rho_env=basis_state(0, 2), d_env=2)
        gates = sample_sequence(cliffords, int(rng.integers(1, 8)), rng)
        f = run_sequence(model, gates, RHO, POVM)
        assert -1e-10 <= f <= 1 + 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_markovian_equals_embedded_joint(self, cliffords, seed):
        # a joint unitary I_env x u acts exactly like the Markovian channel u . u^dag
        rng = np.random.default_rng(800 + seed)
        u = haar_unitary(2, rng)
        markov = MarkovianChannel(KrausChannel((u,)))
        joint = JointUnitary(unitary=np.kron(np.eye(2), u), rho_env=basis_state(0, 2), d_env=2)
        gates = sample_sequence(cliffords, 4, rng)
        fa = run_sequence(markov, gates, RHO, POVM)
        fb = run_sequence(joint, gates, RHO, POVM)
        assert abs(fa - fb) < 1e-12

    def test_enumeration_mean_matches_closed_form(self, cliffords):
        model = phase_flip(0.06)
        vals = [run_sequence(model, [g], RHO, POVM) for g in cliffords.gates]
        exact = clifford_averaged_asf(model, RHO, POVM, 1)
        assert abs(np.mean(vals) - exact) < 1e-10

    def test_shape_errors(self):
        with pytest.raises(InputError):
            run_sequence(identity_model(), [], RHO, POVM)


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
        from rbmpo.rb import sample_stream

        vals = []
        for k in range(50):
            rng = sample_stream(3, 1, k)
            gates = sample_sequence(cfg.gate_set, 1, rng)
            vals.append(run_sequence(cfg.noise, gates, RHO, POVM))
        vals = np.asarray(vals)
        assert abs(curve.means[0] - vals.mean()) < 1e-14
        assert abs(curve.stderrs[0] - vals.std(ddof=1) / np.sqrt(50)) < 1e-14


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
