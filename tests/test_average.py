"""Environment superoperators, closed-form averaged fidelity, exponential fits."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rbmpo.average import (NoiseSteps, clifford_averaged_asf_curve, env_maps, fit_exponential,
                           measurement_functional, prepared_state, raw_slot, raw_slot_adjoint)
from rbmpo.errors import InputError, UnsupportedConfigurationError
from rbmpo.noise import (amplitude_damping, depolarizing, joint_unitary, kraus_stack, phase_flip,
                         spin_unitary)
from rbmpo.quantum import (GateSet, HADAMARD, KrausChannel, basis_state, dagger,
                           single_qubit_cliffords)
from rbmpo.rb import AsfCurve, ExperimentConfig, estimate_asf, run_sequence
from rbmpo.selfcheck import enumeration_mean, haar_unitary
from rbmpo.serialize import experiment_config_from_dict, load_json

RHO = basis_state(0, 2)
POVM = basis_state(0, 2)


def mixed_and_loop(ops):
    """The mixed and loop maps of a two-qubit slot as 4 x 4 superoperators on
    row-major vectorized environment operators."""
    stack = kraus_stack(ops, 2)
    mixed, loop = env_maps(stack, stack).reshape(2, 4, 4)
    return mixed, loop


class TestEnvMaps:
    def test_identity_step(self):
        ops = (np.eye(4, dtype=complex),)
        mixed, loop = mixed_and_loop(ops)
        assert np.linalg.norm(loop - 4.0 * np.eye(4)) < 1e-12
        assert np.linalg.norm(mixed - np.eye(4)) < 1e-12

    def test_environment_only_unitary(self):
        rng = np.random.default_rng(0)
        u = haar_unitary(2, rng)
        ops = (np.kron(u, np.eye(2)),)
        _, loop = mixed_and_loop(ops)
        conj_action = np.kron(u, np.conj(u))  # vec_row superoperator of u . u^dag
        assert np.linalg.norm(loop - 4.0 * conj_action) < 1e-12

    def test_system_channel_leaves_env_untouched(self):
        # phase flip on the system extended by identity on the environment
        ch = KrausChannel(phase_flip(0.3).bulk)
        ops = tuple(np.kron(np.eye(2), k) for k in ch.operators)
        mixed, _ = mixed_and_loop(ops)
        assert np.linalg.norm(mixed - np.eye(4)) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_definitional_loop_oracle(self, seed):
        # literal reimplementation of both defining formulas, element by element
        lam = haar_unitary(4, np.random.default_rng(900 + seed))
        mixed, loop = mixed_and_loop((lam,))
        units = np.eye(4, dtype=complex).reshape(4, 2, 2)  # |a><b| at column 2a + b
        for col, eps in enumerate(units):
            out_loop = sum((lam @ np.kron(eps, sys) @ dagger(lam)).reshape(2, 2, 2, 2)[:, s, :, t]
                           for (s, t), sys in zip(np.ndindex(2, 2), units))
            y = lam @ np.kron(eps, np.eye(2) / 2) @ dagger(lam)
            out_mixed = np.einsum("esfs->ef", y.reshape(2, 2, 2, 2))
            assert np.linalg.norm(loop[:, col] - out_loop.reshape(-1)) < 1e-12
            assert np.linalg.norm(mixed[:, col] - out_mixed.reshape(-1)) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_map_trace_preserving(self, seed):
        rng = np.random.default_rng(1000 + seed)
        lam = haar_unitary(4, rng)
        mixed, _ = mixed_and_loop((lam,))
        eps = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        out = (mixed @ eps.reshape(-1)).reshape(2, 2)
        assert abs(np.trace(out) - np.trace(eps)) < 1e-12


def definitional_env_maps(ket, bra):
    # both maps in one three-operand einsum over their delta patterns
    d_sys = ket.shape[-1]
    eye = np.eye(d_sys)
    patterns = np.stack([
        np.einsum("tv,uw->tuvw", eye, eye) / d_sys,
        np.einsum("tu,vw->tuvw", eye, eye),
    ])
    return np.einsum("...qetfu,...qhvgw,ptuvw->p...ehfg", ket, np.conj(bra), patterns)


def definitional_raw_slot(ket, bra, x):
    return np.einsum("...qaibj,...bjcl,...qdmcl->...aidm", ket, x, np.conj(bra))


def definitional_raw_slot_adjoint(ket, bra, l):
    return np.einsum("...qaibj,...aidm,...qdmcl->...bjcl", ket, l, np.conj(bra))


class TestFactoredKernels:
    """The pairwise slot kernels against their three-operand definitions,
    and their stacks against single nodes."""

    @staticmethod
    def haar_stack(rng, batch, kraus=2):
        # Kraus stacks (*batch, k, e, s, f, t) of sqrt(1/k)-scaled Haar unitaries
        nodes = [haar_unitary(4, rng) / np.sqrt(kraus) for _ in range(int(np.prod(batch)) * kraus)]
        return np.stack(nodes).reshape(*batch, kraus, 2, 2, 2, 2)

    @staticmethod
    def gaussian(rng, shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 2.0

    def test_haar_stacks_with_unequal_batch_shapes(self):
        rng = np.random.default_rng(1902)
        ket, bra = self.haar_stack(rng, (3, 1)), self.haar_stack(rng, (1, 4))
        x, l = self.gaussian(rng, (4, 2, 2, 2, 2)), self.gaussian(rng, (3, 1, 2, 2, 2, 2))
        for kernel, reference, args in [
            (env_maps, definitional_env_maps, (ket, bra)),
            (raw_slot, definitional_raw_slot, (ket, bra, x)),
            (raw_slot_adjoint, definitional_raw_slot_adjoint, (ket, bra, l)),
        ]:
            out, ref = kernel(*args), reference(*args)
            assert out.shape == ref.shape
            assert np.max(np.abs(out - ref)) < 1e-14, kernel.__name__

    def test_unequal_environment_legs(self):
        # the joint node's free bonds: a (k, 2, s, 1, t) upper basis stack
        # against a (k, 2, s, 8, t) bra half, and lower (k, 1, s, 2, t) nodes
        # against a (k, 8, s, 2, t) one, as in the joint-node coefficient
        rng = np.random.default_rng(1903)
        for ket_shape, bra_shape, x_legs in [((5, 1, 2, 2, 1, 2), (1, 2, 2, 8, 2), (1, 8)),
                                            ((5, 1, 1, 2, 2, 2), (1, 8, 2, 2, 2), (2, 2))]:
            ket, bra = self.gaussian(rng, ket_shape), self.gaussian(rng, bra_shape)
            f, g = x_legs
            x = self.gaussian(rng, (f, 2, g, 2))
            l = self.gaussian(rng, (ket_shape[-4], 2, bra_shape[-4], 2))
            for kernel, reference, args in [
                (env_maps, definitional_env_maps, (ket, bra)),
                (raw_slot, definitional_raw_slot, (ket, bra, x)),
                (raw_slot_adjoint, definitional_raw_slot_adjoint, (ket, bra, l)),
            ]:
                out, ref = kernel(*args), reference(*args)
                assert out.shape == ref.shape
                assert np.max(np.abs(out - ref)) < 1e-14, kernel.__name__

    def test_stack_equals_single_nodes_bitwise(self):
        rng = np.random.default_rng(1904)
        ket = self.haar_stack(rng, (6,))
        bra = self.haar_stack(rng, (6,))
        x, l = self.gaussian(rng, (2, 2, 2, 2)), self.gaussian(rng, (2, 2, 2, 2))
        stacked = [env_maps(ket, bra), raw_slot(ket, bra, x), raw_slot_adjoint(ket, bra, l)]
        for n in range(6):
            assert np.array_equal(stacked[0][:, n], env_maps(ket[n], bra[n]))
            assert np.array_equal(stacked[1][n], raw_slot(ket[n], bra[n], x))
            assert np.array_equal(stacked[2][n], raw_slot_adjoint(ket[n], bra[n], l))


class TestClosedFormAverage:
    def test_identity_noise(self):
        model = joint_unitary(np.eye(4, dtype=complex), basis_state(0, 2), 2)
        curve = clifford_averaged_asf_curve(model, RHO, POVM, 10)
        assert np.allclose(curve, 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_exhaustive_enumeration_m1_m2(self, seed):
        rng = np.random.default_rng(1100 + seed)
        model = joint_unitary(haar_unitary(4, rng), basis_state(0, 2), 2)
        curve = clifford_averaged_asf_curve(model, RHO, POVM, 2)
        for m in (1, 2):
            assert abs(enumeration_mean(model, m, RHO, POVM) - curve[m - 1]) < 1e-10

    @pytest.mark.slow
    def test_matches_exhaustive_enumeration_m4(self):
        # all 331,776 sequences, one batch of 13,824 per first gate
        rng = np.random.default_rng(1104)
        table = np.stack(single_qubit_cliffords().gates)
        model = joint_unitary(haar_unitary(4, rng), basis_state(0, 2), 2)
        tails = table[np.indices((24,) * 3).reshape(3, -1).T]
        total = sum(
            np.sum(run_sequence(model, np.concatenate(
                [np.broadcast_to(g, (len(tails), 1, 2, 2)), tails], axis=1), RHO, POVM))
            for g in table)
        assert abs(total / 24**4 - clifford_averaged_asf_curve(model, RHO, POVM, 4)[-1]) < 1e-10

    def test_phase_flip_closed_form_value(self):
        # hand-derived: decay (4(1-p) - 1)/3, amplitude and offset 1/2
        p = 0.06
        vals = clifford_averaged_asf_curve(phase_flip(p), RHO, POVM, 12)
        decay = (4 * (1 - p) - 1) / 3
        expected = 0.5 * decay ** np.arange(1, 13) + 0.5
        assert np.allclose(vals, expected, atol=1e-12)

    def test_spin_model_not_exponential(self):
        model = spin_unitary(1.2, 1.17, -1.15, 0.05)
        vals = clifford_averaged_asf_curve(model, RHO, POVM, 20)
        curve = AsfCurve(tuple(range(1, 21)), tuple(vals), (0.0,) * 20, 1)
        fit = fit_exponential(curve)
        assert fit.max_residual > 1e-3

    def test_non_two_design_rejected(self):
        gs = GateSet(gates=(HADAMARD,), label="not_a_design", is_two_design=False)
        with pytest.raises(UnsupportedConfigurationError):
            clifford_averaged_asf_curve(phase_flip(0.1), RHO, POVM, 3, gate_set=gs)

    def test_matches_dense_averaged_control(self):
        from rbmpo.process_tensor import contract_asf_dense_averaged

        rng = np.random.default_rng(5)
        model = joint_unitary(haar_unitary(4, rng), basis_state(0, 2), 2)
        for m in (1, 2, 3):
            dense = contract_asf_dense_averaged(model, m, RHO, POVM)
            exact = clifford_averaged_asf_curve(model, RHO, POVM, m)[-1]
            assert abs(dense - exact) < 1e-10


class TestChainKernel:
    """The two-sector chain against a literal per-step twirl, and its node
    stacks against single nodes."""

    @staticmethod
    def stepped_curve(noise, m_max):
        # reference: the prepared state taken through m_max twirled bulk slots,
        # X -> mean_C (I x C^dag) Bulk((I x C) X (I x C^dag)) (I x C) over the
        # single-qubit Cliffords, each slot averaged on its own
        gates = [np.kron(np.eye(noise.d_env), c) for c in single_qubit_cliffords().gates]
        dim = noise.d_env * noise.d_sys
        x = prepared_state(noise, RHO).reshape(dim, dim)
        meas = measurement_functional(noise, POVM).reshape(dim, dim)
        values = []
        for _ in range(m_max):
            x = sum(dagger(c) @ k @ c @ x @ dagger(c) @ dagger(k) @ c
                    for c in gates for k in noise.bulk) / len(gates)
            values.append(np.real(np.sum(meas * x)))
        return np.array(values)

    @staticmethod
    def haar_nodes():
        rng = np.random.default_rng(1401)
        return np.stack([haar_unitary(4, rng) for _ in range(16)])

    def test_stack_equals_single_nodes_bitwise(self):
        from rbmpo.learner import cost, evaluate, predicted_curve

        nodes = self.haar_nodes()
        # at least 8 lengths: numpy sums those pairwise, and a strided row would not be
        lengths = (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20)
        data = AsfCurve(lengths, tuple(np.linspace(0.95, 0.6, len(lengths))), (0.0,) * 11, 1)
        curves = predicted_curve(nodes, 2, RHO, POVM, lengths)
        costs = cost(nodes, 2, data, RHO, POVM)
        fits = evaluate(nodes, 2, data, RHO, POVM)
        assert curves.shape == (16, len(lengths)) and costs.shape == fits.l1.shape == (16,)
        for node, curve, value, *row in zip(nodes, curves, costs, *fits):
            single = predicted_curve(node, 2, RHO, POVM, lengths)
            assert single.shape == (len(lengths),)
            assert np.array_equal(curve, single)
            single_cost = cost(node, 2, data, RHO, POVM)
            assert isinstance(single_cost, float) and value == single_cost
            # each row of the stacked fit: cost, l1, node and predicted curve
            single_fit = evaluate(node, 2, data, RHO, POVM)
            assert isinstance(single_fit.l1, float)
            assert all(np.array_equal(a, b) for a, b in zip(row, single_fit, strict=True))
        grid = nodes.reshape(4, 4, 4, 4)
        assert np.array_equal(predicted_curve(grid, 2, RHO, POVM, lengths),
                              curves.reshape(4, 4, len(lengths)))

    def test_chain_matches_stepped_reference(self):
        models = [NoiseSteps.uniform(node, 2) for node in self.haar_nodes()]
        models.append(replace(amplitude_damping(0.3), final=depolarizing(0.2).bulk))
        for model in models:
            chain = clifford_averaged_asf_curve(model, RHO, POVM, 20)
            assert np.max(np.abs(chain - self.stepped_curve(model, 20))) < 1e-13


    @pytest.mark.parametrize("short, long", [(20, 26), (9, 40), (26, 40), (7, 50), (1, 5)])
    def test_blocks_do_not_move_the_curve(self, short, long):
        # the chain runs in blocks of ceil(sqrt(m_max)) lengths, so the two
        # lengths split it differently; a curve's first lengths may not depend
        # on that, bit for bit, for a single model or a stack
        nodes = self.haar_nodes()
        for model in (NoiseSteps.uniform(nodes, 2), NoiseSteps.uniform(nodes[3], 2),
                      replace(amplitude_damping(0.3), final=depolarizing(0.2).bulk)):
            head = clifford_averaged_asf_curve(model, RHO, POVM, short)
            whole = clifford_averaged_asf_curve(model, RHO, POVM, long)
            assert head.shape[:-1] == whole.shape[:-1] and head.shape[-1] == short
            assert np.array_equal(head, whole[..., :short])

    def test_memory_does_not_grow_with_m_max(self):
        # a departure-sized stack of 272 nodes at m_max 100: a buffer of every
        # length's sector pairs would take 100 x 272 x 2 x 4 x 4 complex entries
        import tracemalloc

        from rbmpo.learner import predicted_curve

        nodes = np.tile(self.haar_nodes(), (17, 1, 1))
        lengths = tuple(range(1, 101))
        every_length = len(lengths) * len(nodes) * 2 * 16 * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            curve = predicted_curve(nodes, 2, RHO, POVM, lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert curve.shape == (272, 100)
        assert peak < every_length / 3, (peak, every_length)


class TestExpFit:
    def test_recovers_synthetic_model(self):
        ms = tuple(range(1, 15))
        ys = tuple(0.5 * 0.9 ** m + 0.5 for m in ms)
        fit = fit_exponential(AsfCurve(ms, ys, (0.0,) * len(ms), 1))
        assert abs(fit.amplitude - 0.5) < 1e-8
        assert abs(fit.decay - 0.9) < 1e-8
        assert abs(fit.offset - 0.5) < 1e-8
        assert fit.max_residual < 1e-10

    def test_degenerate_flat_curve(self):
        fit = fit_exponential(AsfCurve((1, 2, 3, 4), (0.8,) * 4, (0.0,) * 4, 1))
        assert fit.degenerate
        assert fit.decay == 1.0
        assert abs(fit.amplitude + fit.offset - 0.8) < 1e-14

    def test_exactly_linear_curve_gives_its_slope(self):
        ms = tuple(range(1, 21))
        fit = fit_exponential(AsfCurve(ms, tuple(0.95 - 0.004 * m for m in ms), (0.0,) * 20, 1))
        assert fit.degenerate
        assert fit.amplitude == 0.0 and fit.decay == 1.0
        assert abs(fit.slope + 0.004) < 1e-12
        assert abs(fit.offset - 0.95) < 1e-12

    def test_near_linear_spin_data_reports_the_line(self):
        # no exponential beats the least-squares line on these data: the SSE
        # only falls toward the line's as p -> 1, where A and B diverge
        cfg = ExperimentConfig(noise=spin_unitary(1.2, 1.17, -1.15, 0.05), m_max=20,
                               n_samples=100, seed=2024)
        fit = fit_exponential(estimate_asf(cfg))
        assert fit.degenerate
        assert fit.amplitude == 0.0 and fit.decay == 1.0
        assert abs(fit.slope + 3.79e-3) < 1e-5
        assert abs(fit.max_residual - 0.0126887144) < 1e-10

    def test_needs_four_points(self):
        with pytest.raises(InputError):
            fit_exponential(AsfCurve((1, 2, 3), (1.0, 0.9, 0.8), (0.0,) * 3, 1))


class TestGoldenValues:
    """Values captured before the averaged step was rewritten; a kernel
    refactor must reproduce them to 1e-12."""

    SPIN = (
        0.9845214287213594, 0.9794982089412505, 0.9749954938182174, 0.970941394655043,
        0.9672567942158071, 0.9638575710197674, 0.9606569054252532, 0.9575676040571213,
        0.9545043801468189, 0.9513860300100759, 0.948137450074004, 0.9446914444349731,
        0.9409902796998277, 0.9369869516266974, 0.9326461366074231, 0.9279448100759686,
        0.9228725232328691, 0.9174313387903642, 0.9116354355178592, 0.9055103999664373,
    )
    AMPLITUDE_DAMPING = (
        0.9696049894151542, 0.9412629936490925, 0.9148353429081532, 0.8901927337761105,
        0.8672145965671938, 0.8457885054109106, 0.8258096281823765, 0.807180213586808,
        0.7898091128886215, 0.7736113339450834, 0.7585076253625226, 0.7444240887404895,
        0.7312918171066757, 0.7190465577735571, 0.7076283979672037, 0.6969814716901249,
        0.6870536863839081, 0.6777964680542836, 0.6691645236115816, 0.6611156192637768,
    )

    @pytest.mark.parametrize("name, expected", [
        ("spin_model", SPIN), ("amplitude_damping", AMPLITUDE_DAMPING),
    ])
    def test_bundled_config_curves(self, name, expected):
        path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
        cfg = experiment_config_from_dict(load_json(path))
        vals = clifford_averaged_asf_curve(cfg.noise, cfg.rho_sys, cfg.povm, 20)
        assert np.max(np.abs(vals - np.asarray(expected))) < 1e-12

    def test_joint_coefficient(self):
        # slot 2 of a length-4 sequence, read through its norm, two entries
        # and three seeded random linear functionals
        from rbmpo.process_tensor import asf_joint_coefficient

        rng = np.random.default_rng(2207)
        steps = NoiseSteps.uniform(haar_unitary(4, rng), 2)
        own = kraus_stack(steps.bulk, 2)
        coeff = asf_joint_coefficient(steps, 2, {4: 1.0}, RHO, POVM, (own, own))
        assert abs(np.linalg.norm(coeff) - 0.21864232609686907) < 1e-12
        assert abs(coeff[0, 0, 0, 0, 0, 0] - (-0.012093299758548146 + 0.014354289794112213j)) < 1e-12
        assert abs(coeff[1, 0, 1, 0, 1, 1] - (0.017343648308018173 - 0.03471246874067686j)) < 1e-12
        probes = rng.standard_normal((3,) + coeff.shape) + 1j * rng.standard_normal((3,) + coeff.shape)
        expected = (
            -0.25094143598782204 + 0.33045901526600263j,
            0.23364266189401875 - 0.027131306755047026j,
            -0.059625304331249365 + 0.2613997519383081j,
        )
        for probe, value in zip(probes, expected):
            assert abs(np.sum(probe * np.conj(coeff)) - value) < 1e-12
