"""Dense process-tensor oracle and the joint-node coefficient machinery."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rbmpo.average import NoiseSteps, clifford_averaged_asf_curve
from rbmpo.errors import InputError, ResourceLimitError, ShapeError
from rbmpo.noise import amplitude_damping, depolarizing, joint_unitary, kraus_stack
from rbmpo.process_tensor import (
    DENSE_ORACLE_MAX_M,
    asf_joint_coefficient,
    contract_asf_dense,
    contract_asf_dense_averaged,
    dense_noise_tensor,
    joint_node,
    split_joint,
)
from rbmpo.quantum import basis_state, sample_sequence
from rbmpo.rb import run_sequence
from rbmpo.selfcheck import haar_unitary, joint_fidelity

RHO = basis_state(0, 2)
POVM = basis_state(0, 2)


def random_model(rng):
    return joint_unitary(haar_unitary(4, rng), basis_state(0, 2), 2)


class TestDenseOracle:
    def test_identity_nodes_ideal_spam(self, cliffords):
        steps = NoiseSteps.uniform(np.eye(4, dtype=complex), 2)
        rng = np.random.default_rng(0)
        gates = sample_sequence(cliffords, 2, rng)
        assert abs(contract_asf_dense(steps, gates, RHO, POVM) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "m, variant",
        [(1, None), (2, None), (3, None), (1, "spam"), (2, "spam"), (2, "ad"), (3, "ad-final")],
        ids=["1", "2", "3", "1-spam", "2-spam", "2-ad", "3-ad-final"])
    def test_agrees_with_direct_evolution(self, cliffords, m, variant):
        rng = np.random.default_rng(1200 + m)
        if variant == "ad":
            model = amplitude_damping(0.3)
        elif variant == "ad-final":
            model = dataclasses.replace(amplitude_damping(0.3), final=depolarizing(0.2).bulk)
        else:
            model = random_model(rng)
        if variant == "spam":
            model = dataclasses.replace(model, prep=(haar_unitary(4, rng),),
                                        final=(haar_unitary(4, rng),))
        gates = sample_sequence(cliffords, m, rng)
        f_dense = contract_asf_dense(model, gates, RHO, POVM)
        f_run = run_sequence(model, gates, RHO, POVM)
        assert abs(f_dense - f_run) < 1e-12

    def test_cap_is_enforced_and_named(self, cliffords):
        rng = np.random.default_rng(2)
        steps = random_model(rng)
        gates = sample_sequence(cliffords, DENSE_ORACLE_MAX_M + 1, rng)
        with pytest.raises(ResourceLimitError, match=str(DENSE_ORACLE_MAX_M)):
            contract_asf_dense(steps, gates, RHO, POVM)

    def test_dense_tensors_have_expected_rank(self):
        rng = np.random.default_rng(3)
        steps = random_model(rng)
        ups = dense_noise_tensor(steps, 1)
        assert ups.shape == (2,) * 12  # 4(m+2) legs at m=1

    @pytest.mark.parametrize(
        "m, variant",
        [(m, v) for v in (None, "ad-final", "spam") for m in (1, 2, 3)],
        ids=[f"{m}{'-' + v if v else ''}" for v in (None, "ad-final", "spam") for m in (1, 2, 3)])
    def test_averaged_dense_matches_closed_form(self, m, variant):
        # the Kraus slots share one index per slot; the spam model's raw
        # preparation and final slots are Haar unitaries of their own
        rng = np.random.default_rng(1300 + m)
        if variant == "ad-final":
            model = dataclasses.replace(amplitude_damping(0.3), final=depolarizing(0.2).bulk)
        else:
            model = random_model(rng)
        if variant == "spam":
            model = dataclasses.replace(model, prep=(haar_unitary(4, rng),),
                                        final=(haar_unitary(4, rng),))
        dense = contract_asf_dense_averaged(model, m, RHO, POVM)
        exact = clifford_averaged_asf_curve(model, RHO, POVM, m)[-1]
        assert abs(dense - exact) < 1e-10


    @pytest.mark.slow
    def test_oracles_at_the_cap_stay_below_450_mb(self):
        # Both oracles contract their controls into the 268 MB noise tensor one
        # at a time; a transposed copy of the tensor would take the peak past
        # 450 MB.  One fresh process, so ru_maxrss is the oracles' own peak.
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        code = (
            "import json, resource, numpy as np\n"
            "from rbmpo.average import clifford_averaged_asf_curve\n"
            "from rbmpo.noise import joint_unitary\n"
            "from rbmpo.process_tensor import contract_asf_dense, contract_asf_dense_averaged\n"
            "from rbmpo.quantum import basis_state, sample_sequence, single_qubit_cliffords\n"
            "from rbmpo.rb import run_sequence\n"
            "from rbmpo.selfcheck import haar_unitary\n"
            "rng, rho = np.random.default_rng(1404), basis_state(0, 2)\n"
            "model = joint_unitary(haar_unitary(4, rng), rho, 2)\n"
            "gates = sample_sequence(single_qubit_cliffords(), 4, rng)\n"
            "seq = abs(contract_asf_dense(model, gates, rho, rho)\n"
            "          - run_sequence(model, gates, rho, rho))\n"
            "avg = abs(contract_asf_dense_averaged(model, 4, rho, rho)\n"
            "          - clifford_averaged_asf_curve(model, rho, rho, 4)[-1])\n"
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
            "print(json.dumps({'seq': seq, 'avg': avg, 'peak_mb': peak}))\n")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        out = json.loads(run.stdout)
        assert out["seq"] < 1e-10 and out["avg"] < 1e-10, out
        assert out["peak_mb"] < 450, out


class TestJointCoefficient:
    def test_joint_grouping_matches_loop_oracle(self):
        # fusing two nodes over their bond, then grouping (e_up s s')(e_dn t t'),
        # must reproduce an index-by-index loop
        rng = np.random.default_rng(7)
        a, b = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2))
        fused = joint_node(a, b, 2).reshape(8, 8)
        a4, b4 = a.reshape(2, 2, 2, 2), b.reshape(2, 2, 2, 2)
        for eu in range(2):
            for si in range(2):
                for sip in range(2):
                    for ed in range(2):
                        for sj in range(2):
                            for sjp in range(2):
                                expected = sum(
                                    a4[eu, si, e, sip] * b4[e, sj, ed, sjp] for e in range(2)
                                )
                                row = (eu * 2 + si) * 2 + sip
                                col = (ed * 2 + sj) * 2 + sjp
                                assert abs(fused[row, col] - expected) < 1e-14

    def test_full_contraction_reproduces_average(self):
        rng = np.random.default_rng(4)
        lam = haar_unitary(4, rng)
        # a uniform model, and one whose boundary slots differ from the bulk
        # (the final slot's own node must sit above the node at slot n + 1)
        distinct = dataclasses.replace(NoiseSteps.uniform(haar_unitary(4, rng), 2),
                                       prep=(haar_unitary(4, rng),), final=(haar_unitary(4, rng),))
        for steps in (NoiseSteps.uniform(lam, 2), distinct):
            prep, bulk, final = steps.prep, steps.bulk, steps.final
            for n in (1, 2, 5):
                f_ref = clifford_averaged_asf_curve(steps, RHO, POVM, n)[-1]
                for slot in range(1, n + 2):
                    up, dn = final if slot == n + 1 else bulk, prep if slot == 1 else bulk
                    joint = joint_node(up[0], dn[0], 2)
                    own = (kraus_stack(up, 2), kraus_stack(dn, 2))
                    coeff = asf_joint_coefficient(steps, slot, {n: 1.0}, RHO, POVM, own)
                    f_via = float(np.real(np.sum(joint * np.conj(coeff))))
                    assert abs(f_via - f_ref) < 1e-10, (n, slot)
                    f_own = joint_fidelity(steps, slot, n, joint, RHO, POVM)
                    assert abs(f_own - f_ref) < 1e-10, (n, slot)

    def test_identity_nodes_unit_fidelity(self):
        steps = NoiseSteps.uniform(np.eye(4, dtype=complex), 2)
        own = kraus_stack(steps.bulk, 2)
        coeff = asf_joint_coefficient(steps, 1, {1: 1.0}, RHO, POVM, (own, own))
        joint = joint_node(np.eye(4), np.eye(4), 2)
        assert abs(np.sum(joint * np.conj(coeff)) - 1.0) < 1e-12

    def test_physical_evaluation_at_model_point(self):
        rng = np.random.default_rng(9)
        lam = haar_unitary(4, rng)
        steps = NoiseSteps.uniform(lam, 2)
        joint = joint_node(lam, lam, 2)
        bra = split_joint(np.eye(8), joint.reshape(8, 8), joint.shape)
        value = np.sum(joint * np.conj(asf_joint_coefficient(steps, 2, {3: 1.0}, RHO, POVM, bra)))
        assert abs(value.imag) < 1e-12
        assert abs(value.real - clifford_averaged_asf_curve(steps, RHO, POVM, 3)[-1]) < 1e-12

    def test_physical_evaluation_away_from_model_point(self):
        # at n = 1 each slot of the sequence (prep, bulk, final) is its own
        # node, so a product joint node of two other unitaries is a model of
        # its own: at slot 1 it replaces (bulk, prep), at slot 2 (final, bulk)
        rng = np.random.default_rng(10)
        base = dataclasses.replace(random_model(rng), prep=(haar_unitary(4, rng),),
                                   final=(haar_unitary(4, rng),))
        u_up, u_dn = haar_unitary(4, rng), haar_unitary(4, rng)
        joint = joint_node(u_up, u_dn, 2)
        for slot, model in ((1, dataclasses.replace(base, bulk=(u_up,), prep=(u_dn,))),
                            (2, dataclasses.replace(base, final=(u_up,), bulk=(u_dn,)))):
            value = joint_fidelity(base, slot, 1, joint, RHO, POVM)
            assert abs(value - clifford_averaged_asf_curve(model, RHO, POVM, 1)[-1]) < 1e-12, slot

    def test_input_checks(self):
        rng = np.random.default_rng(11)
        steps = random_model(rng)
        own = (kraus_stack(steps.bulk, 2),) * 2
        with pytest.raises(ShapeError, match="system dimension"):
            asf_joint_coefficient(steps, 2, {3: 1.0}, np.eye(4) / 4, POVM, own)
        with pytest.raises(ShapeError, match="system dimension"):
            asf_joint_coefficient(steps, 2, {3: 1.0}, RHO, np.eye(3), own)
        with pytest.raises(InputError, match="joint-node slot"):
            asf_joint_coefficient(steps, 5, {3: 1.0}, RHO, POVM, own)
        with pytest.raises(InputError, match="length n >= 1"):
            asf_joint_coefficient(steps, 1, {0: 1.0, 3: 1.0}, RHO, POVM, own)
