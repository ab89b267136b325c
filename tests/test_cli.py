"""Command-line interface: exit codes, file outputs, determinism, self-check."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rbmpo.cli as cli_mod
import rbmpo.learner as learner_mod
from rbmpo.cli import EXIT_INPUT, EXIT_NOT_CONVERGED, EXIT_NUMERICAL, EXIT_OK, main
from rbmpo.learner import Adagrad, LearnerConfig, train
from rbmpo.linalg import matrix_to_json_dict
from rbmpo.quantum import basis_state
from rbmpo.selfcheck import haar_unitary
from rbmpo.serialize import dump_json, learner_config_to_dict

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"


def write_experiment(path, noise=None, **fields):
    """An experiment config at `path`: identity noise, seed 1, m_max 3 and 5
    samples, unless `noise` or `fields` say otherwise."""
    dump_json({"schema_version": 1, "kind": "rb_experiment", "seed": 1, "m_max": 3,
               "n_samples": 5, "noise": noise or {"kind": "identity", "dim": 2}, **fields}, path)
    return path


def generated(tmp_path, noise=None, **fields):
    """The ASF table that `generate` writes to tmp_path/data for that config."""
    cfg = write_experiment(tmp_path / "cfg.json", noise, **fields)
    assert main(["generate", str(cfg), "-o", str(tmp_path / "data")]) == EXIT_OK
    return tmp_path / "data" / "asf.csv"


def nan_matrix_record(dim, row, col):
    """Matrix record of the dim x dim identity with a NaN at (row, col)."""
    record = matrix_to_json_dict(np.eye(dim, dtype=complex))
    record["re"][row][col] = float("nan")
    return record


def write_learner_config(path, **overrides):
    cfg = LearnerConfig(optimizer=Adagrad(rate=1e-5), max_iterations=20)
    dump_json({**learner_config_to_dict(cfg), **overrides}, path)
    return path


def learn(data, tmp_path, *flags, **overrides):
    """`learn` on `data` with the learner config `overrides` make, into tmp_path/fit."""
    lcfg = write_learner_config(tmp_path / "learner.json", **overrides)
    return main(["learn", str(data), str(lcfg), "-o", str(tmp_path / "fit"), *flags])


class TestGenerate:
    def test_identity_config(self, tmp_path, capsys):
        cfg = write_experiment(tmp_path / "cfg.json", m_max=5, n_samples=10, seed=3)
        rc = main(["generate", str(cfg), "-o", str(tmp_path / "out")])
        assert rc == EXIT_OK
        table = (tmp_path / "out" / "asf.csv").read_text()
        rows = table.strip().splitlines()
        assert rows[0] == "m,mean,stderr,n_samples"
        assert len(rows) == 6
        for row in rows[1:]:
            assert abs(float(row.split(",")[1]) - 1.0) < 1e-12
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["command"] == "generate"
        assert str(tmp_path / "out" / "asf.csv") in manifest["outputs"]

    def test_bundled_phase_flip_config(self, tmp_path):
        rc = main(["generate", str(CONFIGS / "phase_flip.json"), "-o", str(tmp_path / "pf")])
        assert rc == EXIT_OK
        rows = (tmp_path / "pf" / "asf.csv").read_text().strip().splitlines()
        assert len(rows) == 21  # header + 20 lengths

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_experiment(tmp_path / "cfg.json", n_samples=10, seed=3)
        main(["generate", str(cfg), "-o", str(tmp_path / "a")])
        main(["generate", str(cfg), "-o", str(tmp_path / "b")])
        assert (tmp_path / "a" / "asf.csv").read_bytes() == (tmp_path / "b" / "asf.csv").read_bytes()

    def test_missing_config_is_input_error(self, tmp_path):
        rc = main(["generate", str(tmp_path / "nope.json"), "-o", str(tmp_path / "out")])
        assert rc == EXIT_INPUT

    def test_bad_parameter_is_input_error(self, tmp_path):
        cfg = write_experiment(tmp_path / "bad.json", {"kind": "phase_flip", "p": 1.5})
        assert main(["generate", str(cfg), "-o", str(tmp_path / "out")]) == EXIT_INPUT

    @pytest.mark.parametrize("noise", [{"kind": "phase_flip", "p": True},
                                       {"kind": "identity", "dim": 2.9},
                                       {"kind": "identity", "dim": -1},
                                       {"kind": "joint_unitary", "d_env": 2,
                                        "unitary": nan_matrix_record(4, 0, 0),
                                        "rho_env": matrix_to_json_dict(np.diag([1.0, 0.0]))},
                                       {"kind": "markovian", "label": 5,
                                        "kraus": [matrix_to_json_dict(np.eye(2))]},
                                       {"kind": "phase_flip", "p": 0.1, "gamma": 0.2},
                                       # the system is one qubit: no identity of another
                                       # size is built, however large
                                       *({"kind": "identity", "dim": dim}
                                         for dim in (0, 3, 2**40, 2**64))])
    def test_mistyped_noise_parameter_is_input_error(self, tmp_path, capsys, noise):
        cfg = write_experiment(tmp_path / "bad.json", noise)
        assert main(["generate", str(cfg), "-o", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_config_field_is_input_error(self, tmp_path):
        # a misspelt "povm" would otherwise leave the default |0><0| measured
        cfg = write_experiment(tmp_path / "bad.json", {"kind": "phase_flip", "p": 0.1},
                               pvom=matrix_to_json_dict(np.diag([0.0, 1.0])))
        assert main(["generate", str(cfg), "-o", str(tmp_path / "out")]) == EXIT_INPUT
        assert not (tmp_path / "out" / "asf.csv").exists()

    def test_non_finite_state_record_is_input_error(self, tmp_path):
        # NaN compares false with every tolerance, so only the record reader
        # can stop it before it becomes a NaN survival probability (exit 2)
        cfg = write_experiment(tmp_path / "bad.json", rho_sys=nan_matrix_record(2, 0, 0))
        assert "NaN" in cfg.read_text()
        assert main(["generate", str(cfg), "-o", str(tmp_path / "out")]) == EXIT_INPUT


class TestLearn:
    def test_end_to_end_and_diagnose(self, tmp_path, capsys):
        data = generated(tmp_path, m_max=5, n_samples=10, seed=3)
        assert learn(data, tmp_path, "--json") == EXIT_OK
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["converged"] is True
        rc = main(["diagnose", str(tmp_path / "fit" / "result.json"), "--json"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["markovian"] is True
        assert report["off_block_norm"] < 1e-10

    @pytest.mark.parametrize("key, value", [("unitarity_tol", float("nan")),
                                            ("convergence_divisor", float("inf"))])
    def test_non_finite_config_number_is_input_error(self, tmp_path, key, value):
        data = generated(tmp_path, m_max=4, n_samples=2, seed=3)
        assert learn(data, tmp_path, **{key: value}) == EXIT_INPUT
        text = (tmp_path / "learner.json").read_text()
        assert "NaN" in text or "Infinity" in text

    def test_empty_data_is_input_error(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("")
        assert learn(data, tmp_path) == EXIT_INPUT

    def test_require_convergence_exit_code(self, tmp_path, capsys):
        csv = generated(tmp_path, m_max=6, n_samples=5, seed=9).read_text().splitlines()
        # doctor the curve so no uncoupled unitary model can match it and
        # tighten the target so nothing converges
        doctored = [csv[0]]
        for i, row in enumerate(csv[1:]):
            parts = row.split(",")
            parts[1] = repr(1.0 - 0.05 * ((i % 2) + 1))
            doctored.append(",".join(parts))
        data = tmp_path / "doctored.csv"
        data.write_text("\n".join(doctored) + "\n")
        rc = learn(data, tmp_path, "--require-convergence", max_iterations=2, departure_rounds=1,
                   convergence_divisor=1e9)
        assert rc == EXIT_NOT_CONVERGED
        assert "did not reach the l1 target (at iteration 2)" in capsys.readouterr().err

    def test_learn_fits_the_generated_state_and_povm(self, tmp_path, monkeypatch):
        one = basis_state(1, 2)
        data = generated(tmp_path, {"kind": "phase_flip", "p": 0.06}, m_max=4,
                         povm=matrix_to_json_dict(one))
        seen = {}

        def spy(data, rho_sys, povm, config):
            seen.update(rho_sys=rho_sys, povm=povm)
            return train(data, rho_sys, povm, config)

        monkeypatch.setattr(cli_mod, "train", spy)
        assert learn(data, tmp_path, departure_rounds=0, max_iterations=0) == EXIT_OK
        assert np.array_equal(seen["povm"], one)
        assert np.array_equal(seen["rho_sys"], basis_state(0, 2))
        inputs = json.loads((tmp_path / "fit" / "manifest.json").read_text())["inputs"]
        assert str(tmp_path / "data" / "manifest.json") in inputs

    @pytest.mark.parametrize("config", [[1, 2], {"kind": "rb_experiment", "seed": 1}])
    def test_malformed_generate_manifest_is_input_error(self, tmp_path, config):
        data = generated(tmp_path, m_max=4, n_samples=2, seed=3)
        manifest = tmp_path / "data" / "manifest.json"
        dump_json({**json.loads(manifest.read_text()), "config": config}, manifest)
        assert learn(data, tmp_path, departure_rounds=0, max_iterations=0) == EXIT_INPUT

    @pytest.mark.parametrize("out", [("data",), ("data", "..", "data")])
    def test_output_over_the_generate_manifest_is_input_error(self, tmp_path, out):
        data = generated(tmp_path, m_max=4, n_samples=2, seed=3)
        manifest = tmp_path / "data" / "manifest.json"
        before = manifest.read_bytes()
        lcfg = write_learner_config(tmp_path / "learner.json", departure_rounds=0, max_iterations=0)
        rc = main(["learn", str(data), str(lcfg), "-o", str(tmp_path.joinpath(*out))])
        assert rc == EXIT_INPUT
        assert manifest.read_bytes() == before
        assert not (tmp_path / "data" / "result.json").exists()

    def test_non_unitary_sweep_update_exits_2(self, tmp_path, monkeypatch):
        exact = learner_mod.replacement_node
        monkeypatch.setattr(learner_mod, "replacement_node",
                            lambda *args, **kw: exact(*args, **kw) * (1.0 + 1e-6))
        data = generated(tmp_path, {"kind": "phase_flip", "p": 0.06}, m_max=4)
        rc = learn(data, tmp_path, departure_rounds=1, max_iterations=1, convergence_divisor=1e9)
        assert rc == EXIT_NUMERICAL


class TestDiagnose:
    def test_identity_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "node.json"
        dump_json(matrix_to_json_dict(np.eye(4, dtype=complex)), path)
        assert main(["diagnose", str(path), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["markovian"] is True
        assert report["off_block_norm"] == 0.0

    def test_spin_unitary_file(self, tmp_path, capsys):
        from rbmpo.noise import spin_unitary

        path = tmp_path / "node.json"
        dump_json(matrix_to_json_dict(spin_unitary(1.2, 1.17, -1.15, 0.05).bulk[0]), path)
        assert main(["diagnose", str(path), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["markovian"] is False

    def test_non_unitary_rejected(self, tmp_path):
        path = tmp_path / "node.json"
        dump_json(matrix_to_json_dict(np.diag([1.0, 1.0, 1.0, 0.2]).astype(complex)), path)
        assert main(["diagnose", str(path)]) == EXIT_INPUT

    def test_non_finite_matrix_rejected(self, tmp_path, capsys):
        path = tmp_path / "node.json"
        dump_json(nan_matrix_record(4, 3, 0), path)
        assert main(["diagnose", str(path)]) == EXIT_INPUT
        assert "non-markovian" not in capsys.readouterr().out

    def test_nan_tolerance_rejected(self, tmp_path, capsys):
        # NaN compares false with every off-block norm: it would call every
        # node non-Markovian
        node = np.eye(4, dtype=complex)
        node[2:, :2] = node[:2, 2:] = 5e-6 * np.eye(2)
        path = tmp_path / "node.json"
        dump_json(matrix_to_json_dict(np.linalg.qr(node)[0]), path)
        assert main(["diagnose", str(path), "--tol", "1e-2"]) == EXIT_OK
        assert main(["diagnose", str(path), "--tol", "nan"]) == EXIT_INPUT

    @pytest.mark.parametrize("d_env", [1, 3])
    def test_d_env_of_matrix_record_is_its_size_over_two(self, tmp_path, capsys, d_env):
        # the system is one qubit: a 2 x 2 rotation is a d_env 1 node, and a
        # system unitary on the populated level next to a 4 x 4 one on the
        # two others is a Markovian d_env 3 node
        c, s = np.cos(0.3), np.sin(0.3)
        node = np.array([[c, -s], [s, c]], dtype=complex)
        if d_env == 3:
            rng = np.random.default_rng(21)
            node = np.zeros((6, 6), dtype=complex)
            node[:2, :2] = haar_unitary(2, rng)
            node[2:, 2:] = haar_unitary(4, rng)
        path = tmp_path / "node.json"
        dump_json(matrix_to_json_dict(node), path)
        assert main(["diagnose", str(path), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["markovian"] is True
        assert report["off_block_norm"] == 0.0
        assert report["system_block"]["rows"] == 2

    def test_odd_matrix_record_rejected(self, tmp_path, capsys):
        path = tmp_path / "node.json"
        dump_json(matrix_to_json_dict(haar_unitary(3, np.random.default_rng(3))), path)
        assert main(["diagnose", str(path)]) == EXIT_INPUT
        assert "markovian" not in capsys.readouterr().out

    def test_d_env_comes_from_training_result(self, tmp_path, capsys):
        # a d_env = 1 node is a system-only unitary: Markovian, and its
        # system block is the whole node
        c, s = np.cos(0.3), np.sin(0.3)
        node = np.array([[c, -s], [s, c]], dtype=complex)
        path = tmp_path / "result.json"
        dump_json({
            "schema_version": 1,
            "kind": "training_result",
            "node": matrix_to_json_dict(node),
            "config": learner_config_to_dict(LearnerConfig(d_env=1)),
        }, path)
        assert main(["diagnose", str(path), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["markovian"] is True
        assert report["off_block_norm"] == 0.0
        assert report["system_block"]["rows"] == 2


class TestSelfcheck:
    def test_fresh_checkout_passes(self, capsys):
        assert main(["selfcheck", "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True

    @staticmethod
    def failing_checks(capsys):
        rc = main(["selfcheck", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == EXIT_NUMERICAL
        assert report["passed"] is False
        return [row["check"] for row in report["checks"] if not row["ok"]]

    def test_injected_sign_error_is_caught(self, monkeypatch, capsys):
        # deliberate fault: flip the sign of every loop map.  The curve and the
        # joint-node coefficient share the one sector-map kernel, so the
        # gradient still matches its finite differences; the enumerations and
        # the dense oracle, which share nothing with the kernel, all fail
        import rbmpo.average as average_mod

        original = average_mod.env_maps

        def broken(ket, bra):
            mixed, loop = original(ket, bra)
            return np.stack([mixed, -loop])

        monkeypatch.setattr(average_mod, "env_maps", broken)
        assert self.failing_checks(capsys) == [
            "closed-form average vs full enumeration (m=1)",
            "closed-form average vs full enumeration (m=3)",
            "closed form vs dense averaged oracle (m=2-3)"]

    def test_stale_bulk_power_is_caught(self, monkeypatch, capsys):
        # deliberate fault that shows only from m = 2 on: the closed-form
        # curve repeats its m = 1 value at every length
        import rbmpo.average as average_mod

        original = average_mod._chain_curve

        def stale(noise, rho_sys, povm, m_max):
            return np.repeat(original(noise, rho_sys, povm, 1), m_max, axis=-1)

        monkeypatch.setattr(average_mod, "_chain_curve", stale)
        assert self.failing_checks(capsys) == [
            "closed-form average vs full enumeration (m=3)",
            "closed form vs dense averaged oracle (m=2-3)"]


class TestParsing:
    def test_unknown_command_is_input_error(self):
        assert main(["frobnicate"]) == EXIT_INPUT

    def test_non_object_json_is_input_error(self, tmp_path, capsys):
        # in process an exception that escapes main fails the test; the first
        # case also runs as a user runs it, where one would print a traceback
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]\n")
        data = tmp_path / "asf.csv"
        data.write_text("m,mean,stderr,n_samples\n1,0.9,0.01,10\n")
        result = tmp_path / "result.json"
        dump_json({"kind": "training_result", "config": [1, 2],
                   "node": matrix_to_json_dict(np.eye(4))}, result)
        cfg = write_experiment(tmp_path / "cfg.json", m_max=5, n_samples=10, seed=3)
        lcfg = write_learner_config(tmp_path / "learner.json", departure_rounds=0, max_iterations=0)
        latin1 = tmp_path / "latin1.json"  # not UTF-8
        latin1.write_bytes(b'{"kind": "learner", "label": "\xe9"}\n')
        latin1_csv = tmp_path / "latin1.csv"
        latin1_csv.write_bytes(b"m,mean,stderr,n_samples\n1,0.9,0.01,10 \xe9\n")
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run([sys.executable, "-m", "rbmpo.cli", "generate", str(bad), "-o",
                              str(tmp_path / "g")], env=env, capture_output=True, text=True,
                             timeout=60)
        assert run.returncode == EXIT_INPUT and run.stderr.startswith("error:"), run.stderr
        assert "Traceback" not in run.stderr, run.stderr
        for argv in (["generate", str(bad), "-o", str(tmp_path / "g")],
                     ["learn", str(data), str(bad), "-o", str(tmp_path / "l")],
                     ["diagnose", str(bad)], ["diagnose", str(result)],
                     # a directory as an input file
                     ["generate", str(tmp_path), "-o", str(tmp_path / "g")],
                     ["learn", str(tmp_path), str(lcfg), "-o", str(tmp_path / "l")],
                     ["learn", str(data), str(tmp_path), "-o", str(tmp_path / "l")],
                     ["diagnose", str(tmp_path)],
                     # a file that is not UTF-8 text
                     ["generate", str(latin1), "-o", str(tmp_path / "g")],
                     ["learn", str(latin1_csv), str(lcfg), "-o", str(tmp_path / "l")],
                     ["learn", str(data), str(latin1), "-o", str(tmp_path / "l")],
                     ["diagnose", str(latin1)],
                     # an output directory that names an existing file
                     ["generate", str(cfg), "-o", str(a_file)],
                     ["learn", str(data), str(lcfg), "-o", str(a_file)]):
            assert main(argv) == EXIT_INPUT, argv
            assert capsys.readouterr().err.startswith("error:"), argv

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
