"""The fault register: source faults that the Tier-1 suite must kill.

Each entry is a fault name, a file under ``src/rbmpo/``, an exact source text
that occurs once in ``src/``, the text that replaces it, one line on what the
fault breaks, and the Tier-1 test that kills it.  ``python tests/faults.py
[name ...]`` applies each fault (or the named ones) to a temporary copy of the
repository and runs its recorded test there alone.  Only if that test passes
does it run Tier-1 with ``-x``, and then it prints the test that killed the
fault, to be recorded in its place.  It exits 1 if any fault survives Tier-1.
``test_fault_register.py`` holds each source text to occurring exactly once
and each recorded test to being one that Tier-1 collects, so a refactor that
moves one fails Tier-1 instead of leaving a fault that no longer applies or a
test that no longer exists.  A fault goes in with the test that kills it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple


class Fault(NamedTuple):
    name: str
    file: str
    text: str
    replacement: str
    breaks: str
    killer: str


FAULTS = [Fault(*entry) for entry in [
    ("sector-map-normalisation", "average.py", "(d_sys * d_sys - 1))", "(d_sys * d_sys))",
     "the traceless sector's 1/(d^2 - 1) becomes 1/d^2: every averaged curve moves",
     "tests/test_acceptance.py::test_criterion_2_two_design_identity"),
    ("loop-map-sign", "average.py", "np.array([mixed, loop])", "np.array([mixed, -loop])",
     "every loop map changes sign (the self-check's injected fault)",
     "tests/test_acceptance.py::test_criterion_2_two_design_identity"),
    ("stale-bulk-power", "average.py", "states = np.matmul(ops, states", "np.matmul(ops, states",
     "the chain stops advancing: every length repeats the m = 1 value",
     "tests/test_acceptance.py::test_criterion_2_two_design_identity"),
    ("chain-unblocked", "average.py", "k = math.isqrt(m_max - 1) + 1", "k = m_max",
     "the chain buffers every length's sector pairs at once: its memory grows with m_max",
     "tests/test_average.py::TestChainKernel::test_memory_does_not_grow_with_m_max"),
    ("mixed-map-trace-leak", "average.py", "/ ket.shape[-1]", "/ (ket.shape[-1] + 1e-4)",
     "the mixed map loses 5e-5 of its trace per slot: learned invariants move, no verdict does",
     "tests/test_acceptance.py::test_golden_invariants[phase_flip_run]"),
    ("measurement-functional-transpose", "average.py", '"ef,ts->esft"', '"ef,st->esft"',
     "the closed form measures the transpose of the POVM element",
     "tests/test_properties.py::test_closed_form_equals_enumeration_at_m1"),
    ("golden-section-direction", "average.py", "if fc < fd:", "if fc > fd:",
     "golden-section search keeps the worse half: fits and line searches miss their minima",
     "tests/test_acceptance.py::test_criterion_3_markovian_exponential_reduction"),
    ("gate-superoperator-conjugate-dropped", "rb.py", "gt.conj()[:, None", "gt[:, None",
     "every gate acts as g x g instead of g x conj(g) in the simulator",
     "tests/test_acceptance.py::test_criterion_1_oracle_equivalence"),
    ("gate-superoperator-conjugate-swapped", "rb.py", "(gt[:, :, None, :, None] * gt.conj()",
     "(gt.conj()[:, :, None, :, None] * gt", "every gate acts as conj(g) x g",
     "tests/test_acceptance.py::test_criterion_1_oracle_equivalence"),
    ("survival-povm-transpose-dropped", "rb.py", "np.eye(d_env), povm.T)", "np.eye(d_env), povm)",
     "the simulator measures the transpose of the POVM element",
     "tests/test_properties.py::test_direct_evolution_equals_dense_oracle"),
    ("gate-check-skipped", "rb.py", "(defect := unitarity_defect(stack))", "(defect := 0.0)",
     "run_sequence runs non-unitary gates: 0.5 I gives 0.0625, a NaN gate a NumericalError",
     "tests/test_rb.py::TestRunSequence::test_non_unitary_gate_is_input_error[half_identity]"),
    ("running-product-reversed", "rb.py", "gates[step] @ prod[:n]", "prod[:n] @ gates[step]",
     "the compiled inverse is built from the gates in reverse order",
     "tests/test_acceptance.py::test_criterion_1_oracle_equivalence"),
    ("running-prefix-off-by-one", "rb.py", "lengths[:n] > j + 1)", "lengths[:n] >= j + 1)",
     "the live prefix counts the rows of length j + 1 as longer than j + 1",
     "tests/test_acceptance.py::test_criterion_1_oracle_equivalence"),
    ("first-row-inverse-for-all", "rb.py", "dagger(prod[done:])", "dagger(prod[done:done + 1])",
     "every sequence ending at a step takes the first one's inverse",
     "tests/test_acceptance.py::test_criterion_2_two_design_identity"),
    ("pcg-carry-dropped", "rb.py", "return hi + (lo < inc_lo), lo", "return hi, lo",
     "PCG64's 128-bit step loses its carry: gate draws leave numpy's stream",
     "tests/test_acceptance.py::test_golden_invariants[phase_flip_run]"),
    ("rejected-draw-kept", "rb.py", ">= threshold", ">= 0",
     "a word that Lemire's draw rejects is kept: gate draws leave numpy's stream",
     "tests/test_properties.py::test_stream_draw_equals_sample_stream"),
    ("spare-word-dropped", "rb.py", "held[todo] = fresh", "held[todo] = False",
     "a row steps PCG64 for every column, which drops numpy's buffered high word",
     "tests/test_acceptance.py::test_criterion_7_spin_model_end_to_end"),
    ("length-reduced-early", "rb.py", "if index[part][-1] == n - 1:", "if index[part][0] == 0:",
     "a length is reduced in the chunk that holds its first sample, before its last one is in",
     "tests/test_acceptance.py::test_golden_invariants[phase_flip_run]"),
    ("generate-writes-up-front", "rb.py", "np.empty((2, m_max))", "np.array([[0.0] * m_max] * 2)",
     "generate writes lists of m_max means and standard errors before it draws anything",
     "tests/test_cli.py::TestGenerate::test_huge_m_max_fails_before_writing_its_lengths"),
    ("chunk-width-ignored", "rb.py", "(noise.d_env**2 * d * d + d**4))", "(d * d + d**4))",
     "every joint width runs chunks of 1,024 rows: generate's memory grows with d_env",
     "tests/test_rb.py::TestEstimateAsf::test_memory_does_not_grow_with_width"),
    ("adam-bias-correction-dropped", "learner.py", 'acc["m1"] / (1.0 - self.beta1 ** acc["t"])',
     'acc["m1"]', "Adam's first moment is not bias-corrected",
     "tests/test_learner.py::TestOptimizers::test_adam_first_step_magnitude"),
    ("adagrad-epsilon-outside-root", "learner.py", 'np.sqrt(acc["sq_sum"] + self.epsilon)',
     '(np.sqrt(acc["sq_sum"]) + self.epsilon)', "Adagrad adds epsilon to the root, not under it",
     "tests/test_learner.py::TestOptimizers::test_adagrad_first_step"),
    ("departure-lowest-cost-match", "learner.py",
     "key=lambda i: diagnose_markovianity(\n                ends.node[i], len(node) // len(rho_sys)).off_block_norm",
     "key=lambda i: ends.cost[i]",
     "among matched endpoints the departure takes the best fit, not the least coupling",
     "tests/test_acceptance.py::test_golden_invariants[spin_run]"),
    ("d_env-off-batch-axis", "learner.py", "node.shape[-1] // len(rho_sys)",
     "node.shape[0] // len(rho_sys)",
     "evaluate reads d_env off a stack's batch axis: only single nodes evaluate right",
     "tests/test_average.py::TestChainKernel::test_stack_equals_single_nodes_bitwise"),
    ("departure-keeps-worse-endpoints", "learner.py", "(ends.cost < current.cost - 1e-15)",
     "(ends.cost < np.inf)", "a round moves to an endpoint that does not lower the cost",
     "tests/test_learner.py::TestDeparture::test_endpoints_that_raise_the_cost_are_dropped"),
    ("departure-curvature-floor", "learner.py", "(w < floor)", "(w < 0.0)",
     "round-off curvature counts as negative curvature and adds rays",
     "tests/test_learner.py::TestDeparture::test_round_off_curvature_gives_no_ray[-1e-17-0]"),
    ("probe-one-stack", "learner.py", "range(len(signed)), 2 * len(basis)",
     "range(len(signed)), len(signed)",
     "a round's probe nodes are costed as one stack: the probe's memory grows with dim^4",
     "tests/test_learner.py::TestDeparture::test_probe_costs_its_nodes_in_order_in_bounded_slices"),
    ("probe-directions-blas", "learner.py", 'np.einsum("rb,bij->rij", signed, basis)',
     "np.tensordot(signed, basis, axes=1)",
     "the probe directions come from a threaded BLAS product, which wakes a spinning worker",
     "tests/test_learner.py::TestDeparture::test_probe_leaves_the_blas_worker_asleep"),
    ("train-returns-last-fit", "learner.py", "int(np.argmin(cost_trace))", "len(cost_trace) - 1",
     "train returns its last fit instead of its first minimum-cost one",
     "tests/test_learner.py::TestTrain::test_returns_the_first_minimum_cost_fit"),
    ("gradient-conjugated", "learner.py", "(stack, stack))", "(stack, stack)).conj()",
     "the joint-node gradient comes back complex-conjugated",
     "tests/test_acceptance.py::test_criterion_4_gradient_correctness"),
    ("gradient-neighbouring-slot", "learner.py", "(steps, slot_i,", "(steps, slot_i - 1 or 2,",
     "the gradient is taken at the neighbouring slot pair",
     "tests/test_acceptance.py::test_criterion_4_gradient_correctness"),
    ("cli-imports-learner-eagerly", "cli.py", "NumericalError, ToolkitError\n",
     "NumericalError, ToolkitError\nfrom .learner import train\n",
     "--version, --help and every usage error import numpy and the learner",
     "tests/test_cli.py::TestStartup::test_each_command_imports_only_what_it_runs"),
    ("generate-imports-learner", "serialize.py", "if TYPE_CHECKING:", "if True:",
     "generate imports the learner, the closed form and the dense oracle, which it never runs",
     "tests/test_cli.py::TestStartup::test_each_command_imports_only_what_it_runs"),
    ("memory-error-escapes", "cli.py", "except MemoryError as exc:",
     "except NotImplementedError as exc:",
     "an input too large for memory raises numpy's MemoryError out of main, with a traceback",
     "tests/test_cli.py::TestGenerate::test_huge_m_max_fails_before_writing_its_lengths"),
    ("diagnose-imports-learner", "cli.py", "from .noise import diagnose_markovianity",
     "from .learner import diagnose_markovianity",
     "diagnose imports the learner, the closed form and the dense oracle, which it never runs",
     "tests/test_cli.py::TestStartup::test_each_command_imports_only_what_it_runs"),
    ("learn-swaps-state-and-povm", "cli.py", "experiment.rho_sys, experiment.povm",
     "experiment.povm, experiment.rho_sys", "learn fits the generated POVM as the state",
     "tests/test_cli.py::TestLearn::test_learn_fits_the_generated_state_and_povm"),
    ("unitarity-defect-warns", "linalg.py",
     'np.errstate(over="ignore", invalid="ignore"):\n        diff', "np.errstate():\n        diff",
     "a node whose U^dag U overflows warns before it fails the unitarity check",
     "tests/test_properties.py::test_cli_returns_an_exit_code_on_edited_inputs"),
    ("sqrt-branch-flipped", "linalg.py", "overlap) < 0.0", "overlap) > 0.0",
     "the unitary square root takes the branch away from the node it replaces",
     "tests/test_learner.py::TestSplitProject::test_replacement_node_restores_shared_node"),
    ("final-defaults-to-prep", "noise.py", "is not None else bulk", "is not None else prep_ops",
     "an unset final slot holds the preparation noise instead of the bulk noise",
     "tests/test_acceptance.py::test_golden_invariants[spin_run]"),
    ("spin-phase-overflow", "noise.py", "if not np.isfinite(delta * (", "if np.isnan(delta * (",
     "a spin unitary whose phases overflow warns, and fails only as a NaN node",
     "tests/test_properties.py::test_cli_returns_an_exit_code_on_edited_inputs"),
    ("coefficient-bulk-power", "process_tensor.py", "(o, slot_i - 2)", "(o, slot_i - 1)",
     "the joint coefficient takes one bulk slot too many below the node",
     "tests/test_acceptance.py::test_criterion_4_gradient_correctness"),
    ("undo-product-reversed", "quantum.py", "stack[..., j, :, :] @ prod",
     "prod @ stack[..., j, :, :]", "compile_undo multiplies the gates in reverse order",
     "tests/test_acceptance.py::test_criterion_1_oracle_equivalence"),
    ("kraus-sum-warns", "quantum.py",
     'np.errstate(over="ignore", invalid="ignore"):\n            defect',
     "np.errstate():\n            defect",
     "a channel whose sum K^dag K overflows warns before it fails the channel check",
     "tests/test_cli.py::TestGenerate::test_mistyped_noise_parameter_is_input_error[noise10]"),
    ("unitary-check-accepts-nan", "quantum.py", "if not defect <= tol:", "if defect > tol:",
     "a NaN unitarity defect passes the unitarity check",
     "tests/test_quantum.py::TestValidators::test_nan_entry_rejected[unitary]"),
    ("fd-gradient-conjugated", "selfcheck.py", "-(d_re + 1j * d_im)", "-(d_re - 1j * d_im)",
     "the finite-difference arbiter returns the conjugate Wirtinger derivative",
     "tests/test_acceptance.py::test_criterion_4_gradient_correctness"),
    ("density-trace-unchecked", "quantum.py", "if not abs(np.trace(rho) - 1.0) <= 1e-12:",
     "if False:", "a density matrix of any trace passes as a state",
     "tests/test_quantum.py::TestValidators::test_invalid_state_or_povm_is_input_error"
     "[run_sequence-rho_trace_above_1]"),
    ("pair-check-ignores-model", "quantum.py",
     "d = rho_sys.shape[0] if d_sys is None else d_sys", "d = rho_sys.shape[0]",
     "a state and POVM element of one size pass against a model of another",
     "tests/test_quantum.py::TestValidators::test_invalid_state_or_povm_is_input_error"
     "[closed_form-qutrit_pair]"),
    ("bool-as-number", "serialize.py", "bad = isinstance(value, bool) or not", "bad = not",
     "a JSON true or false is read as the number 1 or 0",
     "tests/test_cli.py::TestGenerate::test_mistyped_noise_parameter_is_input_error[noise0]"),
    ("prep-final-swapped-on-write", "serialize.py", '"prep": _kraus_list(model.prep)',
     '"prep": _kraus_list(model.final)', "a noise record writes the final slot as prep",
     "tests/test_noise.py::TestSerialization::test_joint_round_trip[spin]"),
    ("joint-record-d_env-unchecked", "serialize.py",
     'if _number(d, "d_env", int, where) != len(rho_env):',
     'if _number(d, "d_env", int, where) is None:',
     "a joint_unitary record's d_env is type-checked but never compared with its rho_env",
     "tests/test_noise.py::TestSerialization::test_joint_record_d_env_must_be_rho_env_dim[4]"),
    ("identity-dim-unchecked", "serialize.py", "if dim != 2:", "if dim < 1:",
     "an identity noise builds a dim x dim matrix before its size is checked",
     "tests/test_cli.py::TestGenerate::test_mistyped_noise_parameter_is_input_error[noise8]"),
]]

ROOT = Path(__file__).resolve().parents[1]
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
          "--continue-on-collection-errors"]
# test_fault_register.py is left out: an applied fault always fails it
TIER1 = ["--ignore=tests/test_fault_register.py"]


def first_failure(tree: Path, args: list[str]) -> str | None:
    """The first test that fails when pytest runs ``args`` in ``tree``, or None."""
    run = subprocess.run([*PYTEST, *args], cwd=tree, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(tree / "src")})
    failed = [line.split()[1] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if run.returncode and failed else None


def outcome(fault: Fault) -> str:
    """The test that killed ``fault`` applied to a copy of the repository: its
    recorded test, or else Tier-1's first failing one; "SURVIVED", or why the
    fault could not be applied."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in ("src", "tests", "configs", "bench", "BENCHMARK.json", "pyproject.toml"):
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / name, tree)
        path = tree / "src" / "rbmpo" / fault.file
        count = path.read_text().count(fault.text)
        if count != 1:
            return f"NOT APPLIED: its source text occurs {count} times"
        path.write_text(path.read_text().replace(fault.text, fault.replacement))
        killer = first_failure(tree, [fault.killer])
        if killer:
            return f"killed by {killer}"
        killer = first_failure(tree, TIER1)
    if killer:
        return f"killed by {killer}, though its recorded test passed: record this one"
    return "SURVIVED"


def main(names: list[str]) -> int:
    unknown = set(names) - {fault.name for fault in FAULTS}
    if unknown:
        sys.exit(f"no such faults: {sorted(unknown)}")
    faults = [fault for fault in FAULTS if not names or fault.name in names]
    with ThreadPoolExecutor(max_workers=2) as pool:  # each run peaks near 400 MB
        outcomes = list(pool.map(outcome, faults))
    for fault, result in zip(faults, outcomes):
        print(f"{fault.name}: {result}" if result.startswith("killed")
              else f"{fault.name}: {result}, though it breaks this: {fault.breaks}")
    killed = sum(result.startswith("killed") for result in outcomes)
    print(f"{killed} of {len(faults)} faults killed")
    return 0 if killed == len(faults) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
