"""The fault register: source faults that the Tier-1 suite must kill.

Each entry is a fault name, a file under ``src/rbmpo/``, an exact source text
that occurs once in ``src/``, the text that replaces it, and one line on what
the fault breaks.  ``python tests/faults.py [name ...]`` applies each fault
(or the named ones) to a temporary copy of the repository, runs Tier-1 there
with ``-x``, prints the test that killed it, and exits 1 if any fault
survives.  ``test_fault_register.py`` holds each source text to occurring
exactly once, so a refactor that moves one fails Tier-1 instead of leaving a
fault that no longer applies.  A fault goes in with the test that kills it.
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


FAULTS = [Fault(*entry) for entry in [
    ("sector-map-normalisation", "average.py", "(d_sys * d_sys - 1))", "(d_sys * d_sys))",
     "the traceless sector's 1/(d^2 - 1) becomes 1/d^2: every averaged curve moves"),
    ("loop-map-sign", "average.py", "np.array([mixed, loop])", "np.array([mixed, -loop])",
     "every loop map changes sign (the self-check's injected fault)"),
    ("stale-bulk-power", "average.py", "states = np.matmul(ops, states", "np.matmul(ops, states",
     "the chain stops advancing: every length repeats the m = 1 value"),
    ("chain-unblocked", "average.py", "k = math.isqrt(m_max - 1) + 1", "k = m_max",
     "the chain buffers every length's sector pairs at once: its memory grows with m_max"),
    ("measurement-functional-transpose", "average.py", '"ef,ts->esft"', '"ef,st->esft"',
     "the closed form measures the transpose of the POVM element"),
    ("golden-section-direction", "average.py", "if fc < fd:", "if fc > fd:",
     "golden-section search keeps the worse half: fits and line searches miss their minima"),
    ("gate-superoperator-conjugate-dropped", "rb.py", "gt.conj()[:, None", "gt[:, None",
     "every gate acts as g x g instead of g x conj(g) in the simulator"),
    ("gate-superoperator-conjugate-swapped", "rb.py", "(gt[:, :, None, :, None] * gt.conj()",
     "(gt.conj()[:, :, None, :, None] * gt", "every gate acts as conj(g) x g"),
    ("survival-povm-transpose-dropped", "rb.py", "np.eye(d_env), povm.T)", "np.eye(d_env), povm)",
     "the simulator measures the transpose of the POVM element"),
    ("running-product-reversed", "rb.py", "gates[step] @ prod[:n]", "prod[:n] @ gates[step]",
     "the compiled inverse is built from the gates in reverse order"),
    ("running-prefix-off-by-one", "rb.py", "lengths[:n] > j + 1)", "lengths[:n] >= j + 1)",
     "the live prefix counts the rows of length j + 1 as longer than j + 1"),
    ("first-row-inverse-for-all", "rb.py", "dagger(prod[done:])", "dagger(prod[done:done + 1])",
     "every sequence ending at a step takes the first one's inverse"),
    ("pcg-carry-dropped", "rb.py", "return hi + (lo < inc_lo), lo", "return hi, lo",
     "PCG64's 128-bit step loses its carry: gate draws leave numpy's stream"),
    ("rejected-draw-kept", "rb.py", ">= threshold", ">= 0",
     "a word that Lemire's draw rejects is kept: gate draws leave numpy's stream"),
    ("spare-word-dropped", "rb.py", "held[todo] = fresh", "held[todo] = False",
     "a row steps PCG64 for every column, which drops numpy's buffered high word"),
    ("length-reduced-early", "rb.py", "if index[part][-1] == n - 1:", "if index[part][0] == 0:",
     "a length is reduced in the chunk that holds its first sample, before its last one is in"),
    ("generate-writes-up-front", "rb.py", "np.empty((2, m_max))", "np.array([[0.0] * m_max] * 2)",
     "generate writes lists of m_max means and standard errors before it draws anything"),
    ("adam-bias-correction-dropped", "learner.py", 'acc["m1"] / (1.0 - self.beta1 ** acc["t"])',
     'acc["m1"]', "Adam's first moment is not bias-corrected"),
    ("adagrad-epsilon-outside-root", "learner.py", 'np.sqrt(acc["sq_sum"] + self.epsilon)',
     '(np.sqrt(acc["sq_sum"]) + self.epsilon)', "Adagrad adds epsilon to the root, not under it"),
    ("departure-lowest-cost-match", "learner.py",
     "key=lambda i: diagnose_markovianity(ends.node[i], d_env).off_block_norm",
     "key=lambda i: ends.cost[i]",
     "among matched endpoints the departure takes the best fit, not the least coupling"),
    ("departure-keeps-worse-endpoints", "learner.py", "(ends.cost < current.cost - 1e-15)",
     "(ends.cost < np.inf)", "a round moves to an endpoint that does not lower the cost"),
    ("departure-curvature-floor", "learner.py", "(w < floor)", "(w < 0.0)",
     "round-off curvature counts as negative curvature and adds rays"),
    ("probe-one-stack", "learner.py", "range(len(signed)), 2 * len(basis)",
     "range(len(signed)), len(signed)",
     "a round's probe nodes are costed as one stack: the probe's memory grows with dim^4"),
    ("probe-directions-blas", "learner.py", 'np.einsum("rb,bij->rij", signed, basis)',
     "np.tensordot(signed, basis, axes=1)",
     "the probe directions come from a threaded BLAS product, which wakes a spinning worker"),
    ("train-returns-last-fit", "learner.py", "int(np.argmin(cost_trace))", "len(cost_trace) - 1",
     "train returns its last fit instead of its first minimum-cost one"),
    ("gradient-conjugated", "learner.py", "(stack, stack))", "(stack, stack)).conj()",
     "the joint-node gradient comes back complex-conjugated"),
    ("gradient-neighbouring-slot", "learner.py", "(steps, slot_i,", "(steps, slot_i - 1 or 2,",
     "the gradient is taken at the neighbouring slot pair"),
    ("cli-imports-learner-eagerly", "cli.py", "NumericalError, ToolkitError\n",
     "NumericalError, ToolkitError\nfrom .learner import train\n",
     "--version, --help and every usage error import numpy and the learner"),
    ("generate-imports-learner", "serialize.py", "if TYPE_CHECKING:", "if True:",
     "generate imports the learner, the closed form and the dense oracle, which it never runs"),
    ("memory-error-escapes", "cli.py", "except MemoryError as exc:",
     "except NotImplementedError as exc:",
     "an input too large for memory raises numpy's MemoryError out of main, with a traceback"),
    ("diagnose-imports-learner", "cli.py", "from .noise import diagnose_markovianity",
     "from .learner import diagnose_markovianity",
     "diagnose imports the learner, the closed form and the dense oracle, which it never runs"),
    ("learn-swaps-state-and-povm", "cli.py", "experiment.rho_sys, experiment.povm",
     "experiment.povm, experiment.rho_sys", "learn fits the generated POVM as the state"),
    ("unitarity-defect-warns", "linalg.py",
     'np.errstate(over="ignore", invalid="ignore"):\n        return', "np.errstate():\n        return",
     "a node whose U^dag U overflows warns before it fails the unitarity check"),
    ("sqrt-branch-flipped", "linalg.py", "overlap) < 0.0", "overlap) > 0.0",
     "the unitary square root takes the branch away from the node it replaces"),
    ("final-defaults-to-prep", "noise.py", "is not None else bulk", "is not None else prep_ops",
     "an unset final slot holds the preparation noise instead of the bulk noise"),
    ("spin-phase-overflow", "noise.py", "if not np.isfinite(delta * (", "if np.isnan(delta * (",
     "a spin unitary whose phases overflow warns, and fails only as a NaN node"),
    ("coefficient-bulk-power", "process_tensor.py", "(o, slot_i - 2)", "(o, slot_i - 1)",
     "the joint coefficient takes one bulk slot too many below the node"),
    ("undo-product-reversed", "quantum.py", "stack[..., j, :, :] @ prod",
     "prod @ stack[..., j, :, :]", "compile_undo multiplies the gates in reverse order"),
    ("kraus-sum-warns", "quantum.py",
     'np.errstate(over="ignore", invalid="ignore"):\n            defect',
     "np.errstate():\n            defect",
     "a channel whose sum K^dag K overflows warns before it fails the channel check"),
    ("unitary-check-accepts-nan", "quantum.py", "if not defect <= tol:", "if defect > tol:",
     "a NaN unitarity defect passes the unitarity check"),
    ("fd-gradient-conjugated", "selfcheck.py", "-(d_re + 1j * d_im)", "-(d_re - 1j * d_im)",
     "the finite-difference arbiter returns the conjugate Wirtinger derivative"),
    ("bool-as-number", "serialize.py", "bad = isinstance(value, bool) or not", "bad = not",
     "a JSON true or false is read as the number 1 or 0"),
    ("prep-final-swapped-on-write", "serialize.py", '"prep": _kraus_list(model.prep)',
     '"prep": _kraus_list(model.final)', "a noise record writes the final slot as prep"),
    ("identity-dim-unchecked", "serialize.py", "if dim != 2:", "if dim < 1:",
     "an identity noise builds a dim x dim matrix before its size is checked"),
]]

ROOT = Path(__file__).resolve().parents[1]
# test_fault_register.py is left out: an applied fault always fails it
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_fault_register.py"]


def outcome(fault: Fault) -> str:
    """Tier-1's first failing test with `fault` applied to a copy of the
    repository, "SURVIVED", or why the fault could not be applied."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("src", "tests", "configs", "bench", "BENCHMARK.json", "pyproject.toml"):
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, Path(tmp, name),
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / name, tmp)
        path = Path(tmp, "src", "rbmpo", fault.file)
        count = path.read_text().count(fault.text)
        if count != 1:
            return f"NOT APPLIED: its source text occurs {count} times"
        path.write_text(path.read_text().replace(fault.text, fault.replacement))
        run = subprocess.run(TIER1, cwd=tmp, capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(Path(tmp, "src"))})
    failed = [line.split()[1] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return f"killed by {failed[0]}" if run.returncode and failed else "SURVIVED"


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
