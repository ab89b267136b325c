"""Randomized-benchmarking simulator and MPO-based learner for average non-Markovianity.

The package has three layers:

* simulation: quantum primitives, noise models and the Monte Carlo RB engine
  (:mod:`rbmpo.quantum`, :mod:`rbmpo.noise`, :mod:`rbmpo.rb`);
* analysis: the exact Clifford-averaged fidelity, exponential fits and the
  dense process-tensor oracle (:mod:`rbmpo.average`, :mod:`rbmpo.process_tensor`);
* learning: the constrained sweeping optimizer that fits a unitary
  environment-coupled noise node to ASF data (:mod:`rbmpo.learner`), whose
  Markovianity is read off the node's block structure
  (:func:`rbmpo.noise.diagnose_markovianity`).

The public names below load their module, and numpy, on first access, so
``import rbmpo`` and the command line's start-up pay only for what they use.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(["ExpFit", "clifford_averaged_asf_curve", "fit_exponential"], "average"),
    **dict.fromkeys(["Adagrad", "Adam", "LearnerConfig", "TrainingResult", "train"], "learner"),
    **dict.fromkeys(["principal_unitary_sqrt", "project_to_unitary", "svd"], "linalg"),
    **dict.fromkeys(["MarkovianityReport", "NoiseSteps", "amplitude_damping", "depolarizing",
                     "diagnose_markovianity", "joint_unitary", "markovian_channel", "phase_flip",
                     "spin_unitary"], "noise"),
    **dict.fromkeys(["GateSet", "KrausChannel", "apply_channel", "compile_undo",
                     "sample_sequence", "single_qubit_cliffords"], "quantum"),
    **dict.fromkeys(["AsfCurve", "ExperimentConfig", "estimate_asf", "run_sequence"], "rb"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Import the module that defines public ``name`` and keep the name here (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
