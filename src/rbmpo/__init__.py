"""Randomized-benchmarking simulator and MPO-based learner for average non-Markovianity.

The package has three layers:

* simulation: quantum primitives, noise models and the Monte Carlo RB engine
  (:mod:`rbmpo.quantum`, :mod:`rbmpo.noise`, :mod:`rbmpo.rb`);
* analysis: the exact Clifford-averaged fidelity, exponential fits and the
  dense process-tensor oracle (:mod:`rbmpo.average`, :mod:`rbmpo.process_tensor`);
* learning: the constrained sweeping optimizer that fits a unitary
  environment-coupled noise node to ASF data and diagnoses Markovianity
  (:mod:`rbmpo.learner`).
"""

from .average import (
    ExpFit,
    clifford_averaged_asf_curve,
    fit_exponential,
)
from .learner import (
    Adagrad,
    Adam,
    LearnerConfig,
    MarkovianityReport,
    TrainingResult,
    diagnose_markovianity,
    train,
)
from .linalg import principal_unitary_sqrt, project_to_unitary, svd
from .noise import (
    NoiseSteps,
    amplitude_damping,
    depolarizing,
    joint_unitary,
    markovian_channel,
    phase_flip,
    spin_unitary,
)
from .quantum import (
    GateSet,
    KrausChannel,
    apply_channel,
    compile_undo,
    sample_sequence,
    single_qubit_cliffords,
)
from .rb import AsfCurve, ExperimentConfig, estimate_asf, run_sequence

__version__ = "0.1.0"

__all__ = [
    "Adagrad",
    "Adam",
    "AsfCurve",
    "ExpFit",
    "ExperimentConfig",
    "GateSet",
    "KrausChannel",
    "LearnerConfig",
    "MarkovianityReport",
    "NoiseSteps",
    "TrainingResult",
    "amplitude_damping",
    "apply_channel",
    "clifford_averaged_asf_curve",
    "compile_undo",
    "depolarizing",
    "diagnose_markovianity",
    "estimate_asf",
    "fit_exponential",
    "joint_unitary",
    "markovian_channel",
    "phase_flip",
    "principal_unitary_sqrt",
    "project_to_unitary",
    "run_sequence",
    "sample_sequence",
    "single_qubit_cliffords",
    "spin_unitary",
    "svd",
    "train",
]
