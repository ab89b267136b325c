#!/usr/bin/env python3
"""Learn an effective noise node from RB data alone, then read off its memory.

Runs the full pipeline twice: once on data from a memoryless phase-flip
channel, once on data from the environment-coupled spin unitary.  The
learner sees only the fidelity curves; the block structure of what it learns
tells the two apart.
"""

import numpy as np

from rbmpo import (
    Adagrad,
    Adam,
    ExperimentConfig,
    LearnerConfig,
    diagnose_markovianity,
    estimate_asf,
    phase_flip,
    spin_unitary,
    train,
)
from rbmpo.quantum import basis_state

rho = basis_state(0, 2)
povm = basis_state(0, 2)

experiments = [
    ("memoryless phase flip (p=0.06)", phase_flip(0.06),
     LearnerConfig(optimizer=Adagrad(rate=1e-5), max_iterations=200)),
    ("coupled spin unitary (delta=0.05)", spin_unitary(1.2, 1.17, -1.15, 0.05),
     LearnerConfig(optimizer=Adam(rate=1e-3, beta1=0.9, beta2=0.99),
                   max_iterations=200, departure_rounds=12)),
]

for title, noise, learner_cfg in experiments:
    print(f"=== {title} ===")
    data = estimate_asf(ExperimentConfig(noise=noise, m_max=20, n_samples=100, seed=2024))
    result = train(data, rho, povm, learner_cfg)
    l1 = float(np.sum(np.abs(np.array(result.predicted.means) - np.array(data.means))))
    print(f"converged: {result.converged} after {result.iterations} sweep iterations "
          f"(best iterate {result.best_iteration})")
    print(f"l1 distance to data {l1:.4f}, noise budget {sum(data.stderrs):.4f}")
    report = diagnose_markovianity(result.node, learner_cfg.d_env)
    verdict = "markovian" if report.markovian else "non-markovian"
    print(f"learned node is {verdict}: environment coupling norm {report.off_block_norm:.2e}")
    with np.printoptions(precision=3, suppress=True):
        print("learned node:")
        print(result.node)
    print()
