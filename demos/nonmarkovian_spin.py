#!/usr/bin/env python3
"""RB under a static environment-coupled spin unitary: the non-exponential signature.

The two-spin noise unitary exp(-i delta H) with H = J X1 X2 + hx (X1+X2) +
hy (Y1+Y2) carries memory through the environment qubit, so the averaged
sequence fidelity wanders off the single-exponential family.  The deviation
of the best exponential fit from the data is the experimental fingerprint of
non-Markovianity; the off-block norm of the unitary itself is the structural
one.
"""

import numpy as np

from rbmpo import (
    ExperimentConfig,
    diagnose_markovianity,
    estimate_asf,
    fit_exponential,
    spin_unitary,
)

noise = spin_unitary(1.2, 1.17, -1.15, 0.05)
print("Spin noise model: J=1.2, hx=1.17, hy=-1.15, delta=0.05\n")

cfg = ExperimentConfig(noise=noise, m_max=20, n_samples=100, seed=2024)
curve = estimate_asf(cfg)
fit = fit_exponential(curve)

print(f"{'m':>3} {'sampled':>9} {'fit':>9} {'residual':>9}")
for m, mean in zip(curve.lengths, curve.means):
    model = fit.amplitude * fit.decay**m + fit.offset + fit.slope * m
    print(f"{m:>3} {mean:>9.4f} {model:>9.4f} {mean - model:>+9.4f}")

med_stderr = float(np.median(curve.stderrs))
if fit.degenerate:
    print(f"\nbest fit: the line {fit.offset:.4f} {fit.slope:+.6f} * m "
          "(no exponential beats it; it is their p -> 1 limit)")
else:
    print(f"\nbest exponential fit: {fit.amplitude:.4f} * {fit.decay:.4f}^m + {fit.offset:.4f}")
print(f"max residual {fit.max_residual:.4f} vs median stderr {med_stderr:.4f} "
      f"({fit.max_residual / med_stderr:.1f}x)")

report = diagnose_markovianity(noise.bulk[0], noise.d_env, tol=1e-2)
print(f"\nstructure of the true noise unitary: "
      f"{'markovian' if report.markovian else 'non-markovian'} "
      f"(environment coupling norm {report.off_block_norm:.3f})")
