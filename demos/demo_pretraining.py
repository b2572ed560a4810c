"""Exact pretraining objectives recover the top eigenspace.

All four population losses are minimized by full-batch gradient descent on
their closed-form expansions; on a spectrum with distinct eigenvalues
every converged run lands on the top-d eigenspace (zero principal angle).
"""

import numpy as np

from augrkhs import (
    ObjectiveSpec,
    OptimizerConfig,
    build_average_encoder,
    build_custom,
    covariances,
    decompose,
    minimize,
    optimal_loss,
    partial_trace,
    ratio_trace,
    rbt_penalty_path,
    subspace_angle,
)

np.set_printoptions(precision=4, suppress=True)

rows = np.array([
    [0.70, 0.20, 0.10, 0.00],
    [0.15, 0.60, 0.20, 0.05],
    [0.05, 0.25, 0.50, 0.20],
    [0.00, 0.10, 0.25, 0.65],
])
triples = [(i, j, rows[i, j]) for i in range(4) for j in range(4)
           if rows[i, j] > 0]
process, _ = build_custom(4, 4, [0.3, 0.3, 0.2, 0.2], triples)
dec = decompose(process)
d = 2
print("eigenvalues:", dec.lambdas)

opt = OptimizerConfig(learning_rate=0.3, max_iters=20000, grad_tol=1e-8,
                      seed=0)

print("\n=== Contrastive loss ===")
spec = ObjectiveSpec("scl", d)
run = minimize(spec, process, opt)
print(f"final loss {run.final_loss:.8f} vs optimum "
      f"{optimal_loss(spec, dec):.8f}")
# the converged angles are at rounding level, so they are printed against
# a bound rather than by their digits
print(f"principal angle to the top-{d} eigenspace <= 1e-06: "
      f"{subspace_angle(run.phi_hat, dec, d) <= 1e-6} "
      f"({run.iterations} iterations)")

print("\n=== Two-encoder contrastive loss ===")
spec = ObjectiveSpec("sclip", d)
clip = minimize(spec, process, opt)
print(f"final loss {clip.final_loss:.8f} vs optimum "
      f"{optimal_loss(spec, dec):.8f}")

print("\n=== Identity-covariance loss at unit coupling ===")
spec = ObjectiveSpec("vicreg", d, beta_w=1.0)
vic = minimize(spec, process, opt)
print(f"final loss {vic.final_loss:.8f} "
      f"(contrastive optimum shifted by d: "
      f"{optimal_loss(spec, dec):.8f})")
print(f"angle <= 1e-06: {subspace_angle(vic.phi_hat, dec, d) <= 1e-6}")

print("\n=== Decorrelation loss with a vanishing energy penalty ===")
results, trace_g = rbt_penalty_path(
    process, d, alpha_w=1.0,
    opt=OptimizerConfig(learning_rate=0.1, max_iters=15000, grad_tol=1e-9,
                        seed=1))
print(f"energy at the constrained limit: {trace_g:.6f} vs "
      f"{(1.0 / dec.lambdas[:d]).sum():.6f} (sum of inverse eigenvalues)")
print("loss trace is monotone:",
      bool(np.all(np.diff(results[0].losses) <= 0)))

print("\n=== Small-coupling identity-covariance runs track the ratio trace ===")
# reported as an observation, not asserted: as the coupling shrinks, the
# minimizer's ratio trace approaches its ceiling
for beta in (0.5, 0.1, 0.02):
    run = minimize(ObjectiveSpec("vicreg", d, beta_w=beta), process,
                   OptimizerConfig(learning_rate=0.2, max_iters=20000,
                                   grad_tol=1e-9, seed=4))
    enc = build_average_encoder(dec, run.phi_hat)
    rt = ratio_trace(covariances(enc))
    print(f"beta={beta:<5} ratio trace {rt:.6f} "
          f"(ceiling {partial_trace(dec, d):.6f})")
