"""Encoder quality: ratio trace, trace gap, and the near-optimal encoder.

The ratio trace of a d-row encoder is capped by the top-d eigenvalue sum
and attains it exactly on the top eigenspace; the trace gap drops to the
next eigenvalue there.  The empirical route estimates that eigenspace from
N unlabeled samples, and its excess gap shrinks as N grows; Theorem 4.1
bounds the trace gap of each such encoder with high probability.
"""

import math

import numpy as np

from augrkhs import (
    Encoder,
    HypercubeConfig,
    build_hypercube,
    covariances,
    decompose,
    empirical_decomposition,
    kappa_exact,
    near_optimal_encoder,
    optimal_encoder,
    partial_trace,
    ratio_trace,
    thm41_rhs,
    trace_gap,
)

np.set_printoptions(precision=4, suppress=True)

process = build_hypercube(HypercubeConfig(4, 0.5, "random_mask"))
dec = decompose(process)
d = 3

print("=== Optimal encoder (top eigenfunctions) ===")
best = optimal_encoder(dec, d)
cov = covariances(best)
print("G (should be identity):\n", cov.G)
print(f"ratio trace {ratio_trace(cov):.6f} vs ceiling "
      f"{partial_trace(dec, d):.6f}")
print(f"trace gap {trace_gap(best):.6f} vs next eigenvalue "
      f"{dec.eigenvalue(d + 1):.6f}")

print("\n=== A mediocre encoder for contrast ===")
rng = np.random.default_rng(0)
rough = Encoder(1.0 + 0.8 * rng.normal(size=(d, process.n_a)), dec)
print(f"ratio trace {ratio_trace(covariances(rough)):.4f} "
      f"(ceiling {partial_trace(dec, d):.4f})")
print(f"trace gap {trace_gap(rough):.4f} "
      f"(floor {dec.eigenvalue(d + 1):.4f})")

print("\n=== Near-optimal encoders from N unlabeled samples ===")
# Theorem 4.1 holds for each sample with probability at least 1 - delta, so
# whether every seed's trace gap lies under it is printed, never asserted
kappa = math.sqrt(kappa_exact(dec).kappa_sq_max)
print(f"{'N':>6}{'median excess gap':>20}{'tau^2 <= Thm 4.1 (delta 0.05)':>32}")
for N in (64, 256, 1024, 4096):
    gaps, under = [], []
    for seed in range(10):
        emp = empirical_decomposition(dec, N, seed=seed)
        enc = near_optimal_encoder(emp, d)
        cov = covariances(enc)
        gap = (partial_trace(dec, d + 1) - ratio_trace(cov)
               - dec.eigenvalue(d + 1))
        gaps.append(gap)
        bound = thm41_rhs(lambda_dplus1=dec.eigenvalue(d + 1),
                          lambda_d=dec.eigenvalue(d),
                          lambda_bar_d=float(emp.lambdas_bar[d - 1]),
                          gamma_g=cov.gamma_g, kappa=kappa, d=d, N=N,
                          delta=0.05)
        under.append(trace_gap(enc) <= bound)
    verdict = "every seed" if all(under) else "not every seed"
    print(f"{N:>6}{np.median(gaps):>20.6f}{verdict:>32}")
print("(the excess gap vanishes as the sample grows; empirically it decays "
      "near 1/N, faster than the 1/sqrt(N) worst-case order)")
