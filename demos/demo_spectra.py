"""The data kernel and the exact spectral system of a masking process.

The two conditional-expectation operators share one spectrum; their
eigenfunctions live on the data and augmentation spaces and are tied by
duality.  For independent random masking the spectrum follows a binomial
law, verified here against the decomposition.
"""

import itertools
import math

import numpy as np

from augrkhs import (
    HypercubeConfig,
    apply_gamma,
    apply_gamma_star,
    build_hypercube,
    decompose,
    kernel_x,
    verify_integral_identity,
)

np.set_printoptions(precision=4, suppress=True)

process = build_hypercube(HypercubeConfig(d_x=3, alpha=0.5,
                                          scheme="random_mask"))
print("=== The data kernel on the 3-cube with half masking ===")
KX = kernel_x(process)
print("K_X diagonal (constant by symmetry):", np.diag(KX)[:4], "...")

print("\n=== Conditional expectations ===")
# the data points in the process's order: lexicographic, -1 before +1
f = np.array([x.count(1) for x in itertools.product((-1, 1), repeat=3)],
             dtype=float)
print("f = number of +1 coordinates; Gamma f on a few augmentations:")
print(apply_gamma(process, f)[:6])
print("Gamma* 1 is the constant:", apply_gamma_star(
    process, np.ones(process.n_a))[:4])

print("\n=== Spectral decomposition ===")
dec = decompose(process)
print("eigenvalues:", dec.lambdas)
law = sorted(((0.5**k) for k in range(4) for _ in range(math.comb(3, k))),
             reverse=True)
print("binomial law:", np.array(law))
print("leading eigenfunction is the constant:", dec.psi[:4, 0])

print("\n=== Duality and operator identities ===")
i = 1
back = apply_gamma_star(process, dec.phi[:, i]) / math.sqrt(dec.lambdas[i])
residual = np.sqrt(np.sum((back - dec.psi[:, i]) ** 2 * process.p_x))
# rounding-level residuals, printed against their bounds
print(f"duality residual for eigenfunction {i + 1} <= 1e-08:",
      residual <= 1e-8)
print("operator-vs-kernel route residual <= 1e-10:",
      verify_integral_identity(dec) <= 1e-10)
