"""Build finite augmentation processes and inspect their exact tables.

Four masking schemes on the sign hypercube are constructed by full
enumeration, so every probability below is exact arithmetic, not sampling.
A process holds no names for its points: it enumerates them in
lexicographic order, coordinates ordered -1 < 0 < +1, and the names printed
here are built from that enumeration.
"""

import itertools

import numpy as np

from augrkhs import (
    HypercubeConfig,
    apply_gamma,
    build_custom,
    build_hypercube,
)

np.set_printoptions(precision=4, suppress=True)


def names(points):
    """One string per point, a -, 0 or + per coordinate."""
    return tuple("".join("-0+"[v + 1] for v in point) for point in points)


print("=== Independent random masking, one coordinate, mask ratio 1/2 ===")
process = build_hypercube(HypercubeConfig(d_x=1, alpha=0.5,
                                          scheme="random_mask"))
print("data points:      ", names(itertools.product((-1, 1), repeat=1)))
print("augmentations:    ", names(itertools.product((-1, 0, 1), repeat=1)))
print("p(a|x) rows:\n", process.conditional_dense())
print("augmentation marginal:", process.p_a)
# Gamma of the point indicators of X: row a is the posterior p(.|a)
print("posterior p(x|a):\n", apply_gamma(process, np.eye(process.n_x)))
print("(the unmasked coordinate reveals the original; the mask is uniform)")

print("\n=== Block masking, d_x=4, mask ratio 1/2 ===")
block = build_hypercube(HypercubeConfig(d_x=4, alpha=0.5,
                                        scheme="block_mask"))
print(f"|X| = {block.n_x}, |A| = {block.n_a} "
      "(3 block positions x 4 survivor patterns)")
print("one row of p(a|x):", block.conditional_dense()[0])

print("\n=== Block masking with sign flips, d_x=4, mask ratio 1/2 ===")
flip = build_hypercube(HypercubeConfig(d_x=4, alpha=0.5,
                                       scheme="block_mask_flip"))
print(f"|A| = {flip.n_a}; every augmentation is reachable from every "
      "original, with exact product probabilities")
# the reachable points: a block of 2 zeros at one of 3 starts
support = sorted({x[:s] + (0, 0) + x[s + 2:]
                  for x in itertools.product((-1, 1), repeat=4)
                  for s in range(3)})
print("first augmentations:", names(support[:6]))

print("\n=== Mask-or-flip channels, d_x=1, mask ratio 0.6 ===")
mix = build_hypercube(HypercubeConfig(d_x=1, alpha=0.6,
                                      scheme="random_mask_flip"))
print("p(a|x) rows (keep / mask / flip):\n", mix.conditional_dense())

print("\n=== Custom process from explicit triples ===")
custom, kept = build_custom(
    x_size=2, a_size=4, p_x=[0.5, 0.5],
    triples=[(0, 0, 0.5), (0, 1, 0.5), (1, 1, 0.5), (1, 3, 0.5)])
print(f"column 2 had zero mass and was pruned; surviving columns: {kept}")
print("p(a|x):\n", custom.conditional_dense())
