"""Exact pretraining objectives and their full-batch minimization.

Four population losses are evaluated in closed form on finite spaces: the
spectral contrastive loss, its two-encoder CLIP variant, a regularized
Barlow Twins loss, and a VICReg variant.  Each loss has one route, its
``_<kind>_value_grad(params, process, ...)``, which returns the exact value
and gradient; the public ``loss_*`` functions and :func:`minimize` both run
it.  The positive-pair law ``P+ = C^T diag(p_x) C`` and the joint law
``J = C^T diag(p_x)`` of the table ``C = p(a|x)`` enter only through the
operators of :mod:`augrkhs.spectral`, so no ``|A| x |A|`` or ``|A| x |X|``
matrix is formed.  Each evaluation crosses the table once in each direction.
Forward, ``Z = apply_gamma_star(phi^T) = C phi^T`` (``|X| x d``) averages
the encoder onto the data; the positive-pair energy
``Tr(phi P+ phi^T) = sum_x p_x |Z_x|^2`` and the Barlow Twins matrix
``M = Z^T diag(p_x) Z`` are read from the small ``Z``.  Back,
``phi P+ = apply_joint(Z)^T`` enters the gradient.  The two-encoder loss
goes forward on ``phi`` and back on ``xi``.  Minimization is plain
full-batch gradient descent with step halving.  The tests keep direct
summations over the dense pair and joint laws as the oracle for every value
and gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DivergenceError, ValidationError
from .processes import AugmentationProcess
from .spectral import SpectralDecomposition, apply_gamma_star, apply_joint

KINDS = ("scl", "sclip", "rbt", "vicreg")


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which loss to minimize, at which encoder dimension, with which weights."""

    kind: str
    d: int
    alpha_w: float | None = None
    beta_w: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown objective kind {self.kind!r}")
        if self.d < 1:
            raise ValidationError(f"d must be >= 1, got {self.d}")
        if self.kind == "rbt":
            if self.alpha_w is None or self.beta_w is None:
                raise ValidationError("rbt needs alpha_w and beta_w")
            if self.alpha_w < 0 or self.beta_w < 0:
                raise ValidationError("rbt weights must be nonnegative")
        if self.kind == "vicreg":
            if self.beta_w is None:
                raise ValidationError("vicreg needs beta_w")
            if self.beta_w < 0:
                raise ValidationError("vicreg beta_w must be nonnegative")


@dataclass(frozen=True)
class OptimizerConfig:
    """Fixed-step gradient descent with halving on loss increase."""

    learning_rate: float = 0.2
    max_iters: int = 20000
    grad_tol: float = 1e-8
    seed: int = 0
    init_scale: float = 0.5

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if self.max_iters < 0:
            raise ValidationError("max_iters must be >= 0")


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    phi_hat: np.ndarray
    xi_hat: np.ndarray | None
    losses: np.ndarray
    iterations: int
    grad_norm: float
    converged: bool

    @property
    def final_loss(self) -> float:
        return float(self.losses[-1])


def _scl_value_grad(phi, process: AugmentationProcess):
    """``-2 Tr(phi P+ phi^T) + ||G||_F^2`` with ``G = phi diag(p_a) phi^T``."""
    p_x = process.p_x.mass
    phi_pa = phi * process.p_a.mass
    G = phi_pa @ phi.T
    Z = apply_gamma_star(process, phi.T)
    PhiPair = apply_joint(process, Z).T  # phi P+
    value = -2.0 * float(np.sum(p_x @ (Z * Z))) + float(np.sum(G * G))
    return value, 4.0 * (G @ phi_pa - PhiPair)


def _sclip_value_grad(params, process: AugmentationProcess):
    """``-2 Tr(phi J xi^T) + Tr(G H)`` with ``H = xi diag(p_x) xi^T``."""
    phi, xi = params
    p_x = process.p_x.mass
    phi_pa = phi * process.p_a.mass
    xi_px = xi * p_x
    G = phi_pa @ phi.T
    H = xi_px @ xi.T
    PhiJ = apply_gamma_star(process, phi.T).T * p_x  # phi J, d x |X|
    value = -2.0 * float(np.sum(PhiJ * xi)) + float(np.sum(G * H))
    grad_phi = 2.0 * (H @ phi_pa - apply_joint(process, xi.T).T)
    grad_xi = 2.0 * (G @ xi_px - PhiJ)
    return value, (grad_phi, grad_xi)


def _rbt_value_grad(phi, process: AugmentationProcess, alpha_w, beta_w):
    """``||diag(M) - 1||^2 + alpha_w ||off(M)||^2 + beta_w Tr(G)``.

    ``M = phi P+ phi^T = Z^T diag(p_x) Z`` and ``G = phi diag(p_a) phi^T``.
    """
    phi_pa = phi * process.p_a.mass
    Z = apply_gamma_star(process, phi.T)
    M = (Z * process.p_x.mass[:, None]).T @ Z
    diag = np.diag(M)
    off = M - np.diag(diag)
    value = (float(np.sum((diag - 1.0) ** 2)) + alpha_w * float(np.sum(off * off))
             + beta_w * float(np.sum(phi_pa * phi)))
    coeff = 2.0 * np.diag(diag - 1.0) + 2.0 * alpha_w * off
    PhiPair = apply_joint(process, Z).T  # phi P+
    return value, 2.0 * (coeff @ PhiPair + beta_w * phi_pa)


def _vicreg_value_grad(phi, process: AugmentationProcess, beta_w):
    """``||G - I||_F^2 + beta_w (2 Tr(G) - 2 Tr(M))``, ``M = phi P+ phi^T``."""
    p_x = process.p_x.mass
    phi_pa = phi * process.p_a.mass
    G = phi_pa @ phi.T
    Z = apply_gamma_star(process, phi.T)
    PhiPair = apply_joint(process, Z).T  # phi P+
    G_eye = G - np.eye(phi.shape[0])
    value = float(np.sum(G_eye ** 2)) + beta_w * (
        2.0 * float(np.trace(G)) - 2.0 * float(np.sum(p_x @ (Z * Z))))
    return value, 4.0 * (G_eye @ phi_pa + beta_w * (phi_pa - PhiPair))


def loss_scl(phi_hat: np.ndarray, dec: SpectralDecomposition) -> float:
    """Spectral contrastive loss.

    ``-2 E+[<phi(a), phi(a')>] + E[<phi(a), phi(a')>^2]``, the first
    expectation over positive pairs (two augmentations of one original), the
    second over independent augmentations.
    """
    return _scl_value_grad(phi_hat, dec.process)[0]


def loss_sclip(phi_hat: np.ndarray, xi_hat: np.ndarray,
               dec: SpectralDecomposition) -> float:
    """Two-encoder contrastive loss.

    ``phi_hat`` lives on the augmentation space, ``xi_hat`` on the data
    space; the positive term pairs them under the joint law ``p(a, x)``, the
    negative term under the product of the marginals.
    """
    if phi_hat.shape[0] != xi_hat.shape[0]:
        raise ValidationError(
            f"encoder dimensions differ: {phi_hat.shape[0]} vs {xi_hat.shape[0]}"
        )
    return _sclip_value_grad((phi_hat, xi_hat), dec.process)[0]


def loss_rbt(phi_hat: np.ndarray, dec: SpectralDecomposition,
             alpha_w: float, beta_w: float) -> float:
    """Regularized Barlow Twins loss, exact over the pair distribution."""
    if alpha_w < 0 or beta_w < 0:
        raise ValidationError("weights must be nonnegative")
    return _rbt_value_grad(phi_hat, dec.process, alpha_w, beta_w)[0]


def loss_vicreg(phi_hat: np.ndarray, dec: SpectralDecomposition,
                beta_w: float) -> float:
    """VICReg variant: identity-covariance penalty plus positive-pair energy."""
    if beta_w < 0:
        raise ValidationError("beta_w must be nonnegative")
    return _vicreg_value_grad(phi_hat, dec.process, beta_w)[0]


def _value_grad_fn(spec: ObjectiveSpec, process: AugmentationProcess):
    if spec.kind == "scl":
        return lambda p: _scl_value_grad(p, process)
    if spec.kind == "sclip":
        return lambda p: _sclip_value_grad(p, process)
    if spec.kind == "rbt":
        return lambda p: _rbt_value_grad(p, process, spec.alpha_w, spec.beta_w)
    return lambda p: _vicreg_value_grad(p, process, spec.beta_w)


def minimize(spec: ObjectiveSpec, process: AugmentationProcess,
             decomposition: SpectralDecomposition,
             opt: OptimizerConfig,
             init: np.ndarray | tuple[np.ndarray, np.ndarray] | None = None
             ) -> MinimizeResult:
    """Full-batch gradient descent on the exact population loss.

    The encoder is parameterized directly as a ``d x |A|`` table (plus a
    ``d x |X|`` table for the two-encoder loss); entries start i.i.d.
    uniform in ``(-init_scale, init_scale)`` unless ``init`` is given.
    Steps halve whenever the candidate loss increases, so the recorded
    trace is monotone; iteration stops at ``grad_tol`` or ``max_iters``.
    """
    rng = np.random.default_rng(opt.seed)
    pair_mode = spec.kind == "sclip"
    if init is None:
        phi = rng.uniform(-opt.init_scale, opt.init_scale,
                          size=(spec.d, process.n_a))
        params = (phi, rng.uniform(-opt.init_scale, opt.init_scale,
                                   size=(spec.d, process.n_x))) if pair_mode else phi
    else:
        params = (np.array(init[0], dtype=float), np.array(init[1], dtype=float)) \
            if pair_mode else np.array(init, dtype=float)
    fn = _value_grad_fn(spec, process)

    def step(p, g, lr):
        if pair_mode:
            return (p[0] - lr * g[0], p[1] - lr * g[1])
        return p - lr * g

    def gnorm(g):
        if pair_mode:
            return float(np.sqrt(np.sum(g[0] ** 2) + np.sum(g[1] ** 2)))
        return float(np.linalg.norm(g))

    value, grad = fn(params)
    if not np.isfinite(value):
        raise DivergenceError("non-finite loss at iteration 0")
    losses = [value]
    lr = opt.learning_rate
    iterations = 0
    converged = False
    for it in range(opt.max_iters):
        gn = gnorm(grad)
        if gn <= opt.grad_tol:
            converged = True
            break
        while True:
            candidate = step(params, grad, lr)
            cand_value, cand_grad = fn(candidate)
            if not np.isfinite(cand_value):
                raise DivergenceError(f"non-finite loss at iteration {it}")
            if cand_value <= value:
                break
            lr *= 0.5
            if lr < 1e-18:
                break
        if cand_value > value:
            break  # step size exhausted
        params, value, grad = candidate, cand_value, cand_grad
        losses.append(value)
        iterations = it + 1
    else:
        converged = gnorm(grad) <= opt.grad_tol
    if pair_mode:
        phi_hat, xi_hat = params
    else:
        phi_hat, xi_hat = params, None
    return MinimizeResult(
        phi_hat=phi_hat, xi_hat=xi_hat, losses=np.array(losses),
        iterations=iterations, grad_norm=gnorm(grad),
        converged=converged or gnorm(grad) <= opt.grad_tol,
    )


def subspace_angle(phi_hat, decomposition: SpectralDecomposition,
                   d: int) -> float:
    """Largest principal angle to the top-``d`` eigenspace, in radians.

    Angles are taken under the augmentation-side weighted inner product;
    accepts an :class:`~augrkhs.encoders.Encoder` or a raw table.
    """
    table = getattr(phi_hat, "phi_hat", phi_hat)
    table = np.atleast_2d(np.asarray(table, dtype=float))
    if not (1 <= d <= decomposition.rank):
        raise ValidationError(f"d must lie in [1, rank], got {d}")
    sqrt_pa = np.sqrt(decomposition.process.p_a.mass)
    W = (table * sqrt_pa[None, :]).T
    U, s, _ = np.linalg.svd(W, full_matrices=False)
    if s[-1] <= 1e-12 * s[0]:
        raise ValidationError("encoder table is rank deficient")
    Q2 = decomposition.phi[:, :d] * sqrt_pa[:, None]
    cosines = np.linalg.svd(U.T @ Q2, compute_uv=False)
    smallest = min(1.0, max(0.0, float(cosines.min())))
    if smallest < 0.5**0.5:
        return float(np.arccos(smallest))
    # small angles: the sine route keeps full precision where arccos cannot
    residual = U - Q2 @ (Q2.T @ U)
    sines = np.linalg.svd(residual, compute_uv=False)
    largest = min(1.0, float(sines.max()))
    return float(np.arcsin(largest))


def rbt_penalty_path(process: AugmentationProcess,
                     decomposition: SpectralDecomposition,
                     d: int, alpha_w: float,
                     betas=(1e-1, 1e-2, 1e-3, 1e-4),
                     opt: OptimizerConfig | None = None
                     ) -> tuple[list[MinimizeResult], float]:
    """Constrained Barlow Twins limit via a decreasing penalty schedule.

    Minimizes the regularized loss for each ``beta`` in turn, warm-starting
    from the previous solution; as the penalty vanishes the augmentation-side
    energy ``Tr(G)`` of the solution approaches the sum of inverse
    eigenvalues over the top ``d``.  Returns the stage results and the final
    ``Tr(G)``.
    """
    if opt is None:
        opt = OptimizerConfig()
    results = []
    init = None
    for beta in betas:
        spec = ObjectiveSpec(kind="rbt", d=d, alpha_w=alpha_w, beta_w=beta)
        res = minimize(spec, process, decomposition, opt, init=init)
        results.append(res)
        init = res.phi_hat
    final = results[-1].phi_hat
    trace_g = float(np.sum(final * final @ process.p_a.mass))
    return results, trace_g
