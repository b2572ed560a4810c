"""Exact pretraining objectives and their full-batch minimization.

Four population losses are evaluated in closed form on finite spaces: the
spectral contrastive loss, its two-encoder CLIP variant, a regularized
Barlow Twins loss, and a VICReg variant.  Each loss has one route, its
value and gradient, which :func:`value_grad` reaches by ``spec.kind`` and
:func:`minimize` steps on.  Both take the process, the only object they
read, and the parameters as a tuple of tables: ``(phi,)`` on the
augmentations, or ``(phi, xi)`` with ``xi`` on the data for the two-encoder
loss; the gradient comes back in the same shape.  :func:`optimal_loss`
states each minimum that has a closed form in the top eigenvalues.

The positive-pair law ``P+ = C^T diag(p_x) C`` and the joint law
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

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DivergenceError, ValidationError
from .processes import AugmentationProcess
from .spectral import (SpectralDecomposition, _check_d, apply_gamma_star,
                       apply_joint)


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which loss to minimize, at which encoder dimension, with which weights."""

    kind: str
    d: int
    alpha_w: float = 1.0
    beta_w: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown objective kind {self.kind!r}")
        if self.d < 1:
            raise ValidationError(f"d must be >= 1, got {self.d}")
        # a weight is checked only for the kinds that read it: rbt reads
        # both, vicreg beta_w
        if self.kind == "rbt" and (self.alpha_w < 0 or self.beta_w < 0):
            raise ValidationError("rbt weights must be nonnegative")
        if self.kind == "vicreg" and self.beta_w < 0:
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
        if self.init_scale <= 0:
            raise ValidationError(
                f"init_scale must be positive, got {self.init_scale}")


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


def _scl_value_grad(params, process: AugmentationProcess, spec):
    """``-2 Tr(phi P+ phi^T) + ||G||_F^2`` with ``G = phi diag(p_a) phi^T``.

    The spectral contrastive loss ``-2 E+[<phi(a), phi(a')>] +
    E[<phi(a), phi(a')>^2]``, the first expectation over positive pairs (two
    augmentations of one original), the second over independent ones.
    """
    phi, = params
    p_x = process.p_x
    phi_pa = phi * process.p_a
    G = phi_pa @ phi.T
    Z = apply_gamma_star(process, phi.T)
    PhiPair = apply_joint(process, Z).T  # phi P+
    value = -2.0 * float(np.sum(p_x @ (Z * Z))) + float(np.sum(G * G))
    return value, (4.0 * (G @ phi_pa - PhiPair),)


def _sclip_value_grad(params, process: AugmentationProcess, spec):
    """``-2 Tr(phi J xi^T) + Tr(G H)`` with ``H = xi diag(p_x) xi^T``.

    ``phi`` lives on the augmentation space, ``xi`` on the data space; the
    positive term pairs them under the joint law ``p(a, x)``, the negative
    term under the product of the marginals.
    """
    phi, xi = params
    p_x = process.p_x
    phi_pa = phi * process.p_a
    xi_px = xi * p_x
    G = phi_pa @ phi.T
    H = xi_px @ xi.T
    PhiJ = apply_gamma_star(process, phi.T).T * p_x  # phi J, d x |X|
    value = -2.0 * float(np.sum(PhiJ * xi)) + float(np.sum(G * H))
    grad_phi = 2.0 * (H @ phi_pa - apply_joint(process, xi.T).T)
    grad_xi = 2.0 * (G @ xi_px - PhiJ)
    return value, (grad_phi, grad_xi)


def _rbt_value_grad(params, process: AugmentationProcess, spec):
    """``||diag(M) - 1||^2 + alpha_w ||off(M)||^2 + beta_w Tr(G)``.

    The regularized Barlow Twins loss, with ``M = phi P+ phi^T =
    Z^T diag(p_x) Z`` and ``G = phi diag(p_a) phi^T``.
    """
    phi, = params
    alpha_w, beta_w = spec.alpha_w, spec.beta_w
    phi_pa = phi * process.p_a
    Z = apply_gamma_star(process, phi.T)
    M = (Z * process.p_x[:, None]).T @ Z
    diag = np.diag(M)
    off = M - np.diag(diag)
    value = (float(np.sum((diag - 1.0) ** 2)) + alpha_w * float(np.sum(off * off))
             + beta_w * float(np.sum(phi_pa * phi)))
    coeff = 2.0 * np.diag(diag - 1.0) + 2.0 * alpha_w * off
    PhiPair = apply_joint(process, Z).T  # phi P+
    return value, (2.0 * (coeff @ PhiPair + beta_w * phi_pa),)


def _vicreg_value_grad(params, process: AugmentationProcess, spec):
    """``||G - I||_F^2 + beta_w (2 Tr(G) - 2 Tr(M))``, ``M = phi P+ phi^T``.

    A VICReg variant: an identity-covariance penalty plus the positive-pair
    energy.
    """
    phi, = params
    beta_w = spec.beta_w
    p_x = process.p_x
    phi_pa = phi * process.p_a
    G = phi_pa @ phi.T
    Z = apply_gamma_star(process, phi.T)
    PhiPair = apply_joint(process, Z).T  # phi P+
    G_eye = G - np.eye(phi.shape[0])
    value = float(np.sum(G_eye ** 2)) + beta_w * (
        2.0 * float(np.trace(G)) - 2.0 * float(np.sum(p_x @ (Z * Z))))
    return value, (4.0 * (G_eye @ phi_pa + beta_w * (phi_pa - PhiPair)),)


# kind -> its value and gradient, and how many tables it takes: phi on the
# augmentations, then xi on the data
_LOSSES = {
    "scl": (_scl_value_grad, 1),
    "sclip": (_sclip_value_grad, 2),
    "rbt": (_rbt_value_grad, 1),
    "vicreg": (_vicreg_value_grad, 1),
}
KINDS = tuple(_LOSSES)


def _shapes(spec: ObjectiveSpec, process: AugmentationProcess):
    tables = _LOSSES[spec.kind][1]
    return tuple((spec.d, n) for n in (process.n_a, process.n_x)[:tables])


def _check_params(spec: ObjectiveSpec, process: AugmentationProcess, params):
    want = _shapes(spec, process)
    got = tuple(np.shape(table) for table in params)
    if got != want:
        raise ValidationError(
            f"{spec.kind} takes tables of shapes {want}, got {got}")


def value_grad(spec: ObjectiveSpec, process: AugmentationProcess, params):
    """The exact loss ``spec`` and its gradient at ``params``.

    ``params`` is a tuple of tables, ``(phi,)`` (``d x |A|``) or, for the
    two-encoder loss, ``(phi, xi)`` (``xi`` is ``d x |X|``); the gradient
    is a tuple of the same shapes.
    """
    params = tuple(np.asarray(table, dtype=float) for table in params)
    _check_params(spec, process, params)
    return _LOSSES[spec.kind][0](params, process, spec)


def optimal_loss(spec: ObjectiveSpec,
                 decomposition: SpectralDecomposition) -> float | None:
    """The minimum of the loss ``spec`` over encoders, where a closed form
    in the top-``d`` eigenvalues ``lambda`` is known, else ``None``.

    ``-sum lambda^2`` for the contrastive loss, ``-sum lambda`` for its
    two-encoder variant, and ``d - sum lambda^2`` for the VICReg variant at
    unit coupling.
    """
    lam = decomposition.lambdas[:spec.d]
    if spec.kind == "scl":
        return float(-(lam ** 2).sum())
    if spec.kind == "sclip":
        return float(-lam.sum())
    if spec.kind == "vicreg" and spec.beta_w == 1.0:
        return float(spec.d - (lam ** 2).sum())
    return None


def _grad_norm(grads) -> float:
    """Frobenius norm over the tables; for one table, ``np.linalg.norm``'s
    bits exactly (``hypot`` of one number is its absolute value)."""
    return math.hypot(*(np.linalg.norm(g) for g in grads))


def minimize(spec: ObjectiveSpec, process: AugmentationProcess,
             opt: OptimizerConfig, init: tuple | None = None
             ) -> MinimizeResult:
    """Full-batch gradient descent on the exact population loss.

    The encoder is parameterized directly by the tables of
    :func:`value_grad`; entries start i.i.d. uniform in
    ``(-init_scale, init_scale)``, ``phi`` drawn first, unless ``init``
    gives the tuple.  Steps halve whenever the candidate loss increases, so
    the recorded trace is monotone; iteration stops at ``grad_tol`` or
    ``max_iters``.
    """
    if init is None:
        rng = np.random.default_rng(opt.seed)
        params = tuple(rng.uniform(-opt.init_scale, opt.init_scale, size=shape)
                       for shape in _shapes(spec, process))
    else:
        params = tuple(np.array(table, dtype=float) for table in init)
        _check_params(spec, process, params)
    fn = _LOSSES[spec.kind][0]

    value, grad = fn(params, process, spec)
    if not np.isfinite(value):
        raise DivergenceError("non-finite loss at iteration 0")
    losses = [value]
    lr = opt.learning_rate
    for it in range(opt.max_iters):
        if _grad_norm(grad) <= opt.grad_tol:
            break
        while True:
            candidate = tuple(p - lr * g for p, g in zip(params, grad))
            cand_value, cand_grad = fn(candidate, process, spec)
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
    grad_norm = _grad_norm(grad)
    return MinimizeResult(
        phi_hat=params[0], xi_hat=params[1] if len(params) > 1 else None,
        losses=np.array(losses), iterations=len(losses) - 1,
        grad_norm=grad_norm, converged=grad_norm <= opt.grad_tol,
    )


def subspace_angle(phi_hat, decomposition: SpectralDecomposition,
                   d: int) -> float:
    """Largest principal angle from the rows of the table ``phi_hat`` to
    the top-``d`` eigenspace, in radians.

    Angles are taken under the augmentation-side weighted inner product.
    """
    table = np.atleast_2d(np.asarray(phi_hat, dtype=float))
    _check_d(decomposition, d)
    sqrt_pa = np.sqrt(decomposition.process.p_a)
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


def rbt_penalty_path(process: AugmentationProcess, d: int, alpha_w: float,
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
        res = minimize(spec, process, opt, init=init)
        results.append(res)
        init = (res.phi_hat,)
    final = results[-1].phi_hat
    trace_g = float(np.sum(final * final @ process.p_a))
    return results, trace_g
