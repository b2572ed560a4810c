"""Soft-invariant targets, norm-constrained linear probes, and error bounds.

Target functions live in the soft-invariance class: coefficient vectors over
the data eigenbasis whose high-frequency mass is controlled relative to
their energy, equivalently functions whose squared norm sits within a
``(1 - epsilon)`` isometry band of their induced-space norm.  The probe is a
least-squares fit over the average encoder's span subject to that induced
norm budget, solved by multiplier bisection.  Every bound right-hand side
used in the experiments is evaluated here from a plain numeric context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoders import Encoder
from .exceptions import InfeasibleTargetError, RankDeficiencyError, ValidationError
from .spectral import SpectralDecomposition, apply_gamma_star

_MEMBERSHIP_TOL = 1e-12
_CONSTRAINT_REL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class TargetFunction:
    """A member of the soft-invariance class with certified invariants.

    ``u`` holds coefficients over the data eigenbasis, supported on the
    retained spectrum; ``values`` is the induced function table on the data
    space.  Membership (norm budget, soft invariance, isometry band) is
    validated at construction.
    """

    u: np.ndarray
    B: float
    epsilon: float
    values: np.ndarray
    decomposition: SpectralDecomposition

    def __post_init__(self):
        self.u.setflags(write=False)
        self.values.setflags(write=False)

    @property
    def norm_sq(self) -> float:
        return float(self.u @ self.u)

    @property
    def h_norm_sq(self) -> float:
        return self.decomposition.h_norm_sq(self.u)


@dataclass(frozen=True)
class LabeledSample:
    x_index: int
    y: float


@dataclass(frozen=True, eq=False)
class FitResult:
    """Solution of the norm-constrained least-squares probe."""

    w: np.ndarray
    f_hat_values: np.ndarray
    h_norm: float
    lagrange_mu: float
    train_mse: float
    prediction_error: float | None


def _certify_membership(u, dec: SpectralDecomposition, B, epsilon) -> None:
    lam = dec.lambdas
    norm_sq = float(u @ u)
    if norm_sq > B * B + _MEMBERSHIP_TOL:
        raise ValidationError(f"target norm {math.sqrt(norm_sq)} exceeds budget {B}")
    usq = u * u
    lhs = float(np.sum((1.0 - lam) / lam * usq))
    rhs = epsilon * float(np.sum(usq / lam))
    if lhs > rhs + _MEMBERSHIP_TOL:
        raise ValidationError(
            f"soft-invariance violated: {lhs} > epsilon * {rhs / max(epsilon, 1e-300)}"
        )
    h_norm_sq = float(np.sum(usq / lam))
    if not ((1.0 - epsilon) * h_norm_sq <= norm_sq + 1e-10
            and norm_sq <= h_norm_sq + 1e-10):
        raise ValidationError("isometry band violated")


def _finish_target(u, dec, B, epsilon) -> TargetFunction:
    _certify_membership(u, dec, B, epsilon)
    values = dec.psi @ u
    return TargetFunction(u=u, B=float(B), epsilon=float(epsilon),
                          values=values, decomposition=dec)


def target_from_coefficients(decomposition: SpectralDecomposition,
                             coefficients, B: float,
                             epsilon: float) -> TargetFunction:
    """Build a target from explicit eigenbasis coefficients.

    Membership in the soft-invariance class at ``(B, epsilon)`` is certified
    at construction; a :class:`ValidationError` is raised otherwise.
    """
    u = np.asarray(coefficients, dtype=float).copy()
    if u.shape != (decomposition.rank,):
        raise ValidationError(
            f"coefficients have shape {u.shape}, expected "
            f"({decomposition.rank},)"
        )
    return _finish_target(u, decomposition, B, epsilon)


def sample_target(decomposition: SpectralDecomposition, B: float,
                  epsilon: float, seed: int,
                  nonconstant: bool = False) -> TargetFunction:
    """Draw a random member of the soft-invariance class.

    Raw coefficients are Gaussian with variance matching the spectrum.  When
    the soft-invariance constraint fails, the mass on components with
    eigenvalue below ``1 - epsilon`` is shrunk by the single factor that
    restores equality (bisection to 1e-12), and the result is rescaled to
    norm ``B``.  With ``nonconstant=True`` an
    :class:`InfeasibleTargetError` is raised when the feasible set contains
    no direction beyond the constant.
    """
    if B <= 0:
        raise ValidationError(f"B must be positive, got {B}")
    if not (0.0 <= epsilon < 1.0):
        raise ValidationError(f"epsilon must lie in [0, 1), got {epsilon}")
    dec = decomposition
    lam = dec.lambdas
    rng = np.random.default_rng(seed)
    u = rng.normal(size=dec.rank) * np.sqrt(lam)
    if epsilon == 0.0:
        # feasible set collapses to the top eigenspace; no partial repair
        feasible = lam >= 1.0 - 1e-9
        if nonconstant and not np.any(feasible[1:]):
            raise InfeasibleTargetError(
                "no nonconstant direction is exactly invariant (epsilon=0)"
            )
        u[~feasible] = 0.0
    else:
        coeff = (1.0 - epsilon - lam) / lam  # negative on aligned components
        shrink = coeff > 0.0
        if nonconstant and not np.any(~shrink[1:]):
            raise InfeasibleTargetError(
                "no nonconstant direction satisfies the soft-invariance "
                f"constraint at epsilon={epsilon}"
            )
        good = float(np.sum(coeff[~shrink] * u[~shrink] ** 2))
        bad = float(np.sum(coeff[shrink] * u[shrink] ** 2))
        if good + bad > 0.0:
            # h(t) = good + t^2 bad is increasing in t; h(0) <= 0 <= h(1)
            lo, hi = 0.0, 1.0
            while hi - lo > 1e-12:
                mid = 0.5 * (lo + hi)
                if good + mid * mid * bad > 0.0:
                    hi = mid
                else:
                    lo = mid
            u[shrink] *= lo
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        raise InfeasibleTargetError("repaired draw is identically zero")
    u *= B / norm
    if nonconstant and float(np.sum(u[1:] ** 2)) <= 0.0:
        raise InfeasibleTargetError("only the constant direction survived repair")
    return _finish_target(u, dec, B, epsilon)


def worst_case_target(decomposition: SpectralDecomposition, d: int,
                      B: float, epsilon: float) -> TargetFunction:
    """The two-component target attaining the approximation lower bound.

    Splits the budget between the constant and the ``(d+1)``-st
    eigenfunction with the tail weight
    ``beta2^2 = (eps/(1-eps)) * (lam_{d+1}/(1-lam_{d+1}))``; requires that
    quantity to be at most 1/2.
    """
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    if not (0.0 <= epsilon < 1.0):
        raise ValidationError(f"epsilon must lie in [0, 1), got {epsilon}")
    dec = decomposition
    lam_next = dec.eigenvalue(d + 1)
    if lam_next >= 1.0:
        raise ValidationError(
            "the feasibility condition fails: the (d+1)-st eigenvalue is 1"
        )
    beta2_sq = (epsilon / (1.0 - epsilon)) * (lam_next / (1.0 - lam_next))
    if beta2_sq > 0.5 + 1e-12:
        raise ValidationError(
            f"feasibility condition violated: (lam/(1-lam)) * (eps/(1-eps)) "
            f"= {beta2_sq} > 1/2"
        )
    u = np.zeros(dec.rank)
    u[0] = B * math.sqrt(1.0 - beta2_sq)
    if lam_next > 0.0 and beta2_sq > 0.0:
        u[d] = B * math.sqrt(beta2_sq)
    return _finish_target(u, dec, B, epsilon)


def generate_labels(target: TargetFunction, n: int, sigma: float,
                    seed: int) -> list[LabeledSample]:
    """Draw ``n`` points from the target's ``p_x`` with Gaussian-noise labels."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if sigma < 0:
        raise ValidationError(f"sigma must be >= 0, got {sigma}")
    process = target.decomposition.process
    rng = np.random.default_rng(seed)
    xs = rng.choice(process.n_x, size=n, p=process.p_x.mass)
    noise = rng.normal(size=n) * sigma if sigma > 0 else np.zeros(n)
    ys = target.values[xs] + noise
    return [LabeledSample(int(x), float(y)) for x, y in zip(xs, ys)]


def induced_gram(encoder: Encoder) -> np.ndarray:
    """Induced-space Gram of the average-encoder rows.

    Expands each row over the retained eigenbasis and sums squared
    coefficients against inverse eigenvalues.
    """
    dec = encoder.decomposition
    p_x = encoder.process.p_x.mass
    U = (encoder.psi_hat * p_x[None, :]) @ dec.psi  # d x rank
    return (U / dec.lambdas[None, :]) @ U.T


def _constrained_lstsq(design, weights, y, Q, radius_sq):
    """Weighted least squares subject to ``w^T Q w <= radius_sq``.

    Whitens the constraint, takes the minimum-norm unconstrained solution,
    and if infeasible bisects the multiplier until the constraint is active
    within 1e-10 relative.
    """
    q_eigs, q_vecs = np.linalg.eigh(Q)
    if q_eigs[-1] <= 0:
        raise RankDeficiencyError("induced Gram is not positive definite")
    keep = q_eigs > 1e-12 * q_eigs[-1]
    if not np.all(keep):
        dropped = q_vecs[:, ~keep]
        reach = design @ dropped
        if np.max(np.abs(reach)) > 1e-10:
            raise RankDeficiencyError(
                "induced Gram is singular along directions the design can reach"
            )
        q_eigs, q_vecs = q_eigs[keep], q_vecs[:, keep]
    whiten = q_vecs / np.sqrt(q_eigs)[None, :]
    sw = np.sqrt(weights)
    A = (design * sw[:, None]) @ whiten
    b = y * sw
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    rhs = U.T @ b
    cut = 1e-13 * (s[0] if s.size and s[0] > 0 else 1.0)

    def solve_at(mu):
        if mu <= 0.0:  # minimum-norm least squares at the pseudo-rank
            gains = np.divide(1.0, s, out=np.zeros_like(s), where=s > cut)
        else:
            gains = s / (s * s + mu)
        return Vt.T @ (gains * rhs)

    z = solve_at(0.0)
    mu = 0.0
    if radius_sq <= 0.0:
        z = np.zeros_like(z)
        mu = math.inf
    elif float(z @ z) > radius_sq:
        lo, hi = 0.0, 1.0
        while float(solve_at(hi) @ solve_at(hi)) > radius_sq:
            hi *= 2.0
            if hi > 1e300:
                raise ArithmeticError("multiplier bracket overflow")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(solve_at(mid) @ solve_at(mid)) > radius_sq:
                lo = mid
            else:
                hi = mid
            znorm = float(solve_at(hi) @ solve_at(hi))
            if abs(znorm - radius_sq) <= _CONSTRAINT_REL_TOL * radius_sq:
                break
        mu = hi
        z = solve_at(mu)
    w = whiten @ z
    return w, mu, float(z @ z)


def _fit(encoder: Encoder, x_indices, weights, y, B, epsilon, target):
    if not (0.0 <= epsilon < 1.0):
        raise ValidationError(f"epsilon must lie in [0, 1), got {epsilon}")
    if B < 0:
        raise ValidationError(f"B must be >= 0, got {B}")
    design = encoder.psi_hat[:, x_indices].T  # n x d
    Q = induced_gram(encoder)
    Q = 0.5 * (Q + Q.T)
    radius_sq = B * B / (1.0 - epsilon)
    w, mu, h_sq = _constrained_lstsq(design, weights, y, Q, radius_sq)
    f_hat = encoder.psi_hat.T @ w
    residual = design @ w - y
    train_mse = float(np.sum(weights * residual * residual) / np.sum(weights))
    prediction_error = None
    if target is not None:
        diff = f_hat - target.values
        prediction_error = float(
            np.sum(diff * diff * encoder.process.p_x.mass))
    return FitResult(w=w, f_hat_values=f_hat, h_norm=math.sqrt(max(h_sq, 0.0)),
                     lagrange_mu=mu, train_mse=train_mse,
                     prediction_error=prediction_error)


def fit_least_squares(encoder: Encoder, samples, B: float, epsilon: float,
                      target: TargetFunction | None = None) -> FitResult:
    """Norm-constrained least squares on labeled samples.

    Minimizes the mean squared training error over the encoder's span
    subject to the induced-norm budget ``B / sqrt(1 - epsilon)``.  When the
    true target is supplied, the exact prediction error is reported.
    """
    if len(samples) < 1:
        raise ValidationError("at least one sample is required")
    x_idx = np.array([s.x_index for s in samples])
    y = np.array([s.y for s in samples])
    weights = np.full(len(samples), 1.0 / len(samples))
    return _fit(encoder, x_idx, weights, y, B, epsilon, target)


def fit_least_squares_population(encoder: Encoder, values, B: float,
                                 epsilon: float,
                                 target: TargetFunction | None = None
                                 ) -> FitResult:
    """Population-limit fit: every data point weighted by its mass."""
    values = np.asarray(values, dtype=float)
    if values.shape != (encoder.process.n_x,):
        raise ValidationError(
            f"values has shape {values.shape}, expected ({encoder.process.n_x},)"
        )
    x_idx = np.arange(encoder.process.n_x)
    return _fit(encoder, x_idx, encoder.process.p_x.mass, values, B, epsilon,
                target)


def project_fpsi(target: TargetFunction, encoder: Encoder
                 ) -> tuple[np.ndarray, float]:
    """Projection of the target onto the encoder's span, plus its error.

    The canonical augmentation-side representer of the target is projected
    onto the encoder rows under the ``p_a`` inner product and pushed back to
    the data space; the returned scalar is the squared weighted distance to
    the target.
    """
    dec = target.decomposition
    process = encoder.process
    g_star = dec.phi @ (target.u / np.sqrt(dec.lambdas))
    G = (encoder.phi_hat * process.p_a.mass[None, :]) @ encoder.phi_hat.T
    rhs = (encoder.phi_hat * process.p_a.mass[None, :]) @ g_star
    coeffs = np.linalg.solve(G, rhs)
    projected = encoder.phi_hat.T @ coeffs
    f_psi = apply_gamma_star(process, projected)
    diff = f_psi - target.values
    return f_psi, float(np.sum(diff * diff * process.p_x.mass))


@dataclass(frozen=True)
class BoundContext:
    """Numeric inputs for the bound right-hand sides."""

    tau_sq: float
    epsilon: float
    B: float
    kappa: float
    s_lambda_dplus1: float
    n: int
    sigma: float
    c0: float = 1.0
    lambda_dplus1: float | None = None
    lambda_d: float | None = None
    lambda_bar_d: float | None = None
    gamma_g: float | None = None
    N: int | None = None
    d: int | None = None
    delta: float | None = None


@dataclass(frozen=True)
class BoundReport:
    """Evaluated right-hand sides; inapplicable entries are None."""

    thm31_rhs: float | None
    lemma32_rhs: float | None
    prop41_rhs: float | None
    thm41_rhs: float | None
    tau_applicable: bool


def evaluate_bounds(context: BoundContext) -> BoundReport:
    """Evaluate every bound right-hand side available from the context.

    The main generalization bound and its approximation component require
    ``tau < 1`` and are marked inapplicable otherwise; the approximation
    lower bound and the empirical trace-gap bound are reported whenever
    their inputs are present.
    """
    c = context
    tau = math.sqrt(max(c.tau_sq, 0.0))
    applicable = tau < 1.0
    lemma32 = thm31 = None
    if applicable:
        lemma32 = (c.tau_sq * (tau + c.epsilon) * c.B * c.B
                   / ((1.0 - c.tau_sq) * (1.0 - c.epsilon)))
        thm31 = (9.0 * lemma32
                 + c.c0 * c.kappa * (c.B * c.B + c.sigma * c.B)
                 / (1.0 - c.epsilon) * math.sqrt(c.s_lambda_dplus1 / c.n))
    prop41 = None
    if c.lambda_dplus1 is not None and c.lambda_dplus1 < 1.0:
        prop41 = (c.lambda_dplus1 / (1.0 - c.lambda_dplus1)
                  * c.epsilon / (1.0 - c.epsilon) * c.B * c.B)
    thm41 = None
    needed = (c.lambda_dplus1, c.lambda_d, c.lambda_bar_d, c.gamma_g, c.N,
              c.d, c.delta)
    if all(v is not None for v in needed):
        thm41 = (c.lambda_dplus1
                 + (2.0 + math.sqrt(2.0 * math.log(2.0 / c.delta)))
                 * (1.0 / c.lambda_d + math.sqrt(c.gamma_g) / c.lambda_bar_d
                    + 2.0)
                 * c.kappa * c.kappa * c.d / math.sqrt(c.N))
    return BoundReport(thm31_rhs=thm31, lemma32_rhs=lemma32,
                       prop41_rhs=prop41, thm41_rhs=thm41,
                       tau_applicable=applicable)
