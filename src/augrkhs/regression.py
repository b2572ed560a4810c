"""Soft-invariant targets, norm-constrained linear probes, and error bounds.

Target functions live in the soft-invariance class: coefficient vectors over
the data eigenbasis whose high-frequency mass is controlled relative to
their energy, equivalently functions whose squared norm sits within a
``(1 - epsilon)`` isometry band of their induced-space norm.  The probe is a
least-squares fit over the average encoder's span subject to that induced
norm budget, solved by multiplier bisection.  Each bound the experiments
evaluate is one keyword-only function of the numbers it reads:
:func:`lemma32_rhs` (approximation, from the trace gap), :func:`thm31_rhs`
(generalization, adding the estimation term of ``n`` labels),
:func:`prop41_rhs` (the approximation lower bound, from ``lambda_{d+1}``) and
:func:`thm41_rhs` (the near-optimal encoder's trace gap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoders import Encoder
from .exceptions import InfeasibleTargetError, RankDeficiencyError, ValidationError
from .spectral import SpectralDecomposition, apply_gamma_star

_MEMBERSHIP_TOL = 1e-12
_CONSTRAINT_REL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class TargetFunction:
    """A member of the soft-invariance class with certified invariants.

    ``u`` holds coefficients over the data eigenbasis, one per retained
    eigenpair.  Construction refuses a budget ``B <= 0``, an ``epsilon``
    outside [0, 1), a ``u`` of another shape and one outside the class at
    ``(B, epsilon)`` (norm budget, soft invariance, isometry band), raising
    :class:`ValidationError`.  ``values``, the induced function table on the
    data space, is not an argument: it is derived as ``psi @ u``.  Both are
    stored read-only, ``u`` as a float copy.
    """

    u: np.ndarray
    B: float
    epsilon: float
    decomposition: SpectralDecomposition
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        _check_scale(self.B, self.epsilon)
        dec, u = self.decomposition, np.array(self.u, dtype=float)
        if u.shape != (dec.rank,):
            raise ValidationError(
                f"coefficients have shape {u.shape}, expected ({dec.rank},)")
        _certify_membership(u, dec, self.B, self.epsilon)
        values = dec.psi @ u
        u.setflags(write=False)
        values.setflags(write=False)
        for name, value in (("u", u), ("values", values), ("B", float(self.B)),
                            ("epsilon", float(self.epsilon))):
            object.__setattr__(self, name, value)

    @property
    def norm_sq(self) -> float:
        return float(self.u @ self.u)

    @property
    def h_norm_sq(self) -> float:
        """Squared norm ``sum u_i^2 / lambda_i`` of ``sum u_i psi_i``."""
        return float(np.sum(self.u * self.u / self.decomposition.lambdas))


@dataclass(frozen=True, eq=False)
class FitResult:
    """Solution of the norm-constrained least-squares probe."""

    w: np.ndarray
    f_hat_values: np.ndarray
    h_norm: float
    lagrange_mu: float
    train_mse: float
    prediction_error: float | None


def _check_epsilon(epsilon) -> None:
    if not (0.0 <= epsilon < 1.0):
        raise ValidationError(f"epsilon must lie in [0, 1), got {epsilon}")


def _check_scale(B, epsilon) -> None:
    """Refuse a target's budget ``B <= 0`` or ``epsilon`` outside [0, 1),
    before any arithmetic reads them; a NaN fails both checks."""
    if not B > 0:
        raise ValidationError(f"B must be positive, got {B}")
    _check_epsilon(epsilon)


def _certify_membership(u, dec: SpectralDecomposition, B, epsilon) -> None:
    lam = dec.lambdas
    norm_sq = float(u @ u)
    if norm_sq > B * B + _MEMBERSHIP_TOL:
        raise ValidationError(f"target norm {math.sqrt(norm_sq)} exceeds budget {B}")
    usq = u * u
    lhs = float(np.sum((1.0 - lam) / lam * usq))
    h_norm_sq = float(np.sum(usq / lam))
    rhs = epsilon * h_norm_sq
    if lhs > rhs + _MEMBERSHIP_TOL:
        raise ValidationError(
            f"soft-invariance violated: {lhs} > epsilon * {rhs / max(epsilon, 1e-300)}"
        )
    if not ((1.0 - epsilon) * h_norm_sq <= norm_sq + 1e-10
            and norm_sq <= h_norm_sq + 1e-10):
        raise ValidationError("isometry band violated")


def target_from_coefficients(decomposition: SpectralDecomposition,
                             coefficients, B: float,
                             epsilon: float) -> TargetFunction:
    """Build a target from explicit eigenbasis coefficients.

    Membership in the soft-invariance class at ``(B, epsilon)`` is certified
    by :class:`TargetFunction`; a :class:`ValidationError` is raised
    otherwise.
    """
    return TargetFunction(coefficients, B, epsilon, decomposition)


def sample_target(decomposition: SpectralDecomposition, B: float,
                  epsilon: float, seed: int) -> TargetFunction:
    """Draw a random member of the soft-invariance class.

    Raw coefficients are Gaussian with variance matching the spectrum.  When
    the soft-invariance constraint fails, the mass on components with
    eigenvalue below ``1 - epsilon`` is shrunk by the single factor that
    restores equality (bisection to 1e-12), and the result is rescaled to
    norm ``B``.  The constant direction always survives the repair, and it
    may be the only one that does.
    """
    _check_scale(B, epsilon)
    dec = decomposition
    lam = dec.lambdas
    rng = np.random.default_rng(seed)
    u = rng.normal(size=dec.rank) * np.sqrt(lam)
    if epsilon == 0.0:
        # feasible set collapses to the top eigenspace; no partial repair
        u[lam < 1.0 - 1e-9] = 0.0
    else:
        coeff = (1.0 - epsilon - lam) / lam  # negative on aligned components
        shrink = coeff > 0.0
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
    return TargetFunction(u, B, epsilon, dec)


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
    _check_scale(B, epsilon)
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
    return TargetFunction(u, B, epsilon, dec)


def generate_labels(target: TargetFunction, n: int, sigma: float,
                    seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` points from the target's ``p_x`` with Gaussian-noise labels,
    as ``(x_indices, y)``: ``y[k]`` labels the data point ``x_indices[k]``."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if sigma < 0:
        raise ValidationError(f"sigma must be >= 0, got {sigma}")
    process = target.decomposition.process
    rng = np.random.default_rng(seed)
    xs = rng.choice(process.n_x, size=n, p=process.p_x)
    noise = rng.normal(size=n) * sigma if sigma > 0 else np.zeros(n)
    return xs, target.values[xs] + noise


def induced_gram(encoder: Encoder) -> np.ndarray:
    """Induced-space Gram of the average-encoder rows.

    Expands each row over the retained eigenbasis and sums squared
    coefficients against inverse eigenvalues.
    """
    dec = encoder.decomposition
    p_x = encoder.process.p_x
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
        # z and znorm are kept at hi, so each multiplier is solved once
        lo, hi = 0.0, 1.0
        z = solve_at(hi)
        znorm = float(z @ z)
        while znorm > radius_sq:
            hi *= 2.0
            if hi > 1e300:
                raise ArithmeticError("multiplier bracket overflow")
            z = solve_at(hi)
            znorm = float(z @ z)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            z_mid = solve_at(mid)
            mid_norm = float(z_mid @ z_mid)
            if mid_norm > radius_sq:
                lo = mid
            else:
                hi, z, znorm = mid, z_mid, mid_norm
            if abs(znorm - radius_sq) <= _CONSTRAINT_REL_TOL * radius_sq:
                break
        mu = hi
    w = whiten @ z
    return w, mu, float(z @ z)


def _fit(encoder: Encoder, x_indices, weights, y, B, epsilon, target):
    _check_epsilon(epsilon)
    if not B >= 0:  # a zero budget fits the zero function
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
        prediction_error = float(np.sum(diff * diff * encoder.process.p_x))
    return FitResult(w=w, f_hat_values=f_hat, h_norm=math.sqrt(max(h_sq, 0.0)),
                     lagrange_mu=mu, train_mse=train_mse,
                     prediction_error=prediction_error)


def fit_least_squares(encoder: Encoder, labels, B: float, epsilon: float,
                      target: TargetFunction | None = None) -> FitResult:
    """Norm-constrained least squares on labeled samples.

    ``labels`` is ``(x_indices, y)`` as :func:`generate_labels` returns it,
    with integer indices in ``[0, |X|)``.  Minimizes the mean squared
    training error over the encoder's span subject to the induced-norm
    budget ``B / sqrt(1 - epsilon)``.  When the true target is supplied, the
    exact prediction error is reported.
    """
    x_idx, y = np.asarray(labels[0]), np.asarray(labels[1], dtype=float)
    if x_idx.ndim != 1 or x_idx.shape != y.shape:
        raise ValidationError(f"{x_idx.shape} indices against {y.shape} labels")
    if x_idx.size < 1:
        raise ValidationError("at least one sample is required")
    n_x = encoder.process.n_x
    if (not np.issubdtype(x_idx.dtype, np.integer)
            or x_idx.min() < 0 or x_idx.max() >= n_x):
        raise ValidationError(f"indices must be integers in [0, {n_x})")
    weights = np.full(x_idx.size, 1.0 / x_idx.size)
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
    return _fit(encoder, x_idx, encoder.process.p_x, values, B, epsilon,
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
    # one weighting serves the Gram (encoders.gram_a) and the right side
    weighted = encoder.phi_hat * process.p_a[None, :]
    coeffs = np.linalg.solve(weighted @ encoder.phi_hat.T, weighted @ g_star)
    projected = encoder.phi_hat.T @ coeffs
    f_psi = apply_gamma_star(process, projected)
    diff = f_psi - target.values
    return f_psi, float(np.sum(diff * diff * process.p_x))


def lemma32_rhs(*, tau_sq: float, epsilon: float, B: float) -> float | None:
    """Lemma 3.2's approximation bound for an encoder of trace gap
    ``tau_sq``; ``None`` unless ``tau < 1``."""
    tau = math.sqrt(max(tau_sq, 0.0))
    if tau < 1.0:
        return (tau_sq * (tau + epsilon) * B * B
                / ((1.0 - tau_sq) * (1.0 - epsilon)))
    return None


def thm31_rhs(*, tau_sq: float, epsilon: float, B: float, kappa: float,
              s_lambda_dplus1: float, n: int, sigma: float) -> float | None:
    """Theorem 3.1's generalization bound: nine times :func:`lemma32_rhs`
    plus the estimation term of ``n`` labels with noise ``sigma``; ``None``
    where the lemma's bound is.  The paper leaves the estimation term's
    absolute constant unspecified; it is taken as 1."""
    lemma32 = lemma32_rhs(tau_sq=tau_sq, epsilon=epsilon, B=B)
    if lemma32 is None:
        return None
    return (9.0 * lemma32
            + kappa * (B * B + sigma * B)
            / (1.0 - epsilon) * math.sqrt(s_lambda_dplus1 / n))


def prop41_rhs(*, lambda_dplus1: float, epsilon: float,
               B: float) -> float | None:
    """Proposition 4.1's approximation lower bound for any top-d span;
    ``None`` unless ``lambda_dplus1 < 1``."""
    if lambda_dplus1 < 1.0:
        return (lambda_dplus1 / (1.0 - lambda_dplus1)
                * epsilon / (1.0 - epsilon) * B * B)
    return None


def thm41_rhs(*, lambda_dplus1: float, lambda_d: float, lambda_bar_d: float,
              gamma_g: float, kappa: float, d: int, N: int,
              delta: float) -> float:
    """Theorem 4.1's trace-gap bound for the near-optimal encoder of ``N``
    samples, holding with probability at least ``1 - delta``."""
    return (lambda_dplus1
            + (2.0 + math.sqrt(2.0 * math.log(2.0 / delta)))
            * (1.0 / lambda_d + math.sqrt(gamma_g) / lambda_bar_d + 2.0)
            * kappa * kappa * d / math.sqrt(N))
