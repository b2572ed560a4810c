"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is produced by an in-test oracle (enumeration, an
independent eigensolver route, closed-form arithmetic, finite differences)
or pinned from a hand computation, never read back from the code under
test.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np
import pytest

from augrkhs import objectives as ob
from augrkhs import regression as rg
from augrkhs.complexity import (
    kappa_exact,
    kappa_monte_carlo,
    partial_trace,
)
from augrkhs.encoders import (
    Encoder,
    covariances,
    empirical_decomposition,
    near_optimal_encoder,
    optimal_encoder,
    ratio_trace,
    trace_gap,
)
from augrkhs.harness import figure_4a_data, fit_loglog_slope
from augrkhs.processes import HypercubeConfig, build_custom, build_hypercube
from augrkhs.spectral import apply_gamma_star, decompose

from conftest import GRID_ALPHAS, GRID_DXS, GRID_SCHEMES


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} [{status}] {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def brute_diagonal(process):
    """Enumeration oracle for K_X(x,x): row loop, marginal recomputed."""
    dense = process.conditional_dense()
    p_a = dense.T @ process.p_x
    out = np.empty(process.n_x)
    for i in range(process.n_x):
        row = dense[i]
        out[i] = float(np.sum(row[row > 0] ** 2 / p_a[row > 0]))
    return out


def chi_squared_mean_oracle(process):
    """Independent route: sum_x p_x sum_a (p(a|x) - p_a)^2 / p_a."""
    dense = process.conditional_dense()
    p_a = dense.T @ process.p_x
    total = 0.0
    for i in range(process.n_x):
        diff = dense[i] - p_a
        total += process.p_x[i] * float(np.sum(diff * diff / p_a))
    return total


@pytest.fixture(scope="module")
def distinct_pair():
    rows = np.array([
        [0.70, 0.20, 0.10, 0.00],
        [0.15, 0.60, 0.20, 0.05],
        [0.05, 0.25, 0.50, 0.20],
        [0.00, 0.10, 0.25, 0.65],
    ])
    triples = [(i, j, rows[i, j]) for i in range(4) for j in range(4)
               if rows[i, j] > 0]
    process, _ = build_custom(4, 4, [0.3, 0.3, 0.2, 0.2], triples)
    return process, decompose(process)


def test_criterion_01_random_mask_closed_form(process_cache):
    worst = 0.0
    for d_x in GRID_DXS:
        for alpha in GRID_ALPHAS:
            process = process_cache("random_mask", d_x, alpha)
            brute = float(brute_diagonal(process).max())
            formula = (2.0 - alpha) ** d_x
            worst = max(worst, abs(brute - formula) / formula)
    report(1, "random-mask closed form matches brute force", worst <= 1e-10,
           f"worst rel err {worst:.2e}")


def test_criterion_02_block_scheme_bounds(process_cache):
    worst_eq = 0.0
    bounds_ok = True
    for d_x in GRID_DXS:
        for alpha in GRID_ALPHAS:
            block = process_cache("block_mask", d_x, alpha)
            brute = float(brute_diagonal(block).max())
            r = math.ceil(alpha * d_x - 1e-12)
            worst_eq = max(worst_eq, abs(brute - 2.0 ** (d_x - r)))
            if brute > 2.0 ** ((1 - alpha) * d_x) + 1e-9:
                bounds_ok = False
            flip = process_cache("block_mask_flip", d_x, alpha)
            brute_flip = float(brute_diagonal(flip).max())
            bound = (alpha**2 - 2 * alpha + 2.0) ** ((1 - alpha / 2) * d_x)
            if brute_flip > bound + 1e-9:
                bounds_ok = False
    ok = worst_eq <= 1e-9 and bounds_ok
    report(2, "block-mask equality and block/flip upper bounds", ok,
           f"worst equality err {worst_eq:.2e}, bounds hold: {bounds_ok}")


def test_criterion_03_random_mask_spectrum_law(decomp_cache, oracle_cache):
    # decompose takes this law itself, so the spectrum it is checked against
    # is the SVD oracle's, computed from the table; decompose must match both
    worst = 0.0
    for d_x in GRID_DXS:
        for alpha in GRID_ALPHAS:
            oracle = oracle_cache("random_mask", d_x, alpha)
            dec = decomp_cache("random_mask", d_x, alpha)
            law = sorted((((1 - alpha) ** k)
                          for k in range(d_x + 1)
                          for _ in range(math.comb(d_x, k))), reverse=True)
            if not oracle.rank == dec.rank == len(law):
                worst = np.inf
                continue
            worst = max(worst,
                        float(np.max(np.abs(oracle.lambdas - np.array(law)))),
                        float(np.max(np.abs(dec.lambdas - oracle.lambdas))))
    report(3, "random-mask eigenvalue multiset law", worst <= 1e-8,
           f"worst multiset deviation {worst:.2e}")


def test_criterion_04_duality_reconstruction_trace(process_cache,
                                                   decomp_cache):
    worst_dual = worst_recon = worst_trace = 0.0
    for scheme in GRID_SCHEMES:
        for d_x in GRID_DXS:
            for alpha in GRID_ALPHAS:
                p = process_cache(scheme, d_x, alpha)
                dec = decomp_cache(scheme, d_x, alpha)
                certified = dec.lambdas > 1e-6
                back = apply_gamma_star(p, dec.phi[:, certified])
                back /= np.sqrt(dec.lambdas[certified])[None, :]
                diff = back - dec.psi[:, certified]
                worst_dual = max(worst_dual, float(np.sqrt(np.max(
                    np.sum(diff * diff * p.p_x[:, None], axis=0)))))
                B = (p.conditional_dense() * np.sqrt(p.p_x)[:, None]
                     / np.sqrt(p.p_a)[None, :]).T
                U = dec.phi * np.sqrt(p.p_a)[:, None]
                V = dec.psi * np.sqrt(p.p_x)[:, None]
                rebuilt = (U * np.sqrt(dec.lambdas)) @ V.T
                worst_recon = max(worst_recon,
                                  float(np.linalg.norm(B - rebuilt)))
                resid = abs(float(dec.lambdas.sum())
                            - (1.0 + chi_squared_mean_oracle(p)))
                worst_trace = max(worst_trace, resid)
    ok = worst_dual <= 1e-8 and worst_recon <= 1e-8 and worst_trace <= 1e-10
    report(4, "duality, reconstruction, trace identity on the whole grid",
           ok, f"duality {worst_dual:.2e}, reconstruction {worst_recon:.2e}, "
               f"trace {worst_trace:.2e}")


def test_criterion_05_objective_landscapes(distinct_pair, process_cache,
                                           decomp_cache):
    p1, d1 = distinct_pair
    p2 = process_cache("random_mask", 3, 0.5)
    d2 = decomp_cache("random_mask", 3, 0.5)
    p3 = build_hypercube(HypercubeConfig(2, 0.3, "random_mask"))
    d3 = decompose(p3)
    cases = [(p1, d1, 2), (p2, d2, 1), (p3, d3, 3)]
    worst_loss = worst_angle = worst_clip = 0.0
    for process, dec, d in cases:
        assert dec.eigenvalue(d) - dec.eigenvalue(d + 1) >= 0.05
        scl_target = -float((dec.lambdas[:d] ** 2).sum())
        clip_target = -float(dec.lambdas[:d].sum())
        for seed in range(5):
            run = ob.minimize(
                ob.ObjectiveSpec("scl", d), process,
                ob.OptimizerConfig(learning_rate=0.4, max_iters=8000,
                                   grad_tol=2e-6, seed=seed))
            worst_loss = max(worst_loss, abs(run.final_loss - scl_target))
            worst_angle = max(worst_angle,
                              ob.subspace_angle(run.phi_hat, dec, d))
            clip = ob.minimize(
                ob.ObjectiveSpec("sclip", d), process,
                ob.OptimizerConfig(learning_rate=0.3, max_iters=10000,
                                   grad_tol=2e-6, seed=seed))
            worst_clip = max(worst_clip, abs(clip.final_loss - clip_target))

    _, trace_g = ob.rbt_penalty_path(
        p1, 2, alpha_w=1.0,
        opt=ob.OptimizerConfig(learning_rate=0.1, max_iters=15000,
                               grad_tol=1e-9, seed=2))
    rbt_expected = float((1.0 / d1.lambdas[:2]).sum())
    rbt_rel = abs(trace_g - rbt_expected) / rbt_expected

    # analytic gradients against central differences at 20 seeded points
    rng = np.random.default_rng(123)
    h = 1e-5
    worst_grad = 0.0
    specs = [ob.ObjectiveSpec("scl", 2),
             ob.ObjectiveSpec("rbt", 2, alpha_w=0.7, beta_w=0.2),
             ob.ObjectiveSpec("vicreg", 2, beta_w=0.9),
             ob.ObjectiveSpec("sclip", 2)]
    for spec in specs:
        columns = (p1.n_a, p1.n_x) if spec.kind == "sclip" else (p1.n_a,)
        for _ in range(5):
            point = tuple(rng.normal(size=(2, n)) for n in columns)
            value, grad = ob.value_grad(spec, p1, point)
            flat = np.concatenate([q.ravel() for q in point])
            grads = np.concatenate([g.ravel() for g in grad])

            def evaluate(vec, spec=spec, shapes=[q.shape for q in point]):
                parts, i = [], 0
                for s in shapes:
                    n = int(np.prod(s))
                    parts.append(vec[i:i + n].reshape(s))
                    i += n
                return ob.value_grad(spec, p1, tuple(parts))[0]
            numeric = np.empty_like(flat)
            for i in range(flat.size):
                up, down = flat.copy(), flat.copy()
                up[i] += h
                down[i] -= h
                numeric[i] = (evaluate(up) - evaluate(down)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(grads))))
            worst_grad = max(worst_grad,
                             float(np.max(np.abs(numeric - grads))) / scale)

    ok = (worst_loss <= 1e-4 and worst_angle <= 1e-2 and worst_clip <= 1e-4
          and rbt_rel <= 0.01 and worst_grad <= 1e-5)
    report(5, "objective landscapes recover the top eigenspaces", ok,
           f"scl loss err {worst_loss:.1e}, angle {worst_angle:.1e}, "
           f"sclip err {worst_clip:.1e}, rbt rel {rbt_rel:.1e}, "
           f"grad rel {worst_grad:.1e}")


def test_criterion_06_trace_gap_optimality(distinct_pair, process_cache,
                                           decomp_cache):
    p1, d1 = distinct_pair
    p2 = process_cache("random_mask", 3, 0.5)
    d2 = decomp_cache("random_mask", 3, 0.5)
    worst_opt = 0.0
    for process, dec in ((p1, d1), (p2, d2)):
        for d in range(1, min(dec.rank, 5)):
            enc = optimal_encoder(dec, d)
            worst_opt = max(worst_opt,
                            abs(trace_gap(enc) - dec.eigenvalue(d + 1)))
    floor_ok = ceiling_ok = True
    rng = np.random.default_rng(60)
    for k in range(200):
        process, dec = (p1, d1) if k % 2 == 0 else (p2, d2)
        d = int(rng.integers(1, 4))
        table = rng.normal(size=(d, process.n_a))
        if rng.uniform() < 0.5:
            table = table + 1.0  # anchor half the draws near the constant
        enc = Encoder(table, dec)
        if trace_gap(enc) < dec.eigenvalue(d + 1) - 1e-9:
            floor_ok = False
        if ratio_trace(covariances(enc)) > partial_trace(dec, d) + 1e-9:
            ceiling_ok = False
    ok = worst_opt <= 1e-8 and floor_ok and ceiling_ok
    report(6, "trace-gap optimality, floor and ratio-trace ceiling", ok,
           f"optimal gap err {worst_opt:.2e}, floor {floor_ok}, "
           f"ceiling {ceiling_ok}")


def test_criterion_07_near_optimal_rate(process_cache, decomp_cache):
    process = process_cache("random_mask", 4, 0.5)
    dec = decomp_cache("random_mask", 4, 0.5)
    d = 3
    kappa_sq = float(brute_diagonal(process).max())
    s_next = partial_trace(dec, d + 1)
    lam_next = dec.eigenvalue(d + 1)
    lam_d = dec.eigenvalue(d)
    z = 2.0 + math.sqrt(2.0 * math.log(2.0 / 0.05))

    # Oracle reference space: eigh of the p_a-whitened |A|x|A| matrix B B^T
    # (B as in criterion 04), closed at the tie block holding lambda_d.  Here
    # d = 3 splits the fourfold lambda = 1/2 block, so the top-d space is not
    # unique and the reference has k = 5 dimensions.
    sqrt_pa = np.sqrt(process.p_a)
    B = (process.conditional_dense() * np.sqrt(process.p_x)[:, None]
         / sqrt_pa[None, :]).T
    mu, vecs = np.linalg.eigh(B @ B.T)
    mu, vecs = mu[::-1], vecs[:, ::-1]
    k = int(np.count_nonzero(mu >= mu[d - 1] - 1e-10))
    U = vecs[:, :k]
    sandwich_gap = float(mu[d - 1] - mu[k])

    # The ratio trace is stationary at the top eigenspace, so the excess gap
    # is second order in the subspace error: it decays near N^-1.  The paper's
    # N^-1/2 order is carried by the first-order quantity ||sin Theta||_F,
    # which is what the rate window applies to.  The excess gap is tied to it
    # by Ky Fan and von Neumann: excess >= (lambda_d - lambda_{k+1}) sin^2.
    ns = [2**j for j in range(6, 13)]
    medians = []
    sin_medians = []
    contained = True
    nonneg = True
    min_margin = np.inf
    for N in ns:
        gaps = []
        sines = []
        for s in range(20):
            emp = empirical_decomposition(dec, N, seed=17 * N + s)
            enc = near_optimal_encoder(emp, d)
            cov = covariances(enc)
            gap = s_next - ratio_trace(cov) - lam_next
            gaps.append(gap)
            if gap < -1e-12:
                nonneg = False
            rhs = lam_next + z * (
                1.0 / lam_d
                + math.sqrt(cov.gamma_g) / float(emp.lambdas_bar[d - 1])
                + 2.0) * kappa_sq * d / math.sqrt(N)
            if not gap <= rhs:
                contained = False
            Q, _ = np.linalg.qr((enc.phi_hat * sqrt_pa[None, :]).T)
            sin_sq = max(d - float(np.sum((U.T @ Q) ** 2)), 0.0)
            sines.append(math.sqrt(sin_sq))
            min_margin = min(min_margin, gap - sandwich_gap * sin_sq)
        medians.append(float(np.median(gaps)))
        sin_medians.append(float(np.median(sines)))
    sin_slope = fit_loglog_slope(ns, sin_medians)
    gap_slope = fit_loglog_slope(ns, medians)
    slope_ok = -0.75 <= sin_slope <= -0.25
    twice_ok = abs(gap_slope - 2.0 * sin_slope) <= 0.25
    sandwich_ok = min_margin >= -1e-12
    ok = slope_ok and twice_ok and sandwich_ok and contained and nonneg
    report(7, "near-optimal subspace rate and trace-gap containment", ok,
           f"sin-theta slope {sin_slope:.3f} vs window [-0.75, -0.25], "
           f"excess-gap slope {gap_slope:.3f} vs twice {2 * sin_slope:.3f}, "
           f"min sandwich margin {min_margin:.1e}, "
           f"containment {contained}, nonneg {nonneg}")


def test_criterion_08_approximation_bound_soundness(distinct_pair, process_cache,
                                        decomp_cache):
    pool = [
        distinct_pair,
        (process_cache("random_mask", 3, 0.5),
         decomp_cache("random_mask", 3, 0.5)),
        (process_cache("block_mask", 4, 0.5),
         decomp_cache("block_mask", 4, 0.5)),
        (process_cache("block_mask_flip", 4, 0.3),
         decomp_cache("block_mask_flip", 4, 0.3)),
    ]
    rng = np.random.default_rng(808)
    checked = 0
    violations = 0
    seed = 0
    while checked < 1000:
        process, dec = pool[checked % len(pool)]
        d = int(rng.integers(1, 4))
        table = 1.0 + 0.5 * rng.normal(size=(d, process.n_a))
        enc = Encoder(table, dec)
        tau_sq = trace_gap(enc)
        seed += 1
        if tau_sq >= 1.0:
            continue
        eps = float(rng.uniform(0.05, 0.4))
        B = float(rng.uniform(0.5, 2.0))
        target = rg.sample_target(dec, B, eps, seed=seed)
        _, err = rg.project_fpsi(target, enc)
        tau = math.sqrt(tau_sq)
        bound = tau_sq * (tau + eps) * B * B / ((1 - tau_sq) * (1 - eps))
        if err > bound + 1e-9:
            violations += 1
        checked += 1
    report(8, "approximation bound sound on 1000 seeded triples",
           violations == 0, f"{violations} violations in {checked} triples")


def test_criterion_09_worst_case_equality(distinct_pair, process_cache,
                                          decomp_cache):
    cases = [
        (distinct_pair, 1),
        ((process_cache("random_mask", 3, 0.5),
          decomp_cache("random_mask", 3, 0.5)), 1),
        ((build_hypercube(HypercubeConfig(2, 0.3, "random_mask")), None), 3),
    ]
    worst = 0.0
    tested = 0
    for (process, dec), d in cases:
        if dec is None:
            dec = decompose(process)
        for eps in (0.05, 0.1, 0.2):
            lam = dec.eigenvalue(d + 1)
            assert (lam / (1 - lam)) * (eps / (1 - eps)) <= 0.5
            B = 1.3
            target = rg.worst_case_target(dec, d, B=B, epsilon=eps)
            enc = optimal_encoder(dec, d)
            _, err = rg.project_fpsi(target, enc)
            expected = (lam / (1 - lam)) * (eps / (1 - eps)) * B * B
            worst = max(worst, abs(err - expected))
            tested += 1
    report(9, "worst-case target attains the lower bound exactly",
           worst <= 1e-8, f"worst equality err {worst:.2e} over {tested}")


def test_criterion_10_regression_behavior(process_cache, decomp_cache):
    process = process_cache("random_mask", 3, 0.5)
    dec = decomp_cache("random_mask", 3, 0.5)
    enc = optimal_encoder(dec, 3)

    # noiseless in-span recovery
    w_true = np.array([0.4, -0.3, 0.2])
    values = enc.psi_hat.T @ w_true
    rng = np.random.default_rng(10)
    idx = rng.integers(0, process.n_x, size=48)
    fit = rg.fit_least_squares(enc, (idx, values[idx]), B=10.0, epsilon=0.2)
    recovery = float(np.sum((fit.f_hat_values - values) ** 2
                            * process.p_x))

    # population limit equals the projection, giving the Pythagorean split
    target = rg.sample_target(dec, 1.0, 0.2, seed=0)
    pop = rg.fit_least_squares_population(enc, target.values, B=5.0,
                                          epsilon=0.2)
    f_psi, _ = rg.project_fpsi(target, enc)
    projection_gap = float(np.max(np.abs(pop.f_hat_values - f_psi)))
    labels = rg.generate_labels(target, 128, 0.25, seed=1)
    noisy = rg.fit_least_squares(enc, labels, B=1.0, epsilon=0.2)
    pred_err, approx_err, est_err = rg.probe_errors(noisy, target)
    pythagoras = abs(pred_err - (est_err + approx_err))

    # estimation-error rate in the number of labels
    B, eps, sigma = 1.0, 0.2, 0.1
    target = rg.sample_target(dec, B, eps, seed=0)
    f_psi, _ = rg.project_fpsi(target, enc)
    ns = [2**k for k in range(5, 12)]
    medians = []
    for n in ns:
        errs = []
        for s in range(20):
            lab = rg.generate_labels(target, n, sigma,
                                     seed=31 * n + s)
            f = rg.fit_least_squares(enc, lab, B, eps)
            diff = f.f_hat_values - f_psi
            errs.append(float(np.sum(diff * diff * process.p_x)))
        medians.append(float(np.median(errs)))
    slope = fit_loglog_slope(ns, medians)

    ok = (recovery <= 1e-12 and projection_gap <= 1e-8
          and pythagoras <= 1e-8 and -1.3 <= slope <= -0.7)
    report(10, "regression recovery, projection limit, estimation rate", ok,
           f"recovery {recovery:.1e}, projection gap {projection_gap:.1e}, "
           f"pythagoras {pythagoras:.1e}, slope {slope:.3f}")


def test_criterion_11_monte_carlo_estimator(process_cache):
    worst_rel = 0.0
    for scheme in GRID_SCHEMES:
        process = process_cache(scheme, 4, 0.5)
        exact = kappa_exact(decompose(process)).kappa_sq_percentile
        est = kappa_monte_carlo(process, m=process.n_x, r=10**5, seed=7)
        worst_rel = max(worst_rel, abs(est.estimate - exact) / exact)
        again = kappa_monte_carlo(process, m=process.n_x, r=10**5, seed=7)
        assert again.estimate == est.estimate
        assert again.standard_error == est.standard_error
    report(11, "Monte-Carlo percentile within 5% and deterministic",
           worst_rel <= 0.05, f"worst rel err {worst_rel:.3f}")


def test_criterion_12_figure_data_and_monotonicity():
    header, rows = figure_4a_data()
    worst = 0.0
    for i, row in enumerate(rows):
        a = i / 100.0
        worst = max(worst, abs(row["random_mask"] - (2.0 - a)))
        worst = max(worst, abs(row["block_mask"] - 2.0 ** (1.0 - a)))
        worst = max(worst,
                    abs(row["block_mask_flip"]
                        - (a * a - 2 * a + 2.0) ** (1.0 - a / 2.0)))
    curves_ok = len(rows) == 101 and worst <= 1e-12
    monotone_ok = True
    alphas = [round(0.05 * k, 2) for k in range(1, 17)]
    for scheme in ("random_mask", "block_mask", "block_mask_flip",
                   "random_mask_flip"):
        values = []
        for alpha in alphas:
            p = build_hypercube(HypercubeConfig(4, alpha, scheme))
            values.append(float(brute_diagonal(p).max()))
        if not np.all(np.diff(values) <= 1e-9):
            monotone_ok = False
    ok = curves_ok and monotone_ok
    report(12, "figure curves exact and complexity monotone in mask ratio",
           ok, f"curve err {worst:.1e}, monotone {monotone_ok}")
