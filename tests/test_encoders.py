import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from augrkhs import encoders
from augrkhs.complexity import partial_trace
from augrkhs.encoders import (
    CovariancePair,
    build_average_encoder,
    covariances,
    empirical_decomposition,
    empirical_ratio_trace,
    learned_kernel,
    load_encoder,
    near_optimal_encoder,
    optimal_encoder,
    pencil_eigenvalues,
    population_empirical_decomposition,
    ratio_trace,
    save_encoder,
    trace_gap,
)
from augrkhs.exceptions import RankDeficiencyError, ValidationError
from augrkhs.processes import HypercubeConfig, build_custom, build_hypercube
from augrkhs.spectral import decompose


@pytest.fixture(scope="module")
def distinct():
    """A four-state process with fully distinct eigenvalues."""
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
    assert np.min(-np.diff(dec.lambdas)) > 0.1  # genuinely distinct
    return process, dec


def projector(columns, weights):
    """Orthogonal projector onto the span under a weighted inner product."""
    W = columns * np.sqrt(weights)[:, None]
    Q, _ = np.linalg.qr(W)
    return Q @ Q.T


def test_average_encoder_duality_rows(small_process, small_decomposition):
    dec = small_decomposition
    enc = build_average_encoder(dec, dec.phi[:, :3].T)
    for i in range(3):
        expected = np.sqrt(dec.lambdas[i]) * dec.psi[:, i]
        np.testing.assert_allclose(enc.psi_hat[i], expected, atol=1e-10)


def test_average_encoder_constant_row(small_process, small_decomposition):
    enc = build_average_encoder(
        small_decomposition, 2.5 * np.ones((1, small_process.n_a)))
    np.testing.assert_allclose(enc.psi_hat, 2.5, atol=1e-12)


def test_average_encoder_matches_direct_sum(small_process,
                                            small_decomposition):
    rng = np.random.default_rng(9)
    table = rng.normal(size=(3, small_process.n_a))
    enc = build_average_encoder(small_decomposition, table)
    dense = small_process.conditional_dense()
    expected = np.zeros((3, small_process.n_x))
    for i in range(3):
        for x in range(small_process.n_x):
            expected[i, x] = float(np.sum(table[i] * dense[x]))
    np.testing.assert_allclose(enc.psi_hat, expected, atol=1e-12)


def test_rank_deficiency_error_names_value(small_process,
                                           small_decomposition):
    table = np.vstack([np.ones(small_process.n_a),
                       np.ones(small_process.n_a)])
    with pytest.raises(RankDeficiencyError, match="singular value"):
        build_average_encoder(small_decomposition, table)


def _scaled_pencil(seed, d, g_cond, exponents):
    """A random SPD pencil ``(F, G)``, congruent by ``diag(2^-k)`` to one
    whose ``G`` has condition about ``g_cond``.

    A power-of-two congruence leaves the pencil's eigenvalues and every
    rounding of a Cholesky reduction unchanged while it drives the
    condition of ``G`` up; on a generic pencil that ill-conditioned, any
    two solvers agree only to about ``eps * cond(G)``.
    """
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    G0 = (Q * np.logspace(0, -np.log10(g_cond), d)) @ Q.T
    B = rng.normal(size=(d, d + 1))
    s = 2.0 ** -np.asarray(exponents, dtype=float)
    F = (B @ B.T) * s[:, None] * s[None, :]
    G = 0.5 * (G0 + G0.T) * s[:, None] * s[None, :]
    return CovariancePair(F=F, G=G, gamma_g=float(np.linalg.cond(G)))


def _assert_pencil_matches_scipy(cov):
    oracle = sla.eigh(cov.F, cov.G, eigvals_only=True)[::-1]  # the oracle
    mu = pencil_eigenvalues(cov)
    assert mu.shape == oracle.shape
    assert np.all(np.diff(mu) <= 0)
    assert np.max(np.abs(mu - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.floats(1.0, 1e3),
       st.lists(st.integers(0, 19), min_size=10, max_size=10))
def test_pencil_eigenvalues_match_the_scipy_oracle(seed, d, g_cond, exponents):
    _assert_pencil_matches_scipy(
        _scaled_pencil(seed, d, g_cond, exponents[:d]))


@pytest.mark.parametrize("seed", range(5))
def test_pencil_eigenvalues_near_the_condition_limit(seed):
    cov = _scaled_pencil(seed, 6, 10.0, [0, 19, 3, 11, 18, 0])
    assert 1e11 < cov.gamma_g < encoders._CONDITION_LIMIT
    _assert_pencil_matches_scipy(cov)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.sampled_from(["independent", "duplicate", "scaled"]),
       st.sampled_from([1e-2, 1e-4, 1e-5, 1e-6, 1e-8]))
def test_rank_check_matches_the_scipy_oracle(small_process, small_decomposition,
                                             seed, rows, kind, scale):
    table = np.random.default_rng(seed).normal(size=(rows, small_process.n_a))
    if kind == "duplicate" and rows > 1:
        table[-1] = scale * table[0]
    elif kind == "scaled":
        table[-1] *= scale
    G = encoders.gram_a(small_process, table)
    # the parent check, scipy's gesdd singular values, is the oracle
    if np.min(sla.svdvals(G)) <= encoders._GRAM_RANK_TOL:
        with pytest.raises(RankDeficiencyError, match="singular value"):
            build_average_encoder(small_decomposition, table)
    else:
        build_average_encoder(small_decomposition, table)


def test_covariances_of_optimal_encoder(small_decomposition):
    enc = optimal_encoder(small_decomposition, 4)
    cov = covariances(enc)
    np.testing.assert_allclose(cov.G, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(cov.F, np.diag(small_decomposition.lambdas[:4]),
                               atol=1e-10)
    assert cov.gamma_g == pytest.approx(1.0, abs=1e-9)


def test_covariance_normalized_matrix_contracts(small_process,
                                                small_decomposition):
    rng = np.random.default_rng(17)
    for _ in range(20):
        table = rng.normal(size=(3, small_process.n_a))
        cov = covariances(build_average_encoder(small_decomposition, table))
        inv_sqrt = np.linalg.inv(np.linalg.cholesky(cov.G))
        normalized = inv_sqrt @ cov.F @ inv_sqrt.T
        eigs = np.linalg.eigvalsh(normalized)
        assert eigs.min() >= -1e-10
        assert eigs.max() <= 1.0 + 1e-9


def test_ratio_trace_top_d_and_constant(small_decomposition):
    dec = small_decomposition
    top = optimal_encoder(dec, 4)
    assert ratio_trace(covariances(top)) == pytest.approx(
        partial_trace(dec, 4), abs=1e-9)
    const = optimal_encoder(dec, 1)
    assert ratio_trace(covariances(const)) == pytest.approx(1.0, abs=1e-10)


def test_ratio_trace_matches_independent_solve(small_process,
                                               small_decomposition):
    rng = np.random.default_rng(23)
    table = rng.normal(size=(2, small_process.n_a))
    cov = covariances(build_average_encoder(small_decomposition, table))
    oracle = float(np.trace(np.linalg.inv(cov.G) @ cov.F))
    assert ratio_trace(cov) == pytest.approx(oracle, rel=1e-10)


def test_ratio_trace_scale_invariance(small_process, small_decomposition):
    rng = np.random.default_rng(31)
    table = rng.normal(size=(3, small_process.n_a))
    base = ratio_trace(covariances(
        build_average_encoder(small_decomposition, table)))
    doubled = ratio_trace(covariances(
        build_average_encoder(small_decomposition, 2.0 * table)))
    assert doubled == pytest.approx(base, rel=1e-10)


def test_ratio_trace_ceiling_seeded(small_process, small_decomposition):
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        table = rng.normal(size=(d, small_process.n_a))
        rt = ratio_trace(covariances(
            build_average_encoder(small_decomposition, table)))
        assert rt <= partial_trace(small_decomposition, d) + 1e-9


def test_trace_gap_optimal_is_next_eigenvalue(small_decomposition):
    dec = small_decomposition
    for d in (1, 2, 4, 7):
        enc = optimal_encoder(dec, d)
        assert trace_gap(enc) == pytest.approx(dec.eigenvalue(d + 1),
                                               abs=1e-8)


def test_trace_gap_constant_encoder_dx2():
    p = build_hypercube(HypercubeConfig(2, 0.5, "random_mask"))
    dec = decompose(p)
    enc = build_average_encoder(dec, np.ones((1, p.n_a)))
    assert trace_gap(enc) == pytest.approx(0.5, abs=1e-10)


def test_trace_gap_skipping_second_eigenfunction(distinct):
    process, dec = distinct
    table = dec.phi[:, [0, 2]].T  # spans the first and third eigenfunctions
    enc = build_average_encoder(dec, table)
    assert trace_gap(enc) == pytest.approx(dec.eigenvalue(2), abs=1e-8)


def test_trace_gap_sandwich_seeded(small_process, small_decomposition):
    rng = np.random.default_rng(13)
    dec = small_decomposition
    for _ in range(50):
        d = int(rng.integers(1, 5))
        table = rng.normal(size=(d, small_process.n_a))
        enc = build_average_encoder(dec, table)
        tg = trace_gap(enc)
        rt = ratio_trace(covariances(enc))
        assert tg >= dec.eigenvalue(d + 1) - 1e-9
        assert tg <= partial_trace(dec, d + 1) - rt + 1e-9


def test_invariance_under_invertible_mixing(small_process,
                                            small_decomposition):
    rng = np.random.default_rng(41)
    table = rng.normal(size=(3, small_process.n_a))
    enc = build_average_encoder(small_decomposition, table)
    base_rt = ratio_trace(covariances(enc))
    base_tg = trace_gap(enc)
    for _ in range(5):
        while True:
            M = rng.normal(size=(3, 3))
            if abs(np.linalg.det(M)) > 0.1:
                break
        mixed = build_average_encoder(small_decomposition, M @ table)
        assert ratio_trace(covariances(mixed)) == pytest.approx(
            base_rt, abs=1e-8)
        assert trace_gap(mixed) == pytest.approx(base_tg, abs=1e-8)


def test_learned_kernel_constant_encoder(small_process, small_decomposition):
    enc = build_average_encoder(small_decomposition,
                                np.ones((1, small_process.n_a)))
    np.testing.assert_allclose(learned_kernel(enc), 1.0, atol=1e-10)


def test_learned_kernel_top_d_expansion(small_decomposition):
    dec = small_decomposition
    enc = optimal_encoder(dec, 4)
    expected = (dec.psi[:, :4] * dec.lambdas[:4]) @ dec.psi[:, :4].T
    np.testing.assert_allclose(learned_kernel(enc), expected, atol=1e-9)


def test_learned_kernel_full_span_recovers_kernel(small_decomposition):
    from augrkhs.spectral import kernel_x
    dec = small_decomposition
    enc = optimal_encoder(dec, dec.rank)
    np.testing.assert_allclose(learned_kernel(enc),
                               kernel_x(dec.process), atol=1e-8)


def test_learned_kernel_reproducing_property(small_decomposition):
    # for f in the span, the H-inner product against the kernel section
    # evaluates f; coefficients taken over the eigenbasis
    dec = small_decomposition
    p = dec.process
    rng = np.random.default_rng(3)
    mix = rng.normal(size=(3, 4))
    enc = build_average_encoder(dec, mix @ dec.phi[:, :4].T)
    K = learned_kernel(enc)
    w = rng.normal(size=3)
    f = enc.psi_hat.T @ w
    f_coeff = (dec.psi * p.p_x.mass[:, None]).T @ f
    for x in (0, 3, 7):
        section_coeff = (dec.psi * p.p_x.mass[:, None]).T @ K[x]
        h_inner = float(np.sum(f_coeff * section_coeff / dec.lambdas))
        assert h_inner == pytest.approx(f[x], abs=1e-8)


def test_optimal_encoder_projector_and_errors(small_decomposition):
    dec = small_decomposition
    enc = optimal_encoder(dec, 4)
    # spans constant plus the three single-coordinate parities
    got = projector(enc.phi_hat.T, dec.process.p_a.mass)
    want = projector(dec.phi[:, :4], dec.process.p_a.mass)
    assert np.linalg.norm(got - want) <= 1e-8
    with pytest.raises(ValidationError):
        optimal_encoder(dec, dec.rank + 1)


def test_condition_number_guard(small_process, small_decomposition):
    base = np.ones((1, small_process.n_a))
    eps_row = base + 1e-9 * np.arange(small_process.n_a)
    with pytest.raises(RankDeficiencyError):
        covariances(build_average_encoder(
            small_decomposition, np.vstack([base, eps_row])))


def test_empirical_full_population_matches(small_process,
                                           small_decomposition):
    emp = population_empirical_decomposition(small_process)
    np.testing.assert_allclose(emp.lambdas_bar, small_decomposition.lambdas,
                               atol=1e-9)
    assert abs(emp.p_a_hat.sum() - 1.0) <= 1e-12


def test_population_empirical_shares_the_decompose_engine(small_process,
                                                          distinct):
    # every point once, weighted by p_x: the same engine as decompose
    for process in (small_process, distinct[0]):
        dec = decompose(process)
        emp = population_empirical_decomposition(process)
        assert emp.rank == dec.rank
        np.testing.assert_allclose(emp.lambdas_bar, dec.lambdas, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(emp.psi_bar[:, 0], dec.psi[:, 0], rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(emp.phi_bar[:, 0], dec.phi[:, 0], rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(dec.psi[:, 0], 1.0, rtol=0, atol=1e-12)


def _oracle_empirical_svd(process, indices, weights, rank_tol=1e-10):
    """Test oracle: one SVD over all N weighted sample rows, duplicates kept.

    Independent of the package's solve on the distinct points; returns the
    eigenvalues above ``rank_tol``, every squared singular value, and
    ``phi`` on the augmentations the sample reaches.
    """
    rows = process.conditional_dense()[indices]
    p_a_hat = weights @ rows
    kept = np.nonzero(p_a_hat > 0.0)[0]
    B = (rows[:, kept] * np.sqrt(weights)[:, None]
         / np.sqrt(p_a_hat[kept])[None, :]).T
    U, s, _ = np.linalg.svd(B, full_matrices=False)
    squares = s * s
    rank = int(np.count_nonzero(squares > rank_tol))
    phi = np.zeros((process.n_a, rank))
    phi[kept] = U[:, :rank] / np.sqrt(p_a_hat[kept])[:, None]
    return squares[:rank], squares, phi


@st.composite
def sampled_custom_processes(draw):
    """A random custom process and an N-draw sample heavy in duplicates."""
    n_x, n_a = draw(st.integers(2, 12)), draw(st.integers(2, 20))
    N = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.dirichlet(np.ones(n_a), size=n_x)
    triples = [(i, j, table[i, j]) for i in range(n_x) for j in range(n_a)]
    process, _ = build_custom(n_x, n_a, rng.dirichlet(np.ones(n_x)), triples)
    return process, N, int(rng.integers(2**31))


@settings(max_examples=40, deadline=None)
@given(sampled_custom_processes())
def test_empirical_route_matches_all_rows_svd_oracle(case):
    process, N, seed = case
    emp = empirical_decomposition(process, N, seed=seed)
    lambdas, squares, phi = _oracle_empirical_svd(
        process, emp.sample_indices, emp.weights)
    assert emp.rank == lambdas.size
    np.testing.assert_allclose(emp.lambdas_bar, lambdas, rtol=0, atol=1e-12)
    # top-k spans agree wherever the k-th eigenvalue ends at a clear gap
    w = np.sqrt(emp.p_a_hat)[:, None]
    following = np.append(squares[1:], 0.0)
    for k in range(1, emp.rank + 1):
        if squares[k - 1] - following[k - 1] <= 1e-8:
            continue
        got, want = w * emp.phi_bar[:, :k], w * phi[:, :k]
        np.testing.assert_allclose(got @ got.T, want @ want.T, rtol=0,
                                   atol=1e-10)
    for point in np.unique(emp.sample_indices):
        same = emp.psi_bar[emp.sample_indices == point]
        assert np.array_equal(same, np.broadcast_to(same[0], same.shape))
    gram_x = (emp.psi_bar * emp.weights[:, None]).T @ emp.psi_bar
    gram_a = (emp.phi_bar * emp.p_a_hat[:, None]).T @ emp.phi_bar
    np.testing.assert_allclose(gram_x, np.eye(emp.rank), rtol=0, atol=1e-8)
    np.testing.assert_allclose(gram_a, np.eye(emp.rank), rtol=0, atol=1e-8)


def test_empirical_single_sample():
    p = build_hypercube(HypercubeConfig(2, 0.5, "random_mask"))
    emp = empirical_decomposition(p, N=1, seed=0)
    assert emp.rank == 1
    assert emp.lambdas_bar[0] == pytest.approx(1.0, abs=1e-9)


def test_empirical_determinism(small_process):
    a = empirical_decomposition(small_process, N=32, seed=5)
    b = empirical_decomposition(small_process, N=32, seed=5)
    np.testing.assert_array_equal(a.sample_indices, b.sample_indices)
    np.testing.assert_array_equal(a.lambdas_bar, b.lambdas_bar)
    np.testing.assert_array_equal(a.phi_bar, b.phi_bar)


def test_empirical_invariants(small_process):
    emp = empirical_decomposition(small_process, N=64, seed=21)
    assert abs(emp.p_a_hat.sum() - 1.0) <= 1e-12
    assert emp.lambdas_bar[0] <= 1.0 + 1e-9
    assert np.all(np.diff(emp.lambdas_bar) <= 1e-12)
    gram = (emp.phi_bar * emp.p_a_hat[:, None]).T @ emp.phi_bar
    np.testing.assert_allclose(gram, np.eye(emp.rank), atol=1e-8)


def test_near_optimal_full_population_equals_optimal(small_process,
                                                     small_decomposition):
    dec = small_decomposition
    emp = population_empirical_decomposition(small_process)
    ne = near_optimal_encoder(emp, 4, dec)
    got = projector(ne.phi_hat.T, small_process.p_a.mass)
    want = projector(dec.phi[:, :4], small_process.p_a.mass)
    assert np.linalg.norm(got - want) <= 1e-8
    gap = (partial_trace(dec, 5)
           - ratio_trace(covariances(ne)) - dec.eigenvalue(5))
    assert abs(gap) <= 1e-8


def test_near_optimal_first_row_constant(small_process, small_decomposition):
    emp = empirical_decomposition(small_process, N=48, seed=2)
    ne = near_optimal_encoder(emp, 1, small_decomposition)
    seen = emp.p_a_hat > 0
    np.testing.assert_allclose(ne.phi_hat[0, seen], 1.0, atol=1e-8)
    with pytest.raises(ValidationError):
        near_optimal_encoder(emp, emp.rank + 1, small_decomposition)


def test_near_optimal_refuses_another_process(small_process, decomp_cache):
    emp = empirical_decomposition(small_process, N=48, seed=2)
    # the same scheme built again is a different process
    other = decompose(build_hypercube(HypercubeConfig(3, 0.5, "random_mask")))
    for dec in (decomp_cache("block_mask", 4, 0.5), other):
        with pytest.raises(ValidationError, match="different processes"):
            near_optimal_encoder(emp, 1, dec)


def test_empirical_ratio_trace_identity(small_process, small_decomposition):
    emp = empirical_decomposition(small_process, N=64, seed=3)
    for d in (1, 2, 4):
        ne = near_optimal_encoder(emp, d, small_decomposition)
        expected = float(emp.lambdas_bar[:d].sum())
        assert empirical_ratio_trace(ne, emp) == pytest.approx(expected,
                                                               abs=1e-8)


def test_empirical_ratio_trace_population_limit(small_process,
                                                small_decomposition):
    emp = population_empirical_decomposition(small_process)
    rng = np.random.default_rng(19)
    table = rng.normal(size=(3, small_process.n_a))
    enc = build_average_encoder(small_decomposition, table)
    empirical = empirical_ratio_trace(enc, emp)
    population = ratio_trace(covariances(enc))
    assert empirical == pytest.approx(population, abs=1e-8)


def test_concentration_trend_median_nonincreasing(small_process,
                                                  small_decomposition):
    # fixed encoder; the empirical-vs-population ratio trace gap shrinks in N.
    # medians of 20 runs are noisy, so the master seed is frozen to a value
    # verified to exhibit the trend
    rng = np.random.default_rng(0)
    table = rng.normal(size=(3, small_process.n_a))
    enc = build_average_encoder(small_decomposition, table)
    population = ratio_trace(covariances(enc))
    medians = []
    for exponent in range(6, 13):
        gaps = []
        for seed in range(20):
            emp = empirical_decomposition(small_process, 2**exponent,
                                          seed=7777 + seed)
            gaps.append(abs(empirical_ratio_trace(enc, emp) - population))
        medians.append(float(np.median(gaps)))
    assert np.all(np.diff(medians) <= 1e-12), medians


def test_encoder_save_load_roundtrip(tmp_path, small_process,
                                     small_decomposition):
    rng = np.random.default_rng(8)
    table = rng.normal(size=(2, small_process.n_a))
    enc = build_average_encoder(small_decomposition, table)
    path = tmp_path / "encoder.csv"
    save_encoder(path, enc)
    header = path.read_text().splitlines()[0]
    assert header == f"2 {small_process.n_a}"
    loaded = load_encoder(path, small_decomposition)
    np.testing.assert_allclose(loaded.phi_hat, enc.phi_hat, rtol=1e-15)
    np.testing.assert_allclose(loaded.psi_hat, enc.psi_hat, rtol=1e-12)
