import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from augrkhs.exceptions import ValidationError
from augrkhs.objectives import (
    ObjectiveSpec,
    OptimizerConfig,
    minimize,
    optimal_loss,
    rbt_penalty_path,
    subspace_angle,
    value_grad,
)
from augrkhs.processes import (
    SCHEMES,
    AugmentationProcess,
    HypercubeConfig,
    build_custom,
    build_hypercube,
    sample_process,
)
from augrkhs.spectral import decompose
from conftest import stored_by_density


# Oracle inputs: the dense laws that the objectives never form.  The losses
# apply them through the conditional table; these tests sum over them.
def pair_distribution(process):
    """Joint law ``P+`` of two augmentations of one original, ``|A| x |A|``."""
    C = process.conditional_dense()
    return (C * process.p_x[:, None]).T @ C


def joint_distribution(process):
    """Joint law ``p(a, x) = p(a|x) p_x(x)`` as an ``|A| x |X|`` array."""
    return (process.conditional_dense() * process.p_x[:, None]).T


@pytest.fixture(scope="module")
def pair():
    process = build_hypercube(HypercubeConfig(2, 0.5, "random_mask"))
    return process, decompose(process)


@pytest.fixture(scope="module")
def gapped():
    """Process with distinct eigenvalues; clean minimizer recovery."""
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


def test_objective_spec_validation():
    with pytest.raises(ValidationError):
        ObjectiveSpec("nce", 2)
    spec = ObjectiveSpec("rbt", 2)
    assert (spec.alpha_w, spec.beta_w) == (1.0, 1.0)
    with pytest.raises(ValidationError):
        ObjectiveSpec("vicreg", 2, beta_w=-1.0)
    ObjectiveSpec("rbt", 2, alpha_w=1.0, beta_w=0.1)


# kind -> the loss weights it reads, each of which must be nonnegative
_WEIGHTS_READ = {"scl": (), "sclip": (), "rbt": ("alpha_w", "beta_w"),
                 "vicreg": ("beta_w",)}


@pytest.mark.parametrize("kind", sorted(_WEIGHTS_READ))
def test_objective_spec_refuses_a_negative_weight_only_where_read(kind):
    for weight in ("alpha_w", "beta_w"):
        if weight in _WEIGHTS_READ[kind]:
            with pytest.raises(ValidationError, match="must be nonnegative"):
                ObjectiveSpec(kind, 2, **{weight: -1.0})
        else:
            assert getattr(ObjectiveSpec(kind, 2, **{weight: -1.0}),
                           weight) == -1.0


@pytest.mark.parametrize("scale", [0.0, -0.5])
def test_optimizer_config_refuses_a_nonpositive_init_scale(scale):
    # a zero start is a stationary point, a negative one an empty interval
    with pytest.raises(ValidationError, match="init_scale"):
        OptimizerConfig(init_scale=scale)


def scl_value(table, process):
    return value_grad(ObjectiveSpec("scl", table.shape[0]), process,
                      (table,))[0]


def test_scl_zero_encoder(pair):
    process, dec = pair
    assert scl_value(np.zeros((2, process.n_a)), process) == 0.0


def test_scl_single_eigenfunction(pair):
    process, dec = pair
    assert scl_value(dec.phi[:, :1].T, process) == pytest.approx(-1.0,
                                                              abs=1e-10)


def test_scl_scaled_top_d_reaches_floor(pair):
    process, dec = pair
    for d in (1, 2, 3):
        table = (dec.phi[:, :d] * np.sqrt(dec.lambdas[:d])).T
        expected = -float((dec.lambdas[:d] ** 2).sum())
        assert scl_value(table, process) == pytest.approx(expected, abs=1e-10)


def test_scl_on_a_sample_is_the_empirical_loss():
    # the sample process carries the empirical pretraining loss, whose floor
    # is reached at the empirical top-d eigenfunctions scaled by sqrt(lambda)
    process = build_hypercube(HypercubeConfig(4, 0.5, "block_mask"))
    for N, seed in ((8, 0), (64, 1), (512, 2)):
        dec = decompose(sample_process(process, N, seed)[0])
        for d in range(1, min(dec.rank, 4) + 1):
            table = (dec.phi[:, :d] * np.sqrt(dec.lambdas[:d])).T
            expected = -float((dec.lambdas[:d] ** 2).sum())
            assert scl_value(table, dec.process) == pytest.approx(expected,
                                                                  abs=1e-10)


def test_minimize_runs_on_a_sample():
    # convergence on a sample is not asserted here, only a monotone descent
    process = build_hypercube(HypercubeConfig(4, 0.5, "random_mask"))
    sample = sample_process(process, 64, 3)[0]
    opt = OptimizerConfig(learning_rate=0.5, max_iters=200, seed=1)
    result = minimize(ObjectiveSpec("scl", 3), sample, opt)
    assert result.phi_hat.shape == (3, sample.n_a)
    assert result.iterations > 0
    assert np.all(np.diff(result.losses) <= 0.0)


def test_scl_expansion_matches_direct(pair):
    # direct summation over positive pairs and independent pairs
    process, dec = pair
    p_a = process.p_a
    rng = np.random.default_rng(12)
    for _ in range(10):
        table = rng.normal(size=(3, process.n_a))
        inner = table.T @ table  # <phi(a), phi(a')> for every pair
        direct = (-2.0 * float(np.sum(inner * pair_distribution(process)))
                  + float(np.sum(inner * inner * np.outer(p_a, p_a))))
        assert scl_value(table, process) == pytest.approx(direct, abs=1e-9)


def test_scl_loss_floor_seeded(pair):
    process, dec = pair
    floor = -float((dec.lambdas ** 2).sum())
    rng = np.random.default_rng(4)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        table = rng.normal(size=(d, process.n_a)) * rng.uniform(0.1, 3.0)
        assert scl_value(table, process) >= floor - 1e-9


def sclip_value(table_a, table_x, process):
    return value_grad(ObjectiveSpec("sclip", table_a.shape[0]), process,
                      (table_a, table_x))[0]


def test_sclip_zero_and_optimal(pair):
    process, dec = pair
    zero_a = np.zeros((2, process.n_a))
    zero_x = np.zeros((2, process.n_x))
    assert sclip_value(zero_a, zero_x, process) == 0.0
    d = 2
    table_a = dec.phi[:, :d].T
    table_x = (dec.psi[:, :d] * np.sqrt(dec.lambdas[:d])).T
    expected = -float(dec.lambdas[:d].sum())
    assert sclip_value(table_a, table_x, process) == pytest.approx(expected,
                                                                   abs=1e-10)


def test_sclip_dimension_mismatch(pair):
    process, dec = pair
    with pytest.raises(ValidationError):
        sclip_value(np.zeros((2, process.n_a)), np.zeros((3, process.n_x)),
                    process)


def test_sclip_expansion_matches_direct(pair):
    # direct summation over the joint law and the product of the marginals
    process, dec = pair
    weights = np.outer(process.p_a, process.p_x)
    rng = np.random.default_rng(21)
    for _ in range(10):
        table_a = rng.normal(size=(2, process.n_a))
        table_x = rng.normal(size=(2, process.n_x))
        inner = table_a.T @ table_x  # <phi(a), xi(x)>, |A| x |X|
        direct = (-2.0 * float(np.sum(inner * joint_distribution(process)))
                  + float(np.sum(inner * inner * weights)))
        assert sclip_value(table_a, table_x, process) == pytest.approx(
            direct, abs=1e-9)


def test_sclip_inner_least_squares_projector_form(pair):
    # with the data side fixed at the top-d eigenfunctions, solving the
    # augmentation side in closed form leaves the tail energy
    process, dec = pair
    d = 2
    table_x = dec.psi[:, :d].T
    S = (table_x * process.p_x[None, :]) @ dec.psi  # = [I_d 0]
    joint_half = np.sqrt(dec.lambdas)
    # optimal C^T S = V (V^T V)^-1 V^T D^(1/2) with V = S^T; here V^T V = I
    V = S.T
    residual = (np.eye(dec.rank) - V @ V.T) @ np.diag(joint_half)
    expected = float(np.sum(residual**2) - np.sum(dec.lambdas))
    best_c = np.diag(joint_half[:d])  # C = D_d^(1/2) embeds the solution
    table_a = (dec.phi[:, :d] @ best_c).T
    assert sclip_value(table_a, table_x, process) == pytest.approx(expected,
                                                                   abs=1e-10)


def test_rbt_values(pair):
    process, dec = pair

    def rbt_value(table, alpha_w, beta_w):
        spec = ObjectiveSpec("rbt", table.shape[0], alpha_w=alpha_w,
                             beta_w=beta_w)
        return value_grad(spec, process, (table,))[0]

    d = 3
    assert rbt_value(np.zeros((d, process.n_a)), 1.0, 0.7) == \
        pytest.approx(d, abs=1e-12)
    table = (dec.phi[:, :2] / np.sqrt(dec.lambdas[:2])).T
    expected = 0.3 * float((1.0 / dec.lambdas[:2]).sum())
    assert rbt_value(table, 1.0, 0.3) == pytest.approx(expected, abs=1e-10)
    assert rbt_value(table, 1.0, 0.6) == pytest.approx(2 * expected,
                                                       abs=1e-10)


def test_vicreg_values(pair):
    process, dec = pair

    def vicreg_value(table, beta_w):
        spec = ObjectiveSpec("vicreg", table.shape[0], beta_w=beta_w)
        return value_grad(spec, process, (table,))[0]

    table = dec.phi[:, :2].T  # orthonormal rows
    beta = 0.8
    energy = 2.0 * 2.0 - 2.0 * float(dec.lambdas[:2].sum())
    assert vicreg_value(table, beta) == pytest.approx(beta * energy,
                                                      abs=1e-10)
    assert vicreg_value(np.zeros((3, process.n_a)), 1.0) == \
        pytest.approx(3.0, abs=1e-12)


def test_gradients_match_finite_differences(pair):
    process, dec = pair
    rng = np.random.default_rng(77)
    h = 1e-5

    def check(spec, point):
        value, grad = value_grad(spec, process, point)
        flat = np.concatenate([p.ravel() for p in point])
        grads = np.concatenate([g.ravel() for g in grad])

        def loss(vec):
            parts, i = [], 0
            for p in point:
                parts.append(vec[i:i + p.size].reshape(p.shape))
                i += p.size
            return value_grad(spec, process, tuple(parts))[0]

        numeric = np.empty_like(flat)
        for i in range(flat.size):
            up, down = flat.copy(), flat.copy()
            up[i] += h
            down[i] -= h
            numeric[i] = (loss(up) - loss(down)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(grads))))
        assert np.max(np.abs(numeric - grads)) / scale <= 1e-5

    for _ in range(5):
        table = rng.normal(size=(2, process.n_a))
        table_x = rng.normal(size=(2, process.n_x))
        check(ObjectiveSpec("scl", 2), (table,))
        check(ObjectiveSpec("sclip", 2), (table, table_x))
        check(ObjectiveSpec("rbt", 2, alpha_w=0.7, beta_w=0.2), (table,))
        check(ObjectiveSpec("vicreg", 2, beta_w=0.9), (table,))


def test_optimal_loss_is_attained(gapped):
    # each closed form against its own minimizer, written out independently
    process, dec = gapped
    for d in (1, 2, 3):
        lam = dec.lambdas[:d]
        phi = dec.phi[:, :d].T
        scaled = (dec.phi[:, :d] * np.sqrt(lam)).T
        cases = [
            (ObjectiveSpec("scl", d), (scaled,), -np.sum(lam ** 2)),
            (ObjectiveSpec("sclip", d),
             (phi, (dec.psi[:, :d] * np.sqrt(lam)).T), -np.sum(lam)),
            (ObjectiveSpec("vicreg", d, beta_w=1.0), (scaled,),
             d - np.sum(lam ** 2)),
        ]
        for spec, params, expected in cases:
            optimum = optimal_loss(spec, dec)
            assert optimum == pytest.approx(expected, abs=1e-12), spec
            assert value_grad(spec, process, params)[0] == pytest.approx(
                optimum, abs=1e-10), spec
        assert optimal_loss(ObjectiveSpec("rbt", d, alpha_w=1.0, beta_w=0.1),
                            dec) is None
        assert optimal_loss(ObjectiveSpec("vicreg", d, beta_w=0.5),
                            dec) is None


def test_value_grad_and_minimize_refuse_wrong_shapes(pair):
    process, dec = pair
    d, n_a, n_x = 2, process.n_a, process.n_x
    phi, xi = np.zeros((d, n_a)), np.zeros((d, n_x))
    opt = OptimizerConfig(max_iters=1)
    wrong = {
        "scl": [phi, (), (phi, phi), (phi, xi), (np.zeros((d + 1, n_a)),),
                (np.zeros((d, n_a + 1)),), (phi[0],)],
        "sclip": [(phi,), (phi, xi, xi), (phi, np.zeros((d + 1, n_x))),
                  (np.zeros((d + 1, n_a)), xi), (phi, np.zeros((d, n_x + 1))),
                  (np.zeros((d, n_a + 1)), xi), (xi, phi)],
    }
    for kind, cases in wrong.items():
        spec = ObjectiveSpec(kind, d)
        for params in cases:
            with pytest.raises(ValidationError, match="tables of shapes"):
                value_grad(spec, process, params)
            with pytest.raises(ValidationError, match="tables of shapes"):
                minimize(spec, process, opt, init=params)
    for kind in ("rbt", "vicreg"):
        spec = ObjectiveSpec(kind, d, alpha_w=1.0, beta_w=0.5)
        with pytest.raises(ValidationError, match="tables of shapes"):
            value_grad(spec, process, (np.zeros((d + 1, n_a)),))


def test_minimize_zero_iterations_returns_init(pair):
    process, dec = pair
    opt = OptimizerConfig(max_iters=0, seed=5)
    result = minimize(ObjectiveSpec("scl", 2), process, opt)
    rng = np.random.default_rng(5)
    expected = rng.uniform(-0.5, 0.5, size=(2, process.n_a))
    np.testing.assert_array_equal(result.phi_hat, expected)
    assert result.iterations == 0
    assert result.losses.size == 1


def test_minimize_trace_is_monotone(gapped):
    process, dec = gapped
    opt = OptimizerConfig(learning_rate=0.5, max_iters=500, seed=1)
    result = minimize(ObjectiveSpec("scl", 2), process, opt)
    assert np.all(np.diff(result.losses) <= 0.0)


def test_minimize_scl_recovers_top_spaces(gapped):
    process, dec = gapped
    for d in (1, 2, 3):
        opt = OptimizerConfig(learning_rate=0.4, max_iters=20000,
                              grad_tol=1e-9, seed=d)
        result = minimize(ObjectiveSpec("scl", d), process, opt)
        target = -float((dec.lambdas[:d] ** 2).sum())
        assert result.final_loss == pytest.approx(target, abs=1e-6)
        assert subspace_angle(result.phi_hat, dec, d) <= 1e-2


def test_minimize_sclip_reaches_partial_trace(gapped):
    process, dec = gapped
    opt = OptimizerConfig(learning_rate=0.3, max_iters=30000,
                          grad_tol=1e-9, seed=9)
    result = minimize(ObjectiveSpec("sclip", 2), process, opt)
    assert result.xi_hat is not None
    assert result.final_loss == pytest.approx(-float(dec.lambdas[:2].sum()),
                                              abs=1e-6)


def test_minimize_vicreg_beta_one_matches_scl_minimizers(gapped):
    # at unit coupling the two objectives share minimizers (values differ
    # by the dimension), compared through the recovered subspaces
    process, dec = gapped
    d = 2
    opt = OptimizerConfig(learning_rate=0.2, max_iters=30000,
                          grad_tol=1e-9, seed=3)
    scl = minimize(ObjectiveSpec("scl", d), process, opt)
    vic = minimize(ObjectiveSpec("vicreg", d, beta_w=1.0), process, opt)
    assert subspace_angle(scl.phi_hat, dec, d) <= 1e-2
    assert subspace_angle(vic.phi_hat, dec, d) <= 1e-2
    assert vic.final_loss == pytest.approx(scl.final_loss + d, abs=1e-5)


def test_rbt_penalty_path_limit(gapped):
    process, dec = gapped
    d = 2
    results, trace_g = rbt_penalty_path(
        process, d, alpha_w=1.0,
        opt=OptimizerConfig(learning_rate=0.1, max_iters=20000,
                            grad_tol=1e-10, seed=2))
    expected = float((1.0 / dec.lambdas[:d]).sum())
    assert abs(trace_g - expected) / expected <= 0.01
    assert len(results) == 4


def test_subspace_angle_cases(gapped):
    process, dec = gapped
    assert subspace_angle(dec.phi[:, :2].T, dec, 2) <= 1e-8
    shifted = dec.phi[:, 1:3].T  # second and third vs top-2
    assert subspace_angle(shifted, dec, 2) == pytest.approx(np.pi / 2,
                                                            abs=1e-8)
    rng = np.random.default_rng(6)
    while True:
        M = rng.normal(size=(2, 2))
        if abs(np.linalg.det(M)) > 0.1:
            break
    assert subspace_angle(M @ dec.phi[:, :2].T, dec, 2) <= 1e-8


def test_minimize_recovers_parity_space(small_process, small_decomposition):
    # d=4 on the 3-cube: the top space is the constant plus the three
    # single-coordinate parities, identified through the projector angle
    process, dec = small_process, small_decomposition
    assert dec.eigenvalue(4) - dec.eigenvalue(5) >= 0.05
    opt = OptimizerConfig(learning_rate=0.4, max_iters=12000, grad_tol=2e-6,
                          seed=0)
    result = minimize(ObjectiveSpec("scl", 4), process, opt)
    assert subspace_angle(result.phi_hat, dec, 4) <= 1e-2
    target = -float((dec.lambdas[:4] ** 2).sum())
    assert result.final_loss == pytest.approx(target, abs=1e-4)


def test_minimize_divergence_error(pair):
    process, dec = pair
    from augrkhs.exceptions import DivergenceError
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError, match="iteration"):
            minimize(ObjectiveSpec("scl", 2), process,
                     OptimizerConfig(learning_rate=1e200, max_iters=5,
                                     seed=0))


def test_degenerate_spectrum_loss_only(small_process, small_decomposition):
    # eigenvalues 2..4 tie at one half, so only the loss value is pinned
    process, dec = small_process, small_decomposition
    d = 2
    opt = OptimizerConfig(learning_rate=0.3, max_iters=20000, grad_tol=1e-9,
                          seed=8)
    result = minimize(ObjectiveSpec("scl", d), process, opt)
    target = -float((dec.lambdas[:d] ** 2).sum())
    assert result.final_loss == pytest.approx(target, abs=1e-5)


# Oracle: the dense route the objectives used before they applied P+ and J
# through the conditional table.  It forms the |A| x |A| pair law and the
# |A| x |X| joint law (above); nothing outside these tests keeps it.
def _oracle_value_grad(kind, params, process, alpha_w=0.7, beta_w=0.2):
    """The value and the gradient tuple of :func:`value_grad`, summed over
    the dense laws."""
    p_a, p_x = process.p_a, process.p_x
    pair = pair_distribution(process)
    if kind == "sclip":
        phi, xi = params
        J = joint_distribution(process)
        G = (phi * p_a[None, :]) @ phi.T
        H = (xi * p_x[None, :]) @ xi.T
        PhiJ = phi @ J
        value = -2.0 * float(np.sum(PhiJ * xi)) + float(np.sum(G * H))
        return value, (-2.0 * (xi @ J.T) + 2.0 * (H @ phi) * p_a[None, :],
                       -2.0 * PhiJ + 2.0 * (G @ xi) * p_x[None, :])
    phi, = params
    G = (phi * p_a[None, :]) @ phi.T
    if kind == "scl":
        PhiPair = phi @ pair
        value = -2.0 * float(np.sum(PhiPair * phi)) + float(np.sum(G * G))
        return value, (-4.0 * PhiPair + 4.0 * (G @ phi) * p_a[None, :],)
    M = phi @ pair @ phi.T
    if kind == "rbt":
        diag = np.diag(M)
        off = M - np.diag(diag)
        value = (float(np.sum((diag - 1.0) ** 2))
                 + alpha_w * float(np.sum(off * off))
                 + beta_w * float(np.sum(phi * phi @ p_a)))
        coeff = 2.0 * np.diag(diag - 1.0) + 2.0 * alpha_w * off
        return value, (2.0 * (coeff @ (phi @ pair))
                       + 2.0 * beta_w * phi * p_a[None, :],)
    eye = np.eye(phi.shape[0])
    value = float(np.sum((G - eye) ** 2)) + beta_w * (
        2.0 * float(np.trace(G)) - 2.0 * float(np.trace(M)))
    return value, (4.0 * ((G - eye) @ phi) * p_a[None, :]
                   + 4.0 * beta_w * (phi * p_a[None, :] - phi @ pair),)


def _assert_matches_oracle(process, rng, d):
    for kind in ("scl", "sclip", "rbt", "vicreg"):
        phi = rng.normal(size=(d, process.n_a))
        params = (phi, rng.normal(size=(d, process.n_x))) \
            if kind == "sclip" else (phi,)
        spec = ObjectiveSpec(kind, d, alpha_w=0.7, beta_w=0.2)
        value, grad = value_grad(spec, process, params)
        want_value, want_grad = _oracle_value_grad(kind, params, process)
        assert abs(value - want_value) <= 1e-12 * max(1.0, abs(want_value))
        assert len(grad) == len(want_grad) == len(params)
        for got, want in zip(grad, want_grad):
            scale = max(1.0, float(np.max(np.abs(want))))
            assert float(np.max(np.abs(got - want))) <= 1e-12 * scale, kind


@st.composite
def custom_processes(draw):
    """A random custom process, stored by the density rule alone: dense,
    or (at low density) sparse-stored."""
    n_x, n_a = draw(st.integers(2, 10)), draw(st.integers(2, 30))
    keep = draw(st.one_of(st.floats(0.01, 0.15), st.floats(0.15, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    triples = []
    for i in range(n_x):
        support = np.nonzero(rng.random(n_a) < keep)[0]
        if support.size == 0:
            support = rng.integers(n_a, size=1)
        for j, prob in zip(support, rng.dirichlet(np.ones(support.size))):
            triples.append((i, int(j), float(prob)))
    with stored_by_density():
        process, _ = build_custom(n_x, n_a, rng.dirichlet(np.ones(n_x)),
                                  triples)
    return process, draw(st.integers(1, 4)), int(rng.integers(2**31))


@settings(max_examples=60, deadline=None)
@given(custom_processes())
def test_value_grad_matches_dense_oracle_on_custom_processes(case):
    process, d, seed = case
    _assert_matches_oracle(process, np.random.default_rng(seed), d)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_value_grad_matches_dense_oracle_on_hypercube(scheme):
    with stored_by_density():  # 1296 entries: dense by size otherwise
        process = build_hypercube(HypercubeConfig(4, 0.5, scheme))
    assert process.is_sparse == (scheme == "random_mask")
    _assert_matches_oracle(process, np.random.default_rng(31), 3)


def test_no_pair_or_joint_matrix_is_formed(pair, gapped, monkeypatch):
    # every dense law starts from the dense table, which no loss and no
    # minimize step may form, on sparse-stored and dense-stored tables alike
    def refuse(self):
        raise AssertionError("the dense conditional table was formed")

    monkeypatch.setattr(AugmentationProcess, "conditional_dense", refuse)
    rng = np.random.default_rng(2)
    for process, dec in (pair, gapped):
        phi = rng.normal(size=(2, process.n_a))
        xi = rng.normal(size=(2, process.n_x))
        for kind in ("scl", "sclip", "rbt", "vicreg"):
            params = (phi, xi) if kind == "sclip" else (phi,)
            spec = ObjectiveSpec(kind, 2, alpha_w=1.0, beta_w=0.5)
            assert np.isfinite(value_grad(spec, process, params)[0])
            result = minimize(spec, process,
                              OptimizerConfig(max_iters=20, seed=1))
            assert result.iterations == 20
        with pytest.raises(AssertionError, match="dense conditional"):
            _oracle_value_grad("scl", (phi,), process)


def test_minimize_transposes_a_sparse_table_at_most_once(monkeypatch):
    # a sparse table's transpose is scipy's view of its arrays, made on the
    # table's first product with it; the steps go through that one view
    with stored_by_density():
        process = build_hypercube(HypercubeConfig(5, 0.5, "random_mask"))
    assert process.is_sparse
    calls = []
    transpose = sp.csr_array.transpose

    def counted(self, *args, **kwargs):
        calls.append(self.shape)
        return transpose(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_array, "transpose", counted)
    for kind in ("scl", "sclip", "rbt", "vicreg"):
        spec = ObjectiveSpec(kind, 3, alpha_w=1.0, beta_w=0.5)
        result = minimize(spec, process,
                          OptimizerConfig(max_iters=20, seed=3))
        assert result.iterations == 20
    assert len(calls) <= 1, calls
