import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from augrkhs import objectives
from augrkhs.exceptions import ValidationError
from augrkhs.objectives import (
    ObjectiveSpec,
    OptimizerConfig,
    _rbt_value_grad,
    _scl_value_grad,
    _sclip_value_grad,
    _vicreg_value_grad,
    loss_rbt,
    loss_scl,
    loss_sclip,
    loss_vicreg,
    minimize,
    rbt_penalty_path,
    subspace_angle,
)
from augrkhs.processes import (
    SCHEMES,
    AugmentationProcess,
    HypercubeConfig,
    build_custom,
    build_hypercube,
)
from augrkhs.spectral import decompose


# Oracle inputs: the dense laws that the objectives never form.  The losses
# apply them through the conditional table; these tests sum over them.
def pair_distribution(process):
    """Joint law ``P+`` of two augmentations of one original, ``|A| x |A|``."""
    C = process.conditional_dense()
    return (C * process.p_x.mass[:, None]).T @ C


def joint_distribution(process):
    """Joint law ``p(a, x) = p(a|x) p_x(x)`` as an ``|A| x |X|`` array."""
    return (process.conditional_dense() * process.p_x.mass[:, None]).T


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
    with pytest.raises(ValidationError):
        ObjectiveSpec("rbt", 2)  # missing weights
    with pytest.raises(ValidationError):
        ObjectiveSpec("vicreg", 2, beta_w=-1.0)
    ObjectiveSpec("rbt", 2, alpha_w=1.0, beta_w=0.1)


def test_scl_zero_encoder(pair):
    process, dec = pair
    assert loss_scl(np.zeros((2, process.n_a)), process) == 0.0


def test_scl_single_eigenfunction(pair):
    process, dec = pair
    assert loss_scl(dec.phi[:, :1].T, process) == pytest.approx(-1.0,
                                                             abs=1e-10)


def test_scl_scaled_top_d_reaches_floor(pair):
    process, dec = pair
    for d in (1, 2, 3):
        table = (dec.phi[:, :d] * np.sqrt(dec.lambdas[:d])).T
        expected = -float((dec.lambdas[:d] ** 2).sum())
        assert loss_scl(table, process) == pytest.approx(expected, abs=1e-10)


def test_scl_expansion_matches_direct(pair):
    # direct summation over positive pairs and independent pairs
    process, dec = pair
    p_a = process.p_a.mass
    rng = np.random.default_rng(12)
    for _ in range(10):
        table = rng.normal(size=(3, process.n_a))
        inner = table.T @ table  # <phi(a), phi(a')> for every pair
        direct = (-2.0 * float(np.sum(inner * pair_distribution(process)))
                  + float(np.sum(inner * inner * np.outer(p_a, p_a))))
        assert loss_scl(table, process) == pytest.approx(direct, abs=1e-9)


def test_scl_loss_floor_seeded(pair):
    process, dec = pair
    floor = -float((dec.lambdas ** 2).sum())
    rng = np.random.default_rng(4)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        table = rng.normal(size=(d, process.n_a)) * rng.uniform(0.1, 3.0)
        assert loss_scl(table, process) >= floor - 1e-9


def test_sclip_zero_and_optimal(pair):
    process, dec = pair
    zero_a = np.zeros((2, process.n_a))
    zero_x = np.zeros((2, process.n_x))
    assert loss_sclip(zero_a, zero_x, process) == 0.0
    d = 2
    table_a = dec.phi[:, :d].T
    table_x = (dec.psi[:, :d] * np.sqrt(dec.lambdas[:d])).T
    expected = -float(dec.lambdas[:d].sum())
    assert loss_sclip(table_a, table_x, process) == pytest.approx(expected,
                                                                  abs=1e-10)


def test_sclip_dimension_mismatch(pair):
    process, dec = pair
    with pytest.raises(ValidationError):
        loss_sclip(np.zeros((2, process.n_a)), np.zeros((3, process.n_x)),
                   process)


def test_sclip_expansion_matches_direct(pair):
    # direct summation over the joint law and the product of the marginals
    process, dec = pair
    weights = np.outer(process.p_a.mass, process.p_x.mass)
    rng = np.random.default_rng(21)
    for _ in range(10):
        table_a = rng.normal(size=(2, process.n_a))
        table_x = rng.normal(size=(2, process.n_x))
        inner = table_a.T @ table_x  # <phi(a), xi(x)>, |A| x |X|
        direct = (-2.0 * float(np.sum(inner * joint_distribution(process)))
                  + float(np.sum(inner * inner * weights)))
        assert loss_sclip(table_a, table_x, process) == pytest.approx(direct,
                                                                      abs=1e-9)


def test_sclip_inner_least_squares_projector_form(pair):
    # with the data side fixed at the top-d eigenfunctions, solving the
    # augmentation side in closed form leaves the tail energy
    process, dec = pair
    d = 2
    table_x = dec.psi[:, :d].T
    S = (table_x * process.p_x.mass[None, :]) @ dec.psi  # = [I_d 0]
    joint_half = np.sqrt(dec.lambdas)
    # optimal C^T S = V (V^T V)^-1 V^T D^(1/2) with V = S^T; here V^T V = I
    V = S.T
    residual = (np.eye(dec.rank) - V @ V.T) @ np.diag(joint_half)
    expected = float(np.sum(residual**2) - np.sum(dec.lambdas))
    best_c = np.diag(joint_half[:d])  # C = D_d^(1/2) embeds the solution
    table_a = (dec.phi[:, :d] @ best_c).T
    assert loss_sclip(table_a, table_x, process) == pytest.approx(expected,
                                                                  abs=1e-10)


def test_rbt_values(pair):
    process, dec = pair
    d = 3
    assert loss_rbt(np.zeros((d, process.n_a)), process, 1.0, 0.7) == \
        pytest.approx(d, abs=1e-12)
    table = (dec.phi[:, :2] / np.sqrt(dec.lambdas[:2])).T
    expected = 0.3 * float((1.0 / dec.lambdas[:2]).sum())
    assert loss_rbt(table, process, 1.0, 0.3) == pytest.approx(expected,
                                                               abs=1e-10)
    assert loss_rbt(table, process, 1.0, 0.6) == pytest.approx(2 * expected,
                                                               abs=1e-10)


def test_vicreg_values(pair):
    process, dec = pair
    table = dec.phi[:, :2].T  # orthonormal rows
    beta = 0.8
    energy = 2.0 * 2.0 - 2.0 * float(dec.lambdas[:2].sum())
    assert loss_vicreg(table, process, beta) == pytest.approx(beta * energy,
                                                              abs=1e-10)
    assert loss_vicreg(np.zeros((3, process.n_a)), process, 1.0) == \
        pytest.approx(3.0, abs=1e-12)


def test_gradients_match_finite_differences(pair):
    process, dec = pair
    rng = np.random.default_rng(77)
    h = 1e-5

    def check(fn, point):
        value, grad = fn(point)
        flat = (np.concatenate([p.ravel() for p in point])
                if isinstance(point, tuple) else point.ravel())
        grads = (np.concatenate([g.ravel() for g in grad])
                 if isinstance(grad, tuple) else grad.ravel())

        def rebuild(vec):
            if not isinstance(point, tuple):
                return vec.reshape(point.shape)
            parts, i = [], 0
            for p in point:
                parts.append(vec[i:i + p.size].reshape(p.shape))
                i += p.size
            return tuple(parts)

        numeric = np.empty_like(flat)
        for i in range(flat.size):
            up, down = flat.copy(), flat.copy()
            up[i] += h
            down[i] -= h
            numeric[i] = (fn(rebuild(up))[0] - fn(rebuild(down))[0]) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(grads))))
        assert np.max(np.abs(numeric - grads)) / scale <= 1e-5

    for _ in range(5):
        table = rng.normal(size=(2, process.n_a))
        table_x = rng.normal(size=(2, process.n_x))
        check(lambda p: _scl_value_grad(p, process), table)
        check(lambda p: _sclip_value_grad(p, process), (table, table_x))
        check(lambda p: _rbt_value_grad(p, process, 0.7, 0.2), table)
        check(lambda p: _vicreg_value_grad(p, process, 0.9), table)


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
    p_a, p_x = process.p_a.mass, process.p_x.mass
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
    phi = params
    G = (phi * p_a[None, :]) @ phi.T
    if kind == "scl":
        PhiPair = phi @ pair
        value = -2.0 * float(np.sum(PhiPair * phi)) + float(np.sum(G * G))
        return value, -4.0 * PhiPair + 4.0 * (G @ phi) * p_a[None, :]
    M = phi @ pair @ phi.T
    if kind == "rbt":
        diag = np.diag(M)
        off = M - np.diag(diag)
        value = (float(np.sum((diag - 1.0) ** 2))
                 + alpha_w * float(np.sum(off * off))
                 + beta_w * float(np.sum(phi * phi @ p_a)))
        coeff = 2.0 * np.diag(diag - 1.0) + 2.0 * alpha_w * off
        return value, (2.0 * (coeff @ (phi @ pair))
                       + 2.0 * beta_w * phi * p_a[None, :])
    eye = np.eye(phi.shape[0])
    value = float(np.sum((G - eye) ** 2)) + beta_w * (
        2.0 * float(np.trace(G)) - 2.0 * float(np.trace(M)))
    return value, (4.0 * ((G - eye) @ phi) * p_a[None, :]
                   + 4.0 * beta_w * (phi * p_a[None, :] - phi @ pair))


def _public_loss(kind, params, process, alpha_w=0.7, beta_w=0.2):
    if kind == "scl":
        return loss_scl(params, process)
    if kind == "sclip":
        return loss_sclip(params[0], params[1], process)
    if kind == "rbt":
        return loss_rbt(params, process, alpha_w, beta_w)
    return loss_vicreg(params, process, beta_w)


def _assert_matches_oracle(process, rng, d):
    for kind in ("scl", "sclip", "rbt", "vicreg"):
        phi = rng.normal(size=(d, process.n_a))
        params = (phi, rng.normal(size=(d, process.n_x))) \
            if kind == "sclip" else phi
        spec = ObjectiveSpec(kind, d, alpha_w=0.7, beta_w=0.2)
        value, grad = objectives._value_grad_fn(spec, process)(params)
        want_value, want_grad = _oracle_value_grad(kind, params, process)
        assert abs(value - want_value) <= 1e-12 * max(1.0, abs(want_value))
        assert _public_loss(kind, params, process) == value
        for got, want in zip(*((grad, want_grad) if kind == "sclip"
                               else ((grad,), (want_grad,)))):
            scale = max(1.0, float(np.max(np.abs(want))))
            assert float(np.max(np.abs(got - want))) <= 1e-12 * scale, kind


@st.composite
def custom_processes(draw):
    """A random custom process, dense or (at low density) sparse-stored."""
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
    process, _ = build_custom(n_x, n_a, rng.dirichlet(np.ones(n_x)), triples)
    return process, draw(st.integers(1, 4)), int(rng.integers(2**31))


@settings(max_examples=60, deadline=None)
@given(custom_processes())
def test_value_grad_matches_dense_oracle_on_custom_processes(case):
    process, d, seed = case
    _assert_matches_oracle(process, np.random.default_rng(seed), d)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_value_grad_matches_dense_oracle_on_hypercube(scheme):
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
            params = (phi, xi) if kind == "sclip" else phi
            assert np.isfinite(_public_loss(kind, params, process))
            spec = ObjectiveSpec(kind, 2,
                                 alpha_w=1.0 if kind == "rbt" else None,
                                 beta_w=None if kind in ("scl", "sclip")
                                 else 0.5)
            result = minimize(spec, process,
                              OptimizerConfig(max_iters=20, seed=1))
            assert result.iterations == 20
        with pytest.raises(AssertionError, match="dense conditional"):
            _oracle_value_grad("scl", phi, process)


def test_minimize_transposes_a_sparse_table_at_most_once(monkeypatch):
    # a sparse table's .T is a new column-major object, checked in full on
    # every call; the steps go through the transpose the process builds once
    process = build_hypercube(HypercubeConfig(5, 0.5, "random_mask"))
    assert process.is_sparse
    calls = []
    transpose = sp.csr_array.transpose

    def counted(self, *args, **kwargs):
        calls.append(self.shape)
        return transpose(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_array, "transpose", counted)
    for kind in ("scl", "sclip", "rbt", "vicreg"):
        spec = ObjectiveSpec(kind, 3,
                             alpha_w=1.0 if kind == "rbt" else None,
                             beta_w=None if kind in ("scl", "sclip") else 0.5)
        result = minimize(spec, process,
                          OptimizerConfig(max_iters=20, seed=3))
        assert result.iterations == 20
    assert len(calls) <= 1, calls
