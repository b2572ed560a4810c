"""The same table stored dense and stored CSR gives the same results.

A table of at most ``processes.DENSE_ENTRIES`` entries is stored dense;
built under :func:`conftest.stored_by_density` the same table is stored by
the 25% density rule alone, so a sparse one takes the CSR route.  Every
quantity read from the table must agree between the two within the
tolerance its oracle test holds it to.
"""

import dataclasses

import numpy as np
import pytest

from augrkhs.complexity import kappa_exact
from augrkhs.encoders import (
    empirical_decomposition,
    near_optimal_encoder,
    optimal_encoder,
    trace_gap,
)
from augrkhs.objectives import ObjectiveSpec, value_grad
from augrkhs.processes import (
    SCHEMES,
    HypercubeConfig,
    build_custom,
    build_hypercube,
)
from augrkhs.spectral import decompose, verify_integral_identity
from conftest import stored_by_density

_CLUSTER_GAP = 1e-6  # eigenvalues closer than this may mix their columns


def _both_storages(build):
    """``(dense, csr)``: ``build()`` as stored, dense, and as the density
    rule alone stores it, CSR below 25% density."""
    dense = build()
    with stored_by_density():
        csr = build()
    assert not dense.is_sparse
    table = dense.conditional
    assert csr.is_sparse == (np.count_nonzero(table) < 0.25 * table.size)
    return dense, csr


def _assert_same_eigenspaces(a, b):
    """Each cluster of eigenvalues spans the same columns of ``phi`` and of
    ``psi`` in both decompositions, within 1e-10 (the eigenfunction
    tolerance of the SVD oracle tests)."""
    np.testing.assert_allclose(a.lambdas, b.lambdas, rtol=0, atol=1e-12)
    edges = np.flatnonzero(np.diff(a.lambdas) < -_CLUSTER_GAP) + 1
    for cluster in np.split(np.arange(a.rank), edges):
        for f, g in ((a.phi, b.phi), (a.psi, b.psi)):
            np.testing.assert_allclose(f[:, cluster] @ f[:, cluster].T,
                                       g[:, cluster] @ g[:, cluster].T,
                                       rtol=0, atol=1e-10)


def _assert_same_results(dense, csr, d, seed):
    dec, sparse_dec = decompose(dense), decompose(csr)
    _assert_same_eigenspaces(dec, sparse_dec)
    # both residuals measure rounding: the duality residual is held to its
    # check's 1e-8 (it divides by the root of an eigenvalue down to 1e-6),
    # the integral identity to its 1e-12 on a custom table
    assert abs(dec.checked_duality_residual
               - sparse_dec.checked_duality_residual) <= 1e-8
    assert abs(verify_integral_identity(dec)
               - verify_integral_identity(sparse_dec)) <= 1e-12

    report, sparse_report = kappa_exact(dec), kappa_exact(sparse_dec)
    for field in ("kappa_sq_max", "kappa_sq_percentile", "s_lambda_total"):
        assert getattr(sparse_report, field) == pytest.approx(
            getattr(report, field), rel=1e-12), field
    np.testing.assert_allclose(sparse_report.per_point, report.per_point,
                               rtol=1e-12)
    assert sparse_report.chi_sq_identity_residual <= 1e-10

    rng = np.random.default_rng(seed)
    for kind in ("scl", "sclip", "rbt", "vicreg"):
        phi = rng.normal(size=(d, dense.n_a))
        params = ((phi, rng.normal(size=(d, dense.n_x))) if kind == "sclip"
                  else (phi,))
        spec = ObjectiveSpec(kind, d, alpha_w=0.7, beta_w=0.2)
        value, grad = value_grad(spec, dense, params)
        sparse_value, sparse_grad = value_grad(spec, csr, params)
        assert abs(sparse_value - value) <= 1e-12 * max(1.0, abs(value)), kind
        for got, want in zip(sparse_grad, grad):
            scale = max(1.0, float(np.max(np.abs(want))))
            assert float(np.max(np.abs(got - want))) <= 1e-12 * scale, kind

    assert trace_gap(optimal_encoder(sparse_dec, d)) == pytest.approx(
        trace_gap(optimal_encoder(dec, d)), rel=0, abs=1e-10)
    empirical = empirical_decomposition(dec, 64, seed)
    sparse_empirical = empirical_decomposition(sparse_dec, 64, seed)
    k = min(d, empirical.rank)
    assert trace_gap(near_optimal_encoder(sparse_empirical, k)) == \
        pytest.approx(trace_gap(near_optimal_encoder(empirical, k)),
                      rel=0, abs=1e-10)


@pytest.mark.parametrize("alpha", [0.2, 0.5])
@pytest.mark.parametrize("d_x", [4, 6])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_dense_and_csr_storage_agree_on_schemes(scheme, d_x, alpha):
    config = HypercubeConfig(d_x, alpha, scheme)
    dense, csr = _both_storages(lambda: build_hypercube(config))
    # the subset law, then the SVD route on the same tables
    _assert_same_results(dense, csr, 3, d_x)
    _assert_same_results(dataclasses.replace(dense, hypercube=None),
                         dataclasses.replace(csr, hypercube=None), 3, d_x)


@pytest.mark.parametrize("seed", range(8))
def test_dense_and_csr_storage_agree_on_custom(seed):
    # one to three entries per row of 16-64 columns: below 25% density
    rng = np.random.default_rng(seed)
    n_x, n_a = int(rng.integers(4, 25)), int(rng.integers(16, 65))
    triples = []
    for i in range(n_x):
        support = rng.choice(n_a, size=int(rng.integers(1, 4)), replace=False)
        triples += zip([i] * support.size, support.tolist(),
                       rng.dirichlet(np.ones(support.size)).tolist())
    p_x = rng.dirichlet(np.ones(n_x))
    dense, csr = _both_storages(lambda: build_custom(n_x, n_a, p_x,
                                                     triples)[0])
    assert csr.is_sparse
    _assert_same_results(dense, csr, min(3, decompose(dense).rank), seed)
