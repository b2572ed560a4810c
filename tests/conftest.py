import contextlib
import dataclasses

import numpy as np
import pytest

from augrkhs import processes, spectral

# grid shared by the acceptance criteria and reused by module tests
GRID_SCHEMES = ("random_mask", "block_mask", "block_mask_flip")
GRID_DXS = (4, 6, 8)
GRID_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)


@pytest.fixture(scope="session")
def process_cache():
    """Memoized hypercube construction shared across the whole session."""
    cache = {}

    def get(scheme, d_x, alpha):
        key = (scheme, d_x, alpha)
        if key not in cache:
            cache[key] = processes.build_hypercube(
                processes.HypercubeConfig(d_x, alpha, scheme))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def decomp_cache(process_cache):
    """Memoized spectral decompositions shared across the whole session."""
    cache = {}

    def get(scheme, d_x, alpha):
        key = (scheme, d_x, alpha)
        if key not in cache:
            cache[key] = spectral.decompose(process_cache(scheme, d_x, alpha))
        return cache[key]

    return get


@contextlib.contextmanager
def stored_by_density():
    """Tables built inside are stored by the 25% density rule alone, as if
    ``processes.DENSE_ENTRIES`` were 0: a small table below 25% density
    is stored CSR, as only a larger one is otherwise."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(processes, "DENSE_ENTRIES", 0)
        yield


def svd_oracle(process):
    """Oracle spectrum of a hypercube process: the SVD engine, not the law.

    ``decompose`` takes hypercube spectra from the subset law; without its
    ``hypercube`` field the same table goes through the SVD of the
    symmetrized joint table, an independent route to the same spectrum.
    """
    return spectral.decompose(dataclasses.replace(process, hypercube=None))


@pytest.fixture(scope="session")
def oracle_cache(process_cache):
    """Memoized :func:`svd_oracle` decompositions, shared like the others."""
    cache = {}

    def get(scheme, d_x, alpha):
        key = (scheme, d_x, alpha)
        if key not in cache:
            cache[key] = svd_oracle(process_cache(scheme, d_x, alpha))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def small_process(process_cache):
    return process_cache("random_mask", 3, 0.5)


@pytest.fixture(scope="session")
def small_decomposition(decomp_cache):
    return decomp_cache("random_mask", 3, 0.5)


def weighted_norm(values, weights):
    values = np.asarray(values)
    return float(np.sqrt(np.sum(values * values * weights)))
