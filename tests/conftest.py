"""Shared fixtures; the expensive spectra are session-scoped and reused
by the acceptance suite."""

import numpy as np
import pytest

import bischro.dynamics
from bischro import assemble, build_profile, constant_profile, geometry, solve_spectrum
from bischro._blas import _openblas

VAR_PROFILE_SPEC = {
    "length": 1.0,
    "rho": {"poly": [1.0, 1.0]},        # 1 + x
    "sigma": {"poly": [1.0, 0.5]},      # 1 + x/2
    "q": {"poly": [0.0, 1.0, -1.0]},    # x (1 - x)
}


@pytest.fixture(scope="session")
def const_profile():
    return constant_profile()


@pytest.fixture(scope="session")
def var_profile():
    return build_profile(VAR_PROFILE_SPEC)


@pytest.fixture(scope="session")
def const_geometry(const_profile):
    return geometry(const_profile)


@pytest.fixture(scope="session")
def var_geometry(var_profile):
    return geometry(var_profile)


def _spectrum(profile, elements, count):
    op = assemble(profile, elements)
    return solve_spectrum(op, count)


@pytest.fixture(scope="session")
def sd_const_128(const_profile):
    return _spectrum(const_profile, 128, 12)


@pytest.fixture(scope="session")
def sd_const_512(const_profile):
    return _spectrum(const_profile, 512, 14)


@pytest.fixture(scope="session")
def sd_var_512(var_profile):
    return _spectrum(var_profile, 512, 14)


@pytest.fixture(scope="session")
def sd_const_1024(const_profile):
    return _spectrum(const_profile, 1024, 11)


@pytest.fixture(scope="session")
def sd_const_2048(const_profile):
    return _spectrum(const_profile, 2048, 206)


@pytest.fixture(scope="session")
def sd_var_2048(var_profile):
    return _spectrum(var_profile, 2048, 206)


@pytest.fixture
def blas():
    """The (get, set) pairs, each library set to two threads for the test."""
    libs = _openblas()
    if not libs:
        pytest.skip("no OpenBLAS loaded in this process")
    saved = [get() for get, _ in libs]
    for _, set_ in libs:
        set_(2)
    yield libs
    for (_, set_), n in zip(libs, saved):
        set_(n)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def cold_gram_cache():
    """Empty the one exponential-table cache: the Gram with its condition."""
    return bischro.dynamics._gram.cache_clear
