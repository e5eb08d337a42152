import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracheston import (TimeGrid, brownian_batch, frac_kernel,
                        nu_fractional_euler, simulate_cir)
from oracles import cov_cir, cov_nu, mu_density, mu_tilde_density


def test_frac_kernel_values():
    assert frac_kernel(1.0, 0.5) == pytest.approx(1.0 / math.gamma(0.5))
    # scaling t^(alpha-1)
    assert frac_kernel(4.0, 0.25) == pytest.approx(4.0 ** -0.75 / math.gamma(0.25))
    with pytest.raises(ValueError):
        frac_kernel(0.0, 0.5)
    with pytest.raises(ValueError):
        frac_kernel(1.0, 1.5)


@given(alpha=st.floats(0.01, 0.99), x=st.floats(0.01, 50.0))
@settings(max_examples=100, deadline=None)
def test_mu_density_reflection_identity(alpha, x):
    # 1/(Gamma(a)Gamma(1-a)) == sin(pi a)/pi
    direct = mu_density(x, alpha)
    reflected = math.sin(math.pi * alpha) / (math.pi * x ** alpha)
    assert direct == pytest.approx(reflected, rel=1e-12)


def test_mu_laplace_transform_is_frac_kernel():
    for alpha in (0.25, 0.6, 0.9):
        for t in (0.3, 1.0):
            val, _ = quad(lambda x: math.exp(-t * x) * mu_density(x, alpha),
                          0.0, np.inf, limit=200)
            assert val == pytest.approx(frac_kernel(t, alpha), rel=1e-6)


def test_mu_tilde_laplace_transform():
    for alpha in (-0.95, -0.75, -0.55):
        for t in (0.5, 1.0, 2.0):
            val, _ = quad(lambda x: math.exp(-t * x) * mu_tilde_density(x, alpha),
                          0.0, np.inf, limit=200)
            exact = (alpha + 1.0) * t ** (-alpha - 2.0) / math.gamma(-alpha)
            assert val == pytest.approx(exact, rel=1e-6)


def test_density_domain_errors():
    with pytest.raises(ValueError):
        mu_density(-1.0, 0.5)
    with pytest.raises(ValueError):
        mu_density(1.0, -0.75)
    with pytest.raises(ValueError):
        mu_tilde_density(1.0, 0.5)


def test_cov_cir_symmetry_and_zero(params):
    assert cov_cir(0.3, 0.8, params) == pytest.approx(cov_cir(0.8, 0.3, params))
    assert cov_cir(0.0, 0.0, params) == pytest.approx(0.0, abs=1e-18)
    assert cov_cir(0.0, 1.0, params) == pytest.approx(0.0, abs=1e-18)


def test_cov_cir_stationary_variance_limit(params):
    # t -> inf variance tends to sigma^2 theta / (2 kappa)
    v_inf = params.sigma ** 2 * params.theta / (2.0 * params.kappa)
    assert cov_cir(30.0, 30.0, params) == pytest.approx(v_inf, rel=1e-9)


def test_cov_nu_basics(params, rough_params):
    assert cov_nu(0.0, 0.5, params) == 0.0
    assert cov_nu(0.5, 0.0, params) > 0.0
    with pytest.raises(ValueError):
        cov_nu(0.5, 0.25, rough_params)
    with pytest.raises(ValueError):
        cov_nu(0.5, -0.1, params)
    # quadrature is close to converged: the |s - u| kink in the CIR
    # covariance limits Gauss-Jacobi to a few digits per node doubling
    a = cov_nu(0.5, 0.25, params, quad_nodes=60)
    b = cov_nu(0.5, 0.25, params, quad_nodes=120)
    assert a == pytest.approx(b, rel=1e-4)


def test_cov_nu_matches_simulated_covariance(params):
    grid = TimeGrid.from_horizon(1.0, 0.005)
    dBz, _ = brownian_batch(13, range(4000), grid, 0.0)
    z = simulate_cir(params, grid, dBz)
    nu = nu_fractional_euler(z, params.alpha, grid)
    a, b = nu[:, 100], nu[:, 150]  # t = 0.5 and t + 0.25
    sample = np.cov(a, b, ddof=1)[0, 1]
    prod = (a - a.mean()) * (b - b.mean())
    se = prod.std(ddof=1) / math.sqrt(len(a))
    assert abs(sample - cov_nu(0.5, 0.25, params)) <= 3.0 * se
