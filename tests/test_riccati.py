import math

import numpy as np
import pytest
from scipy.integrate import simpson

from fracheston import (MeasureKind, RiccatiBlowUp, TimeGrid, brownian_batch,
                        convergence_study, default_params, measure_for_atoms,
                        psi, simulate_cir, solve_riccati_finite,
                        solve_riccati_limit, solve_riccati_rough,
                        value_function, value_function_at_t)
from oracles import (h_closed_form, simulate_factors, solve_riccati_finite_per_node,
                     solve_riccati_limit_per_node, solve_riccati_rough_per_node)

ETA = -1.0 / 12.0  # lam=0.5, gamma=-2


def _rk4_psi(q, x, eta, tau, n=1000):
    h = tau / n
    y = 0.0
    f = lambda v: eta * q - x * v
    for _ in range(n):
        k1 = f(y)
        k2 = f(y + h / 2 * k1)
        k3 = f(y + h / 2 * k2)
        k4 = f(y + h * k3)
        y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def test_psi_closed_form_vs_rk4():
    q, x = 0.3, 2.0
    assert abs(psi(1.0, q, x, ETA) - _rk4_psi(q, x, ETA, 1.0)) <= 1e-8


def test_psi_boundary_and_saturation():
    assert psi(0.0, 0.3, 2.0, ETA) == 0.0
    assert psi(200.0, 0.3, 2.0, ETA) == pytest.approx(ETA * 0.3 / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        psi(1.0, 0.3, -1.0, ETA)


def test_psi_broadcasts_over_atoms():
    qm = measure_for_atoms(16, 0.75, MeasureKind.MU)
    vec = psi(0.7, qm.weights, qm.nodes, ETA)
    assert vec.shape == (qm.n_atoms,)
    for i in range(qm.n_atoms):
        assert vec[i] == pytest.approx(psi(0.7, qm.weights[i], qm.nodes[i], ETA))
    with pytest.raises(ValueError):
        psi(0.7, qm.weights, np.where(np.arange(qm.n_atoms) == 3, -1.0, qm.nodes), ETA)


def test_finite_boundary_conditions(params):
    qm = measure_for_atoms(16, params.alpha, MeasureKind.MU)
    sol = solve_riccati_finite(qm, params, ode_step=0.01)
    assert sol.varphi[0] == 0.0 and sol.phi_big[0] == 0.0
    assert sol.blow_up is None


def test_finite_zero_market_price(params):
    p = params.with_(lam=0.0)
    qm = measure_for_atoms(16, p.alpha, MeasureKind.MU)
    sol = solve_riccati_finite(qm, p, ode_step=0.01)
    assert np.max(np.abs(sol.varphi)) == 0.0
    assert np.allclose(sol.phi_big, p.gamma * p.r * sol.tau_grid, rtol=1e-12)


def test_varphi_nonpositive_for_negative_gamma(rng):
    for _ in range(20):
        kappa = float(rng.uniform(2.0, 10.0))
        # keep the draws inside the Feller region 2*kappa*theta >= sigma^2
        sigma_cap = math.sqrt(2.0 * kappa * 0.05)
        p = default_params(
            alpha=float(rng.uniform(0.1, 0.9)),
            gamma=float(-rng.uniform(0.5, 5.0)),
        ).with_(lam=float(rng.uniform(0.0, 2.0)), kappa=kappa,
                sigma=float(rng.uniform(0.1, 0.99 * sigma_cap)))
        qm = measure_for_atoms(16, p.alpha, MeasureKind.MU)
        sol = solve_riccati_finite(qm, p, ode_step=0.02)
        assert np.all(sol.varphi <= 1e-15)


def test_comparison_ordering_across_levels(params):
    # larger forcing magnitude with refinement pushes varphi the same way
    # as the sign of eta
    taus = np.linspace(0.1, 1.0, 7)
    for gamma, direction in ((-2.0, -1.0), (0.5, 1.0)):
        p = params.with_(gamma=gamma)
        qms = [measure_for_atoms(n, p.alpha, MeasureKind.MU) for n in (16,)]
        qms.append(qms[0].refined())
        qms.append(qms[1].refined())
        sols = [solve_riccati_finite(qm, p, ode_step=0.005) for qm in qms]
        for a, b in zip(sols, sols[1:]):
            for tau in taus:
                assert direction * (b.at(tau)[0] - a.at(tau)[0]) >= -1e-12


def test_limit_matches_classical_closed_form(params):
    p = params.with_(hurst=0.5, v0=0.0)
    eta, kap, sig = ETA, p.kappa, p.sigma
    d = math.sqrt(kap * kap - 2.0 * sig * sig * eta)
    e = math.exp(d)
    phi_exact = 2.0 * eta * (e - 1.0) / (e * (d + kap) + (d - kap))
    sol = solve_riccati_limit(p, ode_step=1e-3, alpha=0.0)
    assert abs(sol.at(1.0)[0] - phi_exact) <= 1e-6


def test_limit_continuity_in_alpha(params):
    p = params.with_(v0=0.0)
    phi0 = solve_riccati_limit(p, ode_step=1e-3, alpha=0.0).at(1.0)[0]
    phi_eps = solve_riccati_limit(p, ode_step=1e-3, alpha=1e-3).at(1.0)[0]
    assert abs(phi_eps - phi0) <= 1e-2 * abs(phi0)


def test_finite_converges_to_limit(params):
    qm = measure_for_atoms(1024, params.alpha, MeasureKind.MU)
    phi_n = solve_riccati_finite(qm, params, ode_step=1e-3).at(1.0)[0]
    phi_lim = solve_riccati_limit(params, ode_step=1e-3).at(1.0)[0]
    assert abs(phi_n - phi_lim) < 1e-3


def test_rk4_observed_order_smooth(params):
    qm = measure_for_atoms(16, params.alpha, MeasureKind.MU)
    ref = solve_riccati_finite(qm, params, ode_step=1e-3).at(1.0)[0]
    e1 = abs(solve_riccati_finite(qm, params, ode_step=0.04).at(1.0)[0] - ref)
    e2 = abs(solve_riccati_finite(qm, params, ode_step=0.02).at(1.0)[0] - ref)
    assert math.log2(e1 / e2) >= 3.5


def test_rough_observed_order_singular(rough_params):
    p = rough_params.with_(v0=3.0, z0=0.15)
    qm = measure_for_atoms(32, p.alpha, MeasureKind.MU_TILDE)

    def solve(h):
        return solve_riccati_rough(qm, p, ode_step=h,
                                   graded_substeps=max(50, round(0.4 / h))).at(1.0)[0]

    ref = solve(25e-5)
    e1, e2 = abs(solve(4e-3) - ref), abs(solve(2e-3) - ref)
    assert math.log2(e1 / max(e2, 1e-16)) >= 1.5


def test_rough_boundary_and_zero_market_price(rough_params):
    qm = measure_for_atoms(16, rough_params.alpha, MeasureKind.MU_TILDE)
    p = rough_params.with_(lam=0.0)
    sol = solve_riccati_rough(qm, p, ode_step=0.005)
    assert sol.varphi[0] == 0.0 and sol.phi_big[0] == 0.0
    assert np.max(np.abs(sol.varphi)) == 0.0
    assert np.allclose(sol.phi_big, p.gamma * p.r * sol.tau_grid, rtol=1e-10)
    with pytest.raises(ValueError):
        solve_riccati_rough(measure_for_atoms(8, 0.75, MeasureKind.MU),
                            rough_params)


def test_h_closed_form_vanishes_at_ends():
    qm = measure_for_atoms(16, -0.75, MeasureKind.MU_TILDE)
    assert h_closed_form(0.0, 1.0, qm) == pytest.approx(0.0, abs=1e-18)
    assert h_closed_form(1.0, 1.0, qm) == pytest.approx(0.0, abs=1e-18)
    assert h_closed_form(0.5, 1.0, qm) > 0.0


def test_h_closed_form_vs_quadrature():
    qm = measure_for_atoms(16, -0.75, MeasureKind.MU_TILDE)
    t, horizon = 0.5, 1.0
    s = np.linspace(0.0, t, 2001)
    u = np.linspace(0.0, horizon - t, 2001)
    inner = sum(q * np.exp(-x * s[:, None]) * np.exp(-x * u[None, :])
                for q, x in zip(qm.weights, qm.nodes))
    # Simpson rather than trapezoid: the fastest-decaying atoms need the
    # extra order at this grid resolution
    quad = simpson(simpson(inner, x=u, axis=1), x=s)
    assert h_closed_form(t, horizon, qm) == pytest.approx(quad, rel=1e-6)


def test_value_function_bond_only(params):
    p = params.with_(lam=0.0)
    qm = measure_for_atoms(16, p.alpha, MeasureKind.MU)
    sol = solve_riccati_finite(qm, p, ode_step=0.005)
    v = value_function(p, sol)
    expected = p.w0 ** p.gamma / p.gamma * math.exp(p.gamma * p.r * p.horizon)
    assert v.value == pytest.approx(expected, rel=1e-10)
    assert v.value < 0  # gamma < 0


def test_value_z0_sensitivity_sign(params):
    # dV/dz0 = V * varphi(T) >= 0 when gamma < 0 (V < 0, varphi <= 0)
    qm = measure_for_atoms(32, params.alpha, MeasureKind.MU)
    sol = solve_riccati_finite(qm, params, ode_step=0.005)
    dz = 1e-6
    up = value_function(params, sol, z=params.z0 + dz).value
    dn = value_function(params, sol, z=params.z0 - dz).value
    fd = (up - dn) / (2.0 * dz)
    v = value_function(params, sol)
    assert fd == pytest.approx(v.value * sol.at(params.horizon)[0], rel=1e-6)
    assert fd >= 0.0


def test_value_function_at_t_boundaries(params, coarse_grid):
    qm = measure_for_atoms(16, params.alpha, MeasureKind.MU)
    sol = solve_riccati_finite(qm, params, ode_step=0.005)
    at_T = value_function_at_t(params, sol, qm, params.horizon, 2.0,
                               np.zeros(qm.n_atoms), 0.1)
    assert at_T.value == pytest.approx(2.0 ** params.gamma / params.gamma)
    at_0 = value_function_at_t(params, sol, qm, 0.0, params.w0,
                               np.zeros(qm.n_atoms), params.z0)
    assert at_0.value == pytest.approx(value_function(params, sol).value)


def test_value_function_at_t_tracks_conditional_value(params, coarse_grid):
    # simulate a history to T/2 and compare the affine value against a
    # conditional Monte Carlo estimate started from the realized factors
    from fracheston import McEstimate, mc_feynman_kac  # noqa: F401
    qm = measure_for_atoms(32, params.alpha, MeasureKind.MU)
    sol = solve_riccati_finite(qm, params, ode_step=0.005)
    grid_half = TimeGrid.from_horizon(0.5, 0.005)
    dBz, _ = brownian_batch(71, range(1), grid_half, 0.0)
    z = simulate_cir(params, grid_half, dBz)[0]
    y = simulate_factors(qm, z, grid_half)[-1]
    val = value_function_at_t(params, sol, qm, 0.5, params.w0, y, z[-1])
    # nested MC over the remaining half horizon with the realized state
    n = 4000
    dBz2, _ = brownian_batch(72, range(n), grid_half, 0.0)
    z2 = simulate_cir(params.with_(z0=float(z[-1])), grid_half, dBz2)
    decay = np.exp(-np.outer(grid_half.times, qm.nodes))
    y2 = simulate_factors(qm, z2, grid_half) + decay * y
    nu2 = params.v0 + y2 @ qm.weights
    integral = grid_half.h * np.sum(nu2[:, :-1], axis=1)
    eta = params.derived().eta
    samples = (params.w0 ** params.gamma / params.gamma
               * np.exp(params.gamma * params.r * 0.5 + eta * integral))
    se = samples.std(ddof=1) / math.sqrt(n)
    assert abs(samples.mean() - val.value) <= 3.0 * se


def test_blow_up_detected_and_raises():
    p = default_params(gamma=0.9).with_(lam=10.0)  # eta = 450
    qm = measure_for_atoms(16, p.alpha, MeasureKind.MU)
    sol = solve_riccati_finite(qm, p, ode_step=1e-3)
    assert sol.blow_up is not None and sol.blow_up < p.horizon
    with pytest.raises(RiccatiBlowUp):
        value_function(p, sol)


def test_epsilon_diagnostic(params):
    # the near-optimality certificate of a level is the epsilon column of a
    # convergence study over that level and its dyadic refinement
    grid = TimeGrid.from_horizon(1.0, 0.005)

    def eps(level, p, n_paths):
        qm = measure_for_atoms(level, p.alpha, MeasureKind.MU)
        return convergence_study(p, [qm, qm.refined()], n_paths, grid, 55)[0].epsilon

    eps16 = eps(16, params, 2000)
    eps64 = eps(64, params, 2000)
    assert eps16 >= 0.0 and eps64 >= 0.0
    assert eps64 < eps16
    assert eps(16, params.with_(lam=0.0), 500) == pytest.approx(0.0, abs=1e-18)



# the solves of the perfbench affine surface: limit, finite and rough
# systems at the benchmark's alphas and levels
_AFFINE_CASES = ([("limit", a, 0) for a in (0.0, 0.25, 0.5, 0.75)]
                 + [("finite", a, n) for a in (0.25, 0.5, 0.75, 0.95)
                    for n in (64, 128, 256, 512)]
                 + [("rough", a, n) for a in (-0.55, -0.75, -0.95)
                    for n in (64, 128, 256, 512)])


def _assert_same_solution(sol, ref):
    assert np.array_equal(sol.tau_grid, ref.tau_grid)
    assert np.array_equal(sol.varphi, ref.varphi)
    assert np.array_equal(sol.phi_big, ref.phi_big)
    assert sol.blow_up == ref.blow_up


@pytest.mark.parametrize("ode_step", [1e-3, 7e-3])
@pytest.mark.parametrize("kind", ["limit", "finite", "rough"])
def test_batched_forcing_matches_per_node_bit_for_bit(kind, ode_step):
    # the forcing of all nodes in one exp pass, with one dot per node, is
    # the per-node evaluation bit for bit (value and converge print 17 digits)
    for _, alpha, level in (c for c in _AFFINE_CASES if c[0] == kind):
        p = default_params(alpha=alpha)
        if kind == "limit":
            sol = solve_riccati_limit(p, ode_step=ode_step, alpha=alpha)
            ref = solve_riccati_limit_per_node(p, ode_step, alpha)
        elif kind == "finite":
            qm = measure_for_atoms(level, alpha, MeasureKind.MU)
            sol = solve_riccati_finite(qm, p, ode_step=ode_step)
            ref = solve_riccati_finite_per_node(qm, p, ode_step)
        else:
            qm = measure_for_atoms(level, alpha, MeasureKind.MU_TILDE)
            sol = solve_riccati_rough(qm, p, ode_step=ode_step)
            ref = solve_riccati_rough_per_node(qm, p, ode_step)
        _assert_same_solution(sol, ref)


def test_batched_forcing_matches_per_node_through_blow_up():
    p = default_params(gamma=0.9).with_(lam=10.0)
    qm = measure_for_atoms(16, p.alpha, MeasureKind.MU)
    sol = solve_riccati_finite(qm, p, ode_step=1e-3)
    assert sol.blow_up is not None
    _assert_same_solution(sol, solve_riccati_finite_per_node(qm, p, 1e-3))
