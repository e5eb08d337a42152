"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass line when it succeeds, so the -v output
doubles as the acceptance report.  These run heavier Monte Carlo loads
than the unit tests (about a minute or two in total).
"""
import json
import math
import time

import numpy as np

from fracheston import (MeasureKind, PositivityMap, SchemeKind, TimeGrid,
                        VolScheme, brownian_batch, default_params,
                        dyadic_chain, approx_kernel, frac_kernel,
                        mc_feynman_kac, measure_for_atoms, merton_ratio,
                        nu_quantized_paths, nu_rough_marchaud, psi,
                        simulate_cir, solve_riccati_finite,
                        solve_riccati_limit, solve_riccati_rough,
                        value_function)
from fracheston.cli import main
from fracheston.mc import Leg, McEstimate, _utility, feynman_kac_leg, map_paths
from oracles import cov_cir, simulate_factors

SEED = 20240801


def _ok(n, text):
    print(f"criterion {n:2d} PASS: {text}")


def test_criterion_01_kernel_quantization_convergence():
    start = time.perf_counter()
    for alpha in (0.25, 0.5, 0.75):
        chain = dyadic_chain(64, alpha, MeasureKind.MU, 5)
        assert chain[-1].n_atoms >= 1024
        for t in (0.1, 0.5, 1.0):
            vals = [approx_kernel(t, qm) for qm in chain]
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 1e-14
            exact = frac_kernel(t, alpha)
            assert abs(vals[-1] - exact) <= 0.01 * exact
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(1, f"quantized kernel monotone and within 1% at >=1024 atoms "
           f"({elapsed:.2f}s)")


def test_criterion_02_fractional_affine_vs_feynman_kac():
    p = default_params(alpha=0.75)
    grid = TimeGrid.from_horizon(1.0, 1e-3)
    qm = measure_for_atoms(128, p.alpha, MeasureKind.MU)
    scheme = VolScheme(SchemeKind.QUANTIZED_FRACTIONAL, qm=qm)
    est = mc_feynman_kac(p, scheme, 100_000, grid, SEED, threads=4)
    sol = solve_riccati_finite(qm, p, ode_step=1e-3)
    vp, pb = sol.at(1.0)
    affine = math.exp(pb + vp * p.z0)
    gap = abs(est.mean - affine)
    assert gap <= 3.0 * est.std_error
    assert 3.0 * est.std_error <= 0.01 * affine
    _ok(2, f"fractional MC vs affine value, gap {gap:.2e} "
           f"<= 3 SE = {3 * est.std_error:.2e}")


def test_criterion_03_classical_heston_limit():
    p = default_params(alpha=0.75).with_(hurst=0.5, v0=0.0)
    eta = p.derived().eta
    d = math.sqrt(p.kappa ** 2 - 2.0 * p.sigma ** 2 * eta)
    e = math.exp(d)
    phi_exact = 2.0 * eta * (e - 1.0) / (e * (d + p.kappa) + (d - p.kappa))
    phi0 = solve_riccati_limit(p, ode_step=1e-3, alpha=0.0).at(1.0)[0]
    assert abs(phi0 - phi_exact) <= 1e-6
    phi_eps = solve_riccati_limit(p, ode_step=1e-3, alpha=1e-3).at(1.0)[0]
    assert abs(phi_eps - phi0) <= 1e-2 * abs(phi0)
    _ok(3, f"constant-forcing limit matches the closed form "
           f"({abs(phi0 - phi_exact):.1e}) and is continuous at alpha=0")


def test_criterion_04_pathwise_monotone_refinement():
    p = default_params(alpha=0.75)
    grid = TimeGrid.from_horizon(1.0, 0.01)
    dBz, _ = brownian_batch(SEED, range(100), grid, 0.0)
    z = simulate_cir(p, grid, dBz)
    qms = [measure_for_atoms(64, p.alpha, MeasureKind.MU)]
    qms.append(qms[0].refined())
    qms.append(qms[1].refined())
    nus = [nu_quantized_paths(p.v0, qm, z, grid) for qm in qms]
    violations = sum(int(np.sum(a > b + 1e-12))
                     for a, b in zip(nus, nus[1:]))
    assert violations == 0
    _ok(4, "quantized volatility nondecreasing across 64/128/256 atoms "
           "on 100 shared-seed paths, 0 violations")


def test_criterion_05_rough_alpha_to_minus_one_limit():
    p = default_params(alpha=-0.9)  # validates the regime; v0 = 0 default
    grid = TimeGrid.from_horizon(1.0, 0.002)
    dBz, _ = brownian_batch(SEED, range(16), grid, 0.0)
    z = simulate_cir(p, grid, dBz)
    errs = []
    for alpha in (-0.9, -0.99, -0.999):
        nu = nu_rough_marchaud(z, alpha, grid, v0=0.0)
        errs.append(np.mean(np.abs(nu - z)) / np.mean(z))
    assert errs[-1] <= 0.05
    assert errs[0] > errs[1] > errs[2]
    _ok(5, f"rough scheme collapses onto Z as alpha -> -1, "
           f"relative errors {errs[0]:.3f} > {errs[1]:.3f} > {errs[2]:.4f}")


def test_criterion_06_rough_affine_vs_mc():
    p = default_params(alpha=-0.75, v0=3.0, z0=0.15)
    grid = TimeGrid.from_horizon(1.0, 2e-3)
    qm = measure_for_atoms(128, p.alpha, MeasureKind.MU_TILDE)
    # mc_value_rough's leg, and a second leg on the same draw that counts
    # each path's negative raw nu
    scheme = VolScheme(SchemeKind.QUANTIZED_ROUGH, qm=qm)
    fk = feynman_kac_leg(p, scheme, grid, PositivityMap.IDENTITY, p.w0 ** p.gamma / p.gamma)
    values, negatives = map_paths(
        [fk, Leg(p, scheme, None, lambda dBs, z, nu: (nu < 0).sum(axis=1), tilde=True)],
        grid, SEED, 100_000, threads=4)
    est = McEstimate.of(values)
    sol = solve_riccati_rough(qm, p, ode_step=1e-3)
    affine = value_function(p, sol).value
    gap = abs(est.mean - affine)
    assert gap <= max(3.0 * est.std_error, 0.02 * abs(affine))
    assert int(negatives.sum()) == 0
    _ok(6, f"rough MC vs affine value, gap {gap:.2e} "
           f"(rel {gap / abs(affine):.2e}), 0 negative-volatility points")


def test_criterion_07_merton_optimality_both_regimes():
    grid = TimeGrid.from_horizon(1.0, 0.005)
    cases = [
        ("fractional", default_params(alpha=0.75),
         VolScheme(SchemeKind.QUANTIZED_FRACTIONAL,
                   qm=measure_for_atoms(64, 0.75, MeasureKind.MU)),
         PositivityMap.IDENTITY),
        ("rough", default_params(alpha=-0.75),
         VolScheme(SchemeKind.QUANTIZED_ROUGH,
                   qm=measure_for_atoms(64, -0.75, MeasureKind.MU_TILDE)),
         PositivityMap.ABSOLUTE),
    ]
    for label, p, scheme, pmap in cases:
        star = merton_ratio(p)
        # mc_utility of each fraction, as the legs of one map: one draw
        u_star, *u_alts = map(McEstimate.of, map_paths(
            [(p, scheme, pmap, _utility(p, frac * star, grid)) for frac in (1.0, 0.8, 1.2)],
            grid, SEED, 20_000, threads=4))
        for u_alt in u_alts:
            slack = 3.0 * max(u_star.std_error, u_alt.std_error)
            assert u_star.mean >= u_alt.mean - slack, label
    _ok(7, "Merton fraction beats 0.8x and 1.2x perturbations under common "
           "random numbers in both regimes")


def test_criterion_08_cir_statistics():
    p = default_params(alpha=0.75)
    grid = TimeGrid.from_horizon(1.0, 1e-3)
    i_half, i_one = grid.steps // 2, grid.steps
    z_half, z_one = [], []
    for start in range(0, 100_000, 4096):
        dBz, _ = brownian_batch(SEED, range(start, min(start + 4096, 100_000)),
                                grid, 0.0, draw_dBs=False)
        z = simulate_cir(p, grid, dBz)
        z_half.append(z[:, i_half])
        z_one.append(z[:, i_one])
    x = {0.5: np.concatenate(z_half), 1.0: np.concatenate(z_one)}
    n = 100_000
    for t, sample in x.items():
        mean_exact = p.theta + (p.z0 - p.theta) * math.exp(-p.kappa * t)
        assert abs(sample.mean() - mean_exact) <= 3.0 * sample.std() / math.sqrt(n)
    for s, u in ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0)):
        prod = (x[s] - x[s].mean()) * (x[u] - x[u].mean())
        sample_cov = prod.sum() / (n - 1)
        se = prod.std() / math.sqrt(n)
        assert abs(sample_cov - cov_cir(s, u, p)) <= 3.0 * se, (s, u)
    _ok(8, "CIR sample mean/variance/covariance within 3 SE of the "
           "closed forms at (0.5,0.5), (0.5,1), (1,1)")


def test_criterion_09_solver_and_integrator_orders():
    # scalar linear ODE: RK4 step of the factor exponent vs closed form
    q, xnode, eta = 0.3, 2.0, -1.0 / 12.0
    h, y = 1e-3, 0.0
    for _ in range(1000):
        f = lambda v: eta * q - xnode * v
        k1, k2 = f(y), f(y + h / 2 * f(y))
        k3 = f(y + h / 2 * k2)
        k4 = f(y + h * k3)
        y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert abs(y - psi(1.0, q, xnode, eta)) <= 1e-8

    # exact exponential factor update vs an Euler oracle at h/100
    p = default_params(alpha=0.75)
    grid = TimeGrid.from_horizon(1.0, 0.01)
    fine = TimeGrid.from_horizon(1.0, 1e-4)
    qm = measure_for_atoms(16, p.alpha, MeasureKind.MU)
    dBz, _ = brownian_batch(SEED, range(1), grid, 0.0)
    z = simulate_cir(p, grid, dBz)[0]
    y_exp = simulate_factors(qm, z, grid)
    z_fine = np.repeat(z[:-1], 100)
    y_fine = np.zeros(len(qm.nodes))
    for k in range(fine.steps):
        y_fine = y_fine + (z_fine[k] - qm.nodes * y_fine) * fine.h
    assert np.max(np.abs(y_exp[-1] - y_fine)) <= 5e-4

    # observed RK4 order on the smooth finite-level forcing
    ref = solve_riccati_finite(qm, p, ode_step=1e-3).at(1.0)[0]
    e1 = abs(solve_riccati_finite(qm, p, ode_step=0.04).at(1.0)[0] - ref)
    e2 = abs(solve_riccati_finite(qm, p, ode_step=0.02).at(1.0)[0] - ref)
    order = math.log2(e1 / e2)
    assert order >= 3.5
    _ok(9, f"RK4 vs closed form <= 1e-8, exponential integrator <= 5e-4, "
           f"observed order {order:.2f} >= 3.5")


def test_criterion_10_cli_determinism(tmp_path):
    cfg = {"alphas": [0.5, -0.75], "rhos": [0.0], "step": 0.02,
           "n_paths": 64, "n_sample_paths": 2, "levels": [8, 16],
           "seed": 7}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    for command in ("simulate", "value"):
        outs = []
        for run, threads in enumerate(("1", "4", "1")):
            out = tmp_path / f"{command}_{run}"
            rc = main(["--config", str(cfg_path), "--out", str(out),
                       "--threads", threads, command])
            assert rc == 0
            outs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert outs[0] == outs[1] == outs[2], command
    _ok(10, "simulate and value outputs byte-identical across reruns and "
            "thread counts")
