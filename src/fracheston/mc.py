"""Monte Carlo engines and affine cross-validation.

Every estimator and CLI command simulates through path_batch (Brownian
pair, then Z or the Feynman-Kac Z-tilde, nu, positivity map), mapped by
map_paths over fixed batches of per-path Philox streams and reduced with
exact (fsum) summation, so results are bit-identical for any worker
count.  Common random numbers (shared master seed) are used for every
strategy or refinement-level comparison.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .params import ModelParams, Regime, merton_ratio
from .quantize import QuantizedMeasure, approx_kernel, frac_kernel
from .riccati import solve_riccati_finite, value_function
from .sim import (TimeGrid, brownian_batch, simulate_cir, simulate_tilde_z,
                  simulate_wealth)
from .vol import PositivityMap, SchemeKind, VolScheme, apply_positivity

BATCH_SIZE = 2048


@dataclass(frozen=True)
class McEstimate:
    """Mean and standard error of one Monte Carlo functional."""
    mean: float
    std_error: float
    n_paths: int

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("need at least 2 paths for a standard error")


def _reduce(values: np.ndarray) -> McEstimate:
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return McEstimate(mean=mean, std_error=math.sqrt(var / n), n_paths=n)


def _map_batches(batch_fn, n_paths: int, threads: int = 1,
                 batch_size: int = BATCH_SIZE) -> np.ndarray:
    """Run batch_fn(start, stop) over fixed path-index slices; batch layout
    is independent of the worker count, so the concatenated output is too."""
    slices = [(s, min(s + batch_size, n_paths)) for s in range(0, n_paths, batch_size)]
    if threads <= 1 or len(slices) == 1:
        parts = [batch_fn(a, b) for a, b in slices]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(lambda ab: batch_fn(*ab), slices))
    return np.concatenate(parts)


def path_batch(p: ModelParams, scheme: VolScheme, grid: TimeGrid,
               master_seed: int, start: int, stop: int,
               pos_map: PositivityMap | None = PositivityMap.IDENTITY,
               tilde: bool = False, draw_dBs: bool = True) -> tuple:
    """(Brownian pair, Z, nu) for paths start..stop, nu after pos_map (raw
    with pos_map=None).  tilde=True asks for the drift-corrected Z-tilde of
    the Feynman-Kac measure, which only the quantized fractional scheme
    provides (others raise ValueError at rho != 0); at rho = 0 it is Z.
    draw_dBs=False skips the stock increments (the pair's dBs is None) for
    callers that read only Z and nu.
    """
    tilde = tilde and p.rho != 0.0
    if tilde and scheme.kind is not SchemeKind.QUANTIZED_FRACTIONAL:
        raise ValueError(f"rho={p.rho} needs the drift-corrected Z-tilde, which only "
                         f"{SchemeKind.QUANTIZED_FRACTIONAL.value} provides; "
                         f"got {scheme.kind.value}")
    bp = brownian_batch(master_seed, range(start, stop), grid, p.rho, draw_dBs)
    if tilde:
        z, nu = simulate_tilde_z(p, scheme.qm, grid, bp.dBz)
    else:
        z = simulate_cir(p, grid, bp.dBz)
        nu = scheme.nu_paths(p, z, grid)
    if pos_map is not None:
        nu = apply_positivity(nu, pos_map)
    return bp, z, nu


def map_paths(integrand, p: ModelParams, scheme: VolScheme, grid: TimeGrid,
              master_seed: int, n_paths: int, threads: int = 1,
              pos_map: PositivityMap | None = PositivityMap.IDENTITY,
              tilde: bool = False, draw_dBs: bool = True) -> np.ndarray:
    """integrand(*path_batch) over fixed BATCH_SIZE batches of paths
    0..n_paths, concatenated in path order whatever the worker count."""
    def batch(start, stop):
        return integrand(*path_batch(p, scheme, grid, master_seed, start, stop,
                                     pos_map, tilde, draw_dBs))

    return _map_batches(batch, n_paths, threads)


def mc_feynman_kac(p: ModelParams, scheme: VolScheme, n_paths: int,
                   grid: TimeGrid, master_seed: int, threads: int = 1,
                   pos_map: PositivityMap = PositivityMap.IDENTITY) -> McEstimate:
    """Estimate the Laplace-transform representation of the affine factor:

    E[exp(int_0^T (gamma r / c + eta/c * nu_s) ds)]

    with left-endpoint time quadrature, driven by Z-tilde (Z at rho = 0;
    path_batch rejects a scheme without that driver at rho != 0 rather
    than silently dropping the drift correction).  In the rough regime nu
    enters through the positivity map.
    """
    d = p.derived()
    c = d.c_exponent
    h = grid.h

    def integrand(bp, z, nu):
        integral = h * np.sum(nu[..., :-1], axis=-1)
        return np.exp(p.gamma * p.r / c * grid.horizon + d.eta / c * integral)

    values = map_paths(integrand, p, scheme, grid, master_seed, n_paths, threads,
                       pos_map, tilde=True, draw_dBs=False)
    return _reduce(values)


def mc_utility(p: ModelParams, pi: float, scheme: VolScheme,
               pos_map: PositivityMap, n_paths: int, grid: TimeGrid,
               master_seed: int, threads: int = 1) -> McEstimate:
    """Expected power utility (1/gamma) W_T^gamma of the constant risky
    fraction pi (e.g. merton_ratio(p)), on the physical Z at any rho."""

    def integrand(bp, z, nu):
        w = simulate_wealth(pi, nu, grid, bp.dBs, p)
        return w[..., -1] ** p.gamma / p.gamma

    values = map_paths(integrand, p, scheme, grid, master_seed, n_paths, threads,
                       pos_map)
    return _reduce(values)


def mc_value_rough(p: ModelParams, qm_tilde: QuantizedMeasure,
                   pos_map: PositivityMap, n_paths: int, grid: TimeGrid,
                   master_seed: int, threads: int = 1) -> McEstimate:
    """Rough-regime value (1/gamma) w0^gamma E[exp(int (gamma r + eta a(nu)) ds)]
    on the quantized rough scheme (which rejects a measure not of mu_tilde kind)."""
    if p.rho != 0.0:
        raise ValueError("the rough value estimator is defined for rho = 0")
    scheme = VolScheme(SchemeKind.QUANTIZED_ROUGH, qm=qm_tilde)
    eta = p.derived().eta
    h = grid.h
    wfac = p.w0 ** p.gamma / p.gamma

    def integrand(bp, z, nu):
        integral = h * np.sum(nu[..., :-1], axis=-1)
        return wfac * np.exp(p.gamma * p.r * grid.horizon + eta * integral)

    values = map_paths(integrand, p, scheme, grid, master_seed, n_paths, threads,
                       pos_map, draw_dBs=False)
    return _reduce(values)


@dataclass(frozen=True)
class ConvergenceRow:
    level_atoms: int
    monotonicity_violations: int
    kernel_error: float
    riccati_value: float
    value_gap_to_next: float
    mc_mean: float
    mc_std_error: float
    epsilon: float


def convergence_study(p: ModelParams, qms: list, n_paths: int, grid: TimeGrid,
                      master_seed: int, n_monotone_paths: int = 100,
                      threads: int = 1) -> list:
    """Per-refinement-level diagnostics on shared randomness.

    For each consecutive pair of nested measures: pathwise monotonicity
    violations of the quantized volatility (expected zero), the kernel
    approximation error at t = 1, the Riccati value and its gap to the
    next level, the Monte Carlo utility of the Merton strategy, and the
    near-optimality certificate (value gap + quantized-vs-direct MC gap).
    """
    if p.regime is not Regime.FRACTIONAL:
        raise ValueError("the convergence study runs in the fractional regime")
    schemes = [VolScheme(SchemeKind.QUANTIZED_FRACTIONAL, qm=qm) for qm in qms]
    nus = [path_batch(p, s, grid, master_seed, 0, n_monotone_paths, pos_map=None,
                      draw_dBs=False)[2]
           for s in schemes]
    pi = merton_ratio(p)
    euler_util = mc_utility(p, pi, VolScheme(SchemeKind.FRACTIONAL_EULER),
                            PositivityMap.IDENTITY, n_paths, grid, master_seed,
                            threads)
    rows = []
    values = [value_function(p, solve_riccati_finite(qm, p, ode_step=grid.h)).value
              for qm in qms]
    for i, qm in enumerate(qms):
        if i + 1 < len(qms):
            violations = int(np.sum(nus[i] > nus[i + 1] + 1e-12))
            value_gap = abs(values[i] - values[i + 1])
        else:
            violations = 0
            value_gap = math.nan
        util = mc_utility(p, pi, schemes[i], PositivityMap.IDENTITY, n_paths,
                          grid, master_seed, threads)
        eps = (value_gap if math.isfinite(value_gap) else 0.0) \
            + abs(util.mean - euler_util.mean)
        rows.append(ConvergenceRow(
            level_atoms=qm.n_atoms,
            monotonicity_violations=violations,
            kernel_error=abs(approx_kernel(1.0, qm) - frac_kernel(1.0, p.alpha)),
            riccati_value=values[i],
            value_gap_to_next=value_gap,
            mc_mean=util.mean,
            mc_std_error=util.std_error,
            epsilon=eps,
        ))
    return rows
