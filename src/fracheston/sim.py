"""Path simulation: RNG streams, Brownian increments and SDE schemes.

Randomness is organized as counter-based Philox streams keyed by
(master_seed, stream_id), one stream per path, so any path is bit-identical
across runs and thread schedules.  The CIR process uses full-truncation
Euler (reported values are clipped at zero); the exponential factor
processes use exact exponential integrators, which are unconditionally
stable for the stiff large-x atoms produced by quantization.

simulate_tilde_z, the rho != 0 Feynman-Kac driver, is the one loop that
carries factor state (nu feeds back into its drift).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ModelParams
from .quantize import MeasureKind, QuantizedMeasure


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k*h, k = 0..steps."""
    h: float
    steps: int

    def __post_init__(self):
        if self.h <= 0 or self.steps < 1:
            raise ValueError("need h > 0 and steps >= 1")

    @classmethod
    def from_horizon(cls, horizon: float, h: float) -> "TimeGrid":
        steps = round(horizon / h)
        if abs(steps * h - horizon) > 1e-12:
            raise ValueError(f"horizon {horizon} is not an integer multiple of h={h}")
        return cls(h=h, steps=steps)

    @property
    def horizon(self) -> float:
        return self.steps * self.h

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.h


@dataclass(frozen=True)
class RngSpec:
    """Key of one reproducible random stream."""
    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = (int(self.master_seed) << 64) + int(self.stream_id)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class BrownianPair:
    """Per-step increments of B^Z and B^S with Corr(dBz, dBs) = rho."""
    dBz: np.ndarray
    dBs: np.ndarray


def brownian_pair(spec: RngSpec, grid: TimeGrid, rho: float) -> BrownianPair:
    gen = spec.generator()
    normals = gen.standard_normal((2, grid.steps))
    sqh = np.sqrt(grid.h)
    dBz = normals[0] * sqh
    dBs = rho * dBz + np.sqrt(1.0 - rho ** 2) * normals[1] * sqh
    return BrownianPair(dBz=dBz, dBs=dBs)


def brownian_batch(master_seed: int, stream_ids, grid: TimeGrid, rho: float) -> BrownianPair:
    """Stacked increments for a batch of path streams, shape (n_paths, steps)."""
    dBz = np.empty((len(stream_ids), grid.steps))
    dBs = np.empty_like(dBz)
    for row, sid in enumerate(stream_ids):
        bp = brownian_pair(RngSpec(master_seed, sid), grid, rho)
        dBz[row] = bp.dBz
        dBs[row] = bp.dBs
    return BrownianPair(dBz=dBz, dBs=dBs)


def simulate_cir(p: ModelParams, grid: TimeGrid, dBz: np.ndarray) -> np.ndarray:
    """CIR path(s) by full-truncation Euler; output is clipped at zero.
    Shape: dBz.shape[:-1] + (steps+1,)."""
    h = grid.h
    z = np.empty(dBz.shape[:-1] + (grid.steps + 1,))
    z[..., 0] = p.z0
    zk = np.full(dBz.shape[:-1], float(p.z0))
    for k in range(grid.steps):
        zp = np.maximum(zk, 0.0)
        zk = zk + p.kappa * (p.theta - zp) * h + p.sigma * np.sqrt(zp) * dBz[..., k]
        z[..., k + 1] = zk
    return np.maximum(z, 0.0)


def simulate_tilde_z(p: ModelParams, qm: QuantizedMeasure, grid: TimeGrid,
                     dBz: np.ndarray):
    """Drift-corrected CIR (the Feynman-Kac driving process) by
    full-truncation Euler.

    Returns (z, nu) where nu = v0 + q . Y is maintained concurrently from
    the exponential-integrator factors of the simulated path; only the
    running factor state is kept, so large batches stay memory-light.
    The correction lam*gamma*sigma*rho/(1-gamma) * sqrt(Z * nu) vanishes
    at rho = 0, where the path coincides with simulate_cir bit for bit.
    Shapes: dBz.shape[:-1] + (steps+1,).
    """
    if qm.kind is not MeasureKind.MU:
        raise ValueError("simulate_tilde_z needs a fractional-kind measure")
    coef = p.lam * p.gamma * p.sigma * p.rho / (1.0 - p.gamma)
    h = grid.h
    lead = dBz.shape[:-1]
    decay = np.exp(-qm.nodes * h)
    gain = (1.0 - decay) / qm.nodes
    y = np.zeros(lead + (qm.n_atoms,))
    z = np.empty(lead + (grid.steps + 1,))
    z[..., 0] = p.z0
    nu = np.empty_like(z)
    nu[..., 0] = p.v0
    zk = np.full(lead, float(p.z0))
    for k in range(grid.steps):
        zp = np.maximum(zk, 0.0)
        corr = coef * np.sqrt(zp * np.maximum(nu[..., k], 0.0))
        zk = zk + (p.kappa * (p.theta - zp) + corr) * h + p.sigma * np.sqrt(zp) * dBz[..., k]
        y = y * decay + zp[..., None] * gain
        nu[..., k + 1] = p.v0 + y @ qm.weights
        z[..., k + 1] = zk
    return np.maximum(z, 0.0), nu


def simulate_stock(nu_path: np.ndarray, grid: TimeGrid, dBs: np.ndarray,
                   p: ModelParams, s0: float = 100.0) -> np.ndarray:
    """Log-Euler stock path: S_{k+1} = S_k exp((r + lam*nu - nu/2) h + sqrt(nu) dBs)."""
    if np.any(nu_path < 0):
        raise ValueError("stock simulation needs a nonnegative volatility path")
    nu = nu_path[..., :-1]
    log_incr = (p.r + p.lam * nu - 0.5 * nu) * grid.h + np.sqrt(nu) * dBs
    logs = np.concatenate([np.zeros(nu.shape[:-1] + (1,)),
                           np.cumsum(log_incr, axis=-1)], axis=-1)
    return s0 * np.exp(logs)


def simulate_wealth(pi, nu_path: np.ndarray, grid: TimeGrid, dBs: np.ndarray,
                    p: ModelParams) -> np.ndarray:
    """Wealth path under a strategy, in log space (exact lognormal solution
    with left-endpoint quadrature of the drift integral).

    pi is a scalar or an array of per-step fractions, applied at the left
    endpoint of each step.
    """
    if np.any(nu_path < 0):
        raise ValueError("wealth simulation needs a nonnegative volatility path")
    nu = nu_path[..., :-1]
    pis = np.broadcast_to(np.asarray(pi, dtype=float), nu.shape)
    log_incr = (p.r + pis * nu * (p.lam - 0.5 * pis)) * grid.h + pis * np.sqrt(nu) * dBs
    logs = np.concatenate([np.zeros(nu.shape[:-1] + (1,)),
                           np.cumsum(log_incr, axis=-1)], axis=-1)
    return p.w0 * np.exp(logs)
