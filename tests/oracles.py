"""Reference implementations the test suite checks the library against.

Each function restates a computation of the library, or a closed form it
should agree with, in its plainest form: a fresh Philox generator per path
stream behind the batched Brownian draw, the stepwise path-major CIR
update behind the time-major one, the one-expression log-wealth increments
behind the in-place ones, the per-atom exponential-factor
recurrence behind the quantized volatility and the rho != 0 Z-tilde
driver, a Girsanov-weighted Feynman-Kac estimator on the physical Z, the
O(k^2) sums of the direct Euler schemes, the unfused FFT convolution
behind the fused volatility sum, the per-node Riccati forcings behind the
batched ones, the closed form h^n of the rough Riccati, the exact CIR law,
the mixing densities, the CIR and volatility covariances, and the per-cell
CSV formatting behind the row formats of the CLI writer.  None of it is
part of the library; the tests import it from here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from fracheston import (McEstimate, MeasureKind, ModelParams, QuantizedMeasure,
                        Regime, TimeGrid, brownian_batch, nu_quantized_paths,
                        simulate_cir)
from fracheston.params import gamma_fn
from fracheston.riccati import BLOW_UP_THRESHOLD, RiccatiSolution, _rough_tau_nodes
from fracheston.vol import _ROW_BLOCK, _fast_len

# --- one fresh generator per path stream (oracle of brownian_batch) ---


@dataclass(frozen=True)
class RngSpec:
    """Key of one reproducible random stream."""
    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = (int(self.master_seed) << 64) + int(self.stream_id)
        return np.random.Generator(np.random.Philox(key=key))


def brownian_pair(spec: RngSpec, grid: TimeGrid, rho: float) -> tuple:
    """(dBz, dBs) of one path stream, from a fresh generator."""
    gen = spec.generator()
    normals = gen.standard_normal((2, grid.steps))
    sqh = np.sqrt(grid.h)
    dBz = normals[0] * sqh
    dBs = rho * dBz + np.sqrt(1.0 - rho ** 2) * normals[1] * sqh
    return dBz, dBs


# --- stepwise CIR (oracle of the time-major sim.simulate_cir) ---


def simulate_cir_stepwise(p: ModelParams, grid: TimeGrid, dBz: np.ndarray) -> np.ndarray:
    """Full-truncation Euler CIR, one whole-array update per step on a
    path-major array, clipped at zero.  Shape: dBz.shape[:-1] + (steps+1,)."""
    h = grid.h
    z = np.empty(dBz.shape[:-1] + (grid.steps + 1,))
    z[..., 0] = p.z0
    zk = np.full(dBz.shape[:-1], float(p.z0))
    for k in range(grid.steps):
        zp = np.maximum(zk, 0.0)
        zk = zk + p.kappa * (p.theta - zp) * h + p.sigma * np.sqrt(zp) * dBz[..., k]
        z[..., k + 1] = zk
    return np.maximum(z, 0.0)


def wealth_path_expression(pi, nu_path: np.ndarray, grid: TimeGrid,
                           dBs: np.ndarray, p: ModelParams) -> np.ndarray:
    """sim.simulate_wealth with its log increments as one broadcast
    expression, (r + pi nu (lam - pi/2)) h + pi sqrt(nu) dBs."""
    nu = nu_path[..., :-1]
    pis = np.broadcast_to(np.asarray(pi, dtype=float), nu.shape)
    log_incr = (p.r + pis * nu * (p.lam - 0.5 * pis)) * grid.h + pis * np.sqrt(nu) * dBs
    logs = np.concatenate([np.zeros(log_incr.shape[:-1] + (1,)),
                           np.cumsum(log_incr, axis=-1)], axis=-1)
    return p.w0 * np.exp(logs)


# --- per-atom factor recurrences (oracles of nu_quantized[_rough]_paths
#     and of the step-blocked simulate_tilde_z) ---


def _exp_integrator(x: np.ndarray, z_path: np.ndarray, grid: TimeGrid) -> np.ndarray:
    h = grid.h
    decay = np.exp(-x * h)
    gain = (1.0 - decay) / x
    lead = z_path.shape[:-1]
    out = np.zeros(lead + (grid.steps + 1, len(x)))
    y = np.zeros(lead + (len(x),))
    for k in range(grid.steps):
        y = y * decay + z_path[..., k, None] * gain
        out[..., k + 1, :] = y
    return out


def simulate_factors(qm: QuantizedMeasure, z_path: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Exponential-integrator factors Y^x for each atom of a fractional measure.

    Y_{k+1} = exp(-x h) Y_k + Z_k (1 - exp(-x h))/x, exact for piecewise-
    constant Z.  Output shape: z_path.shape[:-1] + (steps+1, n_atoms).
    """
    if qm.kind is not MeasureKind.MU:
        raise ValueError("simulate_factors needs a fractional-kind measure")
    return _exp_integrator(qm.nodes, z_path, grid)


def simulate_factors_rough(qm: QuantizedMeasure, z_path: np.ndarray,
                           grid: TimeGrid) -> np.ndarray:
    """Rough factors via the decomposition Y~_t = Z_t J_t - I_t.

    I_t^x = int_0^t exp(-(t-s)x) Z_s ds is the fractional factor integrator;
    J_t^x = (1 - exp(-t x))/x is deterministic.
    """
    if qm.kind is not MeasureKind.MU_TILDE:
        raise ValueError("simulate_factors_rough needs a rough-kind measure")
    x = qm.nodes
    i_fac = _exp_integrator(x, z_path, grid)
    t = grid.times
    with np.errstate(invalid="ignore"):
        j = np.where(t[:, None] > 0, (1.0 - np.exp(-np.outer(t, x))) / x, 0.0)
    return z_path[..., None] * j - i_fac


def nu_quantized(v0: float, qm: QuantizedMeasure, factor_matrix: np.ndarray) -> np.ndarray:
    """Finite-atom fractional volatility: nu = v0 + sum_i q_i Y^{x_i}."""
    if qm.kind is not MeasureKind.MU:
        raise ValueError("nu_quantized needs a fractional-kind measure")
    return v0 + factor_matrix @ qm.weights


def nu_quantized_rough(v0: float, z_path: np.ndarray, qm: QuantizedMeasure,
                       rough_factor_matrix: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Finite-atom rough volatility:
    nu = v0 + Z_t t^(-alpha-1)/Gamma(-alpha) + sum_i q~_i Y~^{x_i};
    the t = 0 value is defined as v0.
    """
    if qm.kind is not MeasureKind.MU_TILDE:
        raise ValueError("nu_quantized_rough needs a rough-kind measure")
    alpha = qm.alpha
    t = grid.times
    sing = np.zeros_like(t)
    sing[1:] = t[1:] ** (-alpha - 1.0) / gamma_fn(-alpha)
    return v0 + z_path * sing + rough_factor_matrix @ qm.weights


def simulate_tilde_z_recurrence(p: ModelParams, qm: QuantizedMeasure, grid: TimeGrid,
                                dBz: np.ndarray):
    """Drift-corrected CIR with nu = v0 + q . Y, one factor update per step
    (oracle of the step-blocked sim.simulate_tilde_z).

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


def feynman_kac_girsanov(p: ModelParams, qm: QuantizedMeasure, n_paths: int,
                         grid: TimeGrid, master_seed: int,
                         sign: float = 1.0) -> McEstimate:
    """mc.mc_feynman_kac at rho != 0 without the Z-tilde driver (its
    independent check): the Feynman-Kac functional f on the physical Z,
    weighted by the discrete Girsanov density

        L = exp(sum_k beta_k dB_k - h/2 sum_k beta_k^2),
        beta_k = coef/sigma * sqrt(nu_k^+) where Z_k > 0, else 0,

    under which each dB_k has mean beta_k h, so the weighted Euler step of
    Z is the Z-tilde step with its correction coef * sqrt(Z^+ nu^+).  The
    estimator f L - b (L - 1), b = mean(f), uses E[L] = 1 as a control
    variate.  sign = -1 flips the correction (a deliberately wrong density).
    """
    d = p.derived()
    c = d.c_exponent
    coef = sign * p.lam * p.gamma * p.sigma * p.rho / (1.0 - p.gamma)
    fs, ls = [], []
    for start in range(0, n_paths, 8192):  # in slices, to bound memory
        dBz = brownian_batch(master_seed, range(start, min(start + 8192, n_paths)),
                             grid, p.rho, draw_dBs=False)[0]
        z = simulate_cir(p, grid, dBz)
        nu = nu_quantized_paths(p.v0, qm, z, grid)[:, :-1]
        fs.append(np.exp(p.gamma * p.r / c * grid.horizon
                         + d.eta / c * grid.h * np.sum(nu, axis=1)))
        beta = np.where(z[:, :-1] > 0.0,
                        coef / p.sigma * np.sqrt(np.maximum(nu, 0.0)), 0.0)
        ls.append(np.exp(np.sum(beta * dBz, axis=1)
                         - 0.5 * grid.h * np.sum(beta * beta, axis=1)))
    f, weight = np.concatenate(fs), np.concatenate(ls)
    g = f * weight - f.mean() * (weight - 1.0)
    return McEstimate(mean=float(g.mean()),
                      std_error=float(g.std(ddof=1) / math.sqrt(n_paths)),
                      n_paths=n_paths)


# --- O(k^2) sums (oracles of the FFT convolution engine) ---


def direct_causal_convolve(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(w * z)_k = sum_{j=0}^{k-1} w[k-j] z[j] for k = 1..len(w)-1."""
    steps = len(w) - 1
    zk = z[..., :steps]
    out = np.empty(zk.shape)
    for k in range(1, steps + 1):
        out[..., k - 1] = np.einsum("...j,j->...", zk[..., :k], w[k:0:-1])
    return out


def causal_convolve(z: np.ndarray, w_hat: np.ndarray, n: int) -> np.ndarray:
    """(w * z)_k for k = 1..steps, with w given as w_hat = rfft(w[1:], n),
    by a row-blocked FFT that multiplies each block's spectrum in place,
    gathered into one array of shape z.shape[:-1] + (steps,)."""
    steps = z.shape[-1] - 1
    zk = z[..., :steps]
    out = np.empty(zk.shape)
    rows = zk.reshape(-1, steps)
    flat = out.reshape(-1, steps)
    padded = np.zeros((min(_ROW_BLOCK, len(rows)), n))
    for a in range(0, len(rows), _ROW_BLOCK):
        block = padded[:min(_ROW_BLOCK, len(rows) - a)]
        block[:, :steps] = rows[a:a + _ROW_BLOCK]
        spec = np.fft.rfft(block)
        spec *= w_hat
        flat[a:a + _ROW_BLOCK] = np.fft.irfft(spec, n)[:, :steps]
    return out


def volterra_paths_unfused(z_path: np.ndarray, kernel, spectrum=None,
                           out=None) -> np.ndarray:
    """vol._volterra_paths in whole-array passes: the gathered convolution,
    from its own transform of Z (a shared spectrum is not read), then
    += the local term, then += v0, into out if given."""
    steps = z_path.shape[-1] - 1
    nu = np.empty(z_path.shape) if out is None else out
    nu[..., 0] = kernel.v0
    nu[..., 1:] = causal_convolve(z_path, kernel.w_hat, _fast_len(2 * steps))
    nu[..., 1:] += 0.0 if kernel.local is None else z_path[..., 1:] * kernel.local
    nu[..., 1:] += kernel.v0
    return nu


def nu_fractional_euler_direct(z_path: np.ndarray, alpha: float, grid: TimeGrid,
                               v0: float = 0.0) -> np.ndarray:
    """nu_k = v0 + h^alpha sum_{j<k} ((k-j)^alpha - (k-j-1)^alpha)/Gamma(alpha+1) Z_j."""
    nu = np.full(z_path.shape, float(v0))
    for k in range(1, grid.steps + 1):
        m = k - np.arange(k, dtype=float)  # k - j for j < k
        w = grid.h ** alpha * (m ** alpha - (m - 1.0) ** alpha) / gamma_fn(alpha + 1.0)
        nu[..., k] += z_path[..., :k] @ w
    return nu


def nu_rough_marchaud_direct(z_path: np.ndarray, alpha: float, grid: TimeGrid,
                             v0: float = 0.0, delta: float = 0.49) -> np.ndarray:
    """nu_k = v0 + Z_k t_k^(-alpha-1)/Gamma(-alpha)
    + (alpha+1)/((alpha+0.5) Gamma(-alpha) h^(alpha+1))
      * sum_{j<k} (Z_k - Z_j)/(k-j)^delta
        * ((k-j-1)^(delta-alpha-1) - (k-j)^(delta-alpha-1)),  nu_0 = v0.
    """
    e = delta - alpha - 1.0
    pref = (alpha + 1.0) / ((alpha + 0.5) * gamma_fn(-alpha) * grid.h ** (alpha + 1.0))
    nu = np.full(z_path.shape, float(v0))
    for k in range(1, grid.steps + 1):
        m = k - np.arange(k, dtype=float)
        c = m ** (-delta) * ((m - 1.0) ** e - m ** e)
        diff = z_path[..., k, None] - z_path[..., :k]
        nu[..., k] += (z_path[..., k] * grid.times[k] ** (-alpha - 1.0) / gamma_fn(-alpha)
                       + pref * (diff @ c))
    return nu


# --- per-node Riccati forcings (oracles of the batched riccati solvers) ---


def _rk4_per_node(forcing, deriv, tau_nodes: np.ndarray,
                  varphi_of=lambda f, v: v) -> RiccatiSolution:
    """RK4 of (v', Phi') = deriv(forcing(tau), v), calling the scalar forcing
    at each node as the step reaches it."""
    taus, vs, pbs = [0.0], [0.0], [0.0]
    v, pb = 0.0, 0.0
    blow_up = None
    f1 = forcing(tau_nodes[0])
    for i in range(len(tau_nodes) - 1):
        t0, t1 = tau_nodes[i], tau_nodes[i + 1]
        dt = t1 - t0
        f0, fm, f1 = f1, forcing(t0 + dt / 2), forcing(t1)
        k1v, k1p = deriv(f0, v)
        k2v, k2p = deriv(fm, v + dt / 2 * k1v)
        k3v, k3p = deriv(fm, v + dt / 2 * k2v)
        k4v, k4p = deriv(f1, v + dt * k3v)
        v = v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        pb = pb + dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        varphi = varphi_of(f1, v)
        if not np.isfinite(varphi) or abs(varphi) > BLOW_UP_THRESHOLD:
            blow_up = float(t1)
            break
        taus.append(float(t1))
        vs.append(float(varphi))
        pbs.append(float(pb))
    return RiccatiSolution(tau_grid=np.array(taus), varphi=np.array(vs),
                           phi_big=np.array(pbs), blow_up=blow_up)


def _rk4_system_per_node(forcing, p: ModelParams, ode_step: float) -> RiccatiSolution:
    eta = p.derived().eta
    kap, sig2 = p.kappa, p.sigma ** 2

    def deriv(f, v):
        return (f - kap * v + 0.5 * sig2 * v * v,
                p.gamma * p.r + p.v0 * eta + kap * p.theta * v)

    n = max(1, round(p.horizon / ode_step))
    return _rk4_per_node(forcing, deriv, np.linspace(0.0, p.horizon, n + 1))


def solve_riccati_finite_per_node(qm: QuantizedMeasure, p: ModelParams,
                                  ode_step: float) -> RiccatiSolution:
    """solve_riccati_finite with eta * q . (1 - e^{-x tau})/x taken node by node."""
    eta = p.derived().eta
    x, q = qm.nodes, qm.weights
    return _rk4_system_per_node(
        lambda tau: eta * float(np.dot(q, (1.0 - np.exp(-x * tau)) / x)), p, ode_step)


def solve_riccati_limit_per_node(p: ModelParams, ode_step: float,
                                 alpha: float) -> RiccatiSolution:
    """solve_riccati_limit with eta tau^alpha / Gamma(alpha+1) node by node."""
    eta = p.derived().eta
    ga1 = gamma_fn(alpha + 1.0)

    def forcing(tau):
        if alpha == 0.0:
            return eta
        return eta * tau ** alpha / ga1 if tau > 0 else 0.0

    return _rk4_system_per_node(forcing, p, ode_step)


def solve_riccati_rough_per_node(qm: QuantizedMeasure, p: ModelParams,
                                 ode_step: float) -> RiccatiSolution:
    """solve_riccati_rough with the singular antiderivative and h^n at
    t = T - tau taken node by node."""
    alpha, horizon = qm.alpha, p.horizon
    eta = p.derived().eta
    kap, sig2 = p.kappa, p.sigma ** 2
    gna = gamma_fn(-alpha)

    def forcing(tau):
        return (eta * ((horizon - tau) ** (-alpha) - horizon ** (-alpha)) / (alpha * gna),
                h_closed_form(horizon - tau, horizon, qm))

    def deriv(f, vs):
        psing, hn = f
        v = vs + psing
        return (-kap * v + 0.5 * sig2 * v * v
                - eta * hn * (kap - sig2 * v - 0.5 * sig2 * eta * hn),
                p.gamma * p.r + p.v0 * eta + kap * p.theta * (v + eta * hn))

    return _rk4_per_node(forcing, deriv, _rough_tau_nodes(horizon, ode_step),
                         lambda f, vs: vs + f[0])


# --- closed forms and exact laws ---


def h_closed_form(t: float, horizon: float, qm: QuantizedMeasure) -> float:
    """h^n(t) = sum_i q~_i (1 - e^{-x_i t})(1 - e^{-x_i (T-t)}) / x_i^2, the
    rough Riccati's h.

    Closed form of the triple integral of e^{-x(s+u)} over
    [0,t] x [0,T-t] against mu~^n; vanishes at t = 0 and t = T.
    """
    x = qm.nodes
    return float(np.dot(qm.weights, (1.0 - np.exp(-x * t))
                        * (1.0 - np.exp(-x * (horizon - t))) / x ** 2))


def sample_cir_exact(p: ModelParams, t: float, n: int,
                     gen: np.random.Generator) -> np.ndarray:
    """Exact CIR marginal via the noncentral chi-square transition."""
    c = p.sigma ** 2 * (1.0 - np.exp(-p.kappa * t)) / (4.0 * p.kappa)
    df = 4.0 * p.kappa * p.theta / p.sigma ** 2
    nc = p.z0 * np.exp(-p.kappa * t) / c
    return c * gen.noncentral_chisquare(df, nc, size=n)


def optimal_wealth_closed_form(nu_path: np.ndarray, grid: TimeGrid,
                               dBs: np.ndarray, p: ModelParams) -> np.ndarray:
    """Closed-form optimal wealth under the Merton fraction lam/(1-gamma).

    W_t = w0 exp(r t + int (lam^2/(1-gamma) - lam^2/(2(1-gamma)^2)) nu ds
                 + int lam/(1-gamma) sqrt(nu) dBs),
    with left-endpoint quadrature on the same grid and increments.
    """
    m = p.lam / (1.0 - p.gamma)
    nu = nu_path[..., :-1]
    drift = p.r + (p.lam ** 2 / (1.0 - p.gamma)
                   - 0.5 * p.lam ** 2 / (1.0 - p.gamma) ** 2) * nu
    log_incr = drift * grid.h + m * np.sqrt(nu) * dBs
    logs = np.concatenate([np.zeros(nu.shape[:-1] + (1,)),
                           np.cumsum(log_incr, axis=-1)], axis=-1)
    return p.w0 * np.exp(logs)


def mu_density(x: float, alpha: float) -> float:
    """Density of the exponential mixing measure of the fractional kernel.

    mu(dx) = dx / (x^alpha * Gamma(alpha) * Gamma(1-alpha)); by reflection
    this equals sin(pi*alpha)/(pi * x^alpha).
    """
    if x <= 0:
        raise ValueError("mu density requires x > 0")
    if not (0.0 < alpha < 1.0):
        raise ValueError("mu requires alpha in (0, 1)")
    return 1.0 / (x ** alpha * gamma_fn(alpha) * gamma_fn(1.0 - alpha))


def mu_tilde_density(x: float, alpha: float) -> float:
    """Density of the rough mixing measure: x^(alpha+1)/(Gamma(-alpha)*Gamma(alpha+1))."""
    if x <= 0:
        raise ValueError("mu_tilde density requires x > 0")
    if not (-1.0 < alpha < -0.5):
        raise ValueError("mu_tilde requires alpha in (-1, -1/2)")
    return x ** (alpha + 1.0) / (gamma_fn(-alpha) * gamma_fn(alpha + 1.0))


def cov_cir(s: float, u: float, p: ModelParams) -> float:
    """Closed-form covariance Cov(Z_s, Z_u) of the CIR process."""
    if s < 0 or u < 0:
        raise ValueError("times must be nonnegative")
    k, th, z0, sig = p.kappa, p.theta, p.z0, p.sigma
    return sig ** 2 * (th / (2 * k) * math.exp(-k * abs(s - u))
                       + (z0 - th) / k * math.exp(-k * min(s, u))
                       - (2 * z0 - th) / (2 * k) * math.exp(-k * (s + u)))


def cov_nu(t: float, lag: float, p: ModelParams, quad_nodes: int = 60) -> float:
    """Covariance Cov(nu_{t+lag}, nu_t) of the fractional volatility.

    Double integral of (t-s)^(alpha-1) (t+lag-u)^(alpha-1) Cov(Z_s, Z_u)
    over [0,t] x [0,t+lag], divided by Gamma(alpha)^2.  The integrable
    power singularities at s -> t and u -> t+lag are absorbed into
    Gauss-Jacobi weights (exponent alpha-1), so the quadrature sees only
    the smooth covariance factor.
    """
    if p.regime is not Regime.FRACTIONAL:
        raise ValueError("cov_nu is defined in the fractional regime only")
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    alpha = p.alpha
    xs, ws = roots_jacobi(quad_nodes, alpha - 1.0, 0.0)
    # s-axis over [0, t]: s = t*(x+1)/2, (t-s)^(alpha-1) folded into weights
    s_nodes = t * (xs + 1.0) / 2.0
    s_scale = (t / 2.0) ** alpha
    # u-axis over [0, t+lag]
    tu = t + lag
    u_nodes = tu * (xs + 1.0) / 2.0
    u_scale = (tu / 2.0) ** alpha
    S, U = np.meshgrid(s_nodes, u_nodes, indexing="ij")
    k, th, z0, sig = p.kappa, p.theta, p.z0, p.sigma
    cov = sig ** 2 * (th / (2 * k) * np.exp(-k * np.abs(S - U))
                      + (z0 - th) / k * np.exp(-k * np.minimum(S, U))
                      - (2 * z0 - th) / (2 * k) * np.exp(-k * (S + U)))
    total = ws @ cov @ ws
    return float(s_scale * u_scale * total / gamma_fn(alpha) ** 2)


# --- one format per cell (oracle of cli._write_csv) ---


def csv_cell(v) -> str:
    """A CSV cell: str as is, integers (bool and np.integer too) in decimal,
    every other number with 17 significant digits."""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % v


def csv_text(header: list, rows) -> str:
    return "".join(",".join(map(csv_cell, row)) + "\n"
                   for row in [header, *rows])
