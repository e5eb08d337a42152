"""Riccati ODE solvers and affine value-function assembly.

The exponent of the power-utility value function splits into closed-form
psi coefficients (one per quantization atom), a scalar Riccati solution
varphi and a plainly integrated Phi.  Three forcing variants are covered:
finite-atom fractional, the fractional limit (power-law forcing, reducing
to classical Heston at alpha = 0) and the rough finite-atom system whose
forcing carries an integrable power singularity at the terminal tau.

Each system is a tau-only forcing plus one derivative of (varphi, Phi)
given that forcing.  All share one classical RK4 driver in tau = T - t
that evaluates the forcing once per distinct node, detects blow-up of
varphi (the affine ansatz may only exist up to a finite horizon) and
returns an immutable solution object on a tau grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ModelParams, Regime, gamma_fn
from .quantize import MeasureKind, QuantizedMeasure

BLOW_UP_THRESHOLD = 1e6


class RiccatiBlowUp(RuntimeError):
    """Raised when the value function is requested past the blow-up horizon."""


@dataclass(frozen=True)
class RiccatiSolution:
    """varphi and Phi on a tau grid, with optional blow-up marker."""
    tau_grid: np.ndarray
    varphi: np.ndarray
    phi_big: np.ndarray
    blow_up: float | None = None

    @property
    def horizon(self) -> float:
        return float(self.tau_grid[-1])

    def at(self, tau: float) -> tuple:
        """(varphi, Phi) at tau by linear interpolation on the stored grid."""
        if self.blow_up is not None and tau > self.horizon:
            raise RiccatiBlowUp(f"solution blew up at tau={self.blow_up:.6g} < {tau:.6g}")
        if tau < 0 or tau > self.horizon + 1e-12:
            raise ValueError(f"tau={tau} outside the solved range [0, {self.horizon}]")
        return (float(np.interp(tau, self.tau_grid, self.varphi)),
                float(np.interp(tau, self.tau_grid, self.phi_big)))


def psi(tau: float, q, x, eta: float):
    """Closed-form atom coefficient eta * q * (1 - exp(-x tau)) / x; q and x
    may be arrays of weights and locations, one coefficient per atom."""
    if np.any(x <= 0):
        raise ValueError("atom location must be positive")
    return eta * q * (1.0 - np.exp(-x * tau)) / x


def _rk4(forcing, deriv, tau_nodes: np.ndarray,
         varphi_of=lambda f, v: v) -> RiccatiSolution:
    """Classical RK4 of (v', Phi') = deriv(forcing(tau), v) from v = Phi = 0
    over the tau nodes; varphi = varphi_of(forcing(tau), v) (part of it may
    be integrated in closed form).  The tau-only forcing is evaluated once
    per distinct node: t1 carries over as the next step's t0, and the two
    midpoint stages share one value.  Stops where varphi is non-finite or
    exceeds BLOW_UP_THRESHOLD.
    """
    taus = [0.0]
    vs = [0.0]
    pbs = [0.0]
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


def _rk4_system(forcing, p: ModelParams, ode_step: float) -> RiccatiSolution:
    """Integrate varphi' = forcing(tau) - kappa*varphi + sigma^2/2 * varphi^2
    and Phi' = gamma r + v0 eta + kappa theta varphi on a uniform tau grid
    over [0, p.horizon].
    """
    eta = p.derived().eta
    kap, sig2 = p.kappa, p.sigma ** 2

    def deriv(f, v):
        return (f - kap * v + 0.5 * sig2 * v * v,
                p.gamma * p.r + p.v0 * eta + kap * p.theta * v)

    n = max(1, round(p.horizon / ode_step))
    return _rk4(forcing, deriv, np.linspace(0.0, p.horizon, n + 1))


def solve_riccati_finite(qm: QuantizedMeasure, p: ModelParams,
                         ode_step: float = 1e-3) -> RiccatiSolution:
    """Finite-atom fractional system: forcing eta * sum_i q_i (1-exp(-x_i tau))/x_i."""
    if qm.kind is not MeasureKind.MU:
        raise ValueError("finite fractional Riccati needs a mu-kind measure")
    eta = p.derived().eta
    x, q = qm.nodes, qm.weights

    def forcing(tau):
        return eta * float(np.dot(q, (1.0 - np.exp(-x * tau)) / x))

    return _rk4_system(forcing, p, ode_step)


def solve_riccati_limit(p: ModelParams, ode_step: float = 1e-3,
                        alpha: float | None = None) -> RiccatiSolution:
    """Limiting fractional system: forcing eta * tau^alpha / Gamma(alpha+1).

    alpha = 0 gives the constant-forcing classical-Heston system.
    """
    alpha = p.alpha if alpha is None else alpha
    if not (0.0 <= alpha < 1.0):
        raise ValueError("limit Riccati requires alpha in [0, 1)")
    eta = p.derived().eta
    ga1 = gamma_fn(alpha + 1.0)

    def forcing(tau):
        if alpha == 0.0:
            return eta
        return eta * tau ** alpha / ga1 if tau > 0 else 0.0

    return _rk4_system(forcing, p, ode_step)


def h_closed_form(t: float, horizon: float, qm: QuantizedMeasure) -> float:
    """h^n(t) = sum_i q~_i (1 - e^{-x_i t})(1 - e^{-x_i (T-t)}) / x_i^2.

    Closed form of the triple integral of e^{-x(s+u)} over
    [0,t] x [0,T-t] against mu~^n; vanishes at t = 0 and t = T.
    """
    x, q = qm.nodes, qm.weights
    return float(np.dot(q, (1.0 - np.exp(-x * t)) * (1.0 - np.exp(-x * (horizon - t)))
                        / x ** 2))


def _rough_tau_nodes(horizon: float, ode_step: float,
                     graded_substeps: int = 200) -> np.ndarray:
    """Uniform tau nodes away from the singularity, quadratically graded
    nodes clustering at tau = T (where t = T - tau hits the t^(-alpha-1)
    singularity)."""
    t_sing = min(10.0 * ode_step, horizon / 2.0)
    n_uni = max(1, round((horizon - t_sing) / ode_step))
    uniform = np.linspace(0.0, horizon - t_sing, n_uni + 1)
    j = np.arange(graded_substeps, -1, -1)
    graded = horizon - t_sing * (j / graded_substeps) ** 2
    return np.concatenate([uniform, graded[1:]])


def solve_riccati_rough(qm_tilde: QuantizedMeasure, p: ModelParams,
                        ode_step: float = 1e-3,
                        graded_substeps: int = 200) -> RiccatiSolution:
    """Rough finite-atom system in tau = T - t.

    varphi'(tau) = eta (T-tau)^(-alpha-1)/Gamma(-alpha) - kappa varphi
                   + sigma^2/2 varphi^2
                   - eta h(T-tau) (kappa - sigma^2 varphi - sigma^2 eta h(T-tau)/2),
    Phi'(tau)    = gamma r + v0 eta + kappa theta (varphi + eta h(T-tau)).

    The singular additive forcing is integrated exactly (its antiderivative
    is eta ((T-tau)^(-alpha) - T^(-alpha)) / (alpha Gamma(-alpha))) and the
    smooth remainder solved by RK4 on a mesh graded into tau = T.
    """
    if qm_tilde.kind is not MeasureKind.MU_TILDE:
        raise ValueError("rough Riccati needs a mu_tilde-kind measure")
    alpha = qm_tilde.alpha
    if p.regime is not Regime.ROUGH or p.alpha != alpha:
        raise ValueError("params alpha must match the rough measure alpha")
    horizon = p.horizon
    eta = p.derived().eta
    kap, sig2 = p.kappa, p.sigma ** 2
    gna = gamma_fn(-alpha)

    def forcing(tau):
        # psing: antiderivative of eta (T-u)^(-alpha-1)/Gamma(-alpha), zero
        # at tau=0; h: h^n at t = T - tau
        return (eta * ((horizon - tau) ** (-alpha) - horizon ** (-alpha)) / (alpha * gna),
                h_closed_form(horizon - tau, horizon, qm_tilde))

    def deriv(f, vs):
        psing, hn = f
        v = vs + psing
        # the y-coefficients sum to eta*h(t), so h enters Phi scaled by eta
        return (-kap * v + 0.5 * sig2 * v * v
                - eta * hn * (kap - sig2 * v - 0.5 * sig2 * eta * hn),
                p.gamma * p.r + p.v0 * eta + kap * p.theta * (v + eta * hn))

    return _rk4(forcing, deriv, _rough_tau_nodes(horizon, ode_step, graded_substeps),
                lambda f, vs: vs + f[0])


@dataclass(frozen=True)
class AffineValue:
    """Value of the affine value function at one state."""
    value: float


def value_function(p: ModelParams, sol: RiccatiSolution, w: float | None = None,
                   z: float | None = None) -> AffineValue:
    """Time-0 value (w^gamma/gamma) exp(Phi(T) + varphi(T) z0)."""
    w = p.w0 if w is None else w
    z = p.z0 if z is None else z
    if sol.blow_up is not None and sol.horizon < p.horizon:
        raise RiccatiBlowUp(f"no finite value: varphi blew up at tau={sol.blow_up:.6g}")
    vp, pb = sol.at(p.horizon)
    return AffineValue(value=(w ** p.gamma / p.gamma) * math.exp(pb + vp * z))


def value_function_at_t(p: ModelParams, sol: RiccatiSolution, qm: QuantizedMeasure,
                        t: float, w: float, y: np.ndarray, z: float) -> AffineValue:
    """Time-t value with factor states: (w^g/g) exp(Phi + sum psi_i y_i + varphi z)."""
    tau = p.horizon - t
    if tau < 0:
        raise ValueError("t beyond the horizon")
    vp, pb = sol.at(tau)
    psis = psi(tau, qm.weights, qm.nodes, p.derived().eta)
    return AffineValue(value=(w ** p.gamma / p.gamma)
                       * math.exp(pb + float(np.dot(psis, y)) + vp * z))
