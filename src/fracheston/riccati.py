"""Riccati ODE solvers and affine value-function assembly.

The exponent of the power-utility value function splits into closed-form
psi coefficients (one per quantization atom), a scalar Riccati solution
varphi and a plainly integrated Phi.  Three forcing variants are covered:
finite-atom fractional, the fractional limit (power-law forcing, reducing
to classical Heston at alpha = 0) and the rough finite-atom system whose
forcing carries an integrable power singularity at the terminal tau.

Each system is a tau-only forcing plus one derivative of (varphi, Phi)
given that forcing.  All share one classical RK4 driver in tau = T - t
that evaluates the forcing in one call over its distinct nodes (grid nodes
and step midpoints), detects blow-up of varphi (the affine ansatz may only
exist up to a finite horizon) and returns an immutable solution object on
a tau grid.  The finite and rough forcings take the exponentials of all
nodes in one pass per block of nodes but keep one dot per node, so every
value is bit for bit the per-node evaluation (tests/oracles.py).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ModelParams, Regime, gamma_fn
from .quantize import MeasureKind, QuantizedMeasure

BLOW_UP_THRESHOLD = 1e6
# Tau nodes per exp pass of a forcing: bounds its (nodes, atoms) scratch
# (about 1.2 MB at 574 atoms) whatever the horizon and step.
_NODE_BLOCK = 256


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
    """Classical RK4 of (v', Phi') = deriv(f, v) from v = Phi = 0 over the
    tau nodes, f being the tau-only forcing at the stage's node; varphi =
    varphi_of(f, v) (part of it may be integrated in closed form).

    forcing maps an array of taus to a sequence of per-node values and is
    called once, over every node the steps read: the grid nodes (each
    step's t0 and t1) and the step midpoints, which both midpoint stages
    share.  Stops where varphi is non-finite or exceeds BLOW_UP_THRESHOLD.
    """
    taus = [0.0]
    vs = [0.0]
    pbs = [0.0]
    v, pb = 0.0, 0.0
    blow_up = None
    dts = tau_nodes[1:] - tau_nodes[:-1]
    fs = forcing(np.concatenate([tau_nodes, tau_nodes[:-1] + dts / 2]))
    f_ends, f_mids = fs[:len(tau_nodes)], fs[len(tau_nodes):]
    for i, dt in enumerate(dts):
        f0, fm, f1 = f_ends[i], f_mids[i], f_ends[i + 1]
        k1v, k1p = deriv(f0, v)
        k2v, k2p = deriv(fm, v + dt / 2 * k1v)
        k3v, k3p = deriv(fm, v + dt / 2 * k2v)
        k4v, k4p = deriv(f1, v + dt * k3v)
        v = v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        pb = pb + dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        varphi = varphi_of(f1, v)
        t1 = tau_nodes[i + 1]
        if not np.isfinite(varphi) or abs(varphi) > BLOW_UP_THRESHOLD:
            blow_up = float(t1)
            break
        taus.append(float(t1))
        vs.append(float(varphi))
        pbs.append(float(pb))
    return RiccatiSolution(tau_grid=np.array(taus), varphi=np.array(vs),
                           phi_big=np.array(pbs), blow_up=blow_up)


def _atom_dots(q: np.ndarray, taus: np.ndarray, terms) -> list:
    """float(np.dot(q, row)) for each row of terms(taus), the per-atom terms
    at each tau.  terms runs on _NODE_BLOCK taus at a time, so its
    (nodes, atoms) scratch stays bounded; the dot stays one per node, since
    a matrix-vector product could round differently."""
    dots = []
    for a in range(0, len(taus), _NODE_BLOCK):
        dots.extend(float(np.dot(q, row)) for row in terms(taus[a:a + _NODE_BLOCK]))
    return dots


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

    def forcing(taus):
        return [eta * d for d in
                _atom_dots(q, taus, lambda t: (1.0 - np.exp(np.outer(t, -x))) / x)]

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

    def forcing(taus):
        if alpha == 0.0:
            return [eta] * len(taus)
        return [eta * tau ** alpha / ga1 if tau > 0 else 0.0 for tau in taus]

    return _rk4_system(forcing, p, ode_step)


def _h_terms(t, horizon: float, x: np.ndarray) -> np.ndarray:
    """Per-atom terms of h^n(t) = sum_i q~_i (1 - e^{-x_i t})(1 - e^{-x_i (T-t)})
    / x_i^2, one row per entry of t (a scalar or array)."""
    return ((1.0 - np.exp(np.outer(t, -x))) * (1.0 - np.exp(np.outer(horizon - t, -x)))
            / x ** 2)


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

    def forcing(taus):
        # psing: antiderivative of eta (T-u)^(-alpha-1)/Gamma(-alpha), zero
        # at tau=0; h: h^n at t = T - tau
        psing = [eta * ((horizon - tau) ** (-alpha) - horizon ** (-alpha)) / (alpha * gna)
                 for tau in taus]
        hn = _atom_dots(qm_tilde.weights, horizon - taus,
                        lambda t: _h_terms(t, horizon, qm_tilde.nodes))
        return list(zip(psing, hn))

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
