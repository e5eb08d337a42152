"""Model parameters and derived constants.

All market and preference constants live in a single frozen dataclass which
validates itself once at construction; downstream code assumes validity.
The regime (fractional / rough / classical Heston) is derived from the
Hurst index via alpha = 2H - 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class Regime(Enum):
    FRACTIONAL = "fractional"      # alpha in (0, 1), H in (1/2, 1)
    ROUGH = "rough"                # alpha in (-1, -1/2), H in (0, 1/4)
    CLASSICAL_HESTON = "classical" # alpha = 0 exactly


def regime_of_alpha(alpha: float) -> Regime:
    if alpha == 0.0:
        return Regime.CLASSICAL_HESTON
    if 0.0 < alpha < 1.0:
        return Regime.FRACTIONAL
    if -1.0 < alpha < -0.5:
        return Regime.ROUGH
    raise ValueError(f"alpha={alpha} outside the fractional (0,1), rough (-1,-1/2) "
                     "and classical (0) ranges")


# the Marchaud scheme's default delta, inside the window below for rough
# alpha < -0.51
DEFAULT_DELTA = 0.49


def check_delta_window(alpha: float, delta: float) -> None:
    """The Marchaud scheme at rough alpha needs delta in (alpha+1, 1/2)."""
    if not (alpha + 1.0 < delta < 0.5):
        raise ValueError(f"delta={delta} outside the window (alpha+1, 1/2)")


@dataclass(frozen=True)
class ModelParams:
    """Market and preference constants of the stochastic-volatility market.

    r       : interest rate
    lam     : market price of variance risk (drift loading of the stock)
    kappa   : CIR mean-reversion speed
    theta   : CIR mean level
    sigma   : vol-of-vol
    rho     : correlation of the stock and volatility Brownian motions
    gamma   : power-utility risk aversion, gamma < 1, gamma != 0
    hurst   : Hurst index; alpha = 2*hurst - 1 selects the regime
    v0      : volatility offset nu_0 >= 0
    z0      : CIR starting value >= 0
    w0      : initial wealth > 0
    horizon : terminal time T > 0
    """
    r: float
    lam: float
    kappa: float
    theta: float
    sigma: float
    rho: float
    gamma: float
    hurst: float
    v0: float
    z0: float
    w0: float
    horizon: float

    def __post_init__(self):
        if not (self.kappa > 0 and self.theta > 0 and self.sigma > 0):
            raise ValueError("kappa, theta, sigma must be positive")
        try:
            feller = 2.0 * self.kappa * self.theta >= self.sigma ** 2
        except OverflowError:
            raise ValueError(f"sigma={self.sigma}: sigma^2 overflows in the Feller "
                             "condition 2*kappa*theta >= sigma^2") from None
        if not feller:
            raise ValueError("Feller condition 2*kappa*theta >= sigma^2 violated")
        if not (self.gamma < 1.0 and self.gamma != 0.0):
            raise ValueError("risk aversion requires gamma < 1 and gamma != 0")
        if not (-1.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (-1, 1)")
        if self.w0 <= 0:
            raise ValueError("initial wealth must be positive")
        if self.v0 < 0 or self.z0 < 0:
            raise ValueError("v0 and z0 must be nonnegative")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if 1.0 - self.gamma + self.gamma * self.rho ** 2 <= 0:
            raise ValueError("1 - gamma + gamma*rho^2 must be positive")
        regime_of_alpha(self.alpha)  # raises if hurst is out of range

    @property
    def alpha(self) -> float:
        return 2.0 * self.hurst - 1.0

    @property
    def regime(self) -> Regime:
        return regime_of_alpha(self.alpha)

    def derived(self) -> "DerivedConstants":
        return DerivedConstants.from_params(self)

    def with_(self, **changes) -> "ModelParams":
        from dataclasses import replace
        return replace(self, **changes)


@dataclass(frozen=True)
class DerivedConstants:
    """Constants of the affine value function.

    eta        = (1/2) * gamma * lam^2 / (1 - gamma)
    c_exponent = (1 - gamma) / (1 - gamma + gamma * rho^2), equal to 1 at rho = 0
    """
    eta: float
    c_exponent: float

    @classmethod
    def from_params(cls, p: ModelParams) -> "DerivedConstants":
        eta = 0.5 * p.gamma * p.lam ** 2 / (1.0 - p.gamma)
        c = (1.0 - p.gamma) / (1.0 - p.gamma + p.gamma * p.rho ** 2)
        return cls(eta=eta, c_exponent=c)


def merton_ratio(p: ModelParams) -> float:
    """Constant optimal risky fraction lam / (1 - gamma) of the rho = 0 case."""
    return p.lam / (1.0 - p.gamma)


def hurst_of_alpha(alpha: float) -> float:
    return (alpha + 1.0) / 2.0


# Parameter set used throughout the numerical experiments; sigma is a
# documented default (it is not part of the published set) and satisfies
# the Feller condition: 2*6*0.05 = 0.6 >= 0.25.
def default_params(alpha: float = 0.75, *, sigma: float = 0.5, rho: float = 0.0,
                   gamma: float = -2.0, v0: float = 0.0, z0: float = 0.05,
                   w0: float = 1000.0, horizon: float = 1.0) -> ModelParams:
    return ModelParams(r=0.02, lam=0.5, kappa=6.0, theta=0.05, sigma=sigma,
                       rho=rho, gamma=gamma, hurst=hurst_of_alpha(alpha),
                       v0=v0, z0=z0, w0=w0, horizon=horizon)


def gamma_fn(z: float) -> float:
    """Euler Gamma function for z > 0."""
    if z <= 0:
        raise ValueError(f"Gamma function requires a positive argument, got {z}")
    return math.gamma(z)
