"""Quantization of the exponential mixing measures.

The kernel measures mu (fractional) and mu_tilde (rough) are replaced by
finitely many atoms sitting at cell barycenters and carrying the exact
cell masses.  Both weights and barycenters have closed-form
antiderivatives, so no quadrature is involved in building a measure.
Nested refinement (log-midpoint insertion plus endpoint extension) gives
the monotone-convergence chain used by the convergence diagnostics: the
discrete Laplace transform approx_kernel of the fractional measure rises
to the power kernel frac_kernel.  A partition is a float array of cell
endpoints (make_partition, refine); quantize checks it and builds the
measure, which keeps it as its points, so refined() refines the points.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import gamma_fn


class MeasureKind(Enum):
    MU = "mu"              # fractional, alpha in (0, 1)
    MU_TILDE = "mu_tilde"  # rough, alpha in (-1, -1/2)


def _check_alpha(alpha: float, kind: MeasureKind) -> None:
    if kind is MeasureKind.MU and not (0.0 < alpha < 1.0):
        raise ValueError("mu quantization requires alpha in (0, 1)")
    if kind is MeasureKind.MU_TILDE and not (-1.0 < alpha < -0.5):
        raise ValueError("mu_tilde quantization requires alpha in (-1, -1/2)")


def _mass_exponent(alpha: float, kind: MeasureKind) -> float:
    """Exponent e with measure((0, x]) proportional to x^e near zero."""
    return 1.0 - alpha if kind is MeasureKind.MU else alpha + 2.0


def make_partition(n: int, alpha: float, kind: MeasureKind = MeasureKind.MU) -> np.ndarray:
    """The n + 1 points of a geometric grid of n cells on [n^(-2/e), n^2]
    with e the small-x mass exponent of the measure.

    The log-uniform spacing equalizes relative cell widths, which suits the
    power-law densities.  Scaling the lower endpoint by 1/e keeps the
    uncovered mass below the grid at O(n^-2) uniformly in alpha (for the
    fractional measure that mass is xi_min^(1-alpha), which would decay
    arbitrarily slowly near alpha = 1 with a fixed endpoint).  The upper
    tail is cut exponentially by the Laplace kernel, so n^2 is ample.
    Near alpha = 1 the lower endpoint underflows (to 0.0 for alpha >= 0.993
    at 16 cells); one that is not a positive normal float raises ValueError.
    """
    if n < 2:
        raise ValueError("need at least 2 cells")
    _check_alpha(alpha, kind)
    e = _mass_exponent(alpha, kind)
    xi_min, xi_max = float(n) ** (-2.0 / e), float(n) ** 2
    if xi_min < np.finfo(float).smallest_normal:
        raise ValueError(f"the lower endpoint n^(-2/e) of a {n}-cell partition "
                         f"is {xi_min!r}, not a positive normal float")
    pts = xi_min * (xi_max / xi_min) ** (np.arange(n + 1) / n)
    pts[0], pts[-1] = xi_min, xi_max  # pin endpoints against roundoff
    return pts


def refine(pts: np.ndarray, low_shrink: float = 4.0) -> np.ndarray:
    """The points pts with log-space midpoints inserted, xi_0/low_shrink
    prepended and 4*xi_last appended.

    The result is a strict superset of the input, so integrals of
    nonnegative convex functions are nondecreasing along the chain.
    """
    if low_shrink <= 1.0:
        raise ValueError("low_shrink must exceed 1")
    mids = np.sqrt(pts[:-1] * pts[1:])
    new = np.empty(2 * len(pts) + 1)
    new[0] = pts[0] / low_shrink
    new[1:-1:2] = pts
    new[2:-1:2] = mids
    new[-1] = pts[-1] * 4.0
    return new


def cell_weight(lo: float, hi: float, alpha: float, kind: MeasureKind) -> float:
    """Exact measure mass of the cell (lo, hi)."""
    if not (0 < lo < hi):
        raise ValueError("cell requires 0 < lo < hi")
    _check_alpha(alpha, kind)
    if kind is MeasureKind.MU:
        e = 1.0 - alpha
        return (hi ** e - lo ** e) / (e * gamma_fn(alpha) * gamma_fn(1.0 - alpha))
    e = alpha + 2.0
    return (hi ** e - lo ** e) / (e * gamma_fn(-alpha) * gamma_fn(alpha + 1.0))


def cell_barycenter(lo: float, hi: float, alpha: float, kind: MeasureKind) -> float:
    """Barycenter int x dmu / int dmu over the cell; lies strictly inside."""
    if not (0 < lo < hi):
        raise ValueError("cell requires 0 < lo < hi")
    _check_alpha(alpha, kind)
    if kind is MeasureKind.MU:
        e0, e1 = 1.0 - alpha, 2.0 - alpha
    else:
        e0, e1 = alpha + 2.0, alpha + 3.0
    num = (hi ** e1 - lo ** e1) / e1
    den = (hi ** e0 - lo ** e0) / e0
    return num / den


@dataclass(frozen=True)
class QuantizedMeasure:
    """Atoms (barycenters) and weights (cell masses) of mu^n or mu_tilde^n,
    and the endpoints of the cells they come from."""
    kind: MeasureKind
    alpha: float
    nodes: np.ndarray    # shape (n,), strictly increasing
    weights: np.ndarray  # shape (n,), strictly positive
    points: np.ndarray   # shape (n + 1,), positive, strictly increasing

    @property
    def n_atoms(self) -> int:
        return len(self.nodes)

    def refined(self) -> "QuantizedMeasure":
        # shrink the lower endpoint fast enough that the mass it misses
        # drops by a factor 4 per level, whatever the density exponent
        shrink = 4.0 ** (1.0 / _mass_exponent(self.alpha, self.kind))
        return quantize(refine(self.points, low_shrink=shrink), self.alpha, self.kind)


def quantize(points, alpha: float, kind: MeasureKind = MeasureKind.MU) -> QuantizedMeasure:
    """Build the discrete measure carried by the cells between consecutive
    points, which must be at least two, positive and strictly increasing."""
    _check_alpha(alpha, kind)
    pts = np.array(points, dtype=float)
    if pts.size < 2:
        raise ValueError("a partition needs at least two points")
    if pts[0] <= 0 or np.any(np.diff(pts) <= 0):
        raise ValueError("partition points must be positive and strictly increasing")
    nodes = np.array([cell_barycenter(lo, hi, alpha, kind)
                      for lo, hi in zip(pts[:-1], pts[1:])])
    weights = np.array([cell_weight(lo, hi, alpha, kind)
                        for lo, hi in zip(pts[:-1], pts[1:])])
    return QuantizedMeasure(kind=kind, alpha=alpha, nodes=nodes,
                            weights=weights, points=pts)


def frac_kernel(t: float, alpha: float) -> float:
    """Fractional integration kernel t^(alpha-1)/Gamma(alpha), t > 0."""
    if t <= 0:
        raise ValueError("kernel is singular at t <= 0")
    if not (0.0 < alpha < 1.0):
        raise ValueError("fractional kernel requires alpha in (0, 1)")
    return t ** (alpha - 1.0) / gamma_fn(alpha)


def approx_kernel(t: float, qm: QuantizedMeasure) -> float:
    """Discrete Laplace transform sum_i q_i exp(-t x_i).

    For the fractional kind this converges monotonically upward to
    frac_kernel(t, alpha) under nested refinement (the integrand is
    nonnegative and convex in x).
    """
    if t <= 0:
        raise ValueError("approx_kernel requires t > 0")
    return float(np.dot(qm.weights, np.exp(-t * qm.nodes)))


def dyadic_chain(n0: int, alpha: float, kind: MeasureKind, levels: int) -> list:
    """Nested quantized measures obtained by repeated refinement of an n0-cell grid."""
    qm = quantize(make_partition(n0, alpha, kind), alpha, kind)
    out = [qm]
    for _ in range(levels - 1):
        qm = qm.refined()
        out.append(qm)
    return out


def atom_count(target_atoms: int) -> int:
    """Atoms of measure_for_atoms(target_atoms, ...), for any alpha and kind:
    the grid starts with max(2, min(target_atoms, 16)) cells, and each
    refinement takes n cells to 2n + 2."""
    n = max(2, min(target_atoms, 16))
    while n < target_atoms:
        n = 2 * n + 2
    return n


def measure_for_atoms(target_atoms: int, alpha: float,
                      kind: MeasureKind = MeasureKind.MU) -> QuantizedMeasure:
    """Quantized measure with at least target_atoms atoms, grown by refinement."""
    qm = quantize(make_partition(max(2, min(target_atoms, 16)), alpha, kind), alpha, kind)
    while qm.n_atoms < target_atoms:
        qm = qm.refined()
    return qm
