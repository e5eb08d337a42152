"""Volatility constructions.

Four ways to turn a CIR path into a volatility path: the direct forward
Euler scheme of the fractional convolution, the direct scheme of the rough
(Marchaud-derivative) construction, and the two quantized (finite-atom
Markovian) counterparts.  Positivity maps make the rough output usable as
a variance.

At rho = 0 all four are one computation,

    nu_0 = v0,   nu_k = v0 + local_k + sum_{j<k} w[k-j] Z_j,

and differ only in the kernel w and the local term: the fractional Euler
weights, the Marchaud weights, or the summed exponential-factor kernel of a
quantized measure (with the singular and q . J terms in the rough case).
The convolution runs through one FFT engine on numpy's pocketfft
(np.fft) at 5-smooth lengths, in two steps: a ZSpectrum is the forward
transform of a block of at most 32 rows of Z, and a VolterraKernel (w's
transform, the local coefficient and v0, built once) applies one
construction to it, summing the inverse transform with the local term and
v0 straight into nu.  The ZSpectrum also holds the scratch the kernels
apply it with, and takes block after block into the same buffers, so
every transform writes through out= and no block allocates.
VolScheme.kernel is the one place a scheme picks its construction;
mc.map_paths builds each leg's kernel once per map and one ZSpectrum once
per batch, and each of its row blocks reaches VolterraKernel.apply through
VolScheme.nu_paths, sharing the block's spectrum among all its legs and
writing each leg's nu into one reused block (out=).  The four nu_*
functions are whole-array conveniences that build their kernel and go
block by block.  The test suite holds the engine to 1e-12 against the O(k^2) sums
and the per-atom factor recurrence, and bit for bit to the unfused conv,
then + local, then + v0 (tests/oracles.py).
The only genuine recurrence left is the rho != 0 drift-corrected Z-tilde
in sim, where nu feeds back into the drift of Z; it steps Z one step at a
time but advances its factor state once per block of steps, with this
module's summed kernel for the steps inside a block.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import DEFAULT_DELTA, ModelParams, check_delta_window, gamma_fn
from .quantize import MeasureKind, QuantizedMeasure
from .sim import _ROW_BLOCK, TimeGrid  # rows per FFT block and per leg block


class PositivityMap(Enum):
    IDENTITY = "identity"
    ABSOLUTE = "abs"
    EXPONENTIAL = "exp"


def apply_positivity(nu_path: np.ndarray, pmap: PositivityMap,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise positivity transform, into out (nu_path's shape, which
    may be nu_path itself) if given; Identity rejects negative entries and
    returns nu_path as it is."""
    if pmap is PositivityMap.IDENTITY:
        if np.any(nu_path < 0):
            raise ValueError("identity positivity map applied to a path with "
                             "negative entries; use abs or exp")
        return np.asarray(nu_path)
    if pmap is PositivityMap.ABSOLUTE:
        return np.abs(nu_path, out=out)
    return np.exp(nu_path, out=out)


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, the transform lengths pocketfft is fastest
    at (scipy.fft.next_fast_len(n, real=True))."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that reaches n
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class ZSpectrum:
    """Forward transform of a block of at most _ROW_BLOCK rows of Z: their
    first steps entries, zero-padded to a fast length n >= 2*steps (no
    circular wrap-around), shared by every kernel applied to the block.
    It also holds the scratch the kernels apply it with: a product buffer
    for spectrum x kernel, and the padded buffer, which is free once the
    spectrum is taken and receives each inverse transform.  take(rows)
    transforms the next block, of at most as many rows, into the same
    buffers, so a batch allocates them once."""

    def __init__(self, rows: np.ndarray):
        if len(rows) > _ROW_BLOCK:
            raise ValueError(f"a ZSpectrum takes at most _ROW_BLOCK = {_ROW_BLOCK} "
                             f"rows, got {len(rows)}")
        self.n = _fast_len(2 * (rows.shape[-1] - 1))
        self.padded = np.empty((len(rows), self.n))
        self._spec = np.empty((len(rows), self.n // 2 + 1), dtype=complex)
        self.product = np.empty_like(self._spec)
        self.take(rows)

    def take(self, rows: np.ndarray) -> "ZSpectrum":
        """This spectrum, now of rows."""
        m, steps = len(rows), rows.shape[-1] - 1
        if m > len(self.padded):
            raise ValueError(f"this ZSpectrum takes at most {len(self.padded)} rows, got {m}")
        # copying into a zero-padded buffer is faster than letting
        # np.fft.rfft pad each row; the tail holds the last inverse transform
        padded = self.padded[:m]
        padded[:, :steps] = rows[:, :steps]
        padded[:, steps:] = 0.0
        self.rows = rows
        self.spec = np.fft.rfft(padded, out=self._spec[:m])
        return self


@dataclass(frozen=True)
class VolterraKernel:
    """One rho = 0 volatility construction on a fixed grid,

        nu_0 = v0,   nu_k = ((w * Z)_k + c_k Z_k) + v0,   k = 1..steps,

    with the causal convolution (w * Z)_k = sum_{j<k} w[k-j] Z_j (w[0]
    unused) and the local coefficient c (None: no local term).  w is held
    as its transform at ZSpectrum's length, so one kernel, built once, is
    applied to any number of row blocks."""
    w_hat: np.ndarray
    v0: float
    local: np.ndarray | None = None

    @classmethod
    def of(cls, w: np.ndarray, v0: float, local=None) -> "VolterraKernel":
        return cls(np.fft.rfft(w[1:], _fast_len(2 * (len(w) - 1))), v0, local)

    def apply(self, spectrum: ZSpectrum, out: np.ndarray) -> None:
        """Write nu of spectrum's rows into out (same shape): the product
        with w's transform and its inverse go into spectrum's scratch, and
        the inverse is summed with the local term straight into out[:, 1:],
        where v0 is then added.  The call allocates no block-size array and
        leaves the spectrum itself as it is, for the next kernel."""
        rows = spectrum.rows
        m, steps = len(rows), rows.shape[-1] - 1
        product = np.multiply(spectrum.spec, self.w_hat, out=spectrum.product[:m])
        conv = np.fft.irfft(product, spectrum.n, out=spectrum.padded[:m])[:, :steps]
        out[:, 0] = self.v0
        body = out[:, 1:]
        if self.local is None:
            np.add(conv, 0.0, out=body)
        else:  # c_k Z_k + conv, which is conv + c_k Z_k bit for bit
            np.multiply(rows[:, 1:], self.local, out=body)
            body += conv
        body += self.v0


def _volterra_paths(z_path: np.ndarray, kernel: VolterraKernel,
                    spectrum: ZSpectrum | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """kernel's nu along Z path(s) of any leading shape, written into out
    (a C-contiguous array of z_path's shape) if given.  It goes _ROW_BLOCK
    rows at a time through one ZSpectrum, so the scratch memory does not
    grow with the batch.  spectrum, if given, is the ZSpectrum of z_path's
    rows (one block), which other kernels share."""
    if out is None:
        nu = np.empty(z_path.shape)
    elif out.shape != z_path.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {z_path.shape}")
    else:
        nu = out
    rows = z_path.reshape(-1, z_path.shape[-1])
    nu_rows = nu.reshape(rows.shape)
    if spectrum is not None:
        if spectrum.rows.shape != rows.shape:
            raise ValueError("spectrum must be the ZSpectrum of z_path's rows")
        kernel.apply(spectrum, nu_rows)
        return nu
    for a in range(0, len(rows), _ROW_BLOCK):
        block = rows[a:a + _ROW_BLOCK]
        spectrum = ZSpectrum(block) if spectrum is None else spectrum.take(block)
        kernel.apply(spectrum, nu_rows[a:a + _ROW_BLOCK])
    return nu


def _euler_kernel(alpha: float, grid: TimeGrid, v0: float) -> VolterraKernel:
    if not (0.0 < alpha < 1.0):
        raise ValueError("fractional scheme requires alpha in (0, 1)")
    m = np.arange(grid.steps + 1, dtype=float)
    w = np.zeros(grid.steps + 1)
    w[1:] = grid.h ** alpha * (m[1:] ** alpha - m[:-1] ** alpha) / gamma_fn(alpha + 1.0)
    return VolterraKernel.of(w, v0)


def nu_fractional_euler(z_path: np.ndarray, alpha: float, grid: TimeGrid,
                        v0: float = 0.0) -> np.ndarray:
    """Forward Euler scheme of the fractional volatility convolution.

    nu_k = v0 + h^alpha sum_{j<k} ((k-j)^alpha - (k-j-1)^alpha)/Gamma(alpha+1) Z_j.
    """
    return _volterra_paths(z_path, _euler_kernel(alpha, grid, v0))


def _marchaud_kernel(alpha: float, grid: TimeGrid, v0: float,
                     delta: float) -> VolterraKernel:
    if not (-1.0 < alpha < -0.5):
        raise ValueError("rough scheme requires alpha in (-1, -1/2)")
    check_delta_window(alpha, delta)
    steps = grid.steps
    m = np.arange(steps + 1, dtype=float)
    # c_m = m^-delta * ((m-1)^(delta-alpha-1) - m^(delta-alpha-1)), c at m-1=0 is -m^(..)
    e = delta - alpha - 1.0  # positive inside the window
    c = np.zeros(steps + 1)
    c[1:] = m[1:] ** (-delta) * (m[:-1] ** e - m[1:] ** e)
    pref = (alpha + 1.0) / ((alpha + 0.5) * gamma_fn(-alpha) * grid.h ** (alpha + 1.0))
    # the Z_k part of the sum is local: Z_k * pref * sum_{m<=k} c_m
    local = grid.times[1:] ** (-alpha - 1.0) / gamma_fn(-alpha) + pref * np.cumsum(c[1:])
    return VolterraKernel.of(-pref * c, v0, local)


def nu_rough_marchaud(z_path: np.ndarray, alpha: float, grid: TimeGrid,
                      v0: float = 0.0, delta: float = DEFAULT_DELTA) -> np.ndarray:
    """Forward Euler scheme of the rough (Marchaud) volatility.

    nu_k = v0 + Z_k t_k^(-alpha-1)/Gamma(-alpha)
         + (alpha+1)/((alpha+0.5) Gamma(-alpha) h^(alpha+1))
           * sum_{j<k} (Z_k - Z_j)/(k-j)^delta
             * ((k-j-1)^(delta-alpha-1) - (k-j)^(delta-alpha-1)),
    where the j = k-1 cell uses 0^(delta-alpha-1) = 0 (the exponent is
    positive) and nu_0 = v0 (the singular index-0 term is dropped).
    """
    return _volterra_paths(z_path, _marchaud_kernel(alpha, grid, v0, delta))


def _factor_kernel(qm: QuantizedMeasure, grid: TimeGrid) -> np.ndarray:
    """Summed exponential-factor kernel of a quantized measure,

    w[m] = sum_i q_i (1 - e^{-x_i h})/x_i * e^{-x_i h (m-1)},  m = 1..steps,

    so that q . Y_k = (w * Z)_k for the exact exponential integrator
    Y_{k+1} = e^{-x h} Y_k + Z_k (1 - e^{-x h})/x started at Y_0 = 0.
    """
    xh = qm.nodes * grid.h
    gain = (1.0 - np.exp(-xh)) / qm.nodes
    w = np.zeros(grid.steps + 1)
    w[1:] = np.exp(-np.outer(np.arange(grid.steps), xh)) @ (qm.weights * gain)
    return w


def _quantized_kernel(v0: float, qm: QuantizedMeasure, grid: TimeGrid) -> VolterraKernel:
    if qm.kind is not MeasureKind.MU:
        raise ValueError("nu_quantized_paths needs a fractional-kind measure")
    return VolterraKernel.of(_factor_kernel(qm, grid), v0)


def nu_quantized_paths(v0: float, qm: QuantizedMeasure, z_path: np.ndarray,
                       grid: TimeGrid) -> np.ndarray:
    """Finite-atom fractional volatility nu = v0 + q . Y along Z path(s).

    The factors are linear in Z, so q . Y is the causal convolution of Z
    with the summed kernel of the measure: no factor state is kept and the
    cost does not grow with the atom count.  Agrees with the per-atom
    factor recurrence up to rounding.
    """
    return _volterra_paths(z_path, _quantized_kernel(v0, qm, grid))


def _quantized_rough_kernel(v0: float, qm: QuantizedMeasure,
                            grid: TimeGrid) -> VolterraKernel:
    if qm.kind is not MeasureKind.MU_TILDE:
        raise ValueError("nu_quantized_rough_paths needs a rough-kind measure")
    alpha = qm.alpha
    t = grid.times[1:]
    # q . J_t with J_t^x = (1 - exp(-t x))/x
    qj = ((1.0 - np.exp(-np.outer(t, qm.nodes))) / qm.nodes) @ qm.weights
    return VolterraKernel.of(-_factor_kernel(qm, grid), v0,
                             t ** (-alpha - 1.0) / gamma_fn(-alpha) + qj)


def nu_quantized_rough_paths(v0: float, qm: QuantizedMeasure, z_path: np.ndarray,
                             grid: TimeGrid) -> np.ndarray:
    """Finite-atom rough volatility along Z path(s).

    With Y~_t = Z_t J_t - I_t, nu = v0 + Z_t (t^(-alpha-1)/Gamma(-alpha)
    + q . J_t) - q . I_t: a local term in Z_t minus the same causal
    convolution as nu_quantized_paths.  Agrees with the per-atom factor
    recurrence up to rounding.
    """
    return _volterra_paths(z_path, _quantized_rough_kernel(v0, qm, grid))


class SchemeKind(Enum):
    FRACTIONAL_EULER = "fractional_euler"
    ROUGH_MARCHAUD = "rough_marchaud"
    QUANTIZED_FRACTIONAL = "quantized_fractional"
    QUANTIZED_ROUGH = "quantized_rough"
    CLASSICAL = "classical"


@dataclass(frozen=True)
class VolScheme:
    """Selector for one of the four volatility constructions."""
    kind: SchemeKind
    qm: QuantizedMeasure | None = None
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        needs_qm = self.kind in (SchemeKind.QUANTIZED_FRACTIONAL, SchemeKind.QUANTIZED_ROUGH)
        if needs_qm and self.qm is None:
            raise ValueError(f"{self.kind.value} needs a quantized measure")
        if self.kind is SchemeKind.QUANTIZED_FRACTIONAL and self.qm.kind is not MeasureKind.MU:
            raise ValueError("quantized_fractional needs a mu-kind measure")
        if self.kind is SchemeKind.QUANTIZED_ROUGH and self.qm.kind is not MeasureKind.MU_TILDE:
            raise ValueError("quantized_rough needs a mu_tilde-kind measure")

    def kernel(self, p: ModelParams, grid: TimeGrid) -> VolterraKernel | None:
        """This construction's kernel for p on grid, to be built once and
        passed to nu_paths for every row block; None for classical, whose
        nu is v0 + Z and convolves nothing.  The one place a scheme picks
        its construction."""
        if self.kind is SchemeKind.CLASSICAL:
            return None
        if self.kind is SchemeKind.FRACTIONAL_EULER:
            return _euler_kernel(p.alpha, grid, p.v0)
        if self.kind is SchemeKind.ROUGH_MARCHAUD:
            return _marchaud_kernel(p.alpha, grid, p.v0, self.delta)
        if self.kind is SchemeKind.QUANTIZED_FRACTIONAL:
            return _quantized_kernel(p.v0, self.qm, grid)
        return _quantized_rough_kernel(p.v0, self.qm, grid)

    def nu_paths(self, p: ModelParams, z_path: np.ndarray, grid: TimeGrid,
                 kernel: VolterraKernel | None = None,
                 spectrum: ZSpectrum | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
        """nu along z_path: v0 + Z for classical (the model whose Riccati
        system is solve_riccati_limit at alpha = 0), else kernel's nu, with
        kernel built here (self.kernel(p, grid)) when not given, spectrum
        the ZSpectrum of z_path's rows when another leg shares it, and
        written into out (C-contiguous, z_path's shape) if given."""
        if self.kind is SchemeKind.CLASSICAL:
            return np.add(z_path, p.v0, out=out)
        return _volterra_paths(z_path, kernel or self.kernel(p, grid), spectrum, out)
