"""Monte Carlo engines and affine cross-validation.

Every estimator and CLI command draws its Z and nu through map_paths
(the CLI's simulate draws each rho's dBs by brownian_batch), which
runs legs (Leg) on common random numbers over fixed batches of per-path
Philox streams; its docstring is the one description of the pipeline
and of the measure each leg names.  The estimators reduce each leg's
values by McEstimate.of with exact (fsum) sums, so results are
bit-identical for any worker count.  Workers overlap batches, but a CIR
map draws and drives one batch at a time, beside the other batches'
legs, while Z-tilde drives run side by side (map_paths says why).  One
Feynman-Kac leg (feynman_kac_leg) serves both value estimators; utility
legs read the terminal wealth only.  REGIMES is the one table from a
regime to its schemes, quantized measure and Riccati system.
"""
from __future__ import annotations

import contextlib
import contextvars
import math
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .params import ModelParams, Regime, merton_ratio
from .quantize import MeasureKind, QuantizedMeasure, approx_kernel, frac_kernel
from .riccati import (solve_riccati_finite, solve_riccati_limit, solve_riccati_rough,
                      value_function)
from .sim import (TimeGrid, brownian_batch, simulate_cir, simulate_tilde_z,
                  terminal_wealth)
from .vol import (_ROW_BLOCK, PositivityMap, SchemeKind, VolScheme, ZSpectrum,
                  apply_positivity)

BATCH_SIZE = 2048  # paths per batch driven by Z-tilde
CIR_BATCH_SIZE = BATCH_SIZE // 2  # paths per batch driven by CIR
MONOTONE_PATHS = 100

# Per regime: the direct scheme, the quantized measure (None for classical,
# where levels do not apply), the quantized scheme and riccati(qm, p, ode_step).
RegimeRow = namedtuple("RegimeRow", "direct measure quantized riccati")
REGIMES = {
    Regime.FRACTIONAL: RegimeRow(SchemeKind.FRACTIONAL_EULER, MeasureKind.MU,
                                 SchemeKind.QUANTIZED_FRACTIONAL, solve_riccati_finite),
    Regime.ROUGH: RegimeRow(SchemeKind.ROUGH_MARCHAUD, MeasureKind.MU_TILDE,
                            SchemeKind.QUANTIZED_ROUGH, solve_riccati_rough),
    Regime.CLASSICAL_HESTON: RegimeRow(
        SchemeKind.CLASSICAL, None, SchemeKind.CLASSICAL,
        lambda qm, p, ode_step: solve_riccati_limit(p, ode_step=ode_step, alpha=0.0)),
}


@dataclass(frozen=True)
class McEstimate:
    """Mean and standard error of one Monte Carlo functional."""
    mean: float
    std_error: float
    n_paths: int

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("need at least 2 paths for a standard error")

    @classmethod
    def of(cls, values: np.ndarray) -> "McEstimate":
        """Mean and standard error of per-path values, by exact (fsum) sums."""
        n = len(values)
        if n < 2:
            raise ValueError("need at least 2 paths for a standard error")
        mean = math.fsum(values) / n
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        return cls(mean=mean, std_error=math.sqrt(var / n), n_paths=n)


def _map_batches(batch_fn, n_paths: int, threads: int = 1,
                 batch_size: int = BATCH_SIZE) -> list:
    """Run batch_fn(start, stop), which returns one output per leg, over
    fixed path-index slices and concatenate each leg's outputs; batch layout
    is independent of the worker count, so the output is too.  Workers
    run whole batches side by side, and batch_fn says which of its stages
    may overlap: map_paths runs one CIR draw-and-drive at a time, beside
    other batches' legs, and Z-tilde drives side by side.  No paths run
    one empty batch, so every leg keeps its output's shape.  A worker runs
    each batch in a copy of the caller's context, taken here, so the
    caller's np.errstate holds in every batch."""
    slices = [(s, min(s + batch_size, n_paths))
              for s in range(0, n_paths, batch_size)] or [(0, 0)]
    if threads <= 1 or len(slices) == 1:
        parts = [batch_fn(a, b) for a, b in slices]
    else:
        contexts = [contextvars.copy_context() for _ in slices]
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(lambda ctx, ab: ctx.run(batch_fn, *ab), contexts, slices))
    return [np.concatenate(leg) for leg in zip(*parts)]


# A leg of a path map: integrand(dBs, Z, nu) on the volatility of scheme
# under p, after pos_map.  tilde marks a Feynman-Kac leg, whose expectation
# is taken under the drift-corrected measure (Z-tilde at rho != 0); other
# legs are taken under the physical measure.  Plain 4-tuples are physical.
# A map of tilde legs alone draws no dBs, and at rho = 0 their measure is
# the physical one.
Leg = namedtuple("Leg", "p scheme pos_map integrand tilde", defaults=(False,))

_DRIVER_FIELDS = ("rho", "z0", "kappa", "theta", "sigma")  # what Z depends on


def _driver_params(legs) -> tuple:
    """(p, tilde, draw_dBs) of a map's legs.  p is the first leg's
    params, once every leg shares its rho and CIR constants.  The map
    drives Z-tilde if rho != 0 and its legs are tilde legs; there a
    physical leg beside them raises, and so does anything but one quantized
    fractional leg.  It draws dBs if some leg is not a tilde leg."""
    p = legs[0].p
    if any(getattr(leg.p, f) != getattr(p, f) for leg in legs for f in _DRIVER_FIELDS):
        raise ValueError("legs of one path batch must share rho and the CIR "
                         "constants (z0, kappa, theta, sigma)")
    tildes = {leg.tilde for leg in legs}
    tilde = p.rho != 0.0 and True in tildes
    if tilde and False in tildes:
        raise ValueError(f"rho={p.rho}: Feynman-Kac (tilde) legs need the "
                         f"drift-corrected Z-tilde and other legs the physical Z, "
                         f"so they cannot share a path map")
    kinds = [leg.scheme.kind.value for leg in legs]
    if tilde and kinds != [SchemeKind.QUANTIZED_FRACTIONAL.value]:
        raise ValueError(f"rho={p.rho} needs the drift-corrected Z-tilde, which only "
                         f"one {SchemeKind.QUANTIZED_FRACTIONAL.value} leg provides; "
                         f"got {kinds}")
    return p, tilde, False in tildes


def _gather(dest, out, a: int, n: int, leg: int):
    """dest with rows a.. set to one block's integrand output, which must be
    one array whose first axis is the block's paths; anything else (a
    tuple, a scalar, another row count) is a ValueError naming the leg by
    its index.  The first block allocates dest (None) for the batch's n
    paths."""
    rows = min(n - a, _ROW_BLOCK)
    if not isinstance(out, np.ndarray) or out.shape[:1] != (rows,):
        raise ValueError(f"leg {leg}: an integrand must return one array whose first "
                         f"axis is the block's {rows} paths, got {getattr(out, 'shape', type(out))}")
    dest = np.empty((n,) + out.shape[1:], out.dtype) if dest is None else dest
    dest[a:a + rows] = out
    return dest


def map_paths(legs, grid: TimeGrid, master_seed: int, n_paths: int,
              threads: int = 1) -> list:
    """Each leg's integrand(dBs, Z, nu) on paths 0..n_paths: the one way to
    run legs, and the whole path pipeline.

    legs are Legs (p, scheme, pos_map, integrand, tilde) or plain
    4-tuples, which are physical legs.  They are checked once per map
    (_driver_params): they share rho and the CIR constants, so Z is driven
    once for all of them, and each leg's measure is its own.  Tilde legs
    are driven by the drift-corrected Z-tilde at rho != 0, which takes a
    single quantized fractional leg and no physical leg on the same map
    (ValueError); the others by the physical Z.  Each leg's kernel is
    built once, on the calling thread, before any batch runs; a classical
    leg and a Z-tilde leg convolve nothing.

    The map runs fixed batches: BATCH_SIZE paths when Z-tilde drives them,
    and CIR_BATCH_SIZE when CIR does, which moves no bit, since the drive,
    the dBs draws, the transforms and the sums all go path by path.
    Z-tilde keeps the wider batch for time, not bits: at 1024 paths every
    golden Z-tilde estimate (the pooled 574-atom and ragged 4095-path ones
    too) kept its 17 digits, but two workers ran value_rho slower (ROADMAP,
    parked Batch widths).  Workers run batches side by side, but a CIR
    map draws dBz and drives one batch at a time, under a lock of its own,
    while the other workers run their batches' legs.  The CIR drive is
    nine numpy calls per step of about a microsecond each on 1024 paths,
    and each call releases and retakes the GIL: two drives side by side
    hand it back and forth on every call.  On a 2-vCPU Xeon a value_xval
    job at two threads made 18-30k voluntary context switches that way
    (3-4k with the lock); the lock took 10-17% off its CPU time and moved
    its wall time by -1% to +7%.  The legs' FFTs, kernel applies and
    integrands hold the GIL off for tens of microseconds per call, so they
    overlap well with a drive.  Z-tilde drives take no lock: their block
    GEMMs and per-step near-history matmuls do overlap, and locking them
    made value_rho 52% slower.  The lock moves no bit.  A batch draws dBz
    into the [:, 1:] of the array that Z is then written over, so Z is its one
    path-sized array; the Z-tilde driver writes its nu there instead, and
    keeps no Z-tilde.  The legs then run over blocks of _ROW_BLOCK (32)
    rows, which share one set of scratch: a ZSpectrum, if a leg convolves
    Z, and one block of nu.  Per block, Z is transformed once for every
    leg that convolves it; the block's dBs is drawn from its streams, with
    their dBz normals redrawn into the nu block's [:, 1:], which gives dBs
    the bits of one whole-batch draw at any rho, unless every leg is a
    tilde leg (dBs=None); and each leg in turn writes its nu, after its
    pos_map (raw with None), into the nu block and gets integrand(dBs, Z,
    nu) once.  A Z-tilde leg gets its driver's nu, sliced, and z=None.
    dBs, Z and a driver's nu are read-only.  The integrand's output is one
    array whose first axis is the block's paths (anything else, a tuple or
    a scalar, is a ValueError naming the leg); it is copied into the leg's
    batch output at once, so it may be a view of what the integrand was
    given, which the next block reuses.  A caller that wants Z itself
    runs a leg that returns it; brownian_batch over the same streams gives
    the dBs a leg gets, bit for bit.

    Returns one array per leg, its blocks concatenated in path order
    whatever the worker count; n_paths = 0 runs one empty batch, so each
    leg keeps its output's shape."""
    legs = [Leg(*leg) for leg in legs]
    p, tilde, draw_dBs = _driver_params(legs)
    kernels = [None if tilde else leg.scheme.kernel(leg.p, grid) for leg in legs]
    convolves = any(k is not None for k in kernels)
    # one CIR draw-and-drive at a time; Z-tilde drives overlap (docstring)
    drive = contextlib.nullcontext() if tilde else threading.Lock()

    def batch(start: int, stop: int) -> list:
        streams = range(start, stop)
        n = len(streams)
        # dBz is drawn into paths[:, 1:], and Z (or the Z-tilde's nu) is
        # written over its own increments
        paths = np.empty((n, grid.steps + 1))
        with drive:
            dBz, _ = brownian_batch(master_seed, streams, grid, p.rho, False,
                                    out=paths[:, 1:])
            if tilde:
                z, nu = simulate_tilde_z(p, legs[0].scheme.qm, grid, dBz,
                                         out=paths, keep_z=False)
            else:
                z, nu = simulate_cir(p, grid, dBz, out=paths), None
        (nu if tilde else z).flags.writeable = False
        nu_block = np.empty((min(n, _ROW_BLOCK), grid.steps + 1))
        spectrum, dBs = None, None
        outs = [None] * len(legs)
        for a in range(0, max(n, 1), _ROW_BLOCK):
            rows = slice(a, a + _ROW_BLOCK)
            z_rows = None if tilde else z[rows]
            block = nu_block[:n - a]
            if convolves:
                spectrum = ZSpectrum(z_rows) if spectrum is None else spectrum.take(z_rows)
            if draw_dBs:
                _, dBs = brownian_batch(master_seed, streams[rows], grid, p.rho,
                                        out=block[:, 1:])
                dBs.flags.writeable = False
            for i, (leg, kernel) in enumerate(zip(legs, kernels)):
                nu_rows = nu[rows] if tilde else leg.scheme.nu_paths(
                    leg.p, z_rows, grid, kernel, spectrum, block)
                if leg.pos_map is not None:
                    nu_rows = apply_positivity(nu_rows, leg.pos_map, block)
                outs[i] = _gather(outs[i], leg.integrand(dBs, z_rows, nu_rows), a, n, i)
        return outs

    return _map_batches(batch, n_paths, threads,
                        BATCH_SIZE if tilde else CIR_BATCH_SIZE)


def feynman_kac_leg(p: ModelParams, scheme: VolScheme, grid: TimeGrid,
                    pos_map: PositivityMap = PositivityMap.IDENTITY,
                    scale: float = 1.0) -> Leg:
    """The tilde Leg of the Laplace-transform representation of the affine
    factor: per path scale * exp(int_0^T (gamma r / c + eta/c * nu_s) ds),
    left-endpoint quadrature.  Its expectation is taken under the
    drift-corrected measure, so at rho != 0 map_paths drives it by Z-tilde,
    as the single leg of its map; at rho = 0 it may share a map with any
    leg.  It reads no dBs."""
    d = p.derived()
    c = d.c_exponent

    def integrand(dBs, z, nu):
        integral = grid.h * np.sum(nu[..., :-1], axis=-1)
        return scale * np.exp(p.gamma * p.r / c * grid.horizon + d.eta / c * integral)

    return Leg(p, scheme, pos_map, integrand, tilde=True)


def mc_feynman_kac(p: ModelParams, scheme: VolScheme, n_paths: int,
                   grid: TimeGrid, master_seed: int, threads: int = 1,
                   pos_map: PositivityMap = PositivityMap.IDENTITY) -> McEstimate:
    """Mean of the feynman_kac_leg on Z-tilde (Z at rho = 0); map_paths
    rejects a scheme without that driver at rho != 0."""
    values, = map_paths([feynman_kac_leg(p, scheme, grid, pos_map)], grid,
                        master_seed, n_paths, threads)
    return McEstimate.of(values)


def _utility(p: ModelParams, pi: float, grid: TimeGrid):
    """Integrand of mc_utility: per-path (1/gamma) W_T^gamma."""
    def integrand(dBs, z, nu):
        return terminal_wealth(pi, nu, grid, dBs, p) ** p.gamma / p.gamma

    return integrand


def mc_utility(p: ModelParams, pi: float, scheme: VolScheme,
               pos_map: PositivityMap, n_paths: int, grid: TimeGrid,
               master_seed: int, threads: int = 1) -> McEstimate:
    """Expected power utility (1/gamma) W_T^gamma of the constant risky
    fraction pi (e.g. merton_ratio(p)), on the physical Z at any rho."""
    values, = map_paths([(p, scheme, pos_map, _utility(p, pi, grid))], grid,
                        master_seed, n_paths, threads)
    return McEstimate.of(values)


def mc_value_rough(p: ModelParams, qm_tilde: QuantizedMeasure,
                   pos_map: PositivityMap, n_paths: int, grid: TimeGrid,
                   master_seed: int, threads: int = 1) -> McEstimate:
    """Rough-regime value (1/gamma) w0^gamma E[exp(int (gamma r + eta a(nu)) ds)]
    on the quantized rough scheme (which rejects a measure not of mu_tilde
    kind): the feynman_kac_leg at c = 1, scaled by the wealth factor."""
    if p.rho != 0.0:
        raise ValueError("the rough value estimator is defined for rho = 0")
    leg = feynman_kac_leg(p, VolScheme(REGIMES[Regime.ROUGH].quantized, qm=qm_tilde),
                          grid, pos_map, p.w0 ** p.gamma / p.gamma)
    values, = map_paths([leg], grid, master_seed, n_paths, threads)
    return McEstimate.of(values)


@dataclass(frozen=True)
class ConvergenceRow:
    atoms: int
    monotonicity_violations: int
    kernel_error: float
    riccati_value: float
    value_gap_to_next: float
    mc_mean: float
    mc_std_error: float
    epsilon: float


def convergence_study(p: ModelParams, qms: list, n_paths: int, grid: TimeGrid,
                      master_seed: int, threads: int = 1) -> list:
    """Per-refinement-level diagnostics on shared randomness.

    For each consecutive pair of nested measures: pathwise monotonicity
    violations of the quantized volatility on the first MONOTONE_PATHS
    paths (expected zero), the kernel approximation error at t = 1, the
    Riccati value and its gap to the next level, the Monte Carlo utility
    of the Merton strategy, and the near-optimality certificate (value
    gap + quantized-vs-direct MC gap).
    """
    if p.regime is not Regime.FRACTIONAL:
        raise ValueError("the convergence study runs in the fractional regime")
    direct, _, quantized, riccati = REGIMES[p.regime]
    schemes = [VolScheme(quantized, qm=qm) for qm in qms]
    nus = map_paths([(p, s, None, lambda dBs, z, nu: nu) for s in schemes], grid,
                    master_seed, MONOTONE_PATHS)
    utility = _utility(p, merton_ratio(p), grid)
    euler_util, *utils = map(McEstimate.of, map_paths(
        [(p, s, PositivityMap.IDENTITY, utility)
         for s in [VolScheme(direct), *schemes]],
        grid, master_seed, n_paths, threads))
    rows = []
    values = [value_function(p, riccati(qm, p, grid.h)).value for qm in qms]
    for i, (qm, util) in enumerate(zip(qms, utils)):
        if i + 1 < len(qms):
            violations = int(np.sum(nus[i] > nus[i + 1] + 1e-12))
            value_gap = abs(values[i] - values[i + 1])
        else:
            violations = 0
            value_gap = math.nan
        eps = (value_gap if math.isfinite(value_gap) else 0.0) \
            + abs(util.mean - euler_util.mean)
        rows.append(ConvergenceRow(
            atoms=qm.n_atoms,
            monotonicity_violations=violations,
            kernel_error=abs(approx_kernel(1.0, qm) - frac_kernel(1.0, p.alpha)),
            riccati_value=values[i],
            value_gap_to_next=value_gap,
            mc_mean=util.mean,
            mc_std_error=util.std_error,
            epsilon=eps,
        ))
    return rows
