"""Monte Carlo engines and affine cross-validation.

Every estimator and CLI command simulates through map_paths, which runs
legs (Leg: p, scheme, positivity map, integrand, tilde) over fixed
batches of per-path Philox streams; the estimators reduce each leg's
values by McEstimate.of with exact (fsum) sums, so results are
bit-identical for any worker count.  The leg names its measure: a tilde
leg (feynman_kac_leg) is a Feynman-Kac expectation, taken under the
drift-corrected measure that Z-tilde simulates at rho != 0; any other leg
is taken under the physical measure.  Each leg's kernel is built once per
map, before any batch runs.  A batch draws dBz and drives Z once for all
its legs (alphas, levels or schemes on common random numbers), writing Z
over its own increments, so Z is its one path-sized array.  It then runs
the legs over blocks of 32 rows with one set of scratch: each block's Z
is transformed once for every leg that convolves it, the block's dBs is
drawn only if a leg is not a tilde leg, and each leg in turn writes its
nu, after its positivity map, into one reused nu block and runs its
integrand on it.  A batch driven by CIR holds CIR_BATCH_SIZE (1024)
paths, which halves the paths each worker holds in flight and moves no
bit, since the drive, the dBs draws, the transforms and the sums all go
path by path.  The rho != 0 Z-tilde depends on nu, so it drives a single
tilde leg, over BATCH_SIZE (2048) paths: its per-path cost rises at
narrower widths, and its pooled GEMMs take their bits from the batch's
columns.  There the driver writes nu over the increments in place of
Z-tilde, which nothing reads, and the leg gets nu sliced per block and
z=None.  One Feynman-Kac leg serves both value estimators; utility legs
read the terminal wealth only.  REGIMES is the one table from a regime to
its schemes, quantized measure and Riccati system.
"""
from __future__ import annotations

import math
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


def _concat(parts):
    """One leg's batch outputs in path order: an array, or a tuple of
    arrays concatenated element by element."""
    if isinstance(parts[0], tuple):
        return tuple(map(_concat, zip(*parts)))
    return np.concatenate(parts)


def _map_batches(batch_fn, n_paths: int, threads: int = 1,
                 batch_size: int = BATCH_SIZE) -> list:
    """Run batch_fn(start, stop), which returns one output per leg, over
    fixed path-index slices and concatenate each leg's outputs; batch layout
    is independent of the worker count, so the output is too.  No paths run
    one empty batch, so every leg keeps its output's shape."""
    slices = [(s, min(s + batch_size, n_paths))
              for s in range(0, n_paths, batch_size)] or [(0, 0)]
    if threads <= 1 or len(slices) == 1:
        parts = [batch_fn(a, b) for a, b in slices]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(lambda ab: batch_fn(*ab), slices))
    return [_concat(leg) for leg in zip(*parts)]


# A leg of a path map: integrand(dBs, Z, nu) on the volatility of scheme
# under p, after pos_map.  tilde marks a Feynman-Kac leg, whose expectation
# is taken under the drift-corrected measure (Z-tilde at rho != 0); other
# legs are taken under the physical measure.  Plain 4-tuples are physical.
Leg = namedtuple("Leg", "p scheme pos_map integrand tilde", defaults=(False,))

_DRIVER_FIELDS = ("rho", "z0", "kappa", "theta", "sigma")  # what Z depends on


def _driver_params(legs) -> tuple:
    """(p, tilde, draw_dBs) of a batch of legs.  p is the first leg's
    params, once every leg shares its rho and CIR constants.  The batch
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


def _gather(dest, out, a: int, n: int):
    """dest with rows a.. set to one block's integrand output: an array, or
    a tuple of arrays, whose first axis is the block's paths.  The first
    block allocates dest (None) for the batch's n paths."""
    if isinstance(out, tuple):
        return tuple(_gather(d, o, a, n)
                     for d, o in zip(dest or (None,) * len(out), out))
    out = np.asarray(out)
    if dest is None:
        dest = np.empty((n,) + out.shape[1:], out.dtype)
    dest[a:a + len(out)] = out
    return dest


def _kernels(legs, grid: TimeGrid, tilde: bool) -> list:
    """Each leg's VolterraKernel, None where it does not convolve Z: a
    classical leg, or a leg that gets the Z-tilde driver's nu."""
    return [None if tilde else leg.scheme.kernel(leg.p, grid) for leg in legs]


def _run_blocks(legs, kernels, grid: TimeGrid, z: np.ndarray | None, nu=None,
                draw_dBs=None) -> list:
    """Each leg's integrand over blocks of _ROW_BLOCK rows of the batch.

    kernels are the legs' kernels (_kernels), built once per map.  The
    batch's scratch is allocated once: a ZSpectrum, if a leg convolves Z,
    and one block of nu.  Per block, Z is transformed once for all the
    legs that convolve it, draw_dBs(rows, out), if given, draws the
    block's read-only dBs with its dBz redrawn into out (the nu block's
    [:, 1:]), and then each leg's nu and positivity map are written into
    the nu block in turn.  With a driver's nu (Z-tilde), z is None: nu is
    sliced instead, and the leg gets z=None.  Each block's output is
    copied into its leg's batch output before the next leg runs, so an
    integrand may return a view of what it is given.  No rows still make
    one block, so every integrand runs and keeps its output's shape."""
    paths = nu if z is None else z
    n = len(paths)
    convolves = any(k is not None for k in kernels)
    nu_block = np.empty((min(n, _ROW_BLOCK), paths.shape[-1]))
    spectrum = None
    outs = [None] * len(legs)
    for a in range(0, max(n, 1), _ROW_BLOCK):
        rows = slice(a, a + _ROW_BLOCK)
        z_rows = None if z is None else z[rows]
        block = nu_block[:n - a]
        if convolves:
            spectrum = ZSpectrum(z_rows) if spectrum is None else spectrum.take(z_rows)
        dBs_rows = None if draw_dBs is None else draw_dBs(rows, block[:, 1:])
        for i, (leg, kernel) in enumerate(zip(legs, kernels)):
            if nu is not None:
                nu_rows = nu[rows]
            else:
                nu_rows = leg.scheme.nu_paths(leg.p, z_rows, grid, kernel, spectrum,
                                              block)
            if leg.pos_map is not None:
                nu_rows = apply_positivity(nu_rows, leg.pos_map, block)
            outs[i] = _gather(outs[i], leg.integrand(dBs_rows, z_rows, nu_rows), a, n)
    return outs


def _path_batch(legs, grid: TimeGrid, master_seed: int, start: int,
                stop: int, kernels=None) -> list:
    """integrand(dBs, Z, nu) of each Leg (or plain 4-tuple) for paths
    start..stop, in leg order, with the legs' kernels (_kernels; built
    here if None).

    The legs share rho and the CIR constants, so Z is driven once.  dBz
    only drives Z: it is drawn into the [:, 1:] of the array Z is written
    into, so Z overwrites its own increments, and the Z-tilde step
    allocates nothing per step.  The Z-tilde driver writes its nu, not
    Z-tilde, over the increments instead.  So the one path-sized array is
    Z (or the Z-tilde's nu).  The legs then run over blocks of at most
    _ROW_BLOCK (32) rows, which share one set of scratch (_run_blocks):
    per block, every leg gets the block's read-only dBs and Z and its own
    nu, after pos_map (raw with pos_map=None), and the integrand is called
    once per block.  dBs is drawn per block, from the block's streams:
    redrawing their dBz normals on the way gives dBs the bits of one
    whole-batch draw at any rho.  The integrand's output is an array, or a
    tuple of arrays, whose first axis is the block's paths; it is copied
    into the leg's output for the batch at once, so it may be a view of
    the block's dBs, Z or nu, which are reused or gone by the next block.
    The legs decide the measure and the draw (_driver_params): at
    rho != 0 a single quantized fractional tilde leg is driven by Z-tilde
    and gets z=None, since Z-tilde is not kept, and a read-only nu (at
    rho = 0 Z-tilde is Z); a batch of tilde legs only gets dBs=None.
    """
    legs = [Leg(*leg) for leg in legs]
    p, tilde, draw_dBs = _driver_params(legs)
    if kernels is None:
        kernels = _kernels(legs, grid, tilde)
    # dBz is drawn into paths[:, 1:], and Z (or the Z-tilde's nu) is
    # written over its own increments
    paths = np.empty((stop - start, grid.steps + 1))
    dBz, _ = brownian_batch(master_seed, range(start, stop), grid, p.rho, False,
                            out=paths[:, 1:])
    if tilde:
        z, nu = simulate_tilde_z(p, legs[0].scheme.qm, grid, dBz, out=paths,
                                 keep_z=False)
    else:
        z, nu = simulate_cir(p, grid, dBz, out=paths), None
    for a in (z, nu):
        if a is not None:
            a.flags.writeable = False

    def block_dBs(rows: slice, out: np.ndarray) -> np.ndarray:
        # the block's streams again, for their dBs; dBz is redrawn into out
        _, dBs = brownian_batch(master_seed, range(start, stop)[rows], grid, p.rho,
                                out=out)
        dBs.flags.writeable = False
        return dBs

    return _run_blocks(legs, kernels, grid, z, nu, block_dBs if draw_dBs else None)


def map_paths(legs, grid: TimeGrid, master_seed: int, n_paths: int,
              threads: int = 1) -> list:
    """Each leg's integrand(dBs, Z, nu) on paths 0..n_paths: the one way to
    run legs.  legs are Legs (p, scheme, pos_map, integrand, tilde) or plain
    4-tuples, which are physical legs; they share rho and the CIR
    constants, and each leg's measure is its own: tilde legs are driven by
    the drift-corrected Z-tilde at rho != 0, which takes one tilde leg and
    no physical leg on the same map (ValueError), and the others by the
    physical Z.  A map of tilde legs only draws no dBs.  Builds each leg's
    kernel once, on the calling thread, and runs fixed batches, of
    BATCH_SIZE paths when Z-tilde drives them and CIR_BATCH_SIZE when CIR
    does; returns one output per leg, an array or a tuple of arrays,
    concatenated in path order whatever the worker count; n_paths = 0
    gives each leg's output with no rows."""
    legs = [Leg(*leg) for leg in legs]
    _, tilde, _ = _driver_params(legs)
    kernels = _kernels(legs, grid, tilde)

    def batch(start, stop):
        return _path_batch(legs, grid, master_seed, start, stop, kernels)

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
