"""Path simulation: RNG streams, Brownian increments and SDE schemes.

Randomness is organized as counter-based Philox streams keyed by
(master_seed, stream_id), one stream per path, so any path is bit-identical
across runs and thread schedules.  brownian_batch draws a batch from one
reused Philox, reset to each path's stream in turn, and draws the dBs
normals only when they are read.  mc.map_paths draws a batch's dBz
alone for the drive and then each row block's pair: the dBz normals come
first in every stream, so redrawing them gives dBs the bits of one draw
of the whole batch at any rho.  The CIR process uses full-truncation
Euler (reported values are clipped at zero), stepped time-major: per
block of steps the increments are copied once into a contiguous buffer
and every path advances a row at a time in place, bit for bit the
stepwise update.
Because a block copies its increments before it writes the same columns
of the path, both drivers can write Z over its own increments (out=, the
array whose [..., 1:] is dBz), which is how mc holds one path-sized array
for both.  The exponential factor processes use exact exponential
integrators, which are unconditionally stable for the stiff large-x atoms
produced by quantization.

simulate_tilde_z, the rho != 0 Feynman-Kac driver, is the one loop that
carries factor state (nu feeds back into its drift).  It is a step-blocked
update: the factor state advances once per block of steps by two GEMMs,
and nu inside a block comes from that state plus a buffer of the block's
Z values, so only the state and one block-long buffer are kept.  Each
step writes through out= into preallocated rows, so it allocates nothing.
With keep_z=False it writes nu, not Z-tilde, over the increments in out=
and keeps no Z-tilde, so mc's Feynman-Kac batch, whose integrand reads nu
only, holds dBz and nu in one path-sized array.
The two GEMMs run over column chunks of the paths (_serial_matmul), each
below OpenBLAS's threading bound, so a batch's factor updates stay on its
own thread instead of waking OpenBLAS's pool, whose spinning threads would
compete with the step loop for the cores.  A GEMM is split only where the
chunks keep the bits of one call: whole-panel batches of at most 384 atoms.
The per-step dot of the near history reads a reversed view of the kernel,
so numpy sums it left to right in its own loop, not through BLAS.
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


# Rows per block of every row-wise pass over a batch: brownian_batch's
# scaling, vol's FFT and mc's leg loop, which draws dBs per block.  It
# bounds the block's dBs, the nu block and an integrand's temporaries
# (about 0.25 MB each at 1000 steps) and the FFT scratch (1.5 MB), whatever
# the batch size.  With glibc's malloc, temporaries this small are reused
# from block to block instead of being handed back to the OS and faulted
# in again.  The CLI wealth child (1024-path batches, threads 2) read
# 33-35k minor faults and 63 MB with 64-row blocks, and 10.0k and 58 MB
# with 32.
_ROW_BLOCK = 32


def brownian_batch(master_seed: int, stream_ids, grid: TimeGrid, rho: float,
                   draw_dBs: bool = True, out: np.ndarray | None = None) -> tuple:
    """(dBz, dBs): per-step increments of B^Z and B^S with Corr = rho, for a
    batch of path streams, each of shape (n_paths, steps).

    Row i holds the stream keyed (master_seed << 64) + stream_ids[i]: its
    first `steps` standard normals scaled by sqrt(h) give dBz, the next
    `steps` the independent part of dBs.  One Philox is reused for the
    batch; resetting its key, counter and buffer per stream gives the same
    sequence as a fresh Philox(key=...).  With draw_dBs=False only the dBz
    normals are drawn and dBs is None.  out, if given, is an (n_paths,
    steps) array with contiguous rows that receives dBz (mc passes the
    [:, 1:] of the array Z is then written into, or of the nu block that
    a row block's legs then write into).
    """
    n = len(stream_ids)
    if out is not None and out.shape != (n, grid.steps):
        raise ValueError(f"out must have shape {(n, grid.steps)}, got {out.shape}")
    # one array per row kind, so that dBz can be freed while dBs is in use
    normals = [np.empty((n, grid.steps)) if out is None else out]
    if draw_dBs:
        normals.append(np.empty((n, grid.steps)))
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state  # zero counter, empty buffer
    key = fresh["state"]["key"]
    for row, sid in enumerate(stream_ids):
        key[1], key[0] = divmod((int(master_seed) << 64) + int(sid), 1 << 64)
        bitgen.state = fresh
        for rows in normals:
            gen.standard_normal(out=rows[row])
    sqh = np.sqrt(grid.h)
    dBz, dBs = normals if draw_dBs else (normals[0], None)
    # a row block at a time, in place but with the products of
    # rho*dBz + (sqrt(1-rho^2)*n1)*sqh, so every increment is bit-identical
    # to that expression and no path-sized temporary is made
    for a in range(0, n, _ROW_BLOCK):
        block = slice(a, a + _ROW_BLOCK)
        dBz[block] *= sqh
        if dBs is not None:
            dBs[block] *= np.sqrt(1.0 - rho ** 2)
            dBs[block] *= sqh
            dBs[block] += rho * dBz[block]
    return dBz, dBs


# Steps per block of simulate_cir and simulate_tilde_z: each block copies its
# slice of dBz once into a time-major buffer.  simulate_tilde_z also advances
# its factor state by two GEMMs per block, and nu inside a block by a dot of
# at most this length.
_STEP_BLOCK = 32

# OpenBLAS runs a GEMM on the calling thread when m*n*k is at most
# 65536 * GEMM_MULTITHREAD_THRESHOLD (4), and on its thread pool above that.
_SERIAL_GEMM_MNK = 1 << 18
# A chunk keeps the bits of one GEMM only where OpenBLAS's small-matrix
# kernel, which serial-sized chunks reach, agrees with its large kernel: on
# whole panels of 8 columns (C's columns are the paths), not on a tail of
# n % 8, and for k at most GEMM_Q = 384, which the large kernel sums in one
# block (seen with OpenBLAS 0.3.31 on AVX-512 x86-64; tests/test_sim.py pins
# every split against one call).  The bound is on max(m, k), so that
# simulate_tilde_z's GEMMs (b, atoms) @ (atoms, n) and (atoms, b) @ (b, n)
# split together: once one must wake the pool, narrow chunks of the other
# only cost more per column than one call.
_GEMM_PANEL = 8
_GEMM_Q = 384


def _serial_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.matmul(a, b, out=out) for a (m, k) and b (k, n), bit for bit, over
    column chunks of at most _SERIAL_GEMM_MNK // (m*k) columns, rounded down
    to whole panels, so that each GEMM runs on the calling thread and
    OpenBLAS's pool stays asleep instead of spinning against the caller.
    A GEMM that cannot be split without moving a bit (see _GEMM_PANEL) is
    one call."""
    m, k = a.shape
    n = b.shape[1]
    width = _SERIAL_GEMM_MNK // (m * k) // _GEMM_PANEL * _GEMM_PANEL
    if width == 0 or n % _GEMM_PANEL or max(m, k) > _GEMM_Q:
        return np.matmul(a, b, out=out)
    for c in range(0, n, width):
        np.matmul(a, b[:, c:c + width], out=out[:, c:c + width])
    return out


def _path_rows(out: np.ndarray | None, dBz: np.ndarray, steps: int) -> np.ndarray:
    """The (paths, steps+1) rows a driver writes its path into: a new array,
    or a view of out, which must be C-contiguous of shape dBz.shape[:-1] +
    (steps+1,).  out may hold dBz itself in out[..., 1:]: every block of
    steps copies its increments out before it writes the same columns."""
    shape = dBz.shape[:-1] + (steps + 1,)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {shape}")
    return out.reshape(-1, steps + 1)


def simulate_cir(p: ModelParams, grid: TimeGrid, dBz: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """CIR path(s) by full-truncation Euler; output is clipped at zero.
    Shape: dBz.shape[:-1] + (steps+1,), written into out if given (which
    may be the array whose [..., 1:] is dBz, see _path_rows).

    Time-major: each block of _STEP_BLOCK steps copies its dBz columns once
    into a contiguous buffer, steps every path a row at a time in place,
    and is written back transposed.  Each step is

        Z_{k+1} = Z_k + (theta - Z+_k) kappa h + sigma sqrt(Z+_k) dB_k

    with the operations in this order, so every value is bit for bit the
    stepwise update on a path-major array (tests/oracles.py).
    """
    h, steps = grid.h, grid.steps
    db = dBz.reshape(-1, steps)
    z = _path_rows(out, dBz, steps)
    n = db.shape[0]
    blk = min(_STEP_BLOCK, steps)
    db_blk, z_blk = np.empty((2, blk, n))
    zp, drift = np.empty((2, n))
    z[:, 0] = p.z0
    zk = np.full(n, float(p.z0))
    for s in range(0, steps, blk):
        b = min(blk, steps - s)
        db_blk[:b] = db[:, s:s + b].T
        for t in range(b):
            np.maximum(zk, 0.0, out=zp)
            np.subtract(p.theta, zp, out=drift)
            drift *= p.kappa
            drift *= h
            np.sqrt(zp, out=zp)
            zp *= p.sigma
            zp *= db_blk[t]
            zk = np.add(zk, drift, out=z_blk[t])
            zk += zp
        z[:, s + 1:s + b + 1] = z_blk[:b].T
    return np.maximum(z, 0.0, out=z).reshape(dBz.shape[:-1] + (steps + 1,))


def simulate_tilde_z(p: ModelParams, qm: QuantizedMeasure, grid: TimeGrid,
                     dBz: np.ndarray, out: np.ndarray | None = None, *,
                     keep_z: bool = True):
    """Drift-corrected CIR (the Feynman-Kac driving process) by
    full-truncation Euler.

    Returns (z, nu) where nu = v0 + q . Y comes from the exponential-
    integrator factors Y of the simulated path.  nu feeds back into the
    drift, so Z is stepped one step at a time, but Y only advances once per
    block of B = _STEP_BLOCK steps.  With d = e^{-x h}, Z+ = max(Z, 0) and
    w the summed factor kernel (vol._factor_kernel), a block that starts at
    step s with factor state Y_s has

        nu_{k+1} = v0 + sum_i q_i d_i^{k+1-s} Y_s^i + sum_{j=s..k} w[k+1-j] Z+_j:

    one GEMM per block for the far history, a dot of length <= B per step
    for the near one, and Y_{s+B} = d^B Y_s + (Z+ buffer) @ G with
    G[t, i] = (1 - d_i)/x_i d_i^{B-1-t}, a second GEMM.  Only Y and one
    B-step buffer are kept, so large batches stay memory-light, and each
    step writes into preallocated rows, so it allocates nothing.  Both
    GEMMs go through _serial_matmul, which runs them on this thread in
    column chunks where that keeps the bits of one call.  The per-step dot
    takes a reversed (non-contiguous) view of w, which numpy sums left to
    right in its own loop, never in BLAS; a contiguous copy would reach
    OpenBLAS's dgemv and move nu's last bits.  This is the per-step
    recurrence Y_{k+1} = d Y_k + Z+_k (1 - d)/x with its sums reordered.
    The correction lam*gamma*sigma*rho/(1-gamma) * sqrt(Z * nu) vanishes at
    rho = 0, where the path coincides with simulate_cir bit for bit.
    Shapes: dBz.shape[:-1] + (steps+1,); z is written into out if given
    (which may be the array whose [..., 1:] is dBz, see _path_rows).  With
    keep_z=False, nu is written into out instead, z is not kept, and the
    result is (None, nu), with nu bit for bit the default call's.
    """
    if qm.kind is not MeasureKind.MU:
        raise ValueError("simulate_tilde_z needs a fractional-kind measure")
    coef = p.lam * p.gamma * p.sigma * p.rho / (1.0 - p.gamma)
    h, steps = grid.h, grid.steps
    db = dBz.reshape(-1, steps)
    rows = _path_rows(out, dBz, steps)
    z, nu = (rows, np.empty_like(rows)) if keep_z else (None, rows)
    n = db.shape[0]
    blk = min(_STEP_BLOCK, steps)
    powers = np.exp(-np.outer(np.arange(blk + 1), qm.nodes * h))  # d_i^m
    gain = (1.0 - powers[1]) / qm.nodes
    far = powers[1:] * qm.weights                         # q_i d_i^{t+1}
    w_rev = (powers[:blk] @ (qm.weights * gain))[::-1]    # w[B], ..., w[1]
    push = (powers[blk - 1::-1] * gain).T                 # G transposed
    # work arrays are time-major (row t of a block holds every path at step
    # s+t) and allocated once, so the loop allocates nothing
    y = np.zeros((qm.n_atoms, n))
    y_push = np.empty_like(y)
    db_blk, hist, zp_blk, z_blk, nu_blk = np.empty((5, blk, n))
    drift, corr = np.empty((2, n))
    nu[:, 0] = p.v0
    zk = np.full(n, float(p.z0))
    nuk = np.full(n, float(p.v0))
    for s in range(0, steps, blk):
        b = min(blk, steps - s)
        db_blk[:b] = db[:, s:s + b].T
        _serial_matmul(far[:b], y, out=hist[:b])
        hist[:b] += p.v0
        for t in range(b):
            # Z+ = max(Z, 0), corr = coef sqrt(Z+ max(nu, 0)) and
            # Z + (kappa (theta - Z+) + corr) h + sigma sqrt(Z+) dB, through
            # out= but with the operations of those expressions
            zp = np.maximum(zk, 0.0, out=zp_blk[t])
            np.maximum(nuk, 0.0, out=corr)
            corr *= zp
            np.sqrt(corr, out=corr)
            corr *= coef
            np.subtract(p.theta, zp, out=drift)
            drift *= p.kappa
            drift += corr
            drift *= h
            zk = np.add(zk, drift, out=z_blk[t])
            np.sqrt(zp, out=corr)
            corr *= p.sigma
            corr *= db_blk[t]
            zk += corr
            # nu = hist + w . Z+ over the block so far
            nuk = np.matmul(w_rev[blk - 1 - t:], zp_blk[:t + 1], out=nu_blk[t])
            nuk += hist[t]
        if keep_z:
            z[:, s + 1:s + b + 1] = z_blk[:b].T
        nu[:, s + 1:s + b + 1] = nu_blk[:b].T
        if s + b < steps:
            y *= powers[blk, :, None]
            y += _serial_matmul(push, zp_blk, out=y_push)
    shape = dBz.shape[:-1] + (steps + 1,)
    if keep_z:
        z[:, 0] = p.z0
        z = np.maximum(z, 0.0, out=z).reshape(shape)
    return z, nu.reshape(shape)


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


def _wealth_log_increments(pi, nu_path: np.ndarray, grid: TimeGrid,
                           dBs: np.ndarray, p: ModelParams) -> np.ndarray:
    """Per-step log-wealth increments, shape nu_path[..., :-1].shape."""
    if np.any(nu_path < 0):
        raise ValueError("wealth simulation needs a nonnegative volatility path")
    nu = nu_path[..., :-1]
    if np.ndim(pi) == 0:
        pi = float(pi)
    else:
        pi = np.broadcast_to(np.asarray(pi, dtype=float), nu.shape)
    # (r + pi nu (lam - pi/2)) h + pi sqrt(nu) dBs, in two arrays but with
    # the operations of that expression, so the bits are the same
    out = np.multiply(pi, nu)
    out *= p.lam - 0.5 * pi
    out += p.r
    out *= grid.h
    noise = np.sqrt(nu)
    noise *= pi
    noise *= dBs
    out += noise
    return out


def simulate_wealth(pi, nu_path: np.ndarray, grid: TimeGrid, dBs: np.ndarray,
                    p: ModelParams) -> np.ndarray:
    """Wealth path under a strategy, in log space (exact lognormal solution
    with left-endpoint quadrature of the drift integral).

    pi is a scalar or an array of per-step fractions, applied at the left
    endpoint of each step.
    """
    log_incr = _wealth_log_increments(pi, nu_path, grid, dBs, p)
    logs = np.concatenate([np.zeros(log_incr.shape[:-1] + (1,)),
                           np.cumsum(log_incr, axis=-1)], axis=-1)
    return p.w0 * np.exp(logs)


def terminal_wealth(pi, nu_path: np.ndarray, grid: TimeGrid, dBs: np.ndarray,
                    p: ModelParams) -> np.ndarray:
    """simulate_wealth(...)[..., -1], bit for bit, without the path: the
    increments are summed in the same running (cumsum) order, and only the
    sum is exponentiated."""
    log_incr = _wealth_log_increments(pi, nu_path, grid, dBs, p)
    return p.w0 * np.exp(np.cumsum(log_incr, axis=-1, out=log_incr)[..., -1])
