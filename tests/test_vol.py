import math

import numpy as np
import pytest
from scipy.fft import next_fast_len

from fracheston import (MeasureKind, PositivityMap, SchemeKind, TimeGrid,
                        VolScheme, apply_positivity, brownian_batch,
                        hurst_of_alpha, measure_for_atoms, nu_fractional_euler,
                        nu_quantized_paths, nu_quantized_rough_paths,
                        nu_rough_marchaud, simulate_cir)
from fracheston import vol
from fracheston.vol import (_ROW_BLOCK, VolterraKernel, ZSpectrum, _fast_len,
                            _volterra_paths)
from oracles import (direct_causal_convolve, nu_fractional_euler_direct,
                     nu_quantized, nu_quantized_rough, nu_rough_marchaud_direct,
                     simulate_factors, simulate_factors_rough,
                     volterra_paths_unfused)


@pytest.fixture
def z_batch(params):
    grid = TimeGrid.from_horizon(1.0, 0.005)
    dBz, _ = brownian_batch(31, range(6), grid, 0.0)
    return grid, simulate_cir(params, grid, dBz)


def test_positivity_maps():
    path = np.array([-0.5, 0.0, 2.0])
    assert np.array_equal(apply_positivity(path, PositivityMap.ABSOLUTE),
                          np.array([0.5, 0.0, 2.0]))
    assert np.allclose(apply_positivity(path, PositivityMap.EXPONENTIAL),
                       np.exp(path))
    with pytest.raises(ValueError):
        apply_positivity(path, PositivityMap.IDENTITY)
    ok = np.array([0.1, 0.3])
    assert np.array_equal(apply_positivity(ok, PositivityMap.IDENTITY), ok)


def test_fft_matches_direct_fractional(z_batch):
    grid, z = z_batch
    for alpha in (0.05, 0.5, 0.95):
        fft = nu_fractional_euler(z, alpha, grid)
        direct = nu_fractional_euler_direct(z, alpha, grid)
        assert np.max(np.abs(fft - direct)) < 1e-12


def test_fft_matches_direct_rough(z_batch):
    grid, z = z_batch
    for alpha in (-0.95, -0.75, -0.55):
        fft = nu_rough_marchaud(z, alpha, grid)
        direct = nu_rough_marchaud_direct(z, alpha, grid)
        assert np.max(np.abs(fft - direct)) < 1e-12


def test_fast_len_is_scipy_next_fast_len():
    # the FFT length rule of the convolution engine, without scipy
    n = np.arange(1, 100_001)
    assert [_fast_len(int(k)) for k in n] == [next_fast_len(int(k), real=True) for k in n]


def test_fractional_scheme_affine_in_z(z_batch):
    grid, z = z_batch
    z1, z2 = z[0], z[1]
    a, b = 0.7, -1.3
    v0 = 0.2
    lhs = nu_fractional_euler(a * z1 + b * z2, 0.6, grid, v0=v0) - v0
    rhs = (a * (nu_fractional_euler(z1, 0.6, grid, v0=v0) - v0)
           + b * (nu_fractional_euler(z2, 0.6, grid, v0=v0) - v0))
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_scheme_domain_validation(z_batch):
    grid, z = z_batch
    with pytest.raises(ValueError):
        nu_fractional_euler(z, -0.75, grid)
    with pytest.raises(ValueError):
        nu_rough_marchaud(z, 0.75, grid)
    with pytest.raises(ValueError):
        nu_rough_marchaud(z, -0.75, grid, delta=0.6)


def test_fractional_scheme_starts_at_v0(z_batch):
    grid, z = z_batch
    nu = nu_fractional_euler(z, 0.75, grid, v0=0.3)
    assert np.all(nu[:, 0] == 0.3)
    rough = nu_rough_marchaud(z, -0.75, grid, v0=0.3)
    assert np.all(rough[:, 0] == 0.3)


def test_quantized_paths_match_factor_matrix(z_batch):
    grid, z = z_batch
    qm = measure_for_atoms(32, 0.75, MeasureKind.MU)
    y = simulate_factors(qm, z, grid)
    expected = nu_quantized(0.1, qm, y)
    fused = nu_quantized_paths(0.1, qm, z, grid)
    assert np.allclose(fused, expected, rtol=1e-12, atol=1e-14)


def test_quantized_rough_paths_match_factor_matrix(z_batch):
    grid, z = z_batch
    qm = measure_for_atoms(32, -0.75, MeasureKind.MU_TILDE)
    y = simulate_factors_rough(qm, z, grid)
    expected = nu_quantized_rough(0.1, z, qm, y, grid)
    fused = nu_quantized_rough_paths(0.1, qm, z, grid)
    assert np.allclose(fused, expected, rtol=1e-12, atol=1e-14)


def _quantized_oracle(v0, qm, z, grid):
    """Per-atom exponential-integrator recurrence, materialized."""
    if qm.kind is MeasureKind.MU:
        return nu_quantized(v0, qm, simulate_factors(qm, z, grid))
    return nu_quantized_rough(v0, z, qm, simulate_factors_rough(qm, z, grid), grid)


def _z_paths(params, h, rows):
    grid = TimeGrid.from_horizon(1.0, h)
    z = simulate_cir(params, grid, brownian_batch(37, range(rows), grid, 0.0)[0])
    return grid, z


@pytest.mark.parametrize("shape", ["single", "ragged_batch", "10k_steps"])
@pytest.mark.parametrize("level", [64, 128, 256])
def test_quantized_paths_match_recurrence_oracle(params, level, shape):
    # the convolution engine against the per-atom recurrence it replaced,
    # at the benchmark's atom counts (70/142/286), on a 1-D path, a batch
    # that is not a multiple of the FFT row block, and a long grid
    if shape == "single":
        grid, z = _z_paths(params, 0.005, 1)
        z = z[0]
    elif shape == "ragged_batch":
        grid, z = _z_paths(params, 0.05, _ROW_BLOCK + 45)
    else:
        grid, z = _z_paths(params, 1e-4, 1)
        z = z[0]
    for alpha, kind, fused in ((0.75, MeasureKind.MU, nu_quantized_paths),
                               (-0.75, MeasureKind.MU_TILDE, nu_quantized_rough_paths)):
        qm = measure_for_atoms(level, alpha, kind)
        assert qm.n_atoms == {64: 70, 128: 142, 256: 286}[level]
        nu = fused(0.1, qm, z, grid)
        assert nu.shape == z.shape
        assert np.max(np.abs(nu - _quantized_oracle(0.1, qm, z, grid))) < 1e-12


def test_fft_matches_direct_on_ragged_batch(params):
    grid, z = _z_paths(params, 0.01, _ROW_BLOCK + 45)
    w = np.zeros(grid.steps + 1)
    w[1:] = np.linspace(1.0, 0.1, grid.steps) ** 3
    fft = _volterra_paths(z, VolterraKernel.of(w, 0.0))[:, 1:]  # the bare convolution at v0 = 0
    direct = direct_causal_convolve(z, w)
    assert fft.shape == direct.shape == (_ROW_BLOCK + 45, grid.steps)
    assert np.max(np.abs(fft - direct)) < 1e-12


def test_spectrum_rejects_more_rows_than_a_block():
    # nu is written a _ROW_BLOCK-row block at a time, so a larger spectrum
    # could not be applied to it
    z = np.zeros((_ROW_BLOCK + 1, 21))
    assert len(ZSpectrum(z[:_ROW_BLOCK]).rows) == _ROW_BLOCK
    with pytest.raises(ValueError, match=f"at most _ROW_BLOCK = {_ROW_BLOCK} rows"):
        ZSpectrum(z)


@pytest.mark.parametrize("scheme, alpha, v0", [
    (VolScheme(SchemeKind.FRACTIONAL_EULER), 0.75, 0.03),
    (VolScheme(SchemeKind.ROUGH_MARCHAUD), -0.75, 0.1),
    (VolScheme(SchemeKind.QUANTIZED_FRACTIONAL,
               qm=measure_for_atoms(128, 0.75, MeasureKind.MU)), 0.75, 0.03),
    (VolScheme(SchemeKind.QUANTIZED_ROUGH,
               qm=measure_for_atoms(128, -0.75, MeasureKind.MU_TILDE)), -0.75, 0.1),
    (VolScheme(SchemeKind.QUANTIZED_FRACTIONAL,
               qm=measure_for_atoms(16, 0.5, MeasureKind.MU)), 0.5, 0.0),
], ids=["fractional_euler", "rough_marchaud", "quantized", "quantized_rough",
        "quantized-v0=0"])
@pytest.mark.parametrize("lead", [(), (_ROW_BLOCK + 45,), (3, 2)],
                         ids=["1d", "ragged_batch", "3d"])
def test_fused_sum_matches_unfused_bit_for_bit(params, monkeypatch, scheme, alpha,
                                               v0, lead):
    # each row block's convolution is summed with local and v0 straight into
    # nu; per element that is conv, then + local, then + v0.  That holds for
    # whole arrays and for the blocks mc.map_paths builds: one kernel applied
    # to the rows of a ZSpectrum that another kernel has already read
    grid, z = _z_paths(params, 0.01, math.prod(lead))
    z = z.reshape(lead + (grid.steps + 1,))
    p = params.with_(hurst=hurst_of_alpha(alpha), v0=v0)
    fused = scheme.nu_paths(p, z, grid)
    kernel = scheme.kernel(p, grid)
    other = VolScheme(SchemeKind.FRACTIONAL_EULER).kernel(params, grid)
    rows = z.reshape(-1, grid.steps + 1)
    shared = np.empty(rows.shape)
    for a in range(0, len(rows), _ROW_BLOCK):
        spectrum = ZSpectrum(rows[a:a + _ROW_BLOCK])
        other.apply(spectrum, np.empty(spectrum.rows.shape))
        shared[a:a + _ROW_BLOCK] = scheme.nu_paths(p, spectrum.rows, grid, kernel,
                                                   spectrum)
    monkeypatch.setattr(vol, "_volterra_paths", volterra_paths_unfused)
    unfused = scheme.nu_paths(p, z, grid)
    assert np.array_equal(fused, unfused)
    assert np.array_equal(shared.reshape(z.shape), unfused)


def test_fractional_scheme_agrees_with_quantized(z_batch, params):
    # two independent discretizations of the same convolution
    grid, z = z_batch
    qm = measure_for_atoms(1024, params.alpha, MeasureKind.MU)
    nu_e = nu_fractional_euler(z, params.alpha, grid)
    nu_q = nu_quantized_paths(0.0, qm, z, grid)
    assert np.max(np.abs(nu_e - nu_q)) < 5e-4
    int_e = np.trapezoid(nu_e, dx=grid.h, axis=-1)
    int_q = np.trapezoid(nu_q, dx=grid.h, axis=-1)
    assert np.max(np.abs(int_e - int_q)) / np.mean(int_e) < 5e-3


def test_rough_scheme_consistent_with_quantized(z_batch, rough_params):
    # the direct Marchaud scheme has no independent closed form; check it
    # tracks the quantized construction at the integrated level
    grid, _ = z_batch
    # the Marchaud scheme converges slowly in h, so run this comparison on
    # a finer grid than the shared fixture uses
    grid = TimeGrid.from_horizon(1.0, 0.002)
    dBz, _ = brownian_batch(31, range(6), grid, 0.0)
    z = simulate_cir(rough_params, grid, dBz)
    qm = measure_for_atoms(1024, rough_params.alpha, MeasureKind.MU_TILDE)
    nu_m = nu_rough_marchaud(z, rough_params.alpha, grid)
    nu_q = nu_quantized_rough_paths(0.0, qm, z, grid)
    int_m = np.trapezoid(nu_m, dx=grid.h, axis=-1)
    int_q = np.trapezoid(nu_q, dx=grid.h, axis=-1)
    assert np.max(np.abs(int_m - int_q)) / np.mean(np.abs(int_m)) < 0.1


def test_vol_scheme_selector(z_batch, params, rough_params):
    grid, z = z_batch
    qm = measure_for_atoms(16, 0.75, MeasureKind.MU)
    qmr = measure_for_atoms(16, -0.75, MeasureKind.MU_TILDE)
    with pytest.raises(ValueError):
        VolScheme(SchemeKind.QUANTIZED_FRACTIONAL)
    with pytest.raises(ValueError):
        VolScheme(SchemeKind.QUANTIZED_FRACTIONAL, qm=qmr)
    with pytest.raises(ValueError):
        VolScheme(SchemeKind.QUANTIZED_ROUGH, qm=qm)
    c = VolScheme(SchemeKind.CLASSICAL)
    assert np.array_equal(c.nu_paths(params, z, grid), z)
    # each scheme equals its named construction bit for bit, with the
    # scenario's v0 and delta, whole and as one of mc's blocks (a kernel
    # built once and a shared spectrum)
    p, pr = params.with_(v0=0.02), rough_params.with_(v0=0.02)
    for scheme, q, want in (
            (VolScheme(SchemeKind.FRACTIONAL_EULER), p,
             nu_fractional_euler(z, p.alpha, grid, p.v0)),
            (VolScheme(SchemeKind.ROUGH_MARCHAUD, delta=0.3), pr,
             nu_rough_marchaud(z, pr.alpha, grid, pr.v0, delta=0.3)),
            (VolScheme(SchemeKind.QUANTIZED_FRACTIONAL, qm=qm), p,
             nu_quantized_paths(p.v0, qm, z, grid)),
            (VolScheme(SchemeKind.QUANTIZED_ROUGH, qm=qmr), pr,
             nu_quantized_rough_paths(pr.v0, qmr, z, grid))):
        assert np.array_equal(scheme.nu_paths(q, z, grid), want)
        assert np.array_equal(
            scheme.nu_paths(q, z, grid, scheme.kernel(q, grid), ZSpectrum(z)), want)
