import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracheston import (MeasureKind, TimeGrid, brownian_batch,
                        measure_for_atoms, nu_quantized_paths, simulate_cir,
                        simulate_stock, simulate_tilde_z, simulate_wealth)
from fracheston import sim
from fracheston.sim import (_GEMM_PANEL, _GEMM_Q, _SERIAL_GEMM_MNK, _STEP_BLOCK,
                           _serial_matmul, terminal_wealth)
from fracheston.mc import BATCH_SIZE
from oracles import (RngSpec, brownian_pair, cov_cir, optimal_wealth_closed_form,
                     sample_cir_exact, simulate_cir_stepwise, simulate_factors,
                     simulate_factors_rough, simulate_tilde_z_recurrence,
                     wealth_path_expression)


def test_time_grid():
    g = TimeGrid.from_horizon(1.0, 0.001)
    assert g.steps == 1000
    assert g.horizon == pytest.approx(1.0)
    assert g.times[0] == 0.0 and g.times[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        TimeGrid.from_horizon(1.0, 0.0003)
    with pytest.raises(ValueError):
        TimeGrid(h=-0.1, steps=10)


def test_rng_streams_reproducible(coarse_grid):
    a_z, a_s = brownian_pair(RngSpec(42, 7), coarse_grid, 0.0)
    b_z, b_s = brownian_pair(RngSpec(42, 7), coarse_grid, 0.0)
    c_z, _ = brownian_pair(RngSpec(42, 8), coarse_grid, 0.0)
    assert np.array_equal(a_z, b_z) and np.array_equal(a_s, b_s)
    assert not np.array_equal(a_z, c_z)


def test_brownian_correlation_and_scale():
    grid = TimeGrid.from_horizon(100.0, 0.01)
    dBz, dBs = brownian_pair(RngSpec(3, 0), grid, 0.7)
    corr = np.corrcoef(dBz, dBs)[0, 1]
    assert corr == pytest.approx(0.7, abs=0.02)
    assert dBz.std() == pytest.approx(math.sqrt(grid.h), rel=0.05)


def test_brownian_batch_matches_streams(coarse_grid):
    dBz, dBs = brownian_batch(42, range(3), coarse_grid, 0.3)
    one_z, one_s = brownian_pair(RngSpec(42, 1), coarse_grid, 0.3)
    assert np.array_equal(dBz[1], one_z)
    assert np.array_equal(dBs[1], one_s)


@pytest.mark.parametrize("rho", [0.0, -0.7, 0.7])
@pytest.mark.parametrize("seed, start, n", [
    (42, 0, 1),
    (2 ** 63 + 12345, 3, BATCH_SIZE + 52),  # high key word set, nonzero first stream
], ids=["one-row", "batch+52"])
def test_brownian_batch_matches_fresh_streams(seed, start, n, rho):
    grid = TimeGrid.from_horizon(1.0, 0.01)
    dBz, dBs = brownian_batch(seed, range(start, start + n), grid, rho)
    assert dBz.shape == dBs.shape == (n, grid.steps)
    for row, sid in enumerate(range(start, start + n)):
        one_z, one_s = brownian_pair(RngSpec(seed, sid), grid, rho)
        assert np.array_equal(dBz[row], one_z), sid
        assert np.array_equal(dBs[row], one_s), sid
    only_z, no_s = brownian_batch(seed, range(start, start + n), grid, rho, draw_dBs=False)
    assert no_s is None
    assert np.array_equal(only_z, dBz)


def test_cir_nonnegative_and_start(params, coarse_grid):
    dBz, _ = brownian_batch(1, range(50), coarse_grid, 0.0)
    z = simulate_cir(params, coarse_grid, dBz)
    assert z.shape == (50, coarse_grid.steps + 1)
    assert np.all(z >= 0.0)
    assert np.all(z[:, 0] == params.z0)


@pytest.mark.parametrize("shape, h", [
    ((1000,), 0.001),               # a single 1-D path
    ((2048, 1000), 0.001),          # the benchmark batch
    ((5, _STEP_BLOCK - 1), 0.05),   # shorter than one block
    ((7, _STEP_BLOCK + 1), 0.05),   # one step into a second block
    ((3, 1), 0.05),                 # a single step
    ((2, 3, 2 * _STEP_BLOCK), 0.05),
], ids=["1d", "2048x1000", "block-1", "block+1", "1-step", "3d"])
def test_cir_time_major_matches_stepwise_bit_for_bit(params, shape, h):
    steps = shape[-1]
    grid = TimeGrid(h=h, steps=steps)
    dBz = np.random.default_rng(steps).standard_normal(shape) * math.sqrt(h)
    z = simulate_cir(params, grid, dBz)
    assert z.shape == shape[:-1] + (steps + 1,)
    assert np.array_equal(z, simulate_cir_stepwise(params, grid, dBz))


def test_cir_truncation_is_exercised(params):
    # the bit-for-bit pins above reach the max(Z, 0) branch of the update
    grid = TimeGrid(h=0.05, steps=_STEP_BLOCK + 1)
    dBz = np.random.default_rng(grid.steps).standard_normal((7, grid.steps)) * math.sqrt(grid.h)
    assert np.any(simulate_cir_stepwise(params, grid, dBz)[:, 1:] == 0.0)


def test_cir_moments_match_exact_sampler(params, rng):
    grid = TimeGrid.from_horizon(1.0, 0.002)
    n = 4000
    dBz, _ = brownian_batch(8, range(n), grid, 0.0)
    z = simulate_cir(params, grid, dBz)[:, -1]
    exact = sample_cir_exact(params, 1.0, 200000, rng)
    se_mean = math.hypot(z.std(ddof=1) / math.sqrt(n),
                         exact.std(ddof=1) / math.sqrt(len(exact)))
    assert abs(z.mean() - exact.mean()) <= 3.5 * se_mean
    # analytic mean and variance
    mean_th = params.theta + (params.z0 - params.theta) * math.exp(-params.kappa)
    assert exact.mean() == pytest.approx(mean_th, rel=0.01)
    assert exact.var(ddof=1) == pytest.approx(cov_cir(1.0, 1.0, params), rel=0.02)


def test_tilde_z_bit_identical_at_rho_zero(params, coarse_grid):
    qm = measure_for_atoms(16, params.alpha, MeasureKind.MU)
    dBz, _ = brownian_batch(5, range(4), coarse_grid, 0.0)
    z_plain = simulate_cir(params, coarse_grid, dBz)
    z_tilde, nu = simulate_tilde_z(params, qm, coarse_grid, dBz)
    assert np.array_equal(z_plain, z_tilde)
    assert nu.shape == z_tilde.shape
    assert np.all(nu[:, 0] == params.v0)


def test_tilde_z_differs_at_nonzero_rho(params, coarse_grid):
    qm = measure_for_atoms(16, params.alpha, MeasureKind.MU)
    p = params.with_(rho=0.7, v0=0.01)
    dBz, _ = brownian_batch(5, range(4), coarse_grid, 0.7)
    z_plain = simulate_cir(p, coarse_grid, dBz)
    z_tilde, _ = simulate_tilde_z(p, qm, coarse_grid, dBz)
    assert not np.array_equal(z_plain, z_tilde)


@pytest.mark.parametrize("rho", [-0.7, 0.7])
@pytest.mark.parametrize("lead, grid", [
    ((4,), TimeGrid.from_horizon(1.0, 0.01)),
    ((301,), TimeGrid(h=0.001, steps=1001)),  # steps not a multiple of the block
    ((3,), TimeGrid.from_horizon(0.1, 0.01)),  # shorter than one block
    ((), TimeGrid.from_horizon(1.0, 0.001)),   # a single 1-D path
])
def test_tilde_z_blocks_match_recurrence(params, rho, lead, grid):
    qm = measure_for_atoms(128, params.alpha, MeasureKind.MU)
    assert qm.n_atoms == 142
    p = params.with_(rho=rho, v0=0.01)
    dBz = brownian_batch(5, range(math.prod(lead)), grid, rho)[0].reshape(
        lead + (grid.steps,))
    z, nu = simulate_tilde_z(p, qm, grid, dBz)
    z_ref, nu_ref = simulate_tilde_z_recurrence(p, qm, grid, dBz)
    assert z.shape == nu.shape == lead + (grid.steps + 1,)
    assert np.max(np.abs(z - z_ref)) <= 1e-12
    assert np.max(np.abs(nu - nu_ref)) <= 1e-12


@pytest.mark.parametrize("level, n_atoms", [(256, 286), (512, 574)])
@pytest.mark.parametrize("n", [301, 304])
def test_tilde_z_blocks_match_recurrence_at_many_atoms(params, level, n_atoms, n):
    # 304 paths are split into chunks at 286 atoms; 301 (not whole panels)
    # and 574 atoms (deeper than _GEMM_Q) keep each GEMM one call
    grid = TimeGrid(h=0.001, steps=3 * _STEP_BLOCK + 5)
    qm = measure_for_atoms(level, params.alpha, MeasureKind.MU)
    assert qm.n_atoms == n_atoms
    p = params.with_(rho=-0.7, v0=0.01)
    dBz = brownian_batch(5, range(n), grid, p.rho)[0]
    z, nu = simulate_tilde_z(p, qm, grid, dBz)
    z_ref, nu_ref = simulate_tilde_z_recurrence(p, qm, grid, dBz)
    assert np.max(np.abs(z - z_ref)) <= 1e-12
    assert np.max(np.abs(nu - nu_ref)) <= 1e-12


def _driver_gemms(n_atoms, b, n, gen):
    """The two per-block GEMM operands of simulate_tilde_z, laid out as the
    driver lays them out: far[:b] @ y and push @ zp_blk."""
    far = gen.random((_STEP_BLOCK, n_atoms))[:b]
    y = gen.standard_normal((n_atoms, n))
    push = gen.random((b, n_atoms)).T  # a transposed view, as in the driver
    zp_blk = gen.random((b, n))
    return (far, y), (push, zp_blk)


@pytest.mark.parametrize("n_atoms", [16, 142, 286, 574])
@pytest.mark.parametrize("b", [_STEP_BLOCK, 7])
@pytest.mark.parametrize("n", [1, 300, 2048, 2049])
def test_serial_matmul_is_one_matmul_bit_for_bit(monkeypatch, n_atoms, b, n):
    matmul = np.matmul
    for a, rhs in _driver_gemms(n_atoms, b, n, np.random.default_rng(n_atoms + n)):
        want = matmul(a, rhs)
        calls = []

        def spy(x, y, out):
            calls.append(y.shape[1])
            return matmul(x, y, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        got = _serial_matmul(a, rhs, np.empty_like(want))
        monkeypatch.undo()
        assert np.array_equal(got, want)
        assert sum(calls) == n
        m, k = a.shape
        if n == 2048 and n_atoms <= _GEMM_Q and m * k * n > _SERIAL_GEMM_MNK:
            assert len(calls) > 1  # a full batch is split
        if n_atoms > _GEMM_Q:
            assert len(calls) == 1  # both GEMMs, though push's k is only b
        if len(calls) > 1:
            # whole panels that each run below OpenBLAS's threading bound,
            # 65536 * GEMM_MULTITHREAD_THRESHOLD (4)
            assert all(w % _GEMM_PANEL == 0 and m * k * w <= 2 ** 18 for w in calls)
        else:
            # one call only where a split would move bits or gains nothing
            assert (n % _GEMM_PANEL or n_atoms > _GEMM_Q
                    or m * k * n <= _SERIAL_GEMM_MNK)


@pytest.mark.parametrize("level", [128, 256])
def test_tilde_z_is_bit_for_bit_the_unsplit_gemms(monkeypatch, params, level):
    grid = TimeGrid(h=0.001, steps=2 * _STEP_BLOCK + 3)
    qm = measure_for_atoms(level, params.alpha, MeasureKind.MU)
    p = params.with_(rho=-0.7, v0=0.01)
    dBz = brownian_batch(5, range(2048), grid, p.rho)[0]
    calls = []

    def counted(a, b, out):
        calls.append(a.shape)
        return _serial_matmul(a, b, out)

    monkeypatch.setattr(sim, "_serial_matmul", counted)
    z, nu = simulate_tilde_z(p, qm, grid, dBz)
    # the far history of each of the 3 blocks and the push between them
    assert len(calls) == 3 + 2
    monkeypatch.setattr(sim, "_serial_matmul",
                        lambda a, b, out: np.matmul(a, b, out=out))
    z_one, nu_one = simulate_tilde_z(p, qm, grid, dBz)
    assert np.array_equal(z, z_one) and np.array_equal(nu, nu_one)


def test_tilde_z_near_history_dot_is_a_sequential_sum(monkeypatch, params):
    # the per-step dot reads a reversed view of the kernel, which numpy sums
    # left to right in its own loop, not in BLAS; a contiguous copy would
    # reach OpenBLAS's dgemv, whose summation order moves nu's last bits
    grid = TimeGrid(h=0.001, steps=2 * _STEP_BLOCK + 3)
    qm = measure_for_atoms(128, params.alpha, MeasureKind.MU)
    p = params.with_(rho=-0.7, v0=0.01)
    dBz = brownian_batch(5, range(64), grid, p.rho)[0]
    matmul, lengths = np.matmul, []

    def spy(w, zp, out=None):
        got = matmul(w, zp, out=out)
        if w.ndim == 1:
            want = np.zeros(zp.shape[1])
            for w_j, zp_j in zip(w, zp):
                want = want + w_j * zp_j
            assert np.array_equal(got, want)
            lengths.append(len(w))
        return got

    monkeypatch.setattr(np, "matmul", spy)
    simulate_tilde_z(p, qm, grid, dBz)
    assert lengths == [t + 1 for b in (_STEP_BLOCK, _STEP_BLOCK, 3) for t in range(b)]


@pytest.mark.parametrize("rho", [0.0, -0.7])
def test_drivers_write_z_over_their_increments_bit_for_bit(params, rho):
    # as in mc.map_paths: dBz is drawn into buf[:, 1:] and the driver
    # writes Z into buf; the steps are not a multiple of the step block
    grid = TimeGrid(h=0.001, steps=3 * _STEP_BLOCK + 5)
    qm = measure_for_atoms(128, params.alpha, MeasureKind.MU)
    p = params.with_(rho=rho, v0=0.01)
    dBz, dBs = brownian_batch(5, range(40), grid, rho)
    buf = np.empty((40, grid.steps + 1))
    got = brownian_batch(5, range(40), grid, rho, out=buf[:, 1:])
    assert np.shares_memory(got[0], buf)
    assert np.array_equal(got[0], dBz) and np.array_equal(got[1], dBs)

    z = simulate_cir(p, grid, buf[:, 1:], out=buf)
    assert np.shares_memory(z, buf)
    assert np.array_equal(z, simulate_cir(p, grid, dBz))
    assert np.array_equal(z, simulate_cir_stepwise(p, grid, dBz))

    buf[:, 1:] = dBz
    z, nu = simulate_tilde_z(p, qm, grid, buf[:, 1:], out=buf)
    assert np.shares_memory(z, buf)
    z_out, nu_out = simulate_tilde_z(p, qm, grid, dBz)
    assert np.array_equal(z, z_out) and np.array_equal(nu, nu_out)
    # the recurrence sums the factors in another order, so its nu is equal
    # to rounding only
    z_ref, nu_ref = simulate_tilde_z_recurrence(p, qm, grid, dBz)
    assert np.array_equal(z, z_ref)
    assert np.max(np.abs(nu - nu_ref)) <= 1e-12

    # as in mc.map_paths at rho != 0: nu, not Z-tilde, over the increments
    buf[:, 1:] = dBz
    no_z, nu_in_place = simulate_tilde_z(p, qm, grid, buf[:, 1:], out=buf, keep_z=False)
    assert no_z is None and np.shares_memory(nu_in_place, buf)
    assert np.array_equal(nu_in_place, nu)
    # and one 1-D path
    row = np.empty(grid.steps + 1)
    row[1:] = dBz[3]
    no_z, nu_row = simulate_tilde_z(p, qm, grid, row[1:], out=row, keep_z=False)
    assert no_z is None and np.shares_memory(nu_row, row)
    assert np.array_equal(nu_row, simulate_tilde_z(p, qm, grid, dBz[3])[1])


def test_drivers_reject_an_out_they_cannot_write_rows_into(params, coarse_grid):
    qm = measure_for_atoms(16, params.alpha, MeasureKind.MU)
    dBz, _ = brownian_batch(5, range(4), coarse_grid, 0.0)
    for out in (np.empty((4, coarse_grid.steps)),          # no column for Z_0
                np.empty((coarse_grid.steps + 1, 4)).T):   # not C-contiguous
        with pytest.raises(ValueError, match="C-contiguous array of shape"):
            simulate_cir(params, coarse_grid, dBz, out=out)
        for keep_z in (True, False):
            with pytest.raises(ValueError, match="C-contiguous array of shape"):
                simulate_tilde_z(params, qm, coarse_grid, dBz, out=out, keep_z=keep_z)
    with pytest.raises(ValueError, match="out must have shape"):
        brownian_batch(5, range(4), coarse_grid, 0.0, out=np.empty((4, 1)))


def test_tilde_z_nu_is_quantized_volatility_at_rho_zero(params):
    grid = TimeGrid(h=0.001, steps=1001)
    qm = measure_for_atoms(128, params.alpha, MeasureKind.MU)
    p = params.with_(v0=0.01)
    dBz, _ = brownian_batch(5, range(8), grid, 0.0)
    z, nu = simulate_tilde_z(p, qm, grid, dBz)
    assert np.max(np.abs(nu - nu_quantized_paths(p.v0, qm, z, grid))) <= 1e-12


@given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
@settings(max_examples=25, deadline=None)
def test_factor_linearity(a, b):
    grid = TimeGrid.from_horizon(0.5, 0.01)
    qm = measure_for_atoms(8, 0.75, MeasureKind.MU)
    gen = np.random.default_rng(0)
    z1 = gen.random(grid.steps + 1)
    z2 = gen.random(grid.steps + 1)
    lhs = simulate_factors(qm, a * z1 + b * z2, grid)
    rhs = a * simulate_factors(qm, z1, grid) + b * simulate_factors(qm, z2, grid)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_exponential_integrator_vs_fine_euler(params):
    # exact exponential update vs an Euler oracle run at h/100
    grid = TimeGrid.from_horizon(1.0, 0.01)
    fine = TimeGrid.from_horizon(1.0, 0.0001)
    qm = measure_for_atoms(16, params.alpha, MeasureKind.MU)
    dBz, _ = brownian_batch(17, range(1), grid, 0.0)
    z = simulate_cir(params, grid, dBz)[0]
    y = simulate_factors(qm, z, grid)
    z_fine = np.repeat(z[:-1], 100)
    y_fine = np.zeros(len(qm.nodes))
    for k in range(fine.steps):
        y_fine = y_fine + (z_fine[k] - qm.nodes * y_fine) * fine.h
    assert np.max(np.abs(y[-1] - y_fine)) <= 5e-4


def test_rough_factors_match_riemann_sum():
    grid = TimeGrid.from_horizon(1.0, 0.002)
    qm = measure_for_atoms(8, -0.75, MeasureKind.MU_TILDE)
    gen = np.random.default_rng(2)
    z = np.cumsum(gen.standard_normal(grid.steps + 1)) * 0.01 + 1.0
    y = simulate_factors_rough(qm, z, grid)
    t = grid.times
    k = grid.steps  # check the terminal slice against direct integration
    for j, x in enumerate(qm.nodes):
        s = t[:-1]
        direct = np.sum((z[k] - z[:-1]) * np.exp(-(t[k] - s) * x)) * grid.h
        assert y[k, j] == pytest.approx(direct, rel=0.02, abs=1e-4)


def test_wealth_bond_only(params, coarse_grid):
    nu = np.full((2, coarse_grid.steps + 1), 0.04)
    dBs = np.zeros((2, coarse_grid.steps))
    w = simulate_wealth(0.0, nu, coarse_grid, dBs, params)
    assert np.allclose(w[:, -1], params.w0 * math.exp(params.r), rtol=1e-12)


def test_wealth_strategy_forms_agree(params, coarse_grid):
    dBz, dBs = brownian_batch(9, range(3), coarse_grid, 0.0)
    nu = np.full((3, coarse_grid.steps + 1), 0.04)
    w_scalar = simulate_wealth(0.25, nu, coarse_grid, dBs, params)
    w_array = simulate_wealth(np.full((3, coarse_grid.steps), 0.25), nu,
                              coarse_grid, dBs, params)
    assert np.allclose(w_scalar, w_array, rtol=1e-14)


@pytest.mark.parametrize("pi", [0.25, 1, "per-step"], ids=["scalar-pi", "int-pi", "array-pi"])
def test_wealth_in_place_increments_match_expression_bit_for_bit(params, coarse_grid, pi):
    dBz, dBs = brownian_batch(13, range(64), coarse_grid, 0.3)
    nu = simulate_cir(params, coarse_grid, dBz)
    if pi == "per-step":
        pi = np.random.default_rng(4).uniform(-1.0, 2.0, coarse_grid.steps)
    assert np.array_equal(simulate_wealth(pi, nu, coarse_grid, dBs, params),
                          wealth_path_expression(pi, nu, coarse_grid, dBs, params))


@pytest.mark.parametrize("per_step", [False, True], ids=["scalar-pi", "array-pi"])
def test_terminal_wealth_is_the_last_column_bit_for_bit(params, coarse_grid, per_step):
    dBz, dBs = brownian_batch(13, range(64), coarse_grid, 0.3)
    nu = simulate_cir(params, coarse_grid, dBz)
    pi = 0.25
    if per_step:
        pi = np.random.default_rng(4).uniform(-1.0, 2.0, (64, coarse_grid.steps))
    w_t = terminal_wealth(pi, nu, coarse_grid, dBs, params)
    assert w_t.shape == (64,)
    assert np.array_equal(w_t, simulate_wealth(pi, nu, coarse_grid, dBs, params)[..., -1])
    with pytest.raises(ValueError):
        terminal_wealth(pi, -nu - 0.01, coarse_grid, dBs, params)


def test_wealth_rejects_negative_volatility(params, coarse_grid):
    nu = np.full(coarse_grid.steps + 1, -0.01)
    with pytest.raises(ValueError):
        simulate_wealth(0.2, nu, coarse_grid, np.zeros(coarse_grid.steps), params)


def test_optimal_wealth_closed_form_is_merton_wealth(params, coarse_grid):
    dBz, dBs = brownian_batch(21, range(4), coarse_grid, 0.0)
    z = simulate_cir(params, coarse_grid, dBz)
    pi_star = params.lam / (1.0 - params.gamma)
    w_sim = simulate_wealth(pi_star, z, coarse_grid, dBs, params)
    w_cf = optimal_wealth_closed_form(z, coarse_grid, dBs, params)
    assert np.allclose(w_sim, w_cf, rtol=1e-12)


def test_stock_deterministic_when_flat(params, coarse_grid):
    nu = np.zeros(coarse_grid.steps + 1)
    s = simulate_stock(nu, coarse_grid, np.zeros(coarse_grid.steps), params)
    assert s[-1] == pytest.approx(100.0 * math.exp(params.r), rel=1e-12)
