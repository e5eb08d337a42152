import math
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest

from fracheston import (MeasureKind, PositivityMap, Regime, SchemeKind, TimeGrid,
                        VolScheme, brownian_batch, convergence_study,
                        default_params, mc_feynman_kac, mc_utility,
                        mc_value_rough, measure_for_atoms, merton_ratio,
                        nu_quantized_paths, simulate_cir, simulate_wealth,
                        solve_riccati_finite, solve_riccati_limit,
                        solve_riccati_rough)
from fracheston import mc, vol
from fracheston.mc import (BATCH_SIZE, REGIMES, Leg, McEstimate, _map_batches, _utility,
                           feynman_kac_leg, map_paths)
from fracheston.vol import _ROW_BLOCK, apply_positivity
from oracles import feynman_kac_girsanov


@pytest.fixture
def quant_scheme(params):
    qm = measure_for_atoms(32, params.alpha, MeasureKind.MU)
    return VolScheme(SchemeKind.QUANTIZED_FRACTIONAL, qm=qm)


def test_mc_estimate_validation():
    with pytest.raises(ValueError):
        McEstimate(mean=0.0, std_error=0.0, n_paths=1)


@pytest.mark.parametrize("n", [0, 1])
def test_estimate_of_fewer_than_two_values_raises(n):
    with pytest.raises(ValueError, match="at least 2 paths"):
        McEstimate.of(np.ones(n))


@pytest.mark.parametrize("rho", [0.0, -0.7])
@pytest.mark.parametrize("n", [0, 1])
def test_feynman_kac_on_fewer_than_two_paths_raises(params, quant_scheme, n, rho):
    grid = TimeGrid.from_horizon(1.0, 0.02)
    with pytest.raises(ValueError, match="at least 2 paths"):
        mc_feynman_kac(params.with_(rho=rho), quant_scheme, n, grid, 3)


def test_every_regime_has_a_row():
    assert set(REGIMES) == set(Regime)


def _same_solution(a, b) -> bool:
    return (np.array_equal(a.tau_grid, b.tau_grid) and np.array_equal(a.varphi, b.varphi)
            and np.array_equal(a.phi_big, b.phi_big) and a.blow_up == b.blow_up)


@pytest.mark.parametrize("regime, alpha, solver", [
    (Regime.FRACTIONAL, 0.75, solve_riccati_finite),
    (Regime.ROUGH, -0.75, solve_riccati_rough),
])
def test_regime_row_builds_its_quantized_scheme_and_riccati(regime, alpha, solver):
    row = REGIMES[regime]
    p = default_params(alpha=alpha)
    assert p.regime is regime
    qm = measure_for_atoms(16, alpha, row.measure)
    VolScheme(row.quantized, qm=qm)  # rejects a measure of the other kind
    assert _same_solution(row.riccati(qm, p, 0.01), solver(qm, p, ode_step=0.01))


def test_classical_row_has_no_measure():
    row = REGIMES[Regime.CLASSICAL_HESTON]
    assert row.measure is None
    assert row.direct is row.quantized is SchemeKind.CLASSICAL
    p = default_params(alpha=0.0)
    assert _same_solution(row.riccati(None, p, 0.01),
                          solve_riccati_limit(p, ode_step=0.01, alpha=0.0))


def test_map_batches_order_independent_of_threads():
    def batch(start, stop):  # one leg
        return [np.arange(start, stop, dtype=float)]

    a, = _map_batches(batch, 1000, threads=1, batch_size=64)
    b, = _map_batches(batch, 1000, threads=4, batch_size=64)
    assert np.array_equal(a, np.arange(1000.0))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("threads", [1, 2])
def test_worker_batches_keep_the_callers_errstate(threads):
    # np.errstate is a context variable, which pool threads do not inherit:
    # each batch runs in a copy of the caller's context, so the terminal
    # wealth's overflow raises in the workers as it does on the caller
    p = default_params(alpha=0.5).with_(lam=1e100)
    grid = TimeGrid.from_horizon(1.0, 0.05)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        mc_utility(p, 1e100, VolScheme(SchemeKind.FRACTIONAL_EULER),
                   PositivityMap.IDENTITY, 4096, grid, 7, threads)


def _four_legs(grid):
    """Classical (nu is v0 + Z), fractional Euler, rough Marchaud with the
    abs map and quantized fractional legs; two read dBs, all share Z."""
    classical, euler, rough = (default_params(alpha=a) for a in (0.0, 0.75, -0.75))
    qm = measure_for_atoms(16, 0.75, MeasureKind.MU)

    def wealth(p):
        return lambda dBs, z, nu: simulate_wealth(0.2, nu, grid, dBs, p)[:, -1]

    def path_sum(dBs, z, nu):
        return np.stack([nu.sum(axis=-1), z.sum(axis=-1)], axis=-1)

    return [(classical, VolScheme(SchemeKind.CLASSICAL), PositivityMap.IDENTITY,
             wealth(classical)),
            (euler, VolScheme(SchemeKind.FRACTIONAL_EULER), PositivityMap.IDENTITY,
             path_sum),
            (rough, VolScheme(SchemeKind.ROUGH_MARCHAUD), PositivityMap.ABSOLUTE,
             lambda dBs, z, nu: nu[:, -3:]),
            (euler, VolScheme(SchemeKind.QUANTIZED_FRACTIONAL, qm=qm),
             PositivityMap.IDENTITY, wealth(euler))]


@pytest.mark.parametrize("threads", [1, 2])
def test_multi_leg_map_equals_one_leg_calls(threads):
    grid = TimeGrid.from_horizon(1.0, 0.02)
    n = BATCH_SIZE + 52  # three batches
    legs = _four_legs(grid)
    shared = map_paths(legs, grid, 19, n, threads)
    assert len(shared) == len(legs)
    for leg, out in zip(legs, shared):
        alone, = map_paths([leg], grid, 19, n, threads=1)
        assert np.array_equal(out, alone)


def test_zero_path_map_keeps_each_legs_shape():
    # wealth with n_sample_paths = 0 asks for no paths: the map runs one
    # empty batch, so each leg still runs once, on no paths, and returns
    # its empty array
    grid = TimeGrid.from_horizon(1.0, 0.02)
    legs = _four_legs(grid)
    p, scheme, pos_map, _ = legs[2]
    legs += [(p, scheme, pos_map, lambda dBs, z, nu: z),
             (p, scheme, pos_map, lambda dBs, z, nu: nu)]
    *out, z, nu = map_paths(legs, grid, 19, 0, threads=2)
    assert [o.shape for o in out] == [(0,), (0, 2), (0, 3), (0,)]
    assert z.shape == nu.shape == (0, grid.steps + 1)


@pytest.mark.parametrize("start, stop", [(0, _ROW_BLOCK + 44), (100, 100 + 2 * _ROW_BLOCK)],
                         ids=["ragged", "whole-blocks"])
def test_row_blocks_equal_whole_array_legs(start, stop):
    # map_paths runs the legs _ROW_BLOCK rows at a time; every leg's output
    # on paths start..stop is the integrand on those paths' whole dBs, Z and
    # nu, bit for bit
    grid = TimeGrid.from_horizon(1.0, 0.02)
    rough = default_params(alpha=-0.75)
    legs = _four_legs(grid) + [
        feynman_kac_leg(rough, VolScheme(SchemeKind.QUANTIZED_ROUGH, qm=measure_for_atoms(
            16, -0.75, MeasureKind.MU_TILDE)), grid, PositivityMap.EXPONENTIAL),
        (rough, VolScheme(SchemeKind.ROUGH_MARCHAUD), None,
         lambda dBs, z, nu: simulate_wealth(0.2, np.abs(nu), grid, dBs, rough)),
        (rough, VolScheme(SchemeKind.ROUGH_MARCHAUD), None, lambda dBs, z, nu: nu)]
    out = [o[start:] for o in map_paths(legs, grid, 19, stop)]
    dBz, dBs = brownian_batch(19, range(start, stop), grid, 0.0)
    z = simulate_cir(legs[0][0], grid, dBz)
    for (p, scheme, pos_map, integrand, *_), got in zip(legs, out):
        nu = scheme.nu_paths(p, z, grid)
        want = integrand(dBs, z, nu if pos_map is None else apply_positivity(nu, pos_map))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("threads", [1, 2])
def test_dBs_z_and_nu_legs_concatenate_across_batches(monkeypatch, threads):
    # three legs that return dBs, Z and nu, as the simulate command's do:
    # each is concatenated over the map's batches on its own, and equals
    # the map run as one batch
    grid = TimeGrid.from_horizon(1.0, 0.02)
    n = BATCH_SIZE + 52  # three batches
    p, scheme = default_params(rho=0.7), VolScheme(SchemeKind.FRACTIONAL_EULER)
    legs = [(p, scheme, None, lambda dBs, z, nu: dBs),
            (p, scheme, None, lambda dBs, z, nu: z),
            (p, scheme, None, lambda dBs, z, nu: nu)]
    got = map_paths(legs, grid, 19, n, threads)
    monkeypatch.setattr(mc, "CIR_BATCH_SIZE", n)
    want = map_paths(legs, grid, 19, n)
    assert len(got) == len(want) == 3
    assert all(map(np.array_equal, got, want))


def test_cir_drives_never_overlap(monkeypatch):
    # a CIR map draws and drives one batch at a time, whatever the worker
    # count, while the other workers run their batches' legs; the lock
    # moves no bit
    grid = TimeGrid.from_horizon(1.0, 0.05)
    leg = (default_params(), VolScheme(SchemeKind.FRACTIONAL_EULER), None,
           lambda dBs, z, nu: nu)
    n = 4 * mc.CIR_BATCH_SIZE
    want, = map_paths([leg], grid, 19, n, threads=1)
    lock, active, peak = threading.Lock(), [0], [0]

    def counted(*args, **kwargs):
        with lock:
            active[0] += 1
            peak[0] = max(peak[0], active[0])
        time.sleep(0.02)
        try:
            return simulate_cir(*args, **kwargs)
        finally:
            with lock:
                active[0] -= 1

    monkeypatch.setattr(mc, "simulate_cir", counted)
    got, = map_paths([leg], grid, 19, n, threads=4)
    assert peak[0] == 1
    assert np.array_equal(got, want)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("integrand, got", [
    (lambda dBs, z, nu: (z, nu), "<class 'tuple'>"),
    (lambda dBs, z, nu: 1.0, "<class 'float'>"),
    (lambda dBs, z, nu: np.sum(nu), "()"),
    (lambda dBs, z, nu: nu[:-1], "(9, 51)"),
], ids=["tuple", "scalar", "numpy-scalar", "short"])
def test_a_leg_returns_one_array_of_its_blocks_paths(integrand, got, threads):
    # a tuple would be stacked into the wrong rows, and a scalar has none:
    # either is a ValueError that names the leg
    grid = TimeGrid.from_horizon(1.0, 0.02)
    legs = _four_legs(grid)[:2]
    p, scheme, pos_map, _ = legs[1]
    legs.append((p, scheme, pos_map, integrand))
    with pytest.raises(ValueError, match=rf"^leg 2: an integrand must return one array "
                                         rf"whose first axis is the block's 10 paths, "
                                         rf"got {re.escape(got)}$"):
        map_paths(legs, grid, 19, 10, threads)


def test_feynman_kac_leg_brings_its_measure_to_a_plain_map():
    # the leg, not the caller, says that Feynman-Kac is taken under Z-tilde:
    # a plain map_paths call gives mc_feynman_kac's estimate bit for bit,
    # and the same integrand as a physical leg does not
    p = default_params(rho=-0.7)
    scheme = VolScheme(SchemeKind.QUANTIZED_FRACTIONAL,
                       qm=measure_for_atoms(16, p.alpha, MeasureKind.MU))
    grid = TimeGrid.from_horizon(1.0, 0.01)
    n = 2 * BATCH_SIZE
    leg = feynman_kac_leg(p, scheme, grid)
    values, = map_paths([leg], grid, 7, n)
    assert McEstimate.of(values) == mc_feynman_kac(p, scheme, n, grid, 7)
    physical, = map_paths([leg[:4]], grid, 7, n)
    assert McEstimate.of(physical).mean != McEstimate.of(values).mean


def test_map_mixing_measures_at_nonzero_rho_raises(params, quant_scheme):
    p = params.with_(rho=-0.7)
    grid = TimeGrid.from_horizon(1.0, 0.02)
    legs = [feynman_kac_leg(p, quant_scheme, grid),
            (p, quant_scheme, PositivityMap.IDENTITY, _utility(p, merton_ratio(p), grid))]
    with pytest.raises(ValueError, match="cannot share a path map"):
        map_paths(legs, grid, 19, 10)
    with pytest.raises(ValueError, match="cannot share a path map"):
        map_paths(legs[::-1], grid, 19, 10)


@pytest.mark.parametrize("threads", [1, 2])
def test_measures_share_a_map_at_rho_zero(params, quant_scheme, threads):
    # at rho = 0 Z-tilde is Z, so a Feynman-Kac leg and a utility leg may
    # share one draw, and each equals its own estimator
    grid = TimeGrid.from_horizon(1.0, 0.02)
    n = BATCH_SIZE + 52  # three batches
    pi = merton_ratio(params)
    fk, utility = map_paths(
        [feynman_kac_leg(params, quant_scheme, grid),
         (params, quant_scheme, PositivityMap.IDENTITY, _utility(params, pi, grid))],
        grid, 29, n, threads)
    assert McEstimate.of(fk) == mc_feynman_kac(params, quant_scheme, n, grid, 29,
                                               threads)
    assert McEstimate.of(utility) == mc_utility(params, pi, quant_scheme,
                                                PositivityMap.IDENTITY, n, grid, 29,
                                                threads)


@pytest.mark.parametrize("rho, reads_dBs", [(-0.7, False), (0.0, False), (0.0, True),
                                             (0.7, True)],
                         ids=["tilde", "rho0", "wealth-rho0", "wealth-rho0.7"])
def test_batch_holds_few_path_sized_arrays(monkeypatch, params, rho, reads_dBs):
    # traced peak of one benchmark-sized batch, in arrays of paths x steps
    # doubles: Z (at rho != 0 under Z-tilde the driver's nu) is written over
    # dBz, dBs is drawn per row block, and the row blocks' scratch adds a
    # fraction of one.  The Feynman-Kac leg reads no dBs; the terminal-wealth
    # leg does, at either rho
    grid = TimeGrid.from_horizon(1.0, 0.001)
    p = params.with_(rho=rho)
    qm = measure_for_atoms(128, p.alpha, MeasureKind.MU)
    scheme = VolScheme(SchemeKind.QUANTIZED_FRACTIONAL, qm=qm)
    if reads_dBs:
        leg = (p, scheme, PositivityMap.IDENTITY, _utility(p, merton_ratio(p), grid))
    else:
        leg = feynman_kac_leg(p, scheme, grid)
    monkeypatch.setattr(mc, "CIR_BATCH_SIZE", BATCH_SIZE)  # one batch at any rho
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        map_paths([leg], grid, 3, BATCH_SIZE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / (BATCH_SIZE * grid.steps * 8) < 1.7


@pytest.mark.parametrize("fk", [False, True], ids=["wealth-euler", "fk-142"])
def test_map_holds_few_paths_in_flight(params, fk):
    # traced peak of a two-worker map, in arrays of BATCH_SIZE x steps
    # doubles: a rho = 0 map is driven by CIR over CIR_BATCH_SIZE-path
    # batches, so its two workers together hold about one such array plus
    # their row blocks' scratch.  A terminal-wealth leg on the fractional
    # Euler scheme reads dBs; a 142-atom Feynman-Kac leg does not
    grid = TimeGrid.from_horizon(1.0, 0.001)
    if fk:
        scheme = VolScheme(SchemeKind.QUANTIZED_FRACTIONAL,
                           qm=measure_for_atoms(142, params.alpha, MeasureKind.MU))
        leg = feynman_kac_leg(params, scheme, grid)
    else:
        leg = (params, VolScheme(SchemeKind.FRACTIONAL_EULER), PositivityMap.IDENTITY,
               _utility(params, merton_ratio(params), grid))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        map_paths([leg], grid, 3, 2 * BATCH_SIZE, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / (BATCH_SIZE * grid.steps * 8) < 1.5


def test_kernel_is_built_once_per_leg_per_map(monkeypatch):
    calls = []
    factor_kernel = vol._factor_kernel
    monkeypatch.setattr(vol, "_factor_kernel",
                        lambda qm, grid: calls.append(qm.n_atoms) or factor_kernel(qm, grid))
    grid = TimeGrid.from_horizon(1.0, 0.02)
    p = default_params()
    legs = [feynman_kac_leg(p, VolScheme(SchemeKind.QUANTIZED_FRACTIONAL,
                                         qm=measure_for_atoms(k, 0.75, MeasureKind.MU)), grid)
            for k in (8, 16)]
    map_paths(legs, grid, 19, BATCH_SIZE + 52)  # three batches, 66 blocks
    assert sorted(calls) == [8, 16]


def test_legs_are_checked_once_per_map(monkeypatch, params, quant_scheme):
    calls = []
    driver_params = mc._driver_params
    monkeypatch.setattr(mc, "_driver_params",
                        lambda legs: calls.append(len(legs)) or driver_params(legs))
    grid = TimeGrid.from_horizon(1.0, 0.02)
    map_paths([feynman_kac_leg(params, quant_scheme, grid)], grid, 19, BATCH_SIZE + 52,
              threads=2)  # three batches
    assert calls == [1]


@pytest.mark.parametrize("threads", [1, 2])
def test_feynman_kac_legs_of_one_map_equal_their_estimators(threads):
    # the value command's rows: fractional legs at two levels, the classical
    # leg and the rough value leg, all on one draw
    grid = TimeGrid.from_horizon(1.0, 0.02)
    n = BATCH_SIZE + 52  # three batches
    frac, classical, rough = (default_params(alpha=a) for a in (0.75, 0.0, -0.75))
    schemes = [VolScheme(SchemeKind.QUANTIZED_FRACTIONAL,
                         qm=measure_for_atoms(k, 0.75, MeasureKind.MU)) for k in (8, 16)]
    qm_tilde = measure_for_atoms(16, -0.75, MeasureKind.MU_TILDE)
    rough_scheme = VolScheme(SchemeKind.QUANTIZED_ROUGH, qm=qm_tilde)
    legs = [feynman_kac_leg(frac, s, grid) for s in schemes] + [
        feynman_kac_leg(classical, VolScheme(SchemeKind.CLASSICAL), grid),
        feynman_kac_leg(rough, rough_scheme, grid, PositivityMap.ABSOLUTE,
                        rough.w0 ** rough.gamma / rough.gamma)]
    shared = map_paths(legs, grid, 23, n, threads)
    alone = [mc_feynman_kac(frac, s, n, grid, 23, threads) for s in schemes] + [
        mc_feynman_kac(classical, VolScheme(SchemeKind.CLASSICAL), n, grid, 23, threads),
        mc_value_rough(rough, qm_tilde, PositivityMap.ABSOLUTE, n, grid, 23, threads)]
    assert [McEstimate.of(v) for v in shared] == alone


@pytest.mark.parametrize("mutate, tilde", [
    (lambda dBs, z, nu: z.fill(0.0), False),
    (lambda dBs, z, nu: dBs.__imul__(2.0), False),
    (lambda dBs, z, nu: nu.__iadd__(1.0), True),  # rho != 0: the driver's nu
], ids=["z", "dBs", "nu-of-z-tilde"])
def test_legs_cannot_mutate_shared_paths(mutate, tilde):
    grid = TimeGrid.from_horizon(1.0, 0.02)
    if tilde:
        p = default_params(rho=-0.7)
        scheme = VolScheme(SchemeKind.QUANTIZED_FRACTIONAL,
                           qm=measure_for_atoms(8, p.alpha, MeasureKind.MU))
    else:
        p, scheme = default_params(alpha=0.0), VolScheme(SchemeKind.CLASSICAL)
    leg = Leg(p, scheme, PositivityMap.IDENTITY, mutate, tilde)
    with pytest.raises(ValueError, match="read-only"):
        map_paths([leg], grid, 19, 10)


def test_integrands_may_return_their_block():
    # every leg's nu is written into one block of scratch that the next leg
    # and the next block reuse, and dBs and Z come as per-block views;
    # each block's output is copied out at once, so an integrand that
    # returns them as they are (cli's simulate and convergence_study's
    # monotone legs do) still gets every row, in arrays of its own
    grid = TimeGrid.from_horizon(1.0, 0.02)
    start, stop = 5, 5 + 2 * _ROW_BLOCK + 7  # three blocks, the last ragged
    four = _four_legs(grid)
    legs = [(p, scheme, pos_map, integrand) for p, scheme, pos_map, _ in four
            for integrand in (lambda dBs, z, nu: dBs, lambda dBs, z, nu: z,
                              lambda dBs, z, nu: nu)]
    legs += [(p, scheme, None, lambda dBs, z, nu: nu) for p, scheme, _, _ in four]
    out = [o[start:] for o in map_paths(legs, grid, 19, stop)]
    dBz, dBs = brownian_batch(19, range(start, stop), grid, 0.0)
    z = simulate_cir(legs[0][0], grid, dBz)
    for (p, scheme, pos_map, _), got in zip(four, [out[i:i + 3] for i in range(0, 12, 3)]):
        nu = scheme.nu_paths(p, z, grid)
        assert all(map(np.array_equal, got, (dBs, z, apply_positivity(nu, pos_map))))
    for (p, scheme, _, _), got in zip(four, out[12:]):
        assert np.array_equal(got, scheme.nu_paths(p, z, grid))
    assert not any(np.shares_memory(a, b) for i, a in enumerate(out)
                   for b in out[i + 1:])


@pytest.mark.parametrize("batch_size", [512, 1000, 1024, 2048])
def test_batch_size_does_not_move_a_dBs_leg(monkeypatch, batch_size):
    # dBs is drawn per row block of each batch, from the block's streams;
    # whatever the batch and block boundaries, every path gets its own
    # stream's dBs at rho = 0.7, and a leg that reads it the same bits.
    # The value command's rho = 0 Feynman-Kac legs, which read no dBs, keep
    # theirs too, so CIR batches of CIR_BATCH_SIZE give BATCH_SIZE's values
    grid = TimeGrid.from_horizon(1.0, 0.02)
    p = default_params(rho=0.7)
    n = 2 * BATCH_SIZE + 5
    legs = [(p, VolScheme(SchemeKind.FRACTIONAL_EULER), PositivityMap.IDENTITY,
             _utility(p, merton_ratio(p), grid)),
            (p, VolScheme(SchemeKind.CLASSICAL), None, lambda dBs, z, nu: dBs)]
    monkeypatch.setattr(mc, "CIR_BATCH_SIZE", batch_size)
    utility, dBs = map_paths(legs, grid, 19, n, threads=2)
    monkeypatch.setattr(mc, "CIR_BATCH_SIZE", BATCH_SIZE)
    want, = map_paths(legs[:1], grid, 19, n)
    assert np.array_equal(utility, want)
    assert np.array_equal(dBs, brownian_batch(19, range(n), grid, p.rho)[1])
    frac, rough = default_params(), default_params(alpha=-0.75)
    fk = [feynman_kac_leg(frac, VolScheme(SchemeKind.QUANTIZED_FRACTIONAL, qm=measure_for_atoms(
              16, 0.75, MeasureKind.MU)), grid),
          feynman_kac_leg(rough, VolScheme(SchemeKind.QUANTIZED_ROUGH, qm=measure_for_atoms(
              16, -0.75, MeasureKind.MU_TILDE)), grid, PositivityMap.ABSOLUTE,
              rough.w0 ** rough.gamma / rough.gamma)]
    monkeypatch.setattr(mc, "CIR_BATCH_SIZE", batch_size)
    got = map_paths(fk, grid, 19, n, threads=2)
    monkeypatch.setattr(mc, "CIR_BATCH_SIZE", BATCH_SIZE)
    want = map_paths(fk, grid, 19, n)
    assert all(map(np.array_equal, got, want))


def test_legs_must_share_the_driver(params, quant_scheme):
    grid = TimeGrid.from_horizon(1.0, 0.02)

    def leg(p):
        return (p, quant_scheme, PositivityMap.IDENTITY, lambda dBs, z, nu: nu[:, -1])

    for other in (params.with_(kappa=5.0), params.with_(z0=0.04),
                  params.with_(rho=0.5)):
        with pytest.raises(ValueError, match="CIR constants"):
            map_paths([leg(params), leg(other)], grid, 19, 10)
    # the Z-tilde driver depends on the leg's nu, so it takes a single leg
    p = params.with_(rho=-0.7)
    with pytest.raises(ValueError, match="one quantized_fractional leg"):
        map_paths([Leg(*leg(p), tilde=True)] * 2, grid, 19, 10)


def test_feynman_kac_thread_determinism(params, quant_scheme):
    grid = TimeGrid.from_horizon(1.0, 0.01)
    one = mc_feynman_kac(params, quant_scheme, 3000, grid, 11, threads=1)
    four = mc_feynman_kac(params, quant_scheme, 3000, grid, 11, threads=4)
    assert one.mean == four.mean
    assert one.std_error == four.std_error


def test_feynman_kac_thread_determinism_at_nonzero_rho(params, quant_scheme):
    grid = TimeGrid.from_horizon(1.0, 0.01)
    p = params.with_(rho=-0.7)
    n = BATCH_SIZE + 52  # two batches
    one = mc_feynman_kac(p, quant_scheme, n, grid, 11, threads=1)
    two = mc_feynman_kac(p, quant_scheme, n, grid, 11, threads=2)
    assert one == two


def test_mc_value_rough_thread_determinism(rough_params):
    qm = measure_for_atoms(16, rough_params.alpha, MeasureKind.MU_TILDE)
    grid = TimeGrid.from_horizon(1.0, 0.01)
    n = BATCH_SIZE + 952  # three batches
    one = mc_value_rough(rough_params, qm, PositivityMap.ABSOLUTE, n, grid, 13,
                         threads=1)
    four = mc_value_rough(rough_params, qm, PositivityMap.ABSOLUTE, n, grid, 13,
                          threads=4)
    assert one.mean == four.mean
    assert one.std_error == four.std_error


@pytest.mark.parametrize("kind", [SchemeKind.CLASSICAL, SchemeKind.FRACTIONAL_EULER,
                                  SchemeKind.ROUGH_MARCHAUD,
                                  SchemeKind.QUANTIZED_ROUGH])
def test_feynman_kac_rejects_correlated_run_without_tilde_driver(kind):
    # only the quantized fractional scheme has the drift-corrected Z-tilde;
    # the others would silently drop the correction at rho != 0
    alpha = {SchemeKind.CLASSICAL: 0.0, SchemeKind.FRACTIONAL_EULER: 0.75,
             SchemeKind.ROUGH_MARCHAUD: -0.75, SchemeKind.QUANTIZED_ROUGH: -0.75}[kind]
    qm = (measure_for_atoms(16, alpha, MeasureKind.MU_TILDE)
          if kind is SchemeKind.QUANTIZED_ROUGH else None)
    scheme = VolScheme(kind, qm=qm)
    grid = TimeGrid.from_horizon(1.0, 0.01)
    with pytest.raises(ValueError, match="Z-tilde"):
        mc_feynman_kac(default_params(alpha=alpha, rho=-0.7), scheme, 100, grid, 3)
    # the same scheme at rho = 0 still runs
    est = mc_feynman_kac(default_params(alpha=alpha, v0=0.01), scheme, 100, grid, 3,
                         pos_map=PositivityMap.ABSOLUTE)
    assert math.isfinite(est.mean)


def test_feynman_kac_bond_case(params, quant_scheme):
    p = params.with_(lam=0.0)
    grid = TimeGrid.from_horizon(1.0, 0.01)
    est = mc_feynman_kac(p, quant_scheme, 100, grid, 11)
    assert est.mean == pytest.approx(math.exp(p.gamma * p.r), rel=1e-14)
    assert est.std_error == pytest.approx(0.0, abs=1e-16)


def test_feynman_kac_matches_affine(params, quant_scheme):
    grid = TimeGrid.from_horizon(1.0, 0.005)
    est = mc_feynman_kac(params, quant_scheme, 8000, grid, 21, threads=4)
    sol = solve_riccati_finite(quant_scheme.qm, params, ode_step=0.005)
    vp, pb = sol.at(1.0)
    affine = math.exp(pb + vp * params.z0)
    assert abs(est.mean - affine) <= max(3.0 * est.std_error, 2e-4 * affine)


def test_utility_bond_case(params, quant_scheme):
    p = params.with_(lam=0.0)
    grid = TimeGrid.from_horizon(1.0, 0.01)
    est = mc_utility(p, merton_ratio(p), quant_scheme,
                     PositivityMap.IDENTITY, 100, grid, 11)
    bond = p.w0 ** p.gamma / p.gamma * math.exp(p.gamma * p.r)
    assert est.mean == pytest.approx(bond, rel=1e-14)
    assert est.std_error == pytest.approx(0.0, abs=1e-16)


def test_utility_drives_physical_z_at_nonzero_rho(quant_scheme):
    # utilities live under the physical measure: at rho != 0 the quantized
    # scheme must see plain Z, not the Feynman-Kac Z-tilde
    p = default_params(rho=-0.7)
    grid = TimeGrid.from_horizon(1.0, 0.01)
    n = 300
    est = mc_utility(p, merton_ratio(p), quant_scheme,
                     PositivityMap.IDENTITY, n, grid, 17)
    dBz, dBs = brownian_batch(17, range(n), grid, p.rho)
    z = simulate_cir(p, grid, dBz)
    nu = nu_quantized_paths(p.v0, quant_scheme.qm, z, grid)
    u = simulate_wealth(merton_ratio(p), nu, grid, dBs, p)[:, -1] ** p.gamma / p.gamma
    mean = math.fsum(u) / n
    se = math.sqrt(math.fsum((v - mean) ** 2 for v in u) / (n - 1) / n)
    assert est.mean == mean
    assert est.std_error == se


def test_mc_value_rough_validation(rough_params):
    qm = measure_for_atoms(16, rough_params.alpha, MeasureKind.MU_TILDE)
    grid = TimeGrid.from_horizon(1.0, 0.01)
    with pytest.raises(ValueError):
        mc_value_rough(rough_params.with_(rho=0.5), qm,
                       PositivityMap.ABSOLUTE, 100, grid, 1)
    with pytest.raises(ValueError):
        mc_value_rough(rough_params,
                       measure_for_atoms(16, 0.75, MeasureKind.MU),
                       PositivityMap.ABSOLUTE, 100, grid, 1)


def test_mc_value_rough_bond_case(rough_params):
    p = rough_params.with_(lam=0.0)
    qm = measure_for_atoms(16, p.alpha, MeasureKind.MU_TILDE)
    grid = TimeGrid.from_horizon(1.0, 0.01)
    est = mc_value_rough(p, qm, PositivityMap.ABSOLUTE, 100, grid, 5)
    bond = p.w0 ** p.gamma / p.gamma * math.exp(p.gamma * p.r)
    assert est.mean == pytest.approx(bond, rel=1e-14)


def test_correlated_case_uses_drift_corrected_process(quant_scheme):
    p = default_params(rho=0.7, v0=0.01)
    p0 = default_params(rho=0.0, v0=0.01)
    grid = TimeGrid.from_horizon(1.0, 0.01)
    est7 = mc_feynman_kac(p, quant_scheme, 2000, grid, 41)
    est0 = mc_feynman_kac(p0, quant_scheme, 2000, grid, 41)
    assert est7.mean != est0.mean


@pytest.mark.parametrize("rho", [-0.7, 0.7])
def test_feynman_kac_at_nonzero_rho_matches_girsanov_weighted_physical_z(rho):
    # the Z-tilde estimator against a Girsanov-weighted one that never
    # builds Z-tilde, on independent seeds; a flipped correction must not pass
    p = default_params(alpha=0.75, rho=rho)
    qm = measure_for_atoms(32, p.alpha, MeasureKind.MU)
    grid = TimeGrid.from_horizon(1.0, 0.01)
    n = 40_000
    fk = mc_feynman_kac(p, VolScheme(SchemeKind.QUANTIZED_FRACTIONAL, qm=qm),
                        n, grid, 61)

    def gap_in_se(sign):
        w = feynman_kac_girsanov(p, qm, n, grid, 62, sign)
        return (fk.mean - w.mean) / math.hypot(fk.std_error, w.std_error)

    assert abs(gap_in_se(1.0)) <= 3.0
    assert abs(gap_in_se(-1.0)) > 3.0


def test_convergence_study(params):
    grid = TimeGrid.from_horizon(1.0, 0.01)
    qm = measure_for_atoms(16, params.alpha, MeasureKind.MU)
    qms = [qm, qm.refined(), qm.refined().refined()]
    rows = convergence_study(params, qms, 1000, grid, 61, threads=2)
    assert [r.atoms for r in rows] == [q.n_atoms for q in qms]
    assert all(r.monotonicity_violations == 0 for r in rows)
    kernel_errs = [r.kernel_error for r in rows]
    assert kernel_errs == sorted(kernel_errs, reverse=True)
    assert all(r.epsilon >= 0.0 for r in rows)
    # the near-optimality certificate tightens with every refinement
    assert all(a.epsilon > b.epsilon for a, b in zip(rows, rows[1:]))
    assert math.isnan(rows[-1].value_gap_to_next)
    with pytest.raises(ValueError):
        convergence_study(default_params(alpha=-0.75), qms, 100, grid, 61)
