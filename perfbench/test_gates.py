"""Self-test of the benchmark's gates and tracer.

    python3 -m pytest perfbench/test_gates.py -q

Each gate is fed a deliberately wrong result through the same check the
benchmark applies, and must report it; a raising or failing job must be
counted as failed.  Takes about 20 s on 2 cores.
"""
import math
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as w  # noqa: E402
from fracheston import (PositivityMap, mc_feynman_kac,  # noqa: E402
                        mc_value_rough, solve_riccati_finite,
                        solve_riccati_rough, value_function)

SEED = w.job_seed(w.DEFAULT_SEED, 0)


def test_value_rho_gate_rejects_a_shifted_reference():
    wl = w.WORKLOADS["value_rho"]
    inp = wl.setup(None)
    out = wl.run(inp, w.job_seed(3, 0), 2, False)
    assert wl.check(inp, out).failures == []
    ref = inp["ref"]
    shifted = {**inp, "ref": {**ref, "mean": 1.02 * ref["mean"]}}
    assert wl.check(shifted, out).failures
    nan_est = replace(out.data["est"], mean=math.nan)
    assert wl.check(inp, replace(out, data={"est": nan_est})).failures

    # the same failing check inside the benchmark's job loop counts as failed
    jobs = run.Jobs()
    assert jobs.run_one(wl, shifted, w.job_seed(3, 0), 2, False) is None
    assert (jobs.attempted, jobs.failed) == (1, 1)


def test_value_xval_gates_catch_a_two_percent_shift():
    wl = w.WORKLOADS["value_xval"]
    inp = wl.setup(None)
    p, grid = inp["p"], inp["grid"]
    qm = w.measure_for_atoms(64, p.alpha, w.MeasureKind.MU)
    scheme = w.VolScheme(w.SchemeKind.QUANTIZED_FRACTIONAL, qm=qm)
    vp, pb = solve_riccati_finite(qm, p, ode_step=w.ODE_STEP).at(p.horizon)
    fk = ("fk", mc_feynman_kac(p, scheme, w.N_PATHS, grid, SEED, 2), math.exp(pb + vp * p.z0))
    pr = inp["pr"]
    qr = w.measure_for_atoms(128, pr.alpha, w.MeasureKind.MU_TILDE)
    rough = ("rough", mc_value_rough(pr, qr, PositivityMap.IDENTITY, w.N_PATHS,
                                     inp["grid_rough"], SEED, 2),
             value_function(pr, solve_riccati_rough(qr, pr, ode_step=w.ODE_STEP)).value)

    def failures(legs):
        return wl.check(inp, w.RunOutput(work=1, data={"legs": legs})).failures

    assert failures([fk, rough]) == []
    assert failures([(fk[0], fk[1], 1.02 * fk[2]), rough])
    assert failures([fk, (rough[0], rough[1], 1.02 * rough[2])])
    nan_est = replace(fk[1], mean=math.nan)
    assert failures([(fk[0], nan_est, fk[2]), rough])


def test_affine_surface_gates():
    wl = w.WORKLOADS["affine_surface"]
    inp = wl.setup(None)
    out = wl.run(inp, 7, 1, False)
    assert wl.check(inp, out).failures == []
    results = out.data["results"]
    # the gap between neighbouring quantization levels is about 1e-8 relative
    for key, scale in (("finite:0.75:256", 1.02), ("rough:-0.75:128", 1 + 1e-8),
                       ("limit:0:0", 1.02)):
        value, varphi = results[key]
        shifted = {**results, key: (value * scale, varphi)}
        assert wl.check(inp, replace(out, data={"results": shifted})).failures, key
    value, varphi = results["limit:0:0"]
    off = {**results, "limit:0:0": (value, varphi + 1e-5)}
    assert wl.check(inp, replace(out, data={"results": off})).failures


def _rewrite_cell(path: Path, row: int, col: str, fn) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    j = header.index(col)
    cells = lines[row].split(",")
    cells[j] = fn(cells[j])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_cli_paths_gates(tmp_path):
    wl = w.WORKLOADS["cli_paths"]
    inp = wl.setup(tmp_path)
    out = wl.run(inp, SEED, 2, True)
    copies = []
    for i in range(3):
        dst = tmp_path / f"copy{i}"
        shutil.copytree(out.data["dir"], dst)
        copies.append(replace(out, data={**out.data, "dir": dst}))
    result = wl.check(inp, out)
    assert result.failures == []
    assert out.work == (15 * 8 + 2 + 5 * (8 + w.N_PATHS)) * 1000

    # a non-finite number in a sample path
    _rewrite_cell(copies[0].data["dir"] / "wealth" / "wealth_a0.5.csv", 10, "w3",
                  lambda _: "nan")
    assert wl.check(inp, copies[0]).failures
    # a terminal-wealth mean shifted by 2%
    _rewrite_cell(copies[1].data["dir"] / "wealth" / "wealth_summary.csv", 2,
                  "mean_terminal", lambda c: repr(1.02 * float(c)))
    assert wl.check(inp, copies[1]).failures
    # a non-zero exit code
    bad_exit = replace(copies[2], data={**copies[2].data, "codes": {"simulate": 0, "wealth": 1}})
    assert wl.check(inp, bad_exit).failures


def test_raising_job_counts_as_failed():
    def boom(*_):
        raise RuntimeError("deliberate")

    wl = replace(w.WORKLOADS["value_rho"], run=boom)
    jobs = run.Jobs()
    assert jobs.run_one(wl, {}, 1, 1, False) is None
    assert (jobs.attempted, jobs.failed, jobs.walls) == (1, 1, [])


def test_tracer_tolerates_missing_targets(monkeypatch):
    import fracheston.sim as sim
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [
        ("vol.nu_quantized", "fracheston.vol:no_such_function", None),
        ("mc", "fracheston.no_such_module:f", None)])
    original = sim.brownian_batch
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sim.brownian_batch is not original
        grid = w.TimeGrid.from_horizon(1.0, 0.1)
        root = tracer.open("job", "test")
        sim.brownian_batch(1, range(4), grid, 0.0)
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert sim.brownian_batch is original
    assert set(tracer.missing) == {"fracheston.vol:no_such_function",
                                   "fracheston.no_such_module:f"}
    missing = tracer.missing_metrics()
    assert {"vol.nu_quantized.self_s", "vol.nu_quantized.atom_path_steps",
            "mc.self_s", "mc.batches"} <= missing
    assert "sim.brownian_batch.self_s" not in missing
    self_s = tracer.self_times()
    assert sum(self_s.values()) == pytest.approx(tracer.spans[root].duration)
    assert tracer.counters() == {"sim.brownian_batch.streams": 4}


def test_counter_that_no_longer_fits_drops_only_its_counts(monkeypatch):
    import fracheston.sim as sim
    monkeypatch.setattr(spans, "TARGETS", [
        ("sim.brownian_batch", "fracheston.sim:brownian_batch",
         lambda bound, result: {"sim.brownian_batch.streams": len(bound.arguments["renamed"])})])
    tracer = spans.Tracer()
    tracer.install()
    try:
        sim.brownian_batch(1, range(2), w.TimeGrid.from_horizon(1.0, 0.5), 0.0)
    finally:
        tracer.uninstall()
    assert tracer.missing_metrics() == {"sim.brownian_batch.streams"}
    assert "sim.brownian_batch" in tracer.self_times()


def test_module_imported_during_install_keeps_the_original(monkeypatch):
    import fracheston
    import fracheston.sim as sim
    monkeypatch.delitem(sys.modules, "fracheston.cli", raising=False)
    monkeypatch.delattr(fracheston, "cli", raising=False)
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert sys.modules["fracheston.cli"].brownian_batch is sim.brownian_batch
    assert not hasattr(sim.brownian_batch, "__wrapped__")
