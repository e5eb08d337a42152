import contextlib
import dataclasses
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import fracheston.cli
import fracheston.mc
from fracheston import (MeasureKind, PositivityMap, ScenarioConfig, SchemeKind,
                        TimeGrid, VolScheme, load_config, measure_for_atoms)
from fracheston.cli import _guarded, _write_csv, build_parser, main
from fracheston.mc import BATCH_SIZE, feynman_kac_leg, map_paths
from fracheston.vol import _ROW_BLOCK
from golden.make_golden import ONE_BLOCK_FAILS
from oracles import csv_text

SMALL = {
    "alphas": [0.5, -0.75, 0],
    "rhos": [0.0, 0.7],
    "step": 0.02,
    "n_paths": 64,
    "n_sample_paths": 2,
    "levels": [8, 16],
    "seed": 7,
}


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def _run(cfg_path, out_dir, command, *extra):
    return main(["--config", cfg_path, "--out", str(out_dir), *extra, command])


def _read_all(out_dir):
    return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}


def _quiet_main(argv) -> int:
    """main(argv), which must issue no warning on any thread: outside
    pytest, a warning prints to stderr beside the command's own message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    return code


def test_simulate_outputs(tmp_path, cfg_path):
    out = tmp_path / "out"
    assert _run(cfg_path, out, "simulate") == 0
    names = {f.name for f in out.iterdir()}
    assert "paths_a0.5_r0.csv" in names
    assert "paths_am0.75_r0.7.csv" in names
    assert "posmap_am0.75.csv" in names
    assert "rough_diagnostics.csv" in names
    assert "manifest.csv" in names
    header = (out / "paths_a0.5_r0.csv").read_text().splitlines()[0]
    assert header == "t,z0,nu0,s0,z1,nu1,s1"


@pytest.mark.parametrize("command", ["simulate", "value"])
def test_simulate_and_value_drive_once(tmp_path, cfg_path, monkeypatch, command):
    # simulate: every alpha's nu and Z are legs of one map at rho = 0, and
    # each rho's dBs is drawn by the cli itself; value: every row, at rho =
    # 0, is a leg of one map (SMALL has a single batch).  Z is driven once
    # per batch, and dBs is drawn only where it is read: simulate's draws
    # cover each sample row once per rho, and value's none
    drives, dBs_rows = [], []

    def driver(fn):
        def counted(*args, **kwargs):
            drives.append(fn.__name__)
            return fn(*args, **kwargs)
        return counted

    def drawn(draw):
        def counted(master_seed, stream_ids, grid, rho, draw_dBs=True, out=None):
            if draw_dBs:
                dBs_rows.extend((rho, i) for i in stream_ids)
            return draw(master_seed, stream_ids, grid, rho, draw_dBs, out=out)
        return counted

    for name in ("simulate_cir", "simulate_tilde_z"):
        monkeypatch.setattr(fracheston.mc, name, driver(getattr(fracheston.mc, name)))
    for module in (fracheston.mc, fracheston.cli):
        monkeypatch.setattr(module, "brownian_batch", drawn(module.brownian_batch))
    assert _run(cfg_path, tmp_path / "out", command) == 0
    assert drives == ["simulate_cir"]
    sample_rows = [(rho, i) for rho in SMALL["rhos"] for i in range(SMALL["n_sample_paths"])]
    assert sorted(dBs_rows) == (sample_rows if command == "simulate" else [])


def test_posmap_is_independent_of_rhos_and_sample_paths(tmp_path):
    # the posmap file reads path 0 of the one draw of Z: nu is built from
    # dBz alone, so the rhos and the number of sample paths drawn must not
    # change it, and a cell's paths file must not depend on the other rhos
    outs = []
    for i, change in enumerate([{"rhos": [0.7]}, {"rhos": [0.0, 0.7]},
                                {"n_sample_paths": 0}]):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({**SMALL, **change}))
        out = tmp_path / f"o{i}"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
        outs.append(out)
    texts = [(out / "posmap_am0.75.csv").read_bytes() for out in outs]
    assert texts[0] == texts[1] == texts[2]
    for name in ("paths_am0.75_r0.7.csv", "paths_a0.5_r0.7.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_quantize_outputs(tmp_path, cfg_path):
    out = tmp_path / "out"
    assert _run(cfg_path, out, "quantize") == 0
    names = {f.name for f in out.iterdir()}
    # one file per (non-classical alpha, level)
    assert any(n.startswith("quantized_a0.5_") for n in names)
    assert any(n.startswith("quantized_am0.75_") for n in names)
    qm = measure_for_atoms(16, 0.5, MeasureKind.MU)
    lines = (out / f"quantized_a0.5_n{qm.n_atoms}.csv").read_text().strip().splitlines()
    assert lines[0] == "index,xi_lo,xi_hi,node,weight"
    assert len(lines) == qm.n_atoms + 1
    first = lines[1].split(",")
    assert float(first[3]) == pytest.approx(qm.nodes[0])
    # every CLI CSV, the manifest included, ends its lines with LF alone
    assert not any(b"\r" in data for data in _read_all(out).values())


def test_value_outputs(tmp_path, cfg_path):
    out = tmp_path / "out"
    assert _run(cfg_path, out, "value") == 0
    lines = (out / "value.csv").read_text().strip().splitlines()
    assert lines[0] == "regime,alpha,level,riccati_value,mc_value,se,gap,blow_up"
    rows = [ln.split(",") for ln in lines[1:]]
    # 2 levels each for fractional and rough, 1 row for classical
    assert len(rows) == 5
    assert all(float(r[3]) < 0 for r in rows)  # gamma = -2 -> negative values
    assert all(r[7] == "0" for r in rows)


def test_classical_value_row_reads_v0(tmp_path):
    # the classical Riccati value (solve_riccati_limit) is that of nu =
    # v0 + Z, and so is the row's Monte Carlo value: with nu = Z alone its
    # gap at v0 = 0.5 was about 1,958 standard errors
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"v0": 0.5, "alphas": [0, 0.5], "rhos": [0.0],
                               "step": 0.01, "n_paths": 4000, "levels": [8]}))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "value"]) == 0
    rows = [ln.split(",") for ln in (out / "value.csv").read_text().splitlines()[1:]]
    (*_, se, gap, _), = [row for row in rows if row[0] == "classical"]
    assert abs(float(gap)) <= 3.0 * float(se)


def test_classical_alias_runs_as_alpha_zero(tmp_path):
    # -1 and 0 both name the classical model, and the regime table is keyed
    # by the params' regime, not by the scenario's alpha
    rows = []
    for i, alpha in enumerate([-1, 0]):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({**SMALL, "alphas": [alpha]}))
        for command in ("value", "quantize"):
            out = tmp_path / f"{command}{i}"
            assert main(["--config", str(cfg), "--out", str(out), command]) == 0
        assert [f.name for f in (tmp_path / f"quantize{i}").iterdir()] == ["manifest.csv"]
        row, = (tmp_path / f"value{i}" / "value.csv").read_text().splitlines()[1:]
        rows.append(row.split(","))
    assert [r[1] for r in rows] == ["-1", "0"]
    assert rows[0][:1] + rows[0][2:] == rows[1][:1] + rows[1][2:]


def test_wealth_outputs(tmp_path, cfg_path):
    out = tmp_path / "out"
    assert _run(cfg_path, out, "wealth") == 0
    summary = (out / "wealth_summary.csv").read_text().strip().splitlines()
    assert summary[0].startswith("regime,alpha,pi_star,w0")
    for row in summary[1:]:
        fields = row.split(",")
        assert float(fields[2]) == pytest.approx(1.0 / 6.0)
        assert float(fields[3]) == 1000.0
    paths = (out / "wealth_a0.5.csv").read_text().splitlines()
    first = paths[1].split(",")
    assert float(first[2]) == 1000.0  # W0 = w0 in every path file


def test_wealth_reads_scenario_alphas(tmp_path):
    # a delta that is valid for every scenario alpha but not for alpha = -0.55:
    # wealth must stay on the scenario's alphas, which the load-time check covers
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alphas": [0.5], "delta": 0.3, "n_paths": 50,
                               "step": 0.01}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "wealth"]) == 0
    assert {f.name for f in out.iterdir()} == {
        "wealth_a0.5.csv", "wealth_summary.csv", "manifest.csv"}


def test_longterm_outputs(tmp_path, cfg_path):
    out = tmp_path / "out"
    assert _run(cfg_path, out, "longterm", "--paths", "32", "--step", "0.05") == 0
    lines = (out / "longterm.csv").read_text().strip().splitlines()
    assert lines[0] == "regime,alpha,horizon,quantile,nu_T,s_T"
    assert len(lines) == 1 + 5 * len(SMALL["alphas"])  # 5 quantiles per alpha


def test_converge_outputs(tmp_path, cfg_path):
    out = tmp_path / "out"
    assert _run(cfg_path, out, "converge") == 0
    lines = (out / "converge.csv").read_text().strip().splitlines()
    assert lines[0].startswith("atoms,monotonicity_violations,kernel_error")
    rows = [ln.split(",") for ln in lines[1:]]
    assert all(r[1] == "0" for r in rows)
    kerr = [float(r[2]) for r in rows]
    assert kerr == sorted(kerr, reverse=True)


def test_rerun_byte_identical(tmp_path, cfg_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert _run(cfg_path, out1, "simulate") == 0
    assert _run(cfg_path, out2, "simulate") == 0
    assert _read_all(out1) == _read_all(out2)


def test_commands_sharing_an_out_dir_is_an_io_error(tmp_path, capsys, cfg_path):
    # value's manifest would leave quantize's files unlisted, so value
    # writes nothing there; a rerun of quantize into its own directory runs
    out = tmp_path / "o"
    assert _run(cfg_path, out, "quantize") == 0
    first = _read_all(out)
    assert _run(cfg_path, out, "quantize") == 0
    assert _read_all(out) == first
    assert _run(cfg_path, out, "value") == 1
    stale = min(set(first) - {"manifest.csv"})
    assert capsys.readouterr().err == (
        f"i/o error (value): {out}: its manifest.csv lists {stale}, which this run "
        f"does not write; give each command its own --out\n")
    assert _read_all(out) == first


def test_a_target_that_is_not_a_file_is_an_io_error(tmp_path, capsys):
    # a directory in the way of the second of three measures' files: the
    # run writes none of them and no manifest
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alphas": [0.5], "levels": [64, 128, 256], "step": 0.05}))
    out = tmp_path / "o"
    (out / "quantized_a0.5_n142.csv").mkdir(parents=True)
    assert main(["--config", str(cfg), "--out", str(out), "quantize"]) == 1
    assert capsys.readouterr().err == (
        f"i/o error (quantize): {out / 'quantized_a0.5_n142.csv'}: exists and is "
        f"not a regular file\n")
    assert [f.name for f in out.iterdir()] == ["quantized_a0.5_n142.csv"]


def test_a_failed_write_leaves_the_out_dir_as_it_was(tmp_path, capsys, cfg_path,
                                                      monkeypatch):
    # a rerun with another seed fails writing its second table: the first
    # run's files stay byte for byte, and no temporary is left behind
    out = tmp_path / "o"
    assert _run(cfg_path, out, "wealth") == 0
    first = _read_all(out)
    write, calls = fracheston.cli._write_csv, []

    def failing(path, header, rows):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        write(path, header, rows)

    monkeypatch.setattr(fracheston.cli, "_write_csv", failing)
    assert _run(cfg_path, out, "wealth", "--seed", "8") == 1
    assert capsys.readouterr().err == "i/o error (wealth): disk full\n"
    assert len(calls) == 2
    assert _read_all(out) == first


REPORTS = {
    "value": {"value.csv"},
    "wealth": {"wealth_a0.5.csv", "wealth_am0.75.csv", "wealth_a0.csv",
               "wealth_summary.csv"},
    "longterm": {"longterm.csv"},
    "converge": {"converge.csv"},
}


@pytest.mark.parametrize("command", list(REPORTS))
def test_value_byte_identical_across_threads(tmp_path, cfg_path, command):
    # more paths than one batch, so the workers really split the work
    paths = str(BATCH_SIZE + 52)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert _run(cfg_path, out1, command, "--paths", paths, "--threads", "1") == 0
    assert _run(cfg_path, out2, command, "--paths", paths, "--threads", "2") == 0
    assert set(_read_all(out1)) == REPORTS[command] | {"manifest.csv"}
    assert _read_all(out1) == _read_all(out2)


@pytest.mark.parametrize("change, blow_up", [
    ({}, 0),
    ({"gamma": 0.9, "lam": 10.0}, 1),  # the fractional Riccati solves blow up
], ids=["finite", "blow-up"])
def test_value_keeps_the_rows_that_do_not_fail(tmp_path, capsys, change, blow_up):
    # the identity map meets a negative rough nu (v0 = 0) in every rough row;
    # the fractional rows are still written and listed, and the run exits 1.
    # A positivity failure beats a blow-up: the rough rows fail either way
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL, "alphas": [0.5, -0.75],
                               "positivity_map": "identity", **change}))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "value"]) == 1
    lines = (out / "value.csv").read_text().strip().splitlines()
    assert [ln.split(",")[:3] + ln.split(",")[-1:] for ln in lines[1:]] == [
        ["fractional", "0.5", str(n), str(blow_up)] for n in SMALL["levels"]]
    manifest = (out / "manifest.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in manifest[1:]] == ["value.csv"]
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"row failed: value row alpha=-0.75 level={n}: identity positivity map "
        f"applied to a path with negative entries; use abs or exp"
        for n in SMALL["levels"]]
    assert "Traceback" not in err


def test_guarded_row_failing_in_one_block_yields_nan(tmp_path):
    # the golden value_one_block_fails scenario: at level 8 the identity map
    # rejects the rough nu on paths 163 and 190 only, which share one
    # _ROW_BLOCK-row block of the 300; that block's values are NaN and the
    # row fails
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(ONE_BLOCK_FAILS))
    cfg = load_config(str(cfg))
    p = cfg.model_params(-0.75, 0.0)
    grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
    scheme = VolScheme(SchemeKind.QUANTIZED_ROUGH,
                       qm=measure_for_atoms(8, -0.75, MeasureKind.MU_TILDE))
    failures = []
    leg = _guarded(feynman_kac_leg(p, scheme, grid, PositivityMap.IDENTITY), failures)
    values, = map_paths([leg], grid, cfg.seed, cfg.n_paths)
    assert [str(exc) for exc in failures] == [
        "identity positivity map applied to a path with negative entries; use abs or exp"]
    blocks = {path // _ROW_BLOCK for path in (163, 190)}
    assert len(blocks) == 1
    first = blocks.pop() * _ROW_BLOCK
    block = np.zeros(len(values), dtype=bool)
    block[first:first + _ROW_BLOCK] = True
    assert np.isnan(values[block]).all() and np.isfinite(values[~block]).all()


def test_every_flag_overrides_a_scenario_field():
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    dests = set(vars(build_parser().parse_args(["simulate"])))
    assert dests - {"config", "command"} <= fields


def test_manifest_lists_files_with_hash(tmp_path, cfg_path):
    out = tmp_path / "out"
    assert _run(cfg_path, out, "quantize") == 0
    lines = (out / "manifest.csv").read_text().strip().splitlines()
    assert lines[0] == "file,config_hash"
    listed = {ln.split(",")[0] for ln in lines[1:]}
    on_disk = {f.name for f in out.iterdir()} - {"manifest.csv"}
    assert listed == on_disk
    hashes = {ln.split(",")[1] for ln in lines[1:]}
    assert len(hashes) == 1


def test_invalid_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sigma": 9.0}))
    assert main(["--config", str(bad), "--out", str(tmp_path / "o"),
                 "simulate"]) == 2


@pytest.mark.parametrize("command", ["simulate", "value"])
@pytest.mark.parametrize("change", [
    {"rhos": [1.5]},
    {"positivity_map": "foo"},
    {"delta": 0.9},  # outside (alpha+1, 1/2) at alpha = -0.75
    {"seed": -1},
    {"levels": []},
    {"alphas": []},
    {"rhos": []},
    {"step": 0.3},  # does not divide the horizon
    {"threads": 0},
    {"atoms": 8},  # removed in schema version 2
    {"schema_version": 1},
    {"s0": -100},
    {"n_sample_paths": -1},
    {"levels": ["a"]},
    {"levels": [8, 16.0]},
    {"n_paths": 20.5},
    {"n_sample_paths": 2.0},
    {"seed": 7.5},
    {"threads": True},
    {"seed": True},
    {"levels": [0]},
    {"levels": [8, -3]},
    {"levels": [8, 8]},
    {"levels": [64, 65]},  # both grow to 70 atoms
    {"alphas": [0.5, -0.75, 0.5]},
    {"alphas": [0.5, 0, -1]},  # both the classical model
    {"alphas": [0.5, 0.5000001]},  # both tagged 0.5 in file names
    {"rhos": [0.0, 0.0]},
    {"rhos": [0.0, -0.0]},  # one value, though tagged 0 and m0
    {"rhos": [0.7, 0.70000001]},  # both tagged 0.7
    {"r": "0.02"},  # a string, not a number
    {"r": math.nan},
    {"w0": math.nan},
    {"lam": math.inf},
    {"theta": math.inf},
    {"r": True},
    {"rhos": [False]},  # not rho = 0
    {"alphas": [False, 0.5]},  # not the classical model
    {"alphas": ["0.5"]},
    {"alphas": 0.5},  # not an array
    {"alphas": None},
    {"levels": 8},
    {"rhos": "0.5"},  # a string, not an array of one-character entries
    {"levels": {"a": 1}},  # an object, not an array of its keys
    {"positivity_map": ["abs"]},
    {"out_dir": 5},
    {"out_dir": True},
    {"schema_version": 2.0},  # would load, but hash unlike version 2
], ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
def test_bad_scenario_fails_before_any_output(tmp_path, change, command):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SMALL, **change}))
    out = tmp_path / "o"
    assert main(["--config", str(bad), "--out", str(out), command]) == 2
    assert not out.exists()


@pytest.mark.parametrize("field, entries", [("rhos", [False]), ("alphas", [False, 0.5]),
                                           ("alphas", ["0.5"]), ("alphas", 0.5),
                                           ("alphas", None), ("levels", 8),
                                           ("rhos", "0.5"), ("levels", {"a": 1}),
                                           ("positivity_map", ["abs"]), ("out_dir", 5),
                                           ("out_dir", True), ("schema_version", 2.0)])
def test_bad_alpha_or_rho_entry_names_its_field(tmp_path, capsys, field, entries):
    # a bad alphas or rhos entry, or a whole field of the wrong kind, is
    # reported with the field's name and the value it got
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SMALL, field: entries}))
    assert main(["--config", str(bad), "--out", str(tmp_path / "o"), "value"]) == 2
    err = capsys.readouterr().err
    if field in ("alphas", "rhos") and isinstance(entries, list):
        assert err.startswith(f"config error: {field} entry must be a "
                              f"finite real number, got ")
    else:  # a value of the wrong kind for the whole field
        assert err.startswith(f"config error: {field} must be ")
        assert err.endswith(f", got {entries!r}\n")


@pytest.mark.parametrize("text, why", [
    ('{"lam": 0.4, "lambda": 0.9}', "as 'lam' and 'lambda'"),
    ('{"lambda": 0.9, "lam": 0.4}', "as 'lambda' and 'lam'"),
    ('{"lam": 0.4, "step": 0.05, "lam": 0.9}', "the key 'lam' repeats"),
], ids=["alias", "alias-first", "repeated-key"])
def test_field_given_twice_is_a_config_error(tmp_path, capsys, text, why):
    # json.load would keep one of the two values and drop the other
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "quantize"]) == 2
    assert capsys.readouterr().err == f"config error: lam given twice: {why}\n"
    assert not out.exists()


@pytest.mark.parametrize("out", ["file", "file/sub", "dir"])
def test_unwritable_out_dir_exits_cleanly(tmp_path, capsys, out):
    # the scenario is fine; making its output directory fails, or (dir)
    # reading the manifest already there does
    (tmp_path / "file").write_text("")
    (tmp_path / "dir" / "manifest.csv").mkdir(parents=True)
    assert main(["--out", str(tmp_path / out), "quantize"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("i/o error (quantize): ")
    assert "Traceback" not in err


def test_config_hashes_are_pinned(tmp_path):
    # the hash heads every manifest, so a change to it changes every manifest;
    # SMALL's int alpha 0 would hash differently if it were read as 0.0
    readme = {"alphas": [0.5, 0.95, -0.75], "rhos": [-0.7, 0.0, 0.7], "step": 0.001,
              "n_paths": 10000, "levels": [64, 128, 256], "seed": 20240801}
    # perfbench's CLI_SCENARIO, copied so that an edit there must edit this too
    bench = {"alphas": [0.0, 0.5, 0.95, -0.75, -0.55], "rhos": [-0.7, 0.0, 0.7],
             "step": 1e-3, "n_paths": 4096, "n_sample_paths": 8}
    path = tmp_path / "cfg.json"
    hashes = []
    for doc in (SMALL, readme, bench):
        path.write_text(json.dumps(doc))
        hashes.append(load_config(path).config_hash())
    hashes.append(ScenarioConfig().config_hash())
    assert hashes == ["7451d8345f848cb8", "e393e976ba823568", "0ab2f46e651d79c2",
                      "234b86bf08598169"]


@pytest.mark.parametrize("alphas", [[], [-0.75, 0]], ids=["empty", "rough-classical"])
def test_converge_without_fractional_alpha_fails_before_any_output(tmp_path, alphas):
    # the convergence study needs a fractional alpha; none in the scenario
    # is a config error, not a run at some other alpha
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SMALL, "alphas": alphas}))
    out = tmp_path / "o"
    assert main(["--config", str(bad), "--out", str(out), "converge"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "wealth", "longterm"])
def test_failing_run_exits_cleanly(tmp_path, capsys, command):
    # the identity map is valid for some rough scenarios (v0 = 3, z0 = 0.15),
    # so it is rejected while the run meets a negative path, not at load time
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL, "positivity_map": "identity"}))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 1
    assert not (out / "manifest.csv").exists()
    assert list(out.glob("*.csv")) == []
    err = capsys.readouterr().err
    assert err.startswith(f"run error ({command}): identity positivity map")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, name", [
    ("simulate", "paths_a0.05_rm0.7.csv"), ("wealth", "wealth_a0.05.csv"),
    ("longterm", "longterm.csv")])
def test_non_finite_output_is_a_run_error(tmp_path, capsys, command, name):
    # lam = 1e100 loads, but the stock and the wealth overflow to inf and
    # nan: the first file that would hold one is named, and nothing is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 1e100, "step": 0.05, "n_paths": 64,
                               "n_sample_paths": 2, "levels": [8]}))
    out = tmp_path / "o"
    assert _quiet_main(["--config", str(cfg), "--out", str(out), command]) == 1
    assert list(out.iterdir()) == []
    err = capsys.readouterr().err
    assert err == f"run error ({command}): {name}: inf or nan in the output\n"


def test_converge_blow_up_exits_cleanly(tmp_path, capsys):
    # gamma = 0.9, lam = 10: the finite Riccati solve of every level blows
    # up before the horizon, so the study has no affine value to report
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL, "alphas": [0.5, -0.75], "gamma": 0.9,
                               "lam": 10.0}))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "converge"]) == 1
    assert not (out / "manifest.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("run error (converge): no finite value: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["quantize", "converge"])
def test_alpha_near_one_is_a_config_error(tmp_path, capsys, command):
    # the partition's lower endpoint 16^(-2/(1 - alpha)) is 0.0 at alpha =
    # 0.999, which passes ScenarioConfig: building the measures at load
    # stops with make_partition's ValueError, before the output directory
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alphas": [0.999], "step": 0.05}))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: alpha=0.999 level=64: the lower endpoint ")
    assert "Traceback" not in err
    assert not out.exists()


def test_quantize_failing_level_leaves_no_output(tmp_path, capsys):
    # alpha = 0.98 fails past its first default level, after alpha = 0.5's
    # levels built: the whole run is rejected before anything is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alphas": [0.5, 0.98], "step": 0.05}))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "quantize"]) == 2
    assert capsys.readouterr().err.startswith("config error: alpha=0.98 level=128: ")
    assert not out.exists()


COMMANDS = ["simulate", "quantize", "value", "wealth", "longterm", "converge"]


def _case_id(v):
    # a scenario change as its key=value pairs, other parameters as they are
    return "-".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else str(v)


@pytest.mark.parametrize("change, command, code", [
    # refine's log-midpoints underflow at alpha = 0.98's second default
    # level and past 18,430 atoms at alpha = 0.95
    *[({"alphas": [0.98]}, c, 2) for c in ("quantize", "value")],
    *[({"alphas": [0.95], "levels": [100000]}, c, 2) for c in ("quantize", "value")],
    # converge builds its chain from 147,454 cells, which needs no refinement
    ({"alphas": [0.95], "levels": [100000]}, "converge", 0),
    *[({"alphas": [0.999]}, c, 0) for c in ("simulate", "wealth", "longterm")],
], ids=_case_id)
def test_only_commands_that_read_a_measure_reject_it(tmp_path, capsys, change, command, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"step": 0.25, "n_paths": 8, "n_sample_paths": 1, **change}))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), command]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith(f"config error: alpha={change['alphas'][0]} level=")
        assert not out.exists()
    else:
        assert err == "" and (out / "manifest.csv").exists()


@pytest.mark.parametrize("change, command, code", [
    # sigma ** 2 in ModelParams, which ScenarioConfig builds at load
    *[({"sigma": 1e200, "kappa": 1e200, "theta": 1e200}, c, 2) for c in COMMANDS],
    # lam ** 2 in DerivedConstants, which ScenarioConfig evaluates at load
    *[({"lam": 1e200}, c, 2) for c in COMMANDS],
    *[({"w0": 1e-300}, c, 1) for c in ("value", "converge")],  # w0 ** gamma
    ({"z0": 1e300, "gamma": 0.5}, "converge", 1),  # math.exp of the affine value
    # w0^gamma/gamma times a finite exp overflows to an inf affine value
    ({"v0": 5656, "gamma": 0.5}, "converge", 1),
], ids=_case_id)
def test_overflow_exits_cleanly(tmp_path, capsys, change, command, code):
    # an overflow is a config error at load, naming the field that
    # overflows, and a run error after it; either is stderr's one line
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL, "step": 0.05, **change}))
    out = tmp_path / "o"
    assert _quiet_main(["--config", str(cfg), "--out", str(out), command]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    if code == 2:
        field = next(iter(change))
        assert err.startswith(f"config error: {field}=1e+200: ") and "overflow" in err
        assert not out.exists()
    else:
        assert err.startswith(f"run error ({command}): ")
        assert list(out.iterdir()) == []


# three path batches, so that two threads run some of them on workers
VALUE_GRID = {"step": 0.05, "n_paths": 2100, "levels": [8], "alphas": [0.5, 0, -0.75]}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("change, lines", [
    # every Riccati solve blows up, and so does every Feynman-Kac path
    ({"lam": 1e100}, ["fractional,0.5,8,nan,nan,nan,nan,1",
                      "classical,0,8,nan,nan,nan,nan,1",
                      "rough,-0.75,8,nan,nan,nan,nan,1"]),
    # no Riccati solve blows up, but every affine value overflows math.exp
    ({"v0": 1e6, "gamma": 0.5}, [f"row failed: value row alpha={a} level=8: "
                                 f"math range error" for a in (0.5, 0, -0.75)]),
    # the classical leg's per-path values (its nu is v0 + Z) are finite
    # but their sum overflows fsum; the rough row's affine value overflows
    # to inf with its Monte Carlo value
    ({"v0": 5656, "gamma": 0.5, "alphas": [0, -0.75]},
     ["row failed: value row alpha=0 level=8: intermediate overflow in fsum",
      "row failed: value row alpha=-0.75 level=8: value.csv: inf or nan in the output"]),
], ids=["blow-up", "exp-overflow", "inf-row"])
def test_value_overflow_prints_no_numpy_warning(tmp_path, capsys, change, lines, threads):
    # numpy's overflow warnings stay off stderr, in the worker threads too:
    # a blown-up row is written, and a failed row is its one stderr line
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**VALUE_GRID, **change}))
    out = tmp_path / "o"
    failed = lines[0].startswith("row failed: ")
    assert _quiet_main(["--config", str(cfg), "--out", str(out),
                        "--threads", str(threads), "value"]) == int(failed)
    rows = (out / "value.csv").read_text().splitlines()[1:]
    assert capsys.readouterr().err.splitlines() == (lines if failed else [])
    assert rows == ([] if failed else lines)


def _non_finite_cells(path: Path) -> set:
    """(row, column) of each number in the CSV at path that is an inf or a
    nan, rows counted from 0 below the header; text cells are skipped."""
    cells = set()
    for i, line in enumerate(path.read_text().splitlines()[1:]):
        for j, cell in enumerate(line.split(",")):
            with contextlib.suppress(ValueError):
                if not math.isfinite(float(cell)):
                    cells.add((i, j))
    return cells


def _documented_nans(path: Path) -> set:
    """The cells that hold NaN by design: the numbers of a blown-up
    value.csv row and converge.csv's last gap to the next level."""
    lines = path.read_text().splitlines()
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    if path.name == "value.csv":
        numbers = range(header.index("riccati_value"), header.index("blow_up"))
        return {(i, j) for i, row in enumerate(rows) if row[-1] == "1" for j in numbers}
    if path.name == "converge.csv":
        return {(len(rows) - 1, header.index("value_gap_to_next"))}
    return set()


# the fractional and rough ranges, both classical aliases, and the alphas
# near 1 and -1/2 where measures or delta windows stop working
_ALPHAS = st.one_of(st.floats(0, 1, exclude_min=True, exclude_max=True),
                    st.floats(-1, -0.5, exclude_min=True, exclude_max=True),
                    st.sampled_from([0.0, -1.0, 0.97, 0.98, 0.993, 0.999, -0.5001]))


@given(alphas=st.lists(_ALPHAS, min_size=1, max_size=2),
       rhos=st.sampled_from([[0.0], [-0.7], [0.0, 0.5]]),
       levels=st.lists(st.integers(1, 64), min_size=1, max_size=2),
       step=st.sampled_from([0.05, 0.0625, 0.1, 0.125, 0.2, 0.25]),
       n_paths=st.integers(2, 16),
       positivity_map=st.sampled_from(["abs", "exp", "identity"]),
       overflow=st.sampled_from([{}, {"w0": 1e-300}, {"lam": 1e200}, {"lam": 1e100},
                                 {"z0": 1e300, "gamma": 0.5}]),
       command=st.sampled_from(COMMANDS))
@settings(max_examples=100, deadline=None)
def test_every_scenario_exits_cleanly(command, overflow, **scenario):
    # whatever a small scenario holds, a command exits 0, 1 or 2 without a
    # traceback; a config error leaves no output directory, and a run error
    # no file, except for value's per-row failures.  Exit 0 prints nothing
    # and writes only finite numbers, but for the documented NaNs
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out, err = Path(tmp) / "cfg.json", Path(tmp) / "o", io.StringIO()
        cfg.write_text(json.dumps({**scenario, **overflow, "n_sample_paths": 1}))
        with contextlib.redirect_stderr(err):
            code = _quiet_main(["--config", str(cfg), "--out", str(out), command])
        err = err.getvalue()
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 0:
            assert err == ""
            for path in out.glob("*.csv"):
                assert _non_finite_cells(path) == _documented_nans(path)
        elif code == 2:
            assert err.startswith("config error: ") and not out.exists()
        elif code == 1 and err.startswith("row failed: "):
            assert command == "value"
            assert {f.name for f in out.iterdir()} == {"value.csv", "manifest.csv"}
        elif code == 1:
            assert err.startswith(f"run error ({command}): ")
            assert list(out.iterdir()) == []


def test_seed_override_changes_output(tmp_path, cfg_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert _run(cfg_path, out1, "simulate") == 0
    assert _run(cfg_path, out2, "simulate", "--seed", "8") == 0
    a = (out1 / "paths_a0.5_r0.csv").read_bytes()
    b = (out2 / "paths_a0.5_r0.csv").read_bytes()
    assert a != b


def test_cli_binds_no_private_library_name():
    # the CLI goes through the public API of the other modules only
    import fracheston.cli as cli
    leaked = sorted(
        name for name, obj in vars(cli).items()
        if not name.startswith("__")
        and getattr(obj, "__module__", "").startswith("fracheston.")
        and obj.__module__ != cli.__name__
        and (name.startswith("_") or getattr(obj, "__name__", "").startswith("_")))
    assert leaked == []


def test_write_csv_matches_per_cell_oracle(tmp_path):
    # one % format per row type tuple: rows of one layout share a format,
    # and a row whose cell types differ gets its own
    rows = [
        ("fractional", 0.5, 64, 1.0 / 3.0, np.float64(-2.5e-300), np.int64(-7), True, 0),
        ("classical", 0, 64, math.nan, math.inf, np.int64(2 ** 62), False, 1),
        ("classical", -1, 8, 2.5, -1e-320, np.int64(3), True, -12),  # types of the row above
        ("rough", -0.75, 10 ** 17 + 1, -0.0, -math.inf, np.int32(5), np.float64(1e17), 2 ** 70),
        ("rough", -1, 128, np.float64(math.nan), 0.1, np.uint64(2 ** 64 - 1), 3.0, -0),
        ["x,y", np.float32(0.1), 1, 2, 3, 4, 5.5, "z"],
    ]
    header = ["regime", "alpha", "level", "a", "b", "c", "d", "e"]
    path = tmp_path / "t.csv"
    _write_csv(path, header, iter(rows))
    assert path.read_bytes() == csv_text(header, rows).encode()
