import dataclasses
import json
import math

import numpy as np
import pytest

import fracheston.mc
from fracheston import MeasureKind, ScenarioConfig, load_config, measure_for_atoms
from fracheston.cli import _write_csv, build_parser, main
from fracheston.mc import BATCH_SIZE
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


@pytest.mark.parametrize("command, n_draws", [("simulate", len(SMALL["rhos"])),
                                              ("value", 1)])
def test_simulate_draws_once_per_rho(tmp_path, cfg_path, monkeypatch, command,
                                     n_draws):
    # simulate: every alpha at one rho is a leg of one path batch; value:
    # every row, at rho = 0, is a leg of one map (SMALL has a single batch)
    draws = []
    draw = fracheston.mc.brownian_batch

    def counted(*args, **kwargs):
        draws.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(fracheston.mc, "brownian_batch", counted)
    assert _run(cfg_path, tmp_path / "out", command) == 0
    assert len(draws) == n_draws


def test_posmap_is_independent_of_rhos_and_sample_paths(tmp_path):
    # the posmap file reads path 0 of the first rho's draw: nu is built
    # from dBz alone, so the rhos and the number of sample paths drawn
    # must not change it
    texts = []
    for i, change in enumerate([{"rhos": [0.7]}, {"rhos": [0.0, 0.7]},
                                {"n_sample_paths": 0}]):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({**SMALL, **change}))
        out = tmp_path / f"o{i}"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
        texts.append((out / "posmap_am0.75.csv").read_bytes())
    assert texts[0] == texts[1] == texts[2]


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


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_unwritable_out_dir_exits_cleanly(tmp_path, capsys, out):
    # the scenario is fine; making its output directory fails
    (tmp_path / "file").write_text("")
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
