"""The paper's experiments: each scenario file under scenarios/ runs its
commands on a tiny grid, and each driver in scripts/ runs through its
run(argv) entry point; both must exit cleanly."""
import importlib.util
from pathlib import Path

import pytest

from fracheston import (MeasureKind, PositivityMap, SchemeKind, TimeGrid, VolScheme,
                        default_params, mc_utility, measure_for_atoms)
from fracheston.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
SCENARIOS = ROOT / "scenarios"

# each scenario file and the commands its experiment runs, each with its
# own --out, since a command's manifest lists only its own files
SCENARIO_COMMANDS = {
    "paths": ["simulate"],
    "convergence": ["converge", "value"],
    "wealth": ["wealth"],
}

TINY_ARGS = {
    "run_wealth_experiment": ["--paths", "64", "--step", "0.05", "--threads", "1"],
}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_scenario_is_covered():
    assert {p.stem for p in SCENARIOS.glob("*.json")} == set(SCENARIO_COMMANDS)


@pytest.mark.parametrize("name, command", [
    (name, command) for name, commands in SCENARIO_COMMANDS.items()
    for command in commands])
def test_scenario_runs(tmp_path, name, command):
    out = tmp_path / command
    assert main(["--config", str(SCENARIOS / f"{name}.json"), "--paths", "64",
                 "--step", "0.05", "--out", str(out), command]) == 0
    listed = [ln.split(",")[0]
              for ln in (out / "manifest.csv").read_text().splitlines()[1:]]
    written = {f.name for f in out.glob("*.csv")} - {"manifest.csv"}
    assert listed and sorted(listed) == sorted(written)


def test_every_script_is_covered():
    assert {p.stem for p in SCRIPTS.glob("*.py")} == set(TINY_ARGS)


@pytest.mark.parametrize("name", sorted(TINY_ARGS))
def test_script_runs(name, capsys):
    # the wealth driver prints one line per (alpha, c): two alphas, five c
    assert _load(name).run(TINY_ARGS[name]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len([ln for ln in lines if ln.startswith("  c=")]) == 10


def test_wealth_table_equals_mc_utility():
    # the five multipliers are legs of one map: each estimate is the one
    # mc_utility draws on its own, bit for bit
    driver = _load("run_wealth_experiment")
    star, estimates = driver.utility_table(-0.75, 64, 0.05, 7, 2)
    c = driver.MULTIPLIERS[3]
    scheme = VolScheme(SchemeKind.QUANTIZED_ROUGH,
                       qm=measure_for_atoms(64, -0.75, MeasureKind.MU_TILDE))
    alone = mc_utility(default_params(alpha=-0.75), c * star, scheme,
                       PositivityMap.ABSOLUTE, 64, TimeGrid.from_horizon(1.0, 0.05), 7)
    assert estimates[3] == alone
