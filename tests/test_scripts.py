"""Smoke tests for the experiment drivers in scripts/: each runs through its
run(argv) entry point on a tiny scenario and must exit cleanly."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

TINY_ARGS = {
    "run_paths": ["--n-sample-paths", "2", "--step", "0.05",
                  "--alphas", "0.5", "-0.75", "--rhos", "0.0", "0.7"],
    "run_value_convergence": ["--levels", "8", "16", "--paths", "64",
                              "--step", "0.05", "--threads", "1"],
    "run_wealth_experiment": ["--paths", "64", "--step", "0.05",
                              "--threads", "1"],
}


def test_every_script_is_covered():
    assert {p.stem for p in SCRIPTS.glob("*.py")} == set(TINY_ARGS)


@pytest.mark.parametrize("name", sorted(TINY_ARGS))
def test_script_runs(name, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "out"
    assert module.run(["--out", str(out), *TINY_ARGS[name]]) == 0
    listed = (out / "manifest.csv").read_text().splitlines()[1:]
    assert listed
    assert {ln.split(",")[0] for ln in listed} <= {f.name for f in out.iterdir()}
