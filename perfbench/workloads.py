"""The benchmark's workloads: set-up, the timed run of one job, and the
accuracy gates applied to its output.

Every workload is a closed loop of jobs.  Job i draws its randomness from
`job_seed(seed, i)`, so a benchmark seed fixes the inputs of every job.
`run` is the timed part and calls only the library or its CLI; `check`
runs afterwards, untimed, and returns the list of gate failures.

Gates are set so that no seed misses them by chance, yet a wrong driving
measure (a shift of about 2%) fails them:

- value_xval: Feynman-Kac estimate vs the Riccati affine value, relative
  gap at most REL_TOL (the estimate's relative SE is about 1.3e-5 at 4096
  paths).  The rough leg uses criterion 06's max(3 SE, floor) with the
  floor lowered from 2% to REL_TOL, since 2% would let a 2% shift pass.
- value_rho and cli_paths: no affine oracle applies (the finite Riccati
  solver ignores rho), so estimates are compared with ones stored from
  the default seed, within K_SE combined standard errors.
- affine_surface: the alpha = 0 limit against the classical closed form
  (criterion 03) and every value against stored values.

Outputs are compared as parsed numbers, never as file bytes.
"""
from __future__ import annotations

import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from fracheston import (MeasureKind, PositivityMap, SchemeKind, TimeGrid,
                        VolScheme, default_params, load_config, mc_feynman_kac,
                        mc_value_rough, measure_for_atoms, merton_ratio,
                        solve_riccati_finite, solve_riccati_limit,
                        solve_riccati_rough, value_function)

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 20240801
THREADS = 2
N_PATHS = 4096
ODE_STEP = 1e-3
REL_TOL = 1e-3
K_SE = 5.0
AFFINE_REL_TOL = 1e-10
CLOSED_FORM_TOL = 1e-6
CLI_TIMEOUT_S = 150.0


def job_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


@dataclass
class RunOutput:
    """What the timed part of a job produced."""
    work: int                  # path or RK4 steps; cli_paths counts them from its outputs
    data: dict
    child_cpu_s: float = 0.0   # CPU of child processes (CLI jobs)
    child_rss_kb: int = 0      # largest child peak RSS (CLI jobs)


@dataclass
class CheckResult:
    failures: list
    extras: dict = field(default_factory=dict)   # rel_se, bytes_written


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str             # "path_steps" or "ode_steps"
    spawns: bool               # jobs run the CLI in child processes
    setup: Callable            # (out_dir) -> inputs
    run: Callable              # (inputs, seed, threads, in_process) -> RunOutput
    check: Callable            # (inputs, RunOutput) -> CheckResult


# ---------------------------------------------------------------- gates

def gate_finite(tag: str, *values) -> list:
    if all(math.isfinite(v) for v in values):
        return []
    return [f"{tag}: non-finite value in {values}"]


def gate_rel_gap(tag: str, estimate: float, affine: float,
                 tol: float = REL_TOL) -> list:
    gap = abs(estimate - affine)
    if gate_finite(tag, estimate, affine) or gap > tol * abs(affine):
        return [f"{tag}: |mc - affine| = {gap:.3e} > {tol:g} * |{affine:.6e}|"]
    return []


def gate_rough(tag: str, estimate: float, se: float, affine: float,
               tol: float = REL_TOL) -> list:
    gap = abs(estimate - affine)
    limit = max(3.0 * se, tol * abs(affine))
    if gate_finite(tag, estimate, se, affine) or gap > limit:
        return [f"{tag}: |mc - affine| = {gap:.3e} > max(3 SE, {tol:g} |affine|) = {limit:.3e}"]
    return []


def gate_stored(tag: str, estimate: float, se: float, ref_mean: float,
                ref_se: float, k: float = K_SE) -> list:
    gap = abs(estimate - ref_mean)
    limit = k * math.hypot(se, ref_se)
    if gate_finite(tag, estimate, se) or gap > limit:
        return [f"{tag}: |est - stored| = {gap:.3e} > {k:g} combined SE = {limit:.3e}"]
    return []


def gate_close(tag: str, value: float, ref: float, rel_tol: float) -> list:
    if gate_finite(tag, value) or abs(value - ref) > rel_tol * abs(ref):
        return [f"{tag}: {value!r} differs from stored {ref!r} by more than {rel_tol:g} relative"]
    return []


# ---------------------------------------------------------------- value_xval

XVAL_LEVELS = (64, 128, 256)


def setup_value_xval(out_dir: Path) -> dict:
    p = default_params(alpha=0.75)
    pr = default_params(alpha=-0.75, v0=3.0, z0=0.15)
    return {"p": p, "grid": TimeGrid.from_horizon(p.horizon, 1e-3),
            "pr": pr, "grid_rough": TimeGrid.from_horizon(pr.horizon, 2e-3)}


def run_value_xval(inp: dict, seed: int, threads: int, in_process: bool) -> RunOutput:
    """Quantize, solve the Riccati system and estimate by Monte Carlo, per
    level, as the CLI `value` command does; the quantization is part of the
    job so that the quantize layer is measured on a gated workload."""
    p, grid = inp["p"], inp["grid"]
    legs, work = [], 0
    for level in XVAL_LEVELS:
        qm = measure_for_atoms(level, p.alpha, MeasureKind.MU)
        vp, pb = solve_riccati_finite(qm, p, ode_step=ODE_STEP).at(p.horizon)
        est = mc_feynman_kac(p, VolScheme(SchemeKind.QUANTIZED_FRACTIONAL, qm=qm),
                             N_PATHS, grid, seed, threads)
        legs.append((f"fk[{qm.n_atoms} atoms]", est, math.exp(pb + vp * p.z0)))
        work += N_PATHS * grid.steps
    pr, grid_r = inp["pr"], inp["grid_rough"]
    qr = measure_for_atoms(128, pr.alpha, MeasureKind.MU_TILDE)
    affine = value_function(pr, solve_riccati_rough(qr, pr, ode_step=ODE_STEP)).value
    est = mc_value_rough(pr, qr, PositivityMap.IDENTITY, N_PATHS, grid_r, seed, threads)
    legs.append((f"rough[{qr.n_atoms} atoms]", est, affine))
    work += N_PATHS * grid_r.steps
    return RunOutput(work=work, data={"legs": legs})


def check_value_xval(inp: dict, out: RunOutput) -> CheckResult:
    failures, rel_se = [], []
    *fractional, (tag, est, affine) = out.data["legs"]
    for ftag, fest, faffine in fractional:
        failures += gate_rel_gap(ftag, fest.mean, faffine)
    failures += gate_rough(tag, est.mean, est.std_error, affine)
    for _, e, _ in out.data["legs"]:
        rel_se.append(e.std_error / abs(e.mean))
    return CheckResult(failures, {"mc.rel_se": statistics.median(rel_se)})


# ---------------------------------------------------------------- value_rho

def rho_inputs() -> dict:
    p = default_params(alpha=0.75, rho=-0.7)
    qm = measure_for_atoms(128, p.alpha, MeasureKind.MU)
    return {"p": p, "grid": TimeGrid.from_horizon(p.horizon, 1e-3),
            "scheme": VolScheme(SchemeKind.QUANTIZED_FRACTIONAL, qm=qm)}


def setup_value_rho(out_dir: Path) -> dict:
    return {**rho_inputs(), "ref": load_reference()["value_rho"]}


def run_value_rho(inp: dict, seed: int, threads: int, in_process: bool) -> RunOutput:
    est = mc_feynman_kac(inp["p"], inp["scheme"], N_PATHS, inp["grid"], seed, threads)
    return RunOutput(work=N_PATHS * inp["grid"].steps, data={"est": est})


def check_value_rho(inp: dict, out: RunOutput) -> CheckResult:
    est, ref = out.data["est"], inp["ref"]
    failures = gate_stored("fk_rho", est.mean, est.std_error, ref["mean"], ref["se"])
    return CheckResult(failures, {"mc.rel_se": est.std_error / abs(est.mean)})


# ---------------------------------------------------------------- affine_surface

LIMIT_ALPHAS = (0.0, 0.25, 0.5, 0.75)
FRACTIONAL_ALPHAS = (0.25, 0.5, 0.75, 0.95)
ROUGH_ALPHAS = (-0.55, -0.75, -0.95)
SURFACE_LEVELS = (64, 128, 256, 512)


def affine_cases() -> list:
    """(kind, alpha, level) of every solve in one affine_surface job."""
    return ([("limit", a, 0) for a in LIMIT_ALPHAS]
            + [("finite", a, n) for a in FRACTIONAL_ALPHAS for n in SURFACE_LEVELS]
            + [("rough", a, n) for a in ROUGH_ALPHAS for n in SURFACE_LEVELS])


def case_key(kind: str, alpha: float, level: int) -> str:
    return f"{kind}:{alpha:g}:{level}"


def heston_varphi(p) -> float:
    """Closed-form varphi(T) of the constant-forcing (classical Heston)
    Riccati equation at T = 1, as in criterion 03."""
    eta = p.derived().eta
    d = math.sqrt(p.kappa ** 2 - 2.0 * p.sigma ** 2 * eta)
    e = math.exp(d * p.horizon)
    return 2.0 * eta * (e - 1.0) / (e * (d + p.kappa) + (d - p.kappa))


def affine_inputs() -> dict:
    cases = affine_cases()
    return {"cases": cases, "params": {a: default_params(alpha=a) for _, a, _ in cases}}


def setup_affine_surface(out_dir: Path) -> dict:
    return {**affine_inputs(), "ref": load_reference()["affine_surface"]}


def run_affine_surface(inp: dict, seed: int, threads: int, in_process: bool) -> RunOutput:
    cases = inp["cases"]
    order = np.random.default_rng(seed).permutation(len(cases))
    results, work = {}, 0
    for i in order:
        kind, alpha, level = cases[i]
        p = inp["params"][alpha]
        if kind == "limit":
            sol = solve_riccati_limit(p, ode_step=ODE_STEP, alpha=alpha)
        elif kind == "finite":
            qm = measure_for_atoms(level, alpha, MeasureKind.MU)
            sol = solve_riccati_finite(qm, p, ode_step=ODE_STEP)
        else:
            qm = measure_for_atoms(level, alpha, MeasureKind.MU_TILDE)
            sol = solve_riccati_rough(qm, p, ode_step=ODE_STEP)
        work += len(sol.tau_grid) - 1 + int(sol.blow_up is not None)
        results[case_key(kind, alpha, level)] = (value_function(p, sol).value,
                                                 sol.at(p.horizon)[0])
    return RunOutput(work=work, data={"results": results})


def check_affine_surface(inp: dict, out: RunOutput) -> CheckResult:
    failures = []
    results, ref = out.data["results"], inp["ref"]
    for key, (value, _) in results.items():
        failures += gate_close(key, value, ref[key], AFFINE_REL_TOL)
    if set(results) != set(ref):
        failures.append(f"solved cases differ from the stored ones: "
                        f"{sorted(set(results) ^ set(ref))}")
    varphi0 = results[case_key("limit", 0.0, 0)][1]
    exact = heston_varphi(inp["params"][0.0])
    if not abs(varphi0 - exact) <= CLOSED_FORM_TOL:
        failures.append(f"alpha=0 varphi(T) {varphi0!r} vs closed form {exact!r}")
    return CheckResult(failures, {"mc.rel_se": 0.0})


# ---------------------------------------------------------------- cli_paths

# The scenario omits `atoms` and `schema_version`, and its alphas are the
# five that `wealth` uses, so planned changes to the scenario schema do not
# change the work done.
CLI_SCENARIO = {"alphas": [0.0, 0.5, 0.95, -0.75, -0.55],
                "rhos": [-0.7, 0.0, 0.7], "step": 1e-3,
                "n_paths": N_PATHS, "n_sample_paths": 8}
CLI_COMMANDS = ("simulate", "wealth")


def cli_inputs(out_dir: Path) -> dict:
    import fracheston.cli  # noqa: F401  (the cold import is part of set-up)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = out_dir / "cli_scenario.json"
    scenario.write_text(json.dumps(CLI_SCENARIO, indent=1) + "\n")
    return {"scenario": scenario, "out_dir": out_dir, "cfg": load_config(scenario)}


def setup_cli_paths(out_dir: Path) -> dict:
    return {**cli_inputs(out_dir), "ref": load_reference()["cli_paths"]}


def _run_child(argv: list, stderr_path: Path):
    """Run the CLI in a child process; (exit code, rusage of that child)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "fracheston.cli", *argv],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env)
    deadline = time.monotonic() + CLI_TIMEOUT_S
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_cli_paths(inp: dict, seed: int, threads: int, in_process: bool) -> RunOutput:
    run_dir = Path(tempfile.mkdtemp(prefix="cli-", dir=inp["out_dir"]))
    codes, cpu, rss = {}, 0.0, 0
    for cmd in CLI_COMMANDS:
        argv = ["--config", str(inp["scenario"]), "--out", str(run_dir / cmd),
                "--seed", str(seed), "--threads", str(threads), cmd]
        if in_process:
            from fracheston import cli
            codes[cmd] = cli.main(argv)
        else:
            codes[cmd], usage = _run_child(argv, run_dir / f"{cmd}.stderr")
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss)
    return RunOutput(work=0, data={"dir": run_dir, "codes": codes},
                     child_cpu_s=cpu, child_rss_kb=rss)


def read_table(path: Path, text_cols: tuple = ()) -> tuple:
    """(header, {column: float array or list of str}); raises ValueError on
    a cell that is not a number."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {}
    for j, name in enumerate(header):
        cells = [r[j] for r in body]
        cols[name] = cells if name in text_cols else np.array([float(c) for c in cells])
    return header, cols


def _check_table(tag: str, cols: dict) -> list:
    bad = [n for n, c in cols.items() if isinstance(c, np.ndarray) and not np.all(np.isfinite(c))]
    return [f"{tag}: non-finite values in columns {bad}"] if bad else []


def _check_manifest(tag: str, out: Path) -> tuple:
    """Files listed in manifest.csv must be exactly the CSVs written."""
    _, cols = read_table(out / "manifest.csv", text_cols=("file", "config_hash"))
    listed = set(cols["file"])
    written = {f.name for f in out.glob("*.csv")} - {"manifest.csv"}
    failures = []
    if listed != written:
        failures.append(f"{tag}: manifest lists {sorted(listed ^ written)} inconsistently")
    if len(set(cols["config_hash"])) != 1:
        failures.append(f"{tag}: manifest mixes config hashes")
    return sorted(listed), failures


def _sample_columns(cols: dict, prefix: str) -> list:
    """Per-path columns such as z0, z1, ... for prefix "z"."""
    return [n for n in cols if n.startswith(prefix) and n[len(prefix):].isdigit()]


def _check_path_columns(tag, cols, prefix, start, positive) -> list:
    failures = []
    for name in _sample_columns(cols, prefix):
        col = cols[name]
        if col[0] != start:
            failures.append(f"{tag}: {name} starts at {col[0]!r}, not {start!r}")
        if (np.any(col <= 0) if positive else np.any(col < 0)):
            failures.append(f"{tag}: {name} leaves its range")
    return failures


def _check_time(tag, cols, cfg) -> list:
    t = cols["t"]
    steps = round(cfg.horizon / cfg.step)
    if len(t) != steps + 1 or t[0] != 0.0 or abs(t[-1] - cfg.horizon) > 1e-9:
        return [f"{tag}: time column is not the {steps}-step grid"]
    return []


def check_cli_paths(inp: dict, out: RunOutput) -> CheckResult:
    try:
        return _check_cli_outputs(inp, out)
    finally:
        shutil.rmtree(out.data["dir"], ignore_errors=True)


def _check_cli_outputs(inp: dict, out: RunOutput) -> CheckResult:
    run_dir, cfg, ref = out.data["dir"], inp["cfg"], inp["ref"]
    failures = []
    for cmd, code in out.data["codes"].items():
        if code != 0:
            log = run_dir / f"{cmd}.stderr"
            tail = log.read_text(errors="replace")[-2000:] if log.exists() else ""
            failures.append(f"{cmd}: exit code {code}\n{tail}")
    if failures:
        return CheckResult(failures)
    steps = round(cfg.horizon / cfg.step)
    paths = 0
    files, f = _check_manifest("simulate", run_dir / "simulate")
    failures += f
    n_cells = len(cfg.alphas) * len(cfg.rhos)
    if sum(n.startswith("paths_") for n in files) != n_cells:
        failures.append(f"simulate: expected {n_cells} path files")
    for name in files:
        _, cols = read_table(run_dir / "simulate" / name)
        failures += _check_table(name, cols)
        if name.startswith("paths_"):
            failures += _check_time(name, cols, cfg)
            failures += _check_path_columns(name, cols, "z", cfg.z0, positive=False)
            failures += _check_path_columns(name, cols, "s", cfg.s0, positive=True)
            n = len(_sample_columns(cols, "z"))
            if n != cfg.n_sample_paths:
                failures.append(f"{name}: {n} sample paths, expected {cfg.n_sample_paths}")
            paths += n
        elif name.startswith("posmap_"):
            failures += _check_time(name, cols, cfg)
            if np.any(cols["nu_abs"] < 0) or np.any(cols["nu_exp"] <= 0):
                failures.append(f"{name}: positivity maps left their range")
            paths += 1
        elif name == "rough_diagnostics.csv":
            frac = cols["negative_fraction"]
            if np.any((frac < 0) | (frac > 1)):
                failures.append(f"{name}: negative fraction outside [0, 1]")

    files, f = _check_manifest("wealth", run_dir / "wealth")
    failures += f
    _, summary = read_table(run_dir / "wealth" / "wealth_summary.csv", text_cols=("regime",))
    failures += _check_table("wealth_summary.csv", summary)
    if list(summary["alpha"]) != [float(a) for a in CLI_SCENARIO["alphas"]]:
        failures.append(f"wealth_summary.csv: alphas {list(summary['alpha'])}")
        return CheckResult(failures)
    rel_se = []
    for i, alpha in enumerate(CLI_SCENARIO["alphas"]):
        tag = f"wealth[alpha={alpha:g}]"
        n = summary["n_paths"][i]
        mean = summary["mean_terminal"][i]
        se = math.sqrt(summary["var_terminal"][i] / n)
        if n != cfg.n_paths or summary["w0"][i] != cfg.w0:
            failures.append(f"{tag}: n_paths or w0 differ from the scenario")
        pi_star = merton_ratio(cfg.model_params(alpha, 0.0))
        if abs(summary["pi_star"][i] - pi_star) > 1e-12 * pi_star:
            failures.append(f"{tag}: pi_star {summary['pi_star'][i]!r} is not {pi_star!r}")
        stored = ref["wealth"][f"{alpha:g}"]
        failures += gate_stored(tag, mean, se, stored["mean"], stored["se"])
        rel_se.append(se / abs(mean))
        paths += int(n)
    for name in files:
        if not name.startswith("wealth_a"):
            continue
        _, cols = read_table(run_dir / "wealth" / name)
        failures += _check_table(name, cols)
        failures += _check_time(name, cols, cfg)
        failures += _check_path_columns(name, cols, "w", cfg.w0, positive=True)
        paths += len(_sample_columns(cols, "w"))
    out.work = paths * steps
    written = sum(f.stat().st_size for f in run_dir.rglob("*.csv"))
    return CheckResult(failures, {"mc.rel_se": statistics.median(rel_se),
                                  "cli.bytes_written": written})


WORKLOADS = {
    "value_xval": Workload("value_xval", "path_steps", False, setup_value_xval,
                           run_value_xval, check_value_xval),
    "value_rho": Workload("value_rho", "path_steps", False, setup_value_rho,
                          run_value_rho, check_value_rho),
    "affine_surface": Workload("affine_surface", "ode_steps", False, setup_affine_surface,
                               run_affine_surface, check_affine_surface),
    "cli_paths": Workload("cli_paths", "path_steps", True, setup_cli_paths,
                          run_cli_paths, check_cli_paths),
}
