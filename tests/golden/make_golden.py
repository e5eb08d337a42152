"""Golden outputs: what the CLI and the estimators print, checked in.

RUNS lists CLI runs (scenario, command, flags) and ESTIMATES lists
Monte Carlo estimates; tests/test_golden.py reruns both and compares them
with the files beside this script.  The CLI files of a run are the same
at --threads 1 and 2 (the CLI promises it), so each run is stored once
and the test checks both thread counts against it.

    PYTHONPATH=src:tests python tests/golden/make_golden.py

rewrites every golden file.  A rewrite is an output change: say why in
CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from fracheston import (MeasureKind, TimeGrid, default_params, mc_feynman_kac,
                        mc_utility, mc_value_rough, measure_for_atoms, merton_ratio)
from fracheston.cli import main
from fracheston.mc import Leg, map_paths
from fracheston.vol import PositivityMap, SchemeKind, VolScheme

HERE = Path(__file__).resolve().parent
RECORD = HERE / "golden.json"

# tests/test_cli.py's SMALL scenario
SMALL = {
    "alphas": [0.5, -0.75, 0],
    "rhos": [0.0, 0.7],
    "step": 0.02,
    "n_paths": 64,
    "n_sample_paths": 2,
    "levels": [8, 16],
    "seed": 7,
}
# the identity map meets a negative rough nu on paths 163 and 190 only at
# level 8 (one row block of the 300), and in every block at level 16
ONE_BLOCK_FAILS = {**SMALL, "rhos": [0.0], "v0": 0.1, "n_paths": 300,
                   "positivity_map": "identity"}

# name -> (scenario, command, extra flags); each runs at --threads 1 and 2
RUNS = {
    **{f"small_{cmd}": (SMALL, cmd, ()) for cmd in
       ("simulate", "quantize", "value", "wealth", "longterm", "converge")},
    # more paths than one batch, so a batch boundary and the workers' split
    # are covered (three 1024-path CIR batches); a literal, so that a new
    # batch width can move this run's bits but not its input
    "value_two_batches": (SMALL, "value", ("--paths", "2100")),
    "wealth_no_sample_paths": ({**SMALL, "n_sample_paths": 0}, "wealth", ()),
    "value_one_block_fails": (ONE_BLOCK_FAILS, "value", ()),
    # a nonzero v0 and a delta inside alpha = -0.75's window (0.25, 0.5),
    # so the direct schemes' v0 and delta reach the outputs
    "wealth_v0_delta": ({**SMALL, "v0": 0.02, "delta": 0.3}, "wealth", ()),
}
THREADS = (1, 2)

# rho = -0.7 Feynman-Kac estimates sized to reach each branch of
# sim._serial_matmul: name -> (target atoms, paths).  At 142 atoms a
# 2048-path batch's Z-tilde GEMMs are split into serial column chunks; a
# ragged 2047-path second batch and 574 atoms keep them one pooled call.
GEMM_CASES = {
    "feynman_kac_142x4096_split": (128, 4096),
    "feynman_kac_142x4095_ragged": (128, 4095),
    "feynman_kac_574x4096_pooled": (512, 4096),
}
GEMM_GRID = TimeGrid.from_horizon(1.0, 5e-3)


def platform_fingerprint() -> str:
    """numpy version, SIMD targets and BLAS: what the bit-for-bit pins rest
    on (numpy's exp kernels, pocketfft and the BLAS kernels: the Riccati
    ddot and the Z-tilde dgemms; the Z-tilde per-step dot never reaches
    BLAS, since numpy sums its reversed view in its own loop)."""
    line = f"numpy {np.__version__}"
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints its configuration only
        return line
    simd = info.get("SIMD Extensions", {})
    blas = info.get("Build Dependencies", {}).get("blas", {})
    found = simd.get("found", [])
    return (f"{line}; SIMD baseline {' '.join(simd.get('baseline', []))}, "
            f"found {' '.join(found) if found else 'none'}; "
            f"BLAS {blas.get('name', '?')} {blas.get('version', '?')}")


def run_cli(name: str, threads: int, work_dir: Path) -> tuple:
    """(exit code, stderr, {file name: bytes}) of one RUNS entry."""
    scenario, command, extra = RUNS[name]
    cfg = work_dir / f"{name}.json"
    cfg.write_text(json.dumps(scenario))
    out = work_dir / f"{name}_t{threads}"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(cfg), "--out", str(out), "--threads",
                     str(threads), *extra, command])
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    return code, err.getvalue(), files


def _gemm_cases():
    """(name, params, quantized scheme, paths) of each GEMM_CASES entry."""
    p = default_params(rho=-0.7)
    for name, (atoms, n) in GEMM_CASES.items():
        qm = measure_for_atoms(atoms, 0.75, MeasureKind.MU)
        yield name, p, VolScheme(SchemeKind.QUANTIZED_FRACTIONAL, qm=qm), n


def gemm_estimates(threads: int = 1) -> dict:
    """The GEMM_CASES estimates, on a coarser grid than _estimates'."""
    return {name: mc_feynman_kac(p, scheme, n, GEMM_GRID, 11, threads)
            for name, p, scheme, n in _gemm_cases()}


def gemm_digests(threads: int = 1) -> dict:
    """name -> sha256 of each GEMM_CASES run's Z-tilde nu paths.

    An estimate can hide a moved last bit of the GEMMs: nu enters it as
    exp(eta/c h sum(nu)), with eta/c h about -3e-4 here.  The digests see
    every bit.  nu is enough: every GEMM bit reaches it, and each Z-tilde
    step is elementwise in the previous Z-tilde, nu and dBz, so equal nu
    means equal Z-tilde (which a Z-tilde map does not keep).  They are not
    recorded, only compared across BLAS and worker thread counts."""
    out = {}
    for name, p, scheme, n in _gemm_cases():
        leg = Leg(p, scheme, None, lambda dBs, z, nu: nu.copy(), tilde=True)
        paths, = map_paths([leg], GEMM_GRID, 11, n, threads)
        out[name] = hashlib.sha256(paths.tobytes()).hexdigest()
    return out


def _estimates() -> dict:
    grid = TimeGrid.from_horizon(1.0, 0.02)
    n, seed = 300, 11  # 300 paths: full row blocks and a ragged one
    qm = measure_for_atoms(16, 0.75, MeasureKind.MU)
    quantized = VolScheme(SchemeKind.QUANTIZED_FRACTIONAL, qm=qm)
    out = {}
    for rho in (-0.7, 0.0, 0.7):
        out[f"feynman_kac_rho{rho:g}"] = mc_feynman_kac(
            default_params(rho=rho), quantized, n, grid, seed)
    p = default_params(rho=-0.7)
    out["utility_rho-0.7"] = mc_utility(p, merton_ratio(p), quantized,
                                        PositivityMap.IDENTITY, n, grid, seed)
    out["value_rough"] = mc_value_rough(
        default_params(alpha=-0.75),
        measure_for_atoms(16, -0.75, MeasureKind.MU_TILDE),
        PositivityMap.ABSOLUTE, n, grid, seed)
    return {**out, **gemm_estimates()}


def estimates(ests: dict) -> dict:
    """name -> [mean, std_error] as 17-digit strings, and n_paths, of the
    _estimates() ests."""
    return {name: ["%.17g" % e.mean, "%.17g" % e.std_error, e.n_paths]
            for name, e in ests.items()}


def main_golden() -> None:
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            results = [run_cli(name, t, Path(tmp)) for t in THREADS]
            if any(r != results[0] for r in results):
                raise SystemExit(f"{name}: output differs across --threads")
            code, err, files = results[0]
            target = HERE / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir()
            for fname, data in files.items():
                (target / fname).write_bytes(data)
            runs[name] = {"exit": code, "stderr": err, "files": sorted(files)}
    record = {"fingerprint": platform_fingerprint(), "runs": runs,
              "estimates": estimates(_estimates())}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main_golden()
