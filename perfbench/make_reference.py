"""Regenerate perfbench/reference.json, the stored values the gates of
value_rho, affine_surface and cli_paths compare against.

    python3 perfbench/make_reference.py

Estimates come from job 0 of the default seed.  Run this only when the
computed quantity is meant to change, and record why with the change.
"""
from __future__ import annotations

import json
import math
import platform
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads as w  # noqa: E402


def main() -> int:
    seed = w.job_seed(w.DEFAULT_SEED, 0)
    ref = {"job_seed": seed, "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}

    inp = w.rho_inputs()
    est = w.run_value_rho(inp, seed, w.THREADS, False).data["est"]
    ref["value_rho"] = {"mean": est.mean, "se": est.std_error}
    # The finite Riccati solver ignores rho: record how far its value is
    # from the rho != 0 estimate, without gating on it.
    p, qm = inp["p"], inp["scheme"].qm
    vp, pb = w.solve_riccati_finite(qm, p, ode_step=w.ODE_STEP).at(p.horizon)
    affine = math.exp(pb + vp * p.z0)
    ref["rho_mismatch"] = {"rho": p.rho, "affine": affine, "mean": est.mean,
                           "gap_se": abs(est.mean - affine) / est.std_error}

    results = w.run_affine_surface(w.affine_inputs(), seed, 1, False).data["results"]
    ref["affine_surface"] = {k: v for k, (v, _) in sorted(results.items())}

    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        out = w.run_cli_paths(w.cli_inputs(Path(tmp)), seed, w.THREADS, False)
        if any(out.data["codes"].values()):
            raise SystemExit(f"CLI failed: {out.data['codes']}")
        _, summary = w.read_table(out.data["dir"] / "wealth" / "wealth_summary.csv",
                                  text_cols=("regime",))
        shutil.rmtree(out.data["dir"])
    ref["cli_paths"] = {"wealth": {
        f"{a:g}": {"mean": summary["mean_terminal"][i],
                   "se": math.sqrt(summary["var_terminal"][i] / summary["n_paths"][i])}
        for i, a in enumerate(summary["alpha"])}}

    w.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {w.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
