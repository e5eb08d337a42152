"""Optimal-wealth experiment: common-noise comparison of the Merton
fraction against perturbed constant strategies.

Besides the `wealth` subcommand outputs this prints a small table of
expected utilities at c * pi_star for a few multipliers c, estimated
with the same random numbers so the ordering is visible at moderate
path counts.
"""
import argparse
import json
import sys
import tempfile

from fracheston import (PositivityMap, Regime, TimeGrid, VolScheme,
                        default_params, measure_for_atoms, merton_ratio,
                        mc_utility)
from fracheston.cli import main
from fracheston.mc import REGIMES


def utility_table(alpha, n_paths, step, seed, threads):
    p = default_params(alpha=alpha)
    grid = TimeGrid.from_horizon(p.horizon, step)
    _, measure, quantized, _ = REGIMES[p.regime]
    scheme = VolScheme(quantized, qm=measure_for_atoms(64, alpha, measure))
    pmap = PositivityMap.ABSOLUTE if p.regime is Regime.ROUGH else PositivityMap.IDENTITY
    star = merton_ratio(p)
    print(f"alpha={alpha}  pi_star={star:.6f}")
    for c in (0.5, 0.8, 1.0, 1.2, 1.5):
        est = mc_utility(p, c * star, scheme, pmap, n_paths, grid, seed,
                         threads=threads)
        print(f"  c={c:>3}: utility={est.mean:.8e}  se={est.std_error:.2e}")


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out/wealth")
    ap.add_argument("--paths", type=int, default=20000)
    ap.add_argument("--step", type=float, default=0.005)
    ap.add_argument("--seed", type=int, default=20240801)
    ap.add_argument("--threads", type=int, default=4)
    args = ap.parse_args(argv)

    scenario = {"step": args.step, "n_paths": min(args.paths, 1000),
                "seed": args.seed}
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        json.dump(scenario, fh)
        fh.flush()
        rc = main(["--config", fh.name, "--out", args.out, "wealth"])
    for alpha in (0.75, -0.75):
        utility_table(alpha, args.paths, args.step, args.seed, args.threads)
    return rc


if __name__ == "__main__":
    sys.exit(run())
