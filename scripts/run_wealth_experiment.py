"""Expected utility of the Merton fraction against perturbed constant ones.

Prints, per alpha, the expected power utility of the constant fraction
c * pi_star for a few multipliers c.  Every c is a leg of one path map, so
all of them read the same paths and their ordering is visible at moderate
path counts.  The optimal-wealth paths come from the CLI:
`fracheston --config scenarios/wealth.json wealth`.

    python scripts/run_wealth_experiment.py --paths 20000 --threads 4
"""
import argparse
import sys

from fracheston import (McEstimate, PositivityMap, Regime, TimeGrid, VolScheme,
                        default_params, map_paths, measure_for_atoms, merton_ratio)
from fracheston.mc import REGIMES, _utility

MULTIPLIERS = (0.5, 0.8, 1.0, 1.2, 1.5)


def utility_table(alpha, n_paths, step, seed, threads):
    """pi_star and the McEstimate of the utility at each c * pi_star."""
    p = default_params(alpha=alpha)
    grid = TimeGrid.from_horizon(p.horizon, step)
    _, measure, quantized, _ = REGIMES[p.regime]
    scheme = VolScheme(quantized, qm=measure_for_atoms(64, alpha, measure))
    pmap = PositivityMap.ABSOLUTE if p.regime is Regime.ROUGH else PositivityMap.IDENTITY
    star = merton_ratio(p)
    legs = [(p, scheme, pmap, _utility(p, c * star, grid)) for c in MULTIPLIERS]
    return star, [McEstimate.of(v) for v in map_paths(legs, grid, seed, n_paths, threads)]


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paths", type=int, default=20000)
    ap.add_argument("--step", type=float, default=0.005)
    ap.add_argument("--seed", type=int, default=20240801)
    ap.add_argument("--threads", type=int, default=4)
    args = ap.parse_args(argv)
    for alpha in (0.75, -0.75):
        star, estimates = utility_table(alpha, args.paths, args.step, args.seed,
                                        args.threads)
        print(f"alpha={alpha}  pi_star={star:.6f}")
        for c, est in zip(MULTIPLIERS, estimates):
            print(f"  c={c:>3}: utility={est.mean:.8e}  se={est.std_error:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
