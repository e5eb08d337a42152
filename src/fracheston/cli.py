"""Command-line scenario runner.

Subcommands write CSV reports into the output directory, plus a
manifest.csv listing every file with the configuration hash.  The alphas,
levels or rows a command simulates are the legs of shared draws (mc legs).
Each CSV row is one % format built from its cell types: strings as they
are, integers in decimal, other numbers with 17 significant digits, so a
rerun with the same seed and config is byte-identical for any --threads.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, file_tag, load_config
from .mc import (ConvergenceRow, McEstimate, convergence_study, feynman_kac_leg,
                 map_paths, path_batch)
from .params import ModelParams, Regime, merton_ratio
from .quantize import MeasureKind, dyadic_chain, measure_for_atoms
from .riccati import (RiccatiBlowUp, solve_riccati_finite, solve_riccati_limit,
                      solve_riccati_rough, value_function)
# brownian_batch is not called here: perfbench/test_gates.py checks the
# tracer's rebinding on fracheston.cli.brownian_batch
from .sim import (TimeGrid, brownian_batch, simulate_stock,  # noqa: F401
                  simulate_wealth, terminal_wealth)
from .vol import PositivityMap, SchemeKind, VolScheme, apply_positivity

FMT = "%.17g"


def _cell_format(cls: type) -> str:
    if issubclass(cls, str):
        return "%s"
    if issubclass(cls, (int, np.integer)):  # bool included
        return "%d"
    return FMT


def _write_csv(path: Path, header: list, rows) -> None:
    """One line per row, each formatted by a single % format built from the
    row's cell types: str as is, integers (bool and np.integer included) in
    decimal, every other number with FMT."""
    formats = {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            types = tuple(map(type, row))
            fmt = formats.get(types)
            if fmt is None:
                fmt = formats[types] = ",".join(map(_cell_format, types)) + "\n"
            fh.write(fmt % row)


def _write_manifest(out_dir: Path, files: list, cfg: ScenarioConfig) -> None:
    h = cfg.config_hash()
    _write_csv(out_dir / "manifest.csv", ["file", "config_hash"],
               [(f, h) for f in sorted(files)])


def _scheme_for(p: ModelParams, cfg: ScenarioConfig) -> VolScheme:
    if p.regime is Regime.CLASSICAL_HESTON:
        return VolScheme(SchemeKind.CLASSICAL)
    if p.regime is Regime.FRACTIONAL:
        return VolScheme(SchemeKind.FRACTIONAL_EULER)
    return VolScheme(SchemeKind.ROUGH_MARCHAUD, delta=cfg.delta)


def _stock_map(p: ModelParams, cfg: ScenarioConfig) -> PositivityMap:
    if p.regime is Regime.ROUGH:
        return PositivityMap(cfg.positivity_map)
    return PositivityMap.IDENTITY


def _whole(dBs, z, nu):
    return dBs, z, nu


def cmd_simulate(cfg: ScenarioConfig, out_dir: Path) -> list:
    """Sample paths of Z, nu and S per (alpha, rho) cell, plus positivity
    diagnostics for rough alphas.  The alphas at one rho are the legs of
    one draw.  nu is built from Z and Z from dBz alone, so neither depends
    on rho: each rough alpha's posmap file reads path 0 of the first rho's
    draw, which has at least one path.  Every table is built before the
    first file is written, so a failing cell leaves no partial output."""
    grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
    tables = []  # (file name, header, rows)
    diags = [[] for _ in cfg.alphas]  # rough diagnostics rows per alpha
    npaths = cfg.n_sample_paths
    for rho in cfg.rhos:
        ps = [cfg.model_params(alpha, rho) for alpha in cfg.alphas]
        cells = path_batch([(p, _scheme_for(p, cfg), None, _whole) for p in ps],
                           grid, cfg.seed, 0, max(npaths, 1))
        for alpha, p, (dBs, z, nu), diag in zip(cfg.alphas, ps, cells, diags):
            rough = p.regime is Regime.ROUGH
            if rough and rho == cfg.rhos[0]:
                tables.append((f"posmap_a{file_tag(alpha)}.csv",
                               ["t", "nu_raw", "nu_abs", "nu_exp"],
                               zip(grid.times, nu[0], np.abs(nu[0]), np.exp(nu[0]))))
            z, nu = z[:npaths], nu[:npaths]
            s = simulate_stock(apply_positivity(nu, _stock_map(p, cfg)),
                               grid, dBs[:npaths], p, s0=cfg.s0)
            header = ["t"]
            cols = [grid.times]
            for i in range(npaths):
                header += [f"z{i}", f"nu{i}", f"s{i}"]
                cols += [z[i], nu[i], s[i]]
            tables.append((f"paths_a{file_tag(alpha)}_r{file_tag(rho)}.csv",
                           header, zip(*cols)))
            if rough:
                diag += [(alpha, rho, i, float(np.mean(nu[i] < 0.0)))
                         for i in range(npaths)]
    diag_rows = [row for diag in diags for row in diag]
    if diag_rows:
        tables.append(("rough_diagnostics.csv",
                       ["alpha", "rho", "path", "negative_fraction"], diag_rows))
    for name, header, rows in tables:
        _write_csv(out_dir / name, header, rows)
    return [name for name, _, _ in tables]


def cmd_quantize(cfg: ScenarioConfig, out_dir: Path) -> list:
    """Quantized measures (atoms and weights) per alpha and refinement level."""
    files = []
    for alpha in cfg.alphas:
        p = cfg.model_params(alpha, 0.0)
        if p.regime is Regime.CLASSICAL_HESTON:
            continue
        kind = MeasureKind.MU if p.regime is Regime.FRACTIONAL else MeasureKind.MU_TILDE
        for n in cfg.levels:
            qm = measure_for_atoms(n, alpha, kind)
            pts = qm.source.points
            name = f"quantized_a{file_tag(alpha)}_n{qm.n_atoms}.csv"
            _write_csv(out_dir / name, ["index", "xi_lo", "xi_hi", "node", "weight"],
                       zip(range(qm.n_atoms), pts[:-1], pts[1:], qm.nodes, qm.weights))
            files.append(name)
    return files


def _guarded(leg, failures: list) -> tuple:
    """leg with its positivity map moved into the integrand: a rejected batch
    yields NaN and records in failures the error, minus its path-holding traceback."""
    p, scheme, pos_map, integrand = leg

    def run(dBs, z, nu):
        try:
            nu = apply_positivity(nu, pos_map)
        except ValueError as exc:
            failures.append(exc.with_traceback(None))
            return np.full(len(z), math.nan)
        return integrand(dBs, z, nu)

    return p, scheme, None, run


def cmd_value(cfg: ScenarioConfig, out_dir: Path, errors: list) -> list:
    """Affine (Riccati) value vs Monte Carlo value per alpha at rho = 0, each
    row's Feynman-Kac estimate a leg of one map.  Failing rows are reported
    in row order; a positivity failure beats a Riccati blow-up."""
    grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
    cases, legs = [], []  # (p, alpha, level, solution, failures, k)
    for alpha in cfg.alphas:
        p = cfg.model_params(alpha, 0.0)
        wfac = p.w0 ** p.gamma / p.gamma
        # the rough leg carries the wealth factor, as in mc_value_rough
        scale, k = (wfac, 1.0) if p.regime is Regime.ROUGH else (1.0, wfac)
        # levels are irrelevant without a quantized measure
        for level in cfg.levels[:1] if p.regime is Regime.CLASSICAL_HESTON else cfg.levels:
            try:
                if p.regime is Regime.FRACTIONAL:
                    qm = measure_for_atoms(level, alpha, MeasureKind.MU)
                    sol = solve_riccati_finite(qm, p, ode_step=cfg.step)
                    scheme = VolScheme(SchemeKind.QUANTIZED_FRACTIONAL, qm=qm)
                elif p.regime is Regime.ROUGH:
                    qm = measure_for_atoms(level, alpha, MeasureKind.MU_TILDE)
                    sol = solve_riccati_rough(qm, p, ode_step=cfg.step)
                    scheme = VolScheme(SchemeKind.QUANTIZED_ROUGH, qm=qm)
                else:
                    sol = solve_riccati_limit(p, ode_step=cfg.step, alpha=0.0)
                    scheme = VolScheme(SchemeKind.CLASSICAL)
                failures = []
                legs.append(_guarded(feynman_kac_leg(
                    p, scheme, grid, _stock_map(p, cfg), scale), failures))
                cases.append((p, alpha, level, sol, failures, k))
            except Exception as exc:  # noqa: BLE001 - reported with its row
                cases.append((p, alpha, level, None, [exc], k))
    outs = iter(map_paths(legs, grid, cfg.seed, cfg.n_paths, cfg.threads,
                          draw_dBs=False) if legs else ())
    rows = []
    for p, alpha, level, sol, failures, k in cases:
        try:
            values = None if sol is None else next(outs)  # a set-up error has no leg
            if failures:
                raise failures[0]
            est = McEstimate.of(values)
            rv = value_function(p, sol).value
            rows.append((p.regime.value, alpha, level, rv, k * est.mean,
                         abs(k) * est.std_error, rv - k * est.mean, 0))
        except RiccatiBlowUp:
            rows.append((p.regime.value, alpha, level) + (math.nan,) * 4 + (1,))
        except Exception as exc:  # noqa: BLE001 - per-row failure report
            errors.append(f"value row alpha={alpha} level={level}: {exc}")
    _write_csv(out_dir / "value.csv",
               ["regime", "alpha", "level", "riccati_value", "mc_value",
                "se", "gap", "blow_up"], rows)
    return ["value.csv"]


def _alpha_legs(cfg: ScenarioConfig, functional) -> list:
    """One path_batch leg per scenario alpha at rho = 0: that alpha's scheme
    and positivity map, with integrand functional(p)."""
    ps = [cfg.model_params(alpha, 0.0) for alpha in cfg.alphas]
    return [(p, _scheme_for(p, cfg), _stock_map(p, cfg), functional(p)) for p in ps]


def cmd_wealth(cfg: ScenarioConfig, out_dir: Path) -> list:
    """Optimal-wealth sample paths and terminal-wealth statistics per alpha,
    every alpha on one shared draw."""
    grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)

    def wealth(p):
        return lambda dBs, z, nu: simulate_wealth(merton_ratio(p), nu, grid, dBs, p)

    def terminal(p):
        return lambda dBs, z, nu: terminal_wealth(merton_ratio(p), nu, grid, dBs, p)

    legs = _alpha_legs(cfg, terminal)
    samples = path_batch(_alpha_legs(cfg, wealth), grid, cfg.seed, 0,
                         cfg.n_sample_paths)
    terminals = map_paths(legs, grid, cfg.seed, cfg.n_paths, cfg.threads)
    files, summary = [], []
    for alpha, (p, *_), w, wt in zip(cfg.alphas, legs, samples, terminals):
        pi_star = merton_ratio(p)
        header = ["t", "pi_star"] + [f"w{i}" for i in range(cfg.n_sample_paths)]
        cols = [grid.times, np.full(grid.steps + 1, pi_star)] + list(w)
        name = f"wealth_a{file_tag(alpha)}.csv"
        _write_csv(out_dir / name, header, zip(*cols))
        files.append(name)
        summary.append((p.regime.value, alpha, pi_star, p.w0,
                        math.fsum(wt) / len(wt),
                        float(np.var(wt, ddof=1)), len(wt)))
    _write_csv(out_dir / "wealth_summary.csv",
               ["regime", "alpha", "pi_star", "w0", "mean_terminal",
                "var_terminal", "n_paths"], summary)
    files.append("wealth_summary.csv")
    return files


def cmd_longterm(cfg: ScenarioConfig, out_dir: Path) -> list:
    """Terminal nu and S quantiles at the scenario horizon, per alpha, every
    alpha on one shared draw."""
    grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)

    def terminal(p):
        def nu_s(dBs, z, nu):
            s = simulate_stock(nu, grid, dBs, p, s0=cfg.s0)
            return np.stack([nu[..., -1], s[..., -1]], axis=-1)
        return nu_s

    legs = _alpha_legs(cfg, terminal)
    terms = map_paths(legs, grid, cfg.seed, cfg.n_paths, cfg.threads)
    rows = []
    for alpha, (p, *_), term in zip(cfg.alphas, legs, terms):
        for q in qs:
            rows.append((p.regime.value, alpha, cfg.horizon, q,
                         float(np.quantile(term[:, 0], q)),
                         float(np.quantile(term[:, 1], q))))
    _write_csv(out_dir / "longterm.csv",
               ["regime", "alpha", "horizon", "quantile", "nu_T", "s_T"], rows)
    return ["longterm.csv"]


def _converge_alpha(cfg: ScenarioConfig) -> float:
    """The first fractional scenario alpha, which the convergence study runs at."""
    for a in cfg.alphas:
        if cfg.model_params(a, 0.0).regime is Regime.FRACTIONAL:
            return a
    raise ValueError("converge needs a fractional alpha (0 < alpha < 1) in alphas")


def cmd_converge(cfg: ScenarioConfig, out_dir: Path) -> list:
    """Refinement-level convergence report in the fractional regime."""
    alpha = _converge_alpha(cfg)
    p = cfg.model_params(alpha, 0.0)
    grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
    base = measure_for_atoms(cfg.levels[0], alpha, MeasureKind.MU)
    qms = dyadic_chain(base.n_atoms, alpha, MeasureKind.MU, len(cfg.levels))
    rows = convergence_study(p, qms, cfg.n_paths, grid, cfg.seed, cfg.threads)
    _write_csv(out_dir / "converge.csv",
               [f.name for f in dataclasses.fields(ConvergenceRow)],
               map(dataclasses.astuple, rows))
    return ["converge.csv"]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracheston",
        description="Portfolio optimization in fractional and rough Heston "
                    "models: simulation, quantization, affine values, and "
                    "Monte Carlo cross-validation, reported as CSV.")
    ap.add_argument("--config", type=str, default=None,
                    help="JSON scenario config (versioned schema)")
    ap.add_argument("--seed", type=int, default=None, help="master RNG seed")
    ap.add_argument("--out", dest="out_dir", type=str, default=None,
                    help="output directory")
    ap.add_argument("--threads", type=int, default=None,
                    help="worker threads for Monte Carlo batches")
    ap.add_argument("--paths", dest="n_paths", type=int, default=None,
                    help="Monte Carlo paths")
    ap.add_argument("--step", type=float, default=None, help="time step h")
    ap.add_argument("command",
                    choices=["simulate", "quantize", "value", "wealth",
                             "longterm", "converge"])
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ScenarioConfig()
        # every other flag's dest is the ScenarioConfig field it overrides
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("config", "command") and v is not None}
        if overrides:
            cfg = cfg.with_(**overrides)
        if args.command == "converge":
            _converge_alpha(cfg)
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(cfg.out_dir)
    errors: list = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            files = cmd_simulate(cfg, out_dir)
        elif args.command == "quantize":
            files = cmd_quantize(cfg, out_dir)
        elif args.command == "value":
            files = cmd_value(cfg, out_dir, errors)
        elif args.command == "wealth":
            files = cmd_wealth(cfg, out_dir)
        elif args.command == "longterm":
            files = cmd_longterm(cfg, out_dir)
        else:
            files = cmd_converge(cfg, out_dir)
    except OSError as exc:
        print(f"i/o error ({args.command}): {exc}", file=sys.stderr)
        return 1
    except (ValueError, RiccatiBlowUp) as exc:
        print(f"run error ({args.command}): {exc}", file=sys.stderr)
        return 1
    _write_manifest(out_dir, files, cfg)
    for msg in errors:
        print(f"row failed: {msg}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
