"""Command-line scenario runner.

Each subcommand returns its CSV reports as (file name, header, rows)
tables; main writes them into the output directory, then a manifest.csv
listing every file with the configuration hash.  A manifest.csv already
there that lists a file this run does not write (another command's
output) is an i/o error (exit 1) before any file is written.  A command
builds all its tables before the first file is written, so a run error
(exit 1) writes no file.  main writes every table or none
(_write_tables), so an i/o error (exit 1) leaves the files already there
as they were.  An inf or a nan in a simulate, wealth, longterm or
converge table is a run error naming the file, and one in a value row
that did not blow up fails that row; the NaNs of value.csv (a blown-up
row) and converge.csv (the last level's gap) are documented outputs.
Every non-finite number is one of these, so main runs with numpy's
floating-point warnings off, in mc's worker threads too.  The
alphas, levels or rows a command simulates are the legs of shared draws
(mc legs).
Each CSV row is one % format built from its cell types: strings as they
are, integers in decimal, other numbers with 17 significant digits, so a
rerun with the same seed and config is byte-identical for any --threads.
Every quantized measure a command reads is built at load, with the
config, before the output directory is made: a bad field, or a level
whose measure cannot be built, is a config error (exit 2) that writes
nothing.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, file_tag, load_config
from .mc import (REGIMES, ConvergenceRow, Leg, McEstimate, convergence_study,
                 feynman_kac_leg, map_paths)
from .params import ModelParams, Regime, merton_ratio
from .quantize import MeasureKind, atom_count, dyadic_chain, measure_for_atoms
from .riccati import RiccatiBlowUp, value_function
from .sim import (TimeGrid, brownian_batch, simulate_stock, simulate_wealth,
                  terminal_wealth)
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


def _write_tables(out_dir: Path, tables: list) -> None:
    """Write every (file name, header, rows) table into out_dir, or none.
    A name already there that is not a regular file (a directory, say) is
    an OSError before any file is written.  Each table is written to a
    temporary name in out_dir, and all are renamed to their own names only
    once every write has succeeded; on an error the temporaries are
    removed, so the files already there are left as they were."""
    for name, _, _ in tables:
        path = out_dir / name
        if path.exists() and not path.is_file():
            raise OSError(f"{path}: exists and is not a regular file")
    temps = []
    try:
        for name, header, rows in tables:
            temp = out_dir / f".{name}.{os.getpid()}.tmp"
            temp.touch(exist_ok=False)  # ours alone, so ours to remove
            temps.append(temp)
            _write_csv(temp, header, rows)
        for temp, (name, _, _) in zip(temps, tables):
            os.replace(temp, out_dir / name)
    finally:
        for temp in temps:  # a renamed one is gone already
            temp.unlink(missing_ok=True)


def _check_finite(name: str, values) -> None:
    """A ValueError naming file name if values hold an inf or a nan: the
    model overflowed, and the file would print it as a number."""
    if not np.isfinite(values).all():
        raise ValueError(f"{name}: inf or nan in the output")


def _scheme_for(p: ModelParams, cfg: ScenarioConfig) -> VolScheme:
    return VolScheme(REGIMES[p.regime].direct, delta=cfg.delta)


def _stock_map(p: ModelParams, cfg: ScenarioConfig) -> PositivityMap:
    if p.regime is Regime.ROUGH:
        return PositivityMap(cfg.positivity_map)
    return PositivityMap.IDENTITY


def cmd_simulate(cfg: ScenarioConfig) -> list:
    """Sample paths of Z, nu and S per (alpha, rho) cell, plus positivity
    diagnostics for rough alphas.  Z is driven by dBz alone and nu is
    built from Z, so neither depends on rho: one map at rho = 0, over at
    least one path, returns every alpha's nu and Z as tilde legs, which
    there run on the physical CIR and draw no dBs.  Only S reads rho,
    through that rho's dBs, drawn once by brownian_batch with the bits a
    map leg gets.  Each rough alpha's posmap file reads path 0, and t,
    every z_i and every alpha's nu_i are formatted once for all the files
    that hold them."""
    grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
    npaths = cfg.n_sample_paths

    def text(col: np.ndarray) -> list:  # its cells as _write_csv formats them
        fmt = _cell_format(col.dtype.type)
        return [fmt % v for v in col.tolist()]

    ps = [cfg.model_params(alpha, 0.0) for alpha in cfg.alphas]
    *nus, z = map_paths(
        [Leg(p, _scheme_for(p, cfg), None, lambda dBs, z, nu: nu, tilde=True) for p in ps]
        + [Leg(ps[0], VolScheme(SchemeKind.CLASSICAL), None, lambda dBs, z, nu: z,
               tilde=True)],
        grid, cfg.seed, max(npaths, 1), cfg.threads)
    dBss = [brownian_batch(cfg.seed, range(npaths), grid, rho)[1] for rho in cfg.rhos]
    z = z[:npaths]
    t = text(grid.times)
    z_texts = list(map(text, z))
    header = ["t"] + [f"{c}{i}" for i in range(npaths) for c in ("z", "nu", "s")]
    tables, diag_rows = [], []  # (file name, header, rows); rough diagnostics
    for alpha, p, nu in zip(cfg.alphas, ps, nus):
        rough = p.regime is Regime.ROUGH
        if rough:
            name = f"posmap_a{file_tag(alpha)}.csv"
            cols = [grid.times, nu[0], np.abs(nu[0]), np.exp(nu[0])]
            _check_finite(name, cols)
            tables.append((name, ["t", "nu_raw", "nu_abs", "nu_exp"],
                           zip(*map(text, cols))))
        nu = nu[:npaths]
        nu_texts = list(map(text, nu))
        stock_nu = apply_positivity(nu, _stock_map(p, cfg))
        for rho, dBs in zip(cfg.rhos, dBss):
            s = simulate_stock(stock_nu, grid, dBs, cfg.model_params(alpha, rho),
                               s0=cfg.s0)
            name = f"paths_a{file_tag(alpha)}_r{file_tag(rho)}.csv"
            _check_finite(name, [z, nu, s])
            cols = [t] + [col for i in range(npaths)
                          for col in (z_texts[i], nu_texts[i], text(s[i]))]
            tables.append((name, header, zip(*cols)))
            if rough:
                diag_rows += [(alpha, rho, i, float(np.mean(nu[i] < 0.0)))
                              for i in range(npaths)]
    if diag_rows:
        tables.append(("rough_diagnostics.csv",
                       ["alpha", "rho", "path", "negative_fraction"], diag_rows))
    return tables


def cmd_quantize(measures: dict) -> list:
    """Quantized measures (atoms and weights) per alpha and refinement level,
    as _measures built them; a classical alpha has none."""
    return [(f"quantized_a{file_tag(alpha)}_n{qm.n_atoms}.csv",
             ["index", "xi_lo", "xi_hi", "node", "weight"],
             zip(range(qm.n_atoms), qm.points[:-1], qm.points[1:],
                 qm.nodes, qm.weights))
            for (alpha, _), qm in measures.items() if qm is not None]


def _guarded(leg, failures: list):
    """leg (an mc Leg) with its positivity map moved into the integrand, its
    measure kept: a rejected block yields NaN and records in failures the
    error, minus its path-holding traceback."""
    def run(dBs, z, nu):
        try:
            nu = apply_positivity(nu, leg.pos_map)
        except ValueError as exc:
            failures.append(exc.with_traceback(None))
            return np.full(len(nu), math.nan)
        return leg.integrand(dBs, z, nu)

    return leg._replace(pos_map=None, integrand=run)


def cmd_value(cfg: ScenarioConfig, measures: dict, errors: list) -> list:
    """Affine (Riccati) value vs Monte Carlo value per (alpha, level) cell of
    measures at rho = 0, each row's Feynman-Kac estimate a leg of one map.
    A row's Riccati system is solved with its row, so its failure fails that
    row only, and so does an inf or a nan in a row that did not blow up.
    Failing rows are reported in row order; a positivity failure beats a
    Riccati blow-up."""
    grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
    cases, legs = [], []  # (p, alpha, level, qm, failures, k)
    for (alpha, level), qm in measures.items():
        p = cfg.model_params(alpha, 0.0)
        wfac = p.w0 ** p.gamma / p.gamma
        # the rough leg carries the wealth factor, as in mc_value_rough
        scale, k = (wfac, 1.0) if p.regime is Regime.ROUGH else (1.0, wfac)
        scheme = VolScheme(REGIMES[p.regime].quantized, qm=qm)
        failures = []
        legs.append(_guarded(feynman_kac_leg(
            p, scheme, grid, _stock_map(p, cfg), scale), failures))
        cases.append((p, alpha, level, qm, failures, k))
    rows = []
    outs = map_paths(legs, grid, cfg.seed, cfg.n_paths, cfg.threads)
    for (p, alpha, level, qm, failures, k), values in zip(cases, outs):
        try:
            if failures:
                raise failures[0]
            est = McEstimate.of(values)
            rv = value_function(p, REGIMES[p.regime].riccati(qm, p, cfg.step)).value
            numbers = (rv, k * est.mean, abs(k) * est.std_error, rv - k * est.mean)
            _check_finite("value.csv", numbers)
            rows.append((p.regime.value, alpha, level) + numbers + (0,))
        except RiccatiBlowUp:
            rows.append((p.regime.value, alpha, level) + (math.nan,) * 4 + (1,))
        except Exception as exc:  # noqa: BLE001 - per-row failure report
            errors.append(f"value row alpha={alpha} level={level}: {exc}")
    return [("value.csv", ["regime", "alpha", "level", "riccati_value", "mc_value",
                           "se", "gap", "blow_up"], rows)]


def _alpha_legs(cfg: ScenarioConfig, functional) -> list:
    """One map_paths leg per scenario alpha at rho = 0: that alpha's scheme
    and positivity map, with integrand functional(p)."""
    ps = [cfg.model_params(alpha, 0.0) for alpha in cfg.alphas]
    return [(p, _scheme_for(p, cfg), _stock_map(p, cfg), functional(p)) for p in ps]


def cmd_wealth(cfg: ScenarioConfig) -> list:
    """Optimal-wealth sample paths and terminal-wealth statistics per alpha,
    every alpha on one shared draw."""
    grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)

    def wealth(p):
        return lambda dBs, z, nu: simulate_wealth(merton_ratio(p), nu, grid, dBs, p)

    def terminal(p):
        return lambda dBs, z, nu: terminal_wealth(merton_ratio(p), nu, grid, dBs, p)

    legs = _alpha_legs(cfg, terminal)
    samples = map_paths(_alpha_legs(cfg, wealth), grid, cfg.seed,
                        cfg.n_sample_paths, cfg.threads)
    terminals = map_paths(legs, grid, cfg.seed, cfg.n_paths, cfg.threads)
    tables, summary = [], []
    for alpha, (p, *_), w, wt in zip(cfg.alphas, legs, samples, terminals):
        pi_star = merton_ratio(p)
        header = ["t", "pi_star"] + [f"w{i}" for i in range(cfg.n_sample_paths)]
        cols = [grid.times, np.full(grid.steps + 1, pi_star)] + list(w)
        name = f"wealth_a{file_tag(alpha)}.csv"
        _check_finite(name, cols)
        tables.append((name, header, zip(*cols)))
        summary.append((p.regime.value, alpha, pi_star, p.w0,
                        math.fsum(wt) / len(wt),
                        float(np.var(wt, ddof=1)), len(wt)))
    _check_finite("wealth_summary.csv", [row[1:] for row in summary])
    return tables + [("wealth_summary.csv",
                      ["regime", "alpha", "pi_star", "w0", "mean_terminal",
                       "var_terminal", "n_paths"], summary)]


def cmd_longterm(cfg: ScenarioConfig) -> list:
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
    _check_finite("longterm.csv", [row[1:] for row in rows])
    return [("longterm.csv",
             ["regime", "alpha", "horizon", "quantile", "nu_T", "s_T"], rows)]


def cmd_converge(cfg: ScenarioConfig, measures: dict) -> list:
    """Refinement-level convergence report in the fractional regime, over
    the one chain of nested measures that _measures built.  Every number
    but the last level's gap to the next, NaN by design, is finite."""
    ((alpha, _), qms), = measures.items()
    grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
    rows = convergence_study(cfg.model_params(alpha, 0.0), qms, cfg.n_paths,
                             grid, cfg.seed, cfg.threads)
    header = [f.name for f in dataclasses.fields(ConvergenceRow)]
    rows = [dataclasses.astuple(row) for row in rows]
    numbers = np.array(rows, dtype=float)
    numbers[-1, header.index("value_gap_to_next")] = 0.0
    _check_finite("converge.csv", numbers)
    return [("converge.csv", header, rows)]


def _measures(cfg: ScenarioConfig, command: str) -> dict:
    """Every quantized measure command reads, keyed by (alpha, level).
    quantize and value read measure_for_atoms at each level of each alpha,
    and None at levels[0] for a classical alpha, which has no measure.
    converge reads the dyadic chain of its study: at the first fractional
    alpha, from atom_count(levels[0]) cells through len(levels) levels.
    The other commands read none.  main builds them before the output
    directory is made, so a level that cannot be built is a config error
    naming its alpha and level."""
    if command not in ("quantize", "value", "converge"):
        return {}
    kinds = {a: REGIMES[cfg.model_params(a, 0.0).regime].measure for a in cfg.alphas}
    cells = [(a, n, kind) for a, kind in kinds.items()
             for n in (cfg.levels if kind else cfg.levels[:1])]
    if command == "converge":  # the first fractional alpha's first cell
        cells = [cell for cell in cells if cell[2] is MeasureKind.MU][:1]
        if not cells:
            raise ValueError("converge needs a fractional alpha (0 < alpha < 1) in alphas")
    measures = {}
    for alpha, level, kind in cells:
        try:
            measures[alpha, level] = kind and (
                dyadic_chain(atom_count(level), alpha, kind, len(cfg.levels))
                if command == "converge" else measure_for_atoms(level, alpha, kind))
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"alpha={alpha} level={level}: {exc}") from None
    return measures


def _check_manifest(out_dir: Path, files: list) -> None:
    """An OSError naming out_dir and a file if the manifest.csv already in
    out_dir lists a file that this run, writing files, does not: another
    command's output is there, and a new manifest would leave it unlisted."""
    try:
        lines = (out_dir / "manifest.csv").read_text().splitlines()[1:]
    except FileNotFoundError:
        return
    stale = sorted({line.split(",")[0] for line in lines} - set(files))
    if stale:
        raise OSError(f"{out_dir}: its manifest.csv lists {stale[0]}, which this "
                      f"run does not write; give each command its own --out")


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


@np.errstate(all="ignore")  # non-finite output is caught: module docstring
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ScenarioConfig()
        # every other flag's dest is the ScenarioConfig field it overrides
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("config", "command") and v is not None}
        if overrides:
            cfg = cfg.with_(**overrides)
        measures = _measures(cfg, args.command)
    except (ValueError, OSError, KeyError, TypeError, ArithmeticError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(cfg.out_dir)
    errors: list = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        tables = {"simulate": lambda: cmd_simulate(cfg),
                  "quantize": lambda: cmd_quantize(measures),
                  "value": lambda: cmd_value(cfg, measures, errors),
                  "wealth": lambda: cmd_wealth(cfg),
                  "longterm": lambda: cmd_longterm(cfg),
                  "converge": lambda: cmd_converge(cfg, measures)}[args.command]()
        h = cfg.config_hash()
        files = sorted(name for name, _, _ in tables)
        _check_manifest(out_dir, files)
        tables.append(("manifest.csv", ["file", "config_hash"], [(f, h) for f in files]))
        _write_tables(out_dir, tables)
    except OSError as exc:
        print(f"i/o error ({args.command}): {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, RiccatiBlowUp) as exc:
        print(f"run error ({args.command}): {exc}", file=sys.stderr)
        return 1
    for msg in errors:
        print(f"row failed: {msg}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
