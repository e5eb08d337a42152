"""Scenario configuration: a versioned JSON document with fail-fast parsing.

Unknown keys are rejected so a typo cannot silently fall back to a default,
and every field is checked at load time, so a bad scenario fails before any
file is written rather than halfway through a command.
All numeric defaults mirror the experiment parameter set used throughout
(sigma = 0.5 is a documented non-published default; the Feller condition
2*6*0.05 = 0.6 >= 0.25 holds).
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from .params import (DEFAULT_DELTA, ModelParams, Regime, check_delta_window,
                     hurst_of_alpha, merton_ratio)
from .quantize import atom_count
from .sim import TimeGrid
from .vol import PositivityMap

SCHEMA_VERSION = 2
_CLASSICAL_ALPHAS = (-1.0, 0.0)  # both select the classical Heston baseline
_LIST_FIELDS = ("alphas", "rhos", "levels")  # JSON arrays, held as tuples


def file_tag(x: float) -> str:
    """How an alpha or rho is written in output file names: %g, '-' as 'm'."""
    return ("%g" % x).replace("-", "m")


def _int_in(lo: int, hi: float = math.inf):
    # bool is an int subclass, but true/false is never a count or a seed
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and lo <= v < hi


def _is_real(val) -> bool:
    # a string would fail mid-run, and true/false is never a model constant
    try:
        return not isinstance(val, bool) and math.isfinite(val)
    except (TypeError, OverflowError):  # not a number, or an int beyond float
        return False


_REAL = ("a finite real number", _is_real)
_MAPS = tuple(m.value for m in PositivityMap)

# every field's own rule and its test; a _LIST_FIELDS rule holds for each entry
_FIELD_RULES = {
    "schema_version": (f"{SCHEMA_VERSION}, the version this build reads",
                       _int_in(SCHEMA_VERSION, SCHEMA_VERSION + 1)),
    **dict.fromkeys(("r", "lam", "kappa", "theta", "sigma", "gamma", "v0", "z0",
                     "w0", "horizon", "delta", "alphas", "rhos"), _REAL),
    **dict.fromkeys(("s0", "step"), ("a positive finite real number",
                                     lambda v: _is_real(v) and v > 0)),
    "positivity_map": ("one of " + ", ".join(map(repr, _MAPS)), lambda v: v in _MAPS),
    "n_paths": ("an integer >= 2", _int_in(2)),
    "n_sample_paths": ("an integer >= 0", _int_in(0)),
    **dict.fromkeys(("levels", "threads"), ("an integer >= 1", _int_in(1))),
    "seed": ("an integer in [0, 2^64)", _int_in(0, 2 ** 64)),
    "out_dir": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
}


def _check_scalar_constants(p: ModelParams) -> None:
    """A ValueError naming lam if a scalar constant the commands form from
    p is not finite: the affine constants (DerivedConstants), the Merton
    ratio pi or the wealth drift factor pi (lam - pi/2).  Each grows with
    lam; gamma sets by how much."""
    try:
        d = p.derived()
        pi = merton_ratio(p)
        finite = all(map(math.isfinite, (d.eta, d.c_exponent, pi,
                                         pi * (p.lam - 0.5 * pi))))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"lam={p.lam}: the affine constants, the Merton ratio or "
                         f"the wealth drift factor overflow at gamma={p.gamma}")


@dataclass(frozen=True)
class ScenarioConfig:
    schema_version: int = SCHEMA_VERSION
    r: float = 0.02
    lam: float = 0.5
    kappa: float = 6.0
    theta: float = 0.05
    sigma: float = 0.5
    gamma: float = -2.0
    v0: float = 0.0
    z0: float = 0.05
    w0: float = 1000.0
    s0: float = 100.0
    horizon: float = 1.0
    step: float = 0.001
    alphas: tuple = (0.05, 0.5, 0.95)
    rhos: tuple = (-0.7, 0.0, 0.7)
    positivity_map: str = "abs"
    delta: float = DEFAULT_DELTA
    n_paths: int = 1000
    n_sample_paths: int = 5
    levels: tuple = (64, 128, 256)
    seed: int = 20240801
    out_dir: str = "out"
    threads: int = 1

    def __post_init__(self):
        for name, (rule, ok) in _FIELD_RULES.items():
            val = getattr(self, name)
            if name not in _LIST_FIELDS:
                entries, what = (val,), name
            elif isinstance(val, tuple) and val:
                entries, what = val, f"{name} entry"
            else:
                raise ValueError(f"{name} must be a non-empty array, got {val!r}")
            for v in entries:
                if not ok(v):
                    raise ValueError(f"{what} must be {rule}, got {v!r}")
        TimeGrid.from_horizon(self.horizon, self.step)
        for a in self.alphas:
            p = self.model_params(a, 0.0)  # regime and Feller
            for rho in self.rhos:  # every (alpha, rho) cell a command builds
                _check_scalar_constants(self.model_params(a, rho))
            if p.regime is Regime.ROUGH:
                check_delta_window(p.alpha, self.delta)
        # each level, alpha and rho names its own output file and row
        atoms = [atom_count(n) for n in self.levels]
        if len(set(atoms)) < len(atoms):
            raise ValueError(f"levels {list(self.levels)} give the atom counts "
                             f"{atoms}; each level must give its own measure")
        alphas = [0.0 if a in _CLASSICAL_ALPHAS else a for a in self.alphas]
        for name, values, same in (
                ("alphas", alphas, "-1 and 0 are both the classical model"),
                ("rhos", self.rhos, "-0.0 and 0.0 are one value")):
            given = list(getattr(self, name))
            if len(set(values)) < len(values):
                raise ValueError(f"{name} {given} repeat a value ({same})")
            tags = [file_tag(v) for v in given]
            if len(set(tags)) < len(tags):
                raise ValueError(f"{name} {given} give the file tags {tags}; "
                                 f"each must name its own file")

    def model_params(self, alpha: float, rho: float) -> ModelParams:
        """ModelParams for one (alpha, rho) cell; alpha in {-1, 0} selects
        the classical Heston baseline (hurst = 1/2)."""
        if alpha in _CLASSICAL_ALPHAS:
            alpha = 0.0
        return ModelParams(r=self.r, lam=self.lam, kappa=self.kappa,
                           theta=self.theta, sigma=self.sigma, rho=rho,
                           gamma=self.gamma, hurst=hurst_of_alpha(alpha),
                           v0=self.v0, z0=self.z0, w0=self.w0,
                           horizon=self.horizon)

    def canonical_json(self) -> str:
        # out_dir and threads do not influence any emitted number, so they
        # stay out of the hash: equal hashes mean byte-identical CSVs
        doc = dataclasses.asdict(self)
        doc.pop("out_dir")
        doc.pop("threads")
        return json.dumps(doc, sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def with_(self, **changes) -> "ScenarioConfig":
        return dataclasses.replace(self, **changes)


_JSON_KEY_MAP = {"lambda": "lam"}  # accept the market-price name as written


def _unique_keys(pairs) -> dict:
    """A JSON object's (key, value) pairs as a dict, once no field is given
    twice, by a repeated key or by both 'lam' and 'lambda': json.load would
    keep one value and drop the others."""
    obj, keys = {}, {}  # field name -> the key that gave it
    for key, val in pairs:
        name = _JSON_KEY_MAP.get(key, key)
        if key in obj:
            raise ValueError(f"{name} given twice: the key {key!r} repeats")
        if name in keys:
            raise ValueError(f"{name} given twice: as {keys[name]!r} and {key!r}")
        obj[key], keys[name] = val, key
    return obj


def load_config(path) -> ScenarioConfig:
    """The scenario in the JSON file at path.  An unknown key, and a field
    given twice (_unique_keys), are ValueErrors."""
    with open(path) as fh:
        raw = json.load(fh, object_pairs_hook=_unique_keys)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    kwargs = {}
    for key, val in raw.items():
        name = _JSON_KEY_MAP.get(key, key)
        if name not in known:
            raise ValueError(f"unknown config key {key!r}")
        if name in _LIST_FIELDS and isinstance(val, list):
            val = tuple(val)
        kwargs[name] = val
    return ScenarioConfig(**kwargs)
