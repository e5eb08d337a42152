"""Every name a library module imports is used by that module, every
library name the benchmark and the scripts reach still resolves, the
package's public names are the pinned list, and the CLI imports without
scipy."""
import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fracheston"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CONSUMERS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("scripts/*.py")])
# "module:attr[.attr]" strings name the functions the benchmark tracer wraps
TARGET = re.compile(r"fracheston(\.\w+)*:\w+(\.\w+)*")


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{path.name}:{node.lineno}: {bound}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _library_names(path: Path) -> list:
    """(module, dotted attribute or None) for each fracheston import of the
    file, plus each tracer target string outside its test files."""
    tree = ast.parse(path.read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "fracheston":
            names += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "fracheston"]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and TARGET.fullmatch(node.value) and not path.name.startswith("test_"):
            module, _, attr = node.value.partition(":")
            names.append((module, attr))
    return names


def _unresolved(module: str, attr) -> bool:
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return True
    if attr is None:
        return False
    try:  # `from package import submodule`
        importlib.import_module(f"{module}.{attr}")
        return False
    except ImportError:
        pass
    for part in attr.split("."):
        if not hasattr(owner, part):
            return True
        owner = getattr(owner, part)
    return False


@pytest.mark.parametrize("path", CONSUMERS, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_benchmark_and_script_library_names_resolve(path):
    assert [n for n in _library_names(path) if _unresolved(*n)] == []


# fracheston's public non-module names: adding or removing one is an API
# change, made here on purpose
PUBLIC_NAMES = [
    "AffineValue", "DerivedConstants", "McEstimate", "MeasureKind", "ModelParams",
    "PositivityMap", "QuantizedMeasure", "Regime", "RiccatiBlowUp",
    "RiccatiSolution", "ScenarioConfig", "SchemeKind", "TimeGrid", "VolScheme",
    "apply_positivity", "approx_kernel", "brownian_batch", "convergence_study",
    "default_params", "dyadic_chain", "frac_kernel", "hurst_of_alpha",
    "load_config", "map_paths", "mc_feynman_kac", "mc_utility", "mc_value_rough",
    "measure_for_atoms", "merton_ratio", "nu_fractional_euler",
    "nu_quantized_paths", "nu_quantized_rough_paths", "nu_rough_marchaud", "psi",
    "regime_of_alpha", "simulate_cir", "simulate_stock", "simulate_tilde_z",
    "simulate_wealth", "solve_riccati_finite", "solve_riccati_limit",
    "solve_riccati_rough", "value_function", "value_function_at_t",
]


def test_public_names_are_pinned():
    import fracheston
    assert sorted(name for name, obj in vars(fracheston).items()
                  if not name.startswith("_")
                  and not isinstance(obj, types.ModuleType)) == PUBLIC_NAMES


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only: the library's FFT engine is numpy's
    code = ("import sys, fracheston.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
