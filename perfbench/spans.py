"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps named functions of the library from outside: for each
target it finds the function object, builds a timing wrapper, and rebinds
every name that refers to that object in the given modules (a module that
did `from .sim import brownian_batch` holds its own binding, which is the
one its calls use).  Spans are kept in memory; self times and counters are
derived from them when the traced job is over.

A target that no longer exists (renamed or deleted function) is recorded
as missing and its layer metrics are left out; nothing else depends on it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    fn: str
    start: float
    end: float = math.nan
    parent: int | None = None
    attrs: dict = field(default_factory=dict)    # work size of the call
    counts: dict = field(default_factory=dict)   # layer counters

    @property
    def duration(self) -> float:
        return self.end - self.start


def _shape_attrs(bound: inspect.BoundArguments) -> dict:
    """Work size of a call, read off its arguments by type, not by name:
    paths x steps from the first array or stream range, atoms from any
    quantized measure, steps from any time grid."""
    attrs = {}
    for val in bound.arguments.values():
        if "paths" not in attrs and isinstance(val, range):
            attrs["paths"] = len(val)
        elif "paths" not in attrs and hasattr(val, "ndim") and val.ndim >= 2:
            attrs["paths"] = int(math.prod(val.shape[:-1]))
        if "atoms" not in attrs and hasattr(val, "n_atoms"):
            attrs["atoms"] = int(val.n_atoms)
        if "steps" not in attrs and hasattr(val, "steps") and hasattr(val, "h"):
            attrs["steps"] = int(val.steps)
    return attrs


def _count_streams(bound, result) -> dict:
    return {"sim.brownian_batch.streams": len(bound.arguments["stream_ids"])}


def _count_atom_steps(bound, result) -> dict:
    z = bound.arguments["z_path"]
    paths = math.prod(z.shape[:-1])
    steps = z.shape[-1] - 1
    return {"vol.nu_quantized.atom_path_steps": bound.arguments["qm"].n_atoms * paths * steps}


def _count_ode(bound, result) -> dict:
    blown = result.blow_up is not None
    return {"riccati.ode_steps": len(result.tau_grid) - 1 + int(blown),
            "riccati.blow_ups": int(blown)}


def _count_atoms(bound, result) -> dict:
    measures = result if isinstance(result, list) else [result]
    return {"quantize.atoms": sum(qm.n_atoms for qm in measures)}


def _count_batches(bound, result) -> dict:
    args = bound.arguments
    return {"mc.batches": math.ceil(args["n_paths"] / args["batch_size"])}


# (span name, target, counter).  A span name is the layer metric prefix;
# several targets may share one.  `mc._map_batches` is the one private
# target: it holds the thread pool and batch reduction that both the
# estimators and the CLI use.
TARGETS = [
    ("sim.brownian_batch", "fracheston.sim:brownian_batch", _count_streams),
    ("sim.simulate_cir", "fracheston.sim:simulate_cir", None),
    ("sim.simulate_tilde_z", "fracheston.sim:simulate_tilde_z", None),
    ("sim.simulate_wealth", "fracheston.sim:simulate_wealth", None),
    ("sim.simulate_stock", "fracheston.sim:simulate_stock", None),
    ("vol.nu_paths", "fracheston.vol:VolScheme.nu_paths", None),
    ("vol.nu_quantized", "fracheston.vol:nu_quantized_paths", _count_atom_steps),
    ("vol.nu_quantized", "fracheston.vol:nu_quantized_rough_paths", _count_atom_steps),
    ("vol.nu_direct", "fracheston.vol:nu_fractional_euler", None),
    ("vol.nu_direct", "fracheston.vol:nu_rough_marchaud", None),
    ("vol.apply_positivity", "fracheston.vol:apply_positivity", None),
    ("riccati.solve", "fracheston.riccati:solve_riccati_finite", _count_ode),
    ("riccati.solve", "fracheston.riccati:solve_riccati_limit", _count_ode),
    ("riccati.solve", "fracheston.riccati:solve_riccati_rough", _count_ode),
    ("riccati.solve", "fracheston.riccati:value_function", None),
    ("quantize.measure", "fracheston.quantize:measure_for_atoms", _count_atoms),
    ("quantize.measure", "fracheston.quantize:dyadic_chain", _count_atoms),
    ("mc", "fracheston.mc:mc_feynman_kac", None),
    ("mc", "fracheston.mc:mc_value_rough", None),
    ("mc", "fracheston.mc:_map_batches", _count_batches),
    ("cli", "fracheston.cli:main", None),
    ("cli", "fracheston.cli:cmd_simulate", None),
    ("cli", "fracheston.cli:cmd_wealth", None),
]

# Layer metrics each span name feeds, so that a missing target can drop
# exactly its own metrics.
SPAN_METRICS = {
    "sim.brownian_batch": ["sim.brownian_batch.self_s", "sim.brownian_batch.streams"],
    "vol.nu_quantized": ["vol.nu_quantized.self_s", "vol.nu_quantized.atom_path_steps"],
    "riccati.solve": ["riccati.solve.self_s", "riccati.ode_steps", "riccati.blow_ups"],
    "quantize.measure": ["quantize.measure.self_s", "quantize.atoms"],
    "mc": ["mc.self_s", "mc.batches"],
    "cli": ["cli.self_s"],
}


def _resolve(target: str):
    """(owner, attribute name, original) for "module:attr[.attr]", or None."""
    mod_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner, name, getattr(owner, name)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Records spans for the targets while installed; one span stack per
    thread, so the parent of a span is the innermost open span of the
    thread that made the call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.counter_errors: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str, fn: str, attrs: dict | None = None) -> int:
        stack = self._stack()
        span = Span(name=name, fn=fn, start=time.perf_counter(),
                    parent=stack[-1] if stack else None, attrs=attrs or {})
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    def _wrapper(self, name, fn_name, original, counter):
        sig = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            idx = self.open(name, fn_name, _shape_attrs(bound))
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                try:
                    self.spans[idx].counts.update(counter(bound, result))
                except (KeyError, AttributeError, TypeError) as exc:
                    self.counter_errors.append((name, f"{fn_name}: {exc!r}"))
            return result

        return traced

    def install(self, extra_modules=()) -> None:
        """Wrap every target and rebind it in every loaded module of the
        library and in `extra_modules` (and on its owner, for methods).

        All targets are resolved, which imports their modules, before any
        is patched: a module imported mid-way would otherwise bind a
        wrapper as if it were the original."""
        found = [(name, target, counter, _resolve(target)) for name, target, counter in TARGETS]
        modules = [m for key, m in list(sys.modules.items())
                   if key == "fracheston" or key.startswith("fracheston.")]
        modules += list(extra_modules)
        for name, target, counter, resolved in found:
            if resolved is None:
                self.missing.append(target)
                continue
            owner, attr, original = resolved
            wrapped = self._wrapper(name, target, original, counter)
            holders = [owner] if inspect.isclass(owner) else modules
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is original:
                        self._undo.append((holder, key, val))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, val in reversed(self._undo):
            setattr(holder, key, val)
        self._undo.clear()

    def missing_metrics(self) -> set:
        """Layer metrics whose targets were (partly) not found, and counts
        whose counter no longer fits its target."""
        out = set()
        for name, target, _ in TARGETS:
            if target in self.missing:
                out.update(SPAN_METRICS.get(name, [f"{name}.self_s"]))
        for name, _ in self.counter_errors:
            out.update(m for m in SPAN_METRICS.get(name, []) if not m.endswith(".self_s"))
        return out

    def self_times(self) -> dict:
        """Self time per span name: duration minus the children's durations
        (spans of one thread nest, so children never overlap)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        out: dict = {}
        for span, c in zip(self.spans, child):
            out[span.name] = out.get(span.name, 0.0) + span.duration - c
        return out

    def counters(self) -> dict:
        out: dict = {}
        for span in self.spans:
            for key, val in span.counts.items():
                out[key] = out.get(key, 0) + val
        return out

    def calls(self) -> list:
        """Per-call durations grouped by (function, work size), for the
        baseline table."""
        groups: dict = {}
        for span in self.spans:
            size = tuple((k, span.attrs[k]) for k in ("paths", "steps", "atoms")
                         if k in span.attrs)
            groups.setdefault((span.fn, size), []).append(span.duration)
        return [{"fn": fn, "shape": ", ".join(f"{v} {k}" for k, v in size),
                 "calls": len(d), "total_s": sum(d),
                 "median_ms": 1e3 * sorted(d)[len(d) // 2]}
                for (fn, size), d in sorted(groups.items())]

    def dump(self) -> list:
        return [{"name": s.name, "fn": s.fn, "start": s.start, "end": s.end,
                 "parent": s.parent, "attrs": s.attrs, "counts": s.counts}
                for s in self.spans]
