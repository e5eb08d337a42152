"""fracheston benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory.  Each workload is a closed loop of jobs, one job at a
time, each using at most THREADS worker threads.

--trace 0 reports the end-to-end metrics: job wall time, throughput, CPU
per job, set-up time of a fresh process, and peak memory.  Outputs of every
job are checked; `failed` counts jobs that raised, exited non-zero, emitted
a non-finite number or missed an accuracy gate.

--trace 1 reports per-layer metrics from one job run with spans around the
library's functions (threads=1, so self times add up to the job wall), plus
the same job untraced at threads 1 and 2 for the tracing overhead and the
parallel speed-up.  Spans and the baseline table go to .perfbench_out/.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
N_SETUP = 3

WORKLOAD_NAMES = ("value_xval", "value_rho", "affine_surface", "cli_paths")

END_TO_END = {  # name: unit
    "steps_per_s": "1/s", "job_s": "s", "cpu_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.brownian_batch.self_s": "s", "sim.brownian_batch.streams": "count",
    "sim.simulate_cir.self_s": "s", "sim.simulate_tilde_z.self_s": "s",
    "sim.simulate_wealth.self_s": "s", "sim.simulate_stock.self_s": "s",
    "vol.nu_paths.self_s": "s", "vol.nu_quantized.self_s": "s",
    "vol.nu_quantized.atom_path_steps": "count", "vol.nu_direct.self_s": "s",
    "vol.apply_positivity.self_s": "s",
    "riccati.solve.self_s": "s", "riccati.ode_steps": "count",
    "riccati.blow_ups": "count",
    "quantize.measure.self_s": "s", "quantize.atoms": "count",
    "mc.self_s": "s", "mc.batches": "count", "mc.parallel_speedup": "ratio",
    "mc.rel_se": "ratio",
    "cli.import_s": "s", "cli.self_s": "s", "cli.bytes_written": "bytes",
    "job.self_s": "s", "trace.job_s": "s", "trace.overhead_s": "s",
}

PROBE_SETUP = """\
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]].setup(Path(sys.argv[4]))
"""

PROBE_CLI_IMPORT = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import fracheston.cli
print(time.perf_counter() - t)
"""


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Machine, versions and source identity of this run."""
    import numpy
    import scipy
    cpu_model, caches = "unknown", {}
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), "unknown")
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fracheston").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": os.cpu_count(), "cpu_model": cpu_model, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def _probe(code: str, *args: str) -> tuple:
    """Run `code` in a fresh interpreter; (wall seconds, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, text=True,
                          capture_output=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed:\n{proc.stderr}")
    return wall, proc.stdout


class Jobs:
    """Outcome of the jobs of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.walls, self.cpus, self.rates = [], [], []
        self.child_rss_kb = 0
        self.extras: list = []

    def run_one(self, wl, inputs, seed, threads, in_process, tracer=None):
        """Run and check one job; its wall time, or None if it failed."""
        self.attempted += 1
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            if tracer is None:
                out = wl.run(inputs, seed, threads, in_process)
            else:
                root = tracer.open("job", "perfbench.job")
                try:
                    out = wl.run(inputs, seed, threads, in_process)
                finally:
                    tracer.close(root)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0 + out.child_cpu_s
            result = wl.check(inputs, out)
        except Exception:  # noqa: BLE001 - a raising job is a failed job
            self.failed += 1
            print(f"job failed (seed {seed}):\n{traceback.format_exc()}", file=sys.stderr)
            return None
        if result.failures:
            self.failed += 1
            for msg in result.failures:
                print(f"gate failed (seed {seed}): {msg}", file=sys.stderr)
            return None
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.rates.append(out.work / wall)
        self.child_rss_kb = max(self.child_rss_kb, out.child_rss_kb)
        self.extras.append(result.extras)
        return wall


def measure(wl, seed: int, seconds: int, alone: bool) -> tuple:
    """End-to-end run: set-up probes, then jobs until `seconds` have passed."""
    import workloads
    setups = [_probe(PROBE_SETUP, str(SRC), str(BENCH), wl.name, str(OUT))[0]
              for _ in range(N_SETUP)]
    inputs = wl.setup(OUT)
    jobs = Jobs()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        jobs.run_one(wl, inputs, workloads.job_seed(seed, i), workloads.THREADS, False)
        i += 1
    if not jobs.walls:
        raise RuntimeError(f"{wl.name}: every job failed")
    if wl.spawns:
        rss_kb, rss_how = jobs.child_rss_kb, "largest CLI child"
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_how = "benchmark process" + ("" if alone else ", peak so far")
    n = len(jobs.walls)
    metrics = {
        "steps_per_s": (statistics.median(jobs.rates), f"median of {n} jobs"),
        "job_s": (statistics.median(jobs.walls), f"median of {n} jobs"),
        "cpu_s": (statistics.median(jobs.cpus), f"median of {n} jobs"),
        "setup_s": (statistics.median(setups), f"median of {N_SETUP} fresh processes"),
        "peak_rss_mb": (rss_kb / 1024.0, rss_how),
    }
    work_name = f"{wl.work_unit}_per_s"
    lines = [f"  {work_name:<16} {metrics['steps_per_s'][0]:14.6g} 1/s    (steps_per_s) "
             f"{metrics['steps_per_s'][1]}"]
    for name in ("job_s", "cpu_s", "setup_s", "peak_rss_mb"):
        value, how = metrics[name]
        lines.append(f"  {name:<16} {value:14.6g} {END_TO_END[name]:<6} {how}")
    lines.append(f"  {'fail_frac':<16} {jobs.failed / jobs.attempted:14.6g} -      "
                 f"{jobs.failed} failed of {jobs.attempted} attempted")
    record = {"job_walls": jobs.walls, "job_cpus": jobs.cpus, "setup_walls": setups}
    return jobs, {k: v for k, (v, _) in metrics.items()}, lines, record


def measure_traced(wl, seed: int) -> tuple:
    """Traced run: the same job untraced at threads 2 and 1, then traced."""
    import workloads
    from spans import Tracer
    inputs = wl.setup(OUT)
    js = workloads.job_seed(seed, 0)
    jobs = Jobs()
    wall_t2 = jobs.run_one(wl, inputs, js, 2, False)
    wall_t1 = jobs.run_one(wl, inputs, js, 1, False)
    # CLI jobs run in-process when traced; compare with the same untraced
    base = jobs.run_one(wl, inputs, js, 1, True) if wl.spawns else wall_t1
    tracer = Tracer()
    tracer.install([workloads])
    try:
        traced = jobs.run_one(wl, inputs, js, 1, True, tracer=tracer)
    finally:
        tracer.uninstall()
    imports = [float(_probe(PROBE_CLI_IMPORT, str(SRC))[1]) for _ in range(N_SETUP)]
    if None in (wall_t2, wall_t1, base, traced):
        raise RuntimeError(f"{wl.name}: a job of the traced run failed")

    self_s = tracer.self_times()
    counts = tracer.counters()
    extras = jobs.extras[-1]
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            metrics[name] = self_s.get(name[:-len(".self_s")], 0.0)
        else:
            metrics[name] = counts.get(name, 0)
    metrics.update({
        "mc.parallel_speedup": wall_t1 / wall_t2,
        "mc.rel_se": extras["mc.rel_se"],
        "cli.import_s": statistics.median(imports),
        "cli.bytes_written": extras.get("cli.bytes_written", 0),
        "trace.job_s": traced,
        "trace.overhead_s": traced - base,
    })
    for name in tracer.missing_metrics():
        metrics.pop(name, None)

    layer_sum = sum(v for k, v in self_s.items() if k != "job")
    lines = [f"  {name:<34} {metrics[name]:14.6g} {PER_LAYER[name]}"
             for name in PER_LAYER if name in metrics]
    lines.append(f"  traced job {traced:.4f} s = layer self times {layer_sum:.4f} s "
                 f"+ job.self_s {self_s.get('job', 0.0):.4f} s; untraced {base:.4f} s")
    for target in tracer.missing:
        lines.append(f"  missing target {target}: its layer metrics are absent")
    for _, msg in tracer.counter_errors:
        lines.append(f"  counter error {msg}: its counts are absent")
    record = {"spans": tracer.dump(), "calls": tracer.calls(), "missing": tracer.missing}
    return jobs, metrics, lines, record


def baseline_table(calls: dict) -> list:
    """ROADMAP-style baseline rows: median wall per call, by function and
    work size, over the traced jobs of this invocation."""
    rows = ["| workload | function | work size | calls | median ms |",
            "| --- | --- | --- | --- | --- |"]
    for wl_name, entries in calls.items():
        for c in entries:
            rows.append(f"| {wl_name} | `{c['fn'].split(':')[-1]}` | {c['shape'] or '-'} "
                        f"| {c['calls']} | {c['median_ms']:.1f} |")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fracheston" / "__init__.py").is_file():
        print(f"error: no fracheston sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import fracheston
    if Path(fracheston.__file__).resolve().parent != (SRC / "fracheston").resolve():
        print(f"error: imported fracheston from {fracheston.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    prov = provenance(args.workload, args.seed, args.seconds, args.trace)
    print("provenance " + json.dumps(prov, sort_keys=True))
    attempted = failed = 0
    metrics, records = {}, {}
    for name in names:
        wl = workloads.WORKLOADS[name]
        print(f"workload {name}  seed {args.seed}  threads "
              f"{1 if args.trace else workloads.THREADS}")
        try:
            if args.trace:
                jobs, m, lines, records[name] = measure_traced(wl, args.seed)
            else:
                jobs, m, lines, records[name] = measure(wl, args.seed, args.seconds,
                                                        alone=len(names) == 1)
        except Exception:  # noqa: BLE001 - report and stop without a result line
            traceback.print_exc()
            return 1
        print("\n".join(lines))
        attempted += jobs.attempted
        failed += jobs.failed
        units = PER_LAYER if args.trace else END_TO_END
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in m.items()})
    if "value_rho" in names:
        mis = workloads.load_reference()["rho_mismatch"]
        print(f"note: at rho={mis['rho']} the rho-blind affine value {mis['affine']:.10g} "
              f"sits {mis['gap_se']:.4g} SE from the Monte Carlo estimate "
              f"{mis['mean']:.10g}; not gated")
    if args.trace:
        print("\n".join(baseline_table({n: r["calls"] for n, r in records.items()})))

    runs = OUT / "runs"
    runs.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record_path = runs / f"{stamp}-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}.json"
    record_path.write_text(json.dumps({"provenance": prov, "metrics": metrics,
                                       "attempted": attempted, "failed": failed,
                                       "workloads": records}, indent=1) + "\n")
    print(f"run record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
