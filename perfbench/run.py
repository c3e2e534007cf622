#!/usr/bin/env python3
"""Benchmark of dhlab: one command, four workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; dhlab is imported from ``src/`` there.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Raw per-round
figures and, when tracing, the spans go to ``.perfbench_run/``.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
import inputs
from tracing import NO_TRACE, Tracer, import_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
PROBE_REPEATS = 3
CHILD_TIMEOUT_S = 120.0

# What a workload imports before its first dhlab call.
IMPORTS = {
    "certify": "import dhlab.cli, dhlab.construction, dhlab.logconcavity",
    "density": "import dhlab.construction, dhlab.measure",
    "density_mt": "import dhlab.construction, dhlab.measure",
    "toric": "import dhlab.toric",
}
# The dhlab console script, plus a report of the child's own peak RSS at
# exit.  VmHWM belongs to the memory image the child executes; the
# ru_maxrss that wait4 returns also counts the parent's image the child was
# forked from, which is the benchmark's, not dhlab's.
PEAK_MARK = "\nperfbench-peak-rss-kb "
CLI_MAIN = f"""
import atexit, sys
def _peak():
    with open("/proc/self/status") as f:
        kb = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
    sys.stderr.write({PEAK_MARK!r} + kb)
atexit.register(_peak)
from dhlab.cli import main
sys.exit(main(sys.argv[1:]))
"""

CERTIFY_PER_KIND = 16
DENSITY_WINDOW = (0.5, 4.5)
DENSITY_BINS = 40
CLI_SAMPLES = 2_000_000          # dhlab density's default
LIBRARY_SAMPLES = 4_000_000
LIBRARY_CALLS = 2                # per round, in one fresh process
TORIC_EXACT_BINS = 32
TORIC_MC_BINS = 16
TORIC_MC_N = 20_000
SIMPLEX3 = {"dim": 3, "halfspaces": [
    {"a": [-1.0, 0.0, 0.0], "b": 0.0}, {"a": [0.0, -1.0, 0.0], "b": 0.0},
    {"a": [0.0, 0.0, -1.0], "b": 0.0}, {"a": [1.0, 1.0, 1.0], "b": 1.0}]}

# Two known faults, both float sign-scans deciding exact questions.  They
# run in every certify round with inputs that do not depend on the seed, so
# their share of the failed operations is the same in every run.
KNOWN_FAULTS = (
    ["verify", "--window", "0.5", "4.4", "--params", "1", "3"],
    ["logconcavity", "--analytic", "--window", "0.5", "4.4", "--params", "1", "3"],
    ["logconcavity", "--analytic", "--params", "1", "2.999999999"],
)

RATE_NAMES = {"certify": "certify_rate", "density": "mc_rate", "density_mt": "mc_rate_mt",
              "toric": "toric_bin_rate"}
PER_LAYER = (
    "cli.import_dhlab_s", "cli.import_scipy_s",
    "construction.build_s", "construction.verify_s",
    "exterior.wedge3_s", "exterior.d_s", "exterior.top_terms",
    "logconcavity.analytic_s", "logconcavity.isolate_roots_s",
    "logconcavity.roots", "logconcavity.discrete_s",
    "measure.sample_s", "measure.philox_s", "measure.philox_share",
    "measure.merge_s", "measure.samples", "measure.chunks",
    "toric.range_s", "toric.slice_profile_s", "toric.prekopa_s",
    "toric.bins", "toric.lp_solves", "toric.lp_per_bin",
    "trace.overhead",
)
# Per-layer metrics each workload's own rounds produce; the others come from
# one fixed probe of every layer (see README).
EXERCISED = {
    "certify": {"construction.build_s", "construction.verify_s", "exterior.wedge3_s",
                "exterior.d_s", "exterior.top_terms", "logconcavity.analytic_s",
                "logconcavity.isolate_roots_s", "logconcavity.roots"},
    "density": {m for m in PER_LAYER if m.startswith("measure.")},
    "toric": {m for m in PER_LAYER if m.startswith("toric.")} | {"logconcavity.discrete_s"},
}
EXERCISED["density_mt"] = EXERCISED["density"]


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    seconds: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("DH_LAB_THREADS", None)
    if threads > 1:
        env["DH_LAB_THREADS"] = str(threads)
    return env


def run_child(args: list[str], threads: int = 1) -> Child:
    """Run ``python3 <args>`` from process start to exit, one at a time."""
    with tempfile.TemporaryFile(dir=RUN_DIR) as out, tempfile.TemporaryFile(dir=RUN_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(threads),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        # A blocking wait: Popen.wait(timeout) polls with sleeps of up to
        # 50 ms, which would round every wall time up to that grid.
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        if code == -signal.SIGKILL:
            raise RuntimeError(f"{args[:3]} ran over {CHILD_TIMEOUT_S} s")
        out.seek(0)
        err.seek(0)
        stderr, _, peak_kb = err.read().decode().partition(PEAK_MARK)
        return Child(seconds, int(peak_kb or 0) / 1024.0, code, out.read().decode(), stderr)


def cli(args: list[str], threads: int = 1) -> Child:
    return run_child(["-c", CLI_MAIN, *args], threads)


def in_process_cli(dh, args: list[str]) -> Child:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dh.cli.main(args)
    return Child(time.perf_counter() - start, 0.0, code, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# the run: operations, rounds and their bookkeeping
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.threads = len(os.sched_getaffinity(0)) if workload == "density_mt" else 1
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []       # failures other than the known faults
        self.fault_notes: list[str] = []

    def op(self, what: str, fn, *args, known_fault: bool = False):
        """One operation: ``fn`` returns (result, problems).  A known fault
        may fail; any other failure makes the run incorrect."""
        self.attempted += 1
        try:
            result, problems = fn(*args)
        except Exception as exc:  # an operation that raises has failed; keep going
            result, problems = None, [f"{what} raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            (self.fault_notes if known_fault else self.errors).extend(
                f"{what}: {p}" for p in problems)
        return result


@contextlib.contextmanager
def instrument_toric(dh, tracer):
    """Count LP solves and time the discrete log-concavity test inside
    dhlab.toric by wrapping the names that module calls."""
    mod = dh.toric
    linprog, discrete = mod.linprog, mod.discrete_logconcavity

    def counted_linprog(*args, **kwargs):
        tracer.count("toric.lp_solves")
        return linprog(*args, **kwargs)

    def timed_discrete(*args, **kwargs):
        with tracer.span("logconcavity.discrete"):
            return discrete(*args, **kwargs)

    mod.linprog, mod.discrete_logconcavity = counted_linprog, timed_discrete
    try:
        yield
    finally:
        mod.linprog, mod.discrete_logconcavity = linprog, discrete


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def certify_config(dh, cfg: inputs.Config, tracer):
    """Construct, verify, and find the density and its log-concavity."""
    window = dh.CutWindow(float(cfg.lo), float(cfg.hi))
    params = dh.OmegaParams(cfg.c1, cfg.c2)
    start = time.perf_counter()
    with tracer.span("construction.build"):
        _, _, omega = dh.standard_construction(window, params)
    with tracer.span("construction.verify"):
        report = dh.verify_construction(omega, window, params)
    density = finding = None
    try:
        with tracer.span("construction.density"):
            density = dh.analytic_dh_density(report, window)
        with tracer.span("logconcavity.analytic"):
            finding = dh.analytic_logconcavity(density, (window.lo, window.hi))
    except dh.DegenerateWindowError:
        pass
    seconds = time.perf_counter() - start

    if tracer is not NO_TRACE:
        with tracer.span("exterior.wedge3"):
            top = dh.wedge(dh.wedge(omega, omega), omega)
        tracer.count("exterior.top_terms", sum(len(p.terms) for p in top.terms.values()))
        with tracer.span("exterior.d"):
            dh.exterior_derivative(omega)
        if density is not None:
            g = dh.concavity_discriminant(density)
            with tracer.span("logconcavity.isolate_roots"):
                roots = dh.isolate_roots(g, (window.lo, window.hi))
            tracer.count("logconcavity.roots", len(roots))

    c1, c2, lo, hi = cfg.c1, cfg.c2, cfg.lo, cfg.hi
    problems = checks.check_top_power(report.top_power_poly.terms, c1, c2)
    problems += checks.check_nondegenerate(report.nondegenerate_on_window, c1, c2, lo, hi)
    problems += checks.check_chern(report.chern_numbers)
    if not (report.closed and report.moment_identity):
        problems.append("closedness or the moment identity failed")
    if checks.nondegenerate(c1, c2, lo, hi):
        if finding is None:
            problems.append("density refused a nondegenerate window")
        else:
            problems += checks.check_violations(finding.violation_intervals, c1, c2, lo, hi)
    elif density is not None:
        problems.append("density accepted a degenerate window")
    return seconds, problems


def _cli_args(args: list[str]):
    """(command, c1, c2, lo, hi) of a verify/logconcavity command line."""
    def value(flag, default):
        return args[args.index(flag) + 1:args.index(flag) + 3] if flag in args else default
    c1, c2 = (Fraction(v) for v in value("--params", ["2", "3"]))
    lo, hi = (Fraction(v) for v in value("--window", ["0.5", "4.5"]))
    return args[0], c1, c2, lo, hi


def check_certify_cli(child: Child, args: list[str], output: Path) -> list[str]:
    command, c1, c2, lo, hi = _cli_args(args)
    want = checks.expected_exit(command, c1, c2, lo, hi)
    problems = checks.check_exit(child.code, want, "dhlab " + " ".join(args))
    if problems:
        return problems
    if want == checks.EXIT_FAILURE:
        return [] if "nondegeneracy" in child.stderr else ["failure does not name nondegeneracy"]
    doc = json.loads(output.read_text())
    if command == "verify":
        terms = {tuple(t["exps"]): Fraction(t["num"], t["den"]) for t in doc["top_power_poly"]}
        problems += checks.check_top_power(terms, c1, c2)
        problems += checks.check_chern({k: Fraction(v["num"], v["den"])
                                        for k, v in doc["chern_numbers"].items()})
        problems += checks.check_nondegenerate(doc["nondegenerate_on_window"], c1, c2, lo, hi)
    else:
        problems += checks.check_violations(doc["intervals"], c1, c2, lo, hi)
    return problems


def certify_command(dh, args: list[str], cold: bool):
    output = RUN_DIR / f"{args[0]}.json"
    output.unlink(missing_ok=True)
    full = [*args, "--output", str(output)]
    child = cli(full) if cold else in_process_cli(dh, full)
    return child, check_certify_cli(child, args, output)


def certify_round(run: Run, dh, r: int, tracer) -> dict:
    calls = [run.op("dhlab " + " ".join(args), certify_command, dh, args, True)
             for args in (["verify"], ["logconcavity", "--analytic"])]
    for args in KNOWN_FAULTS:
        run.op("dhlab " + " ".join(args), certify_command, dh, args, False, known_fault=True)
    configs = inputs.certify_configs(random.Random(f"certify:{run.seed}:{r}"), CERTIFY_PER_KIND)
    ops = [(c.kind, run.op(f"sweep {c}", certify_config, dh, c, tracer), 1) for c in configs]
    return {"cli": [(name, c) for name, c in zip(("verify", "logconcavity"), calls)],
            "ops": ops}


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

class Density:
    """The exact pieces every density operation needs, built once."""

    def __init__(self, dh):
        self.window = dh.CutWindow(*DENSITY_WINDOW)
        _, _, omega = dh.standard_construction(self.window)
        report = dh.verify_construction(omega, self.window)
        self.top = report.top_power_poly
        self.coeffs = checks.density_coeffs(Fraction(2), Fraction(3))
        self.averages = checks.bin_averages(self.coeffs, *DENSITY_WINDOW, DENSITY_BINS)
        self.width = (DENSITY_WINDOW[1] - DENSITY_WINDOW[0]) / DENSITY_BINS


def run_sampler(seeds: list[int], samples: int, threads: int, trace: bool) -> list:
    """sample_pushforward, normalize and compare for each seed, in a fresh
    process (see sample_child.py); a failed child gives its error per seed."""
    child = run_child([str(HERE / "sample_child.py"), str(samples), str(DENSITY_BINS),
                       *map(repr, DENSITY_WINDOW), str(threads), str(int(trace)),
                       *map(str, seeds)])
    if child.code != 0:
        return [f"sample_child.py exited {child.code}: {child.stderr[-300:]}"] * len(seeds)
    return json.loads(child.stdout)


def check_sampler_call(d: Density, record, samples: int, tracer):
    if isinstance(record, str):
        return None, [record]
    tracer.add("measure.sample", record["sample_s"])
    tracer.add("measure.merge", record["merge_s"])
    if "philox_s" in record:
        tracer.add("measure.philox", record["philox_s"])
    tracer.count("measure.samples", samples)
    tracer.count("measure.chunks", record["chunks"])
    density, stderr = checks.weighted_estimate(record["weight_sums"], record["weight_sq_sums"],
                                               samples, d.width)
    problems = checks.check_same(record["density"], density, 1e-12, "normalized density")
    problems += checks.check_same(record["stderr"], stderr, 1e-9, "standard errors")
    problems += checks.check_histogram(record["density"], stderr, d.averages, d.width)
    return record["sample_s"], problems


def sampler_ops(run: Run, d: Density, seeds: list[int], samples: int, tracer) -> list:
    records = run_sampler(seeds, samples, run.threads, tracer is not NO_TRACE)
    return [(f"sample{k}", run.op(f"sample_pushforward seed {seed}", check_sampler_call,
                                  d, record, samples, tracer), samples)
            for k, (seed, record) in enumerate(zip(seeds, records))]


def density_cli(dh, d: Density, seed: int, threads: int):
    output = RUN_DIR / "density.csv"
    output.unlink(missing_ok=True)
    child = cli(["density", "--seed", str(seed), "--output", str(output)], threads)
    problems = checks.check_exit(child.code, checks.EXIT_OK, "dhlab density")
    if problems:
        return child, problems
    rows = [[float(v) for v in line.split(",")] for line in output.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("bin_center")]
    centers, analytic, mc, stderr, _ = (list(col) for col in zip(*rows))
    problems += checks.check_same(analytic, checks.normalized_values(
        d.coeffs, *DENSITY_WINDOW, centers), 1e-12, "analytic column")
    problems += checks.check_histogram(mc, stderr, d.averages, d.width)
    # The same run at the other thread count must give the same histogram.
    other = len(os.sched_getaffinity(0)) if threads == 1 else 1
    est = dh.normalize(dh.sample_pushforward(
        d.top, dh.SamplerConfig(CLI_SAMPLES, DENSITY_BINS, d.window, seed), threads=other))
    problems += checks.check_same(mc, est.density.tolist(), checks.THREAD_REL_TOL,
                                  f"histograms at {threads} and {other} threads")
    return child, problems


def density_round(run: Run, dh, r: int, tracer, d: Density) -> dict:
    rng = random.Random(f"{run.workload}:{run.seed}:{r}")
    cli_seed, lib_seed = rng.randrange(1 << 31), rng.randrange(1 << 31)
    child = run.op("dhlab density", density_cli, dh, d, cli_seed, run.threads)
    seeds = [lib_seed + k for k in range(LIBRARY_CALLS)]
    return {"cli": [("density", child)],
            "ops": sampler_ops(run, d, seeds, LIBRARY_SAMPLES, tracer)}


# ---------------------------------------------------------------------------
# toric
# ---------------------------------------------------------------------------

def toric_profile(dh, body: inputs.Body, tracer):
    """slice_profile, suggested_tolerance and prekopa_check on one body;
    returns (seconds, bins)."""
    p = dh.HPolytope(body.dim, body.halfspaces)
    method = "exact2d" if body.dim == 2 else "mc"
    bins = TORIC_EXACT_BINS if method == "exact2d" else TORIC_MC_BINS
    start = time.perf_counter()
    if tracer is not NO_TRACE:
        with tracer.span("toric.range"):
            dh.projection_range(p, body.axis)
    with tracer.span("toric.slice_profile"):
        prof = dh.slice_profile(p, body.axis, bins, method=method, mc_n=TORIC_MC_N,
                                seed=body.seed)
    with tracer.span("toric.prekopa"):
        verdict = dh.prekopa_check(prof, dh.suggested_tolerance(prof))
    seconds = time.perf_counter() - start
    tracer.count("toric.bins", bins)

    grid, vols, errs = prof.grid.tolist(), prof.volumes.tolist(), prof.stderrs.tolist()
    what = f"{body.kind} dim {body.dim} axis {body.axis}"
    problems = checks.check_log_concave(verdict.log_concave, what)
    if body.kind == "polygon":
        want = [checks.chord_length(body.shape, body.axis, s) for s in grid]
        problems += checks.check_exact_profile(vols, want, what)
    elif body.kind == "simplex":
        want = [checks.simplex_slice(*body.shape, body.axis, s) for s in grid]
        problems += checks.check_mc_profile(vols, errs, want, what)
    elif body.kind == "box":
        want = [checks.box_slice(*body.shape, body.axis, s) for s in grid]
        problems += checks.check_exact_profile(vols, want, what)
    return (seconds, bins), problems


def toric_cli(seed: int, polytope: Path):
    output = RUN_DIR / "toric.csv"
    output.unlink(missing_ok=True)
    child = cli(["toric", "--input", str(polytope), "--seed", str(seed), "--output", str(output)])
    problems = checks.check_exit(child.code, checks.EXIT_OK, "dhlab toric")
    if problems:
        return child, problems
    if "slice profile is log-concave" not in child.stdout:
        problems.append("dhlab toric did not report a log-concave profile")
    rows = [[float(v) for v in line.split(",")] for line in output.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("s,")]
    grid, vols, errs = (list(col) for col in zip(*rows))
    want = [checks.simplex_slice((0.0, 0.0, 0.0), 1.0, 0, s) for s in grid]
    problems += checks.check_mc_profile(vols, errs, want, "dhlab toric on the 3-simplex")
    return child, problems


def toric_round(run: Run, dh, r: int, tracer, polytope: Path) -> dict:
    rng = np.random.default_rng([run.seed, r])
    child = run.op("dhlab toric", toric_cli, int(rng.integers(1 << 30)), polytope)
    ops = []
    for slot, body in enumerate(inputs.toric_bodies(rng)):
        done = run.op(f"toric {body.kind} dim {body.dim}", toric_profile, dh, body, tracer)
        ops.append((slot, *(done or (None, 0))))
    return {"cli": [("toric", child)], "ops": ops}


# ---------------------------------------------------------------------------
# per-layer figures
# ---------------------------------------------------------------------------

def layer_figures(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced round (times in s, counts as counted)."""
    out = {}
    for name in PER_LAYER:
        if name.startswith(("cli.", "trace.")) or name in ("measure.philox_share",
                                                           "toric.lp_per_bin"):
            continue
        out[name] = tracer.total(name[:-2]) if name.endswith("_s") else tracer.counts[name]
    out["measure.philox_share"] = (out["measure.philox_s"] / out["measure.sample_s"]
                                   if out["measure.sample_s"] else 0.0)
    out["toric.lp_per_bin"] = (out["toric.lp_solves"] / out["toric.bins"]
                               if out["toric.bins"] else 0.0)
    return out


def probe(dh, d: Density) -> dict:
    """One small fixed call into every layer, for the layers a workload
    does not exercise itself."""
    tracer = Tracer(-1)
    with instrument_toric(dh, tracer):
        certify_config(dh, inputs.Config(Fraction(2), Fraction(3), Fraction(1, 2),
                                         Fraction(9, 2), "violating"), tracer)
        check_sampler_call(d, run_sampler([1], 1 << 16, 1, True)[0], 1 << 16, tracer)
        plan = np.random.default_rng(0)
        for body in (inputs.polygon(plan, 0, 1), inputs.simplex(plan, 3, 0, 1)):
            toric_profile(dh, body, tracer)
    return layer_figures(tracer)


def op_rate(rounds: list[dict]):
    """Work units per second of the rounds' library operations (certify
    configurations, samples, toric bins): all their units over all their
    time."""
    ops = [(seconds, n) for f in rounds for _, seconds, n in f["ops"] if seconds is not None]
    total = math.fsum(seconds for seconds, _ in ops)
    return sum(n for _, n in ops) / total if total else None


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(run: Run, setup: list[float], plain: list[dict]) -> dict:
    """End-to-end metrics of the untraced rounds; also prints them under the
    names of the workload's own paths (verify_s, mc_rate, ...)."""
    complete = [f for f in plain if all(s is not None for _, s, _ in f["cli"])]
    names = [name for name, _, _ in complete[0]["cli"]] if complete else []
    cli_s = {name: statistics.fmean([s for f in complete for n, s, _ in f["cli"] if n == name])
             for name in names}
    rss = {name: median([m for f in complete for n, _, m in f["cli"] if n == name])
           for name in names}
    metrics = {
        "setup_s": median(setup),
        "cli_s": math.fsum(cli_s.values()) if complete else None,
        "cli_rss_mb": max(rss.values()) if complete else None,
        "op_rate": op_rate(plain),
    }
    for name in names:
        print(f"{name}_s = {cli_s[name]:.6g} s, {name}_rss_mb = {rss[name]:.6g} MB")
    if metrics["op_rate"] is not None:
        print(f"{RATE_NAMES[run.workload]} = {metrics['op_rate']:.6g} /s")
    return metrics


def per_layer(run: Run, dh, d: Density, tracers: list[Tracer], imports: list[dict],
              rounds: list[dict]) -> dict:
    """Per-layer metrics: the traced rounds for the layers the workload
    exercises, the probe for the others."""
    own = [layer_figures(t) for t in tracers]
    probes = [probe(dh, d) for _ in range(PROBE_REPEATS)]
    metrics = {}
    for name in PER_LAYER:
        if not name.startswith(("cli.", "trace.")):
            source = own if name in EXERCISED[run.workload] else probes
            metrics[name] = median([f[name] for f in source])
    metrics["cli.import_dhlab_s"] = median([f["dhlab"] for f in imports])
    metrics["cli.import_scipy_s"] = median([f["scipy"] for f in imports])
    traced_rate = op_rate([f for f in rounds if f["traced"]])
    plain_rate = op_rate([f for f in rounds if not f["traced"]])
    metrics["trace.overhead"] = (plain_rate / traced_rate - 1.0
                                 if traced_rate and plain_rate else 0.0)
    return metrics


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(IMPORTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dhlab" / "__init__.py").is_file():
        print(f"no dhlab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, bool(args.trace))

    # Set-up: cold interpreter start up to the workload's first dhlab call.
    setup = []
    for _ in range(SETUP_REPEATS):
        child = run_child(["-c", IMPORTS[run.workload]])
        if child.code != 0:
            print(child.stderr, file=sys.stderr)
            return 1
        setup.append(child.seconds)
    imports = []
    if run.trace:
        for _ in range(IMPORTTIME_REPEATS):
            child = run_child(["-X", "importtime", "-c", IMPORTS[run.workload]])
            imports.append(import_times(child.stderr, ("dhlab", "scipy")))

    sys.path.insert(0, str(SRC))
    import dhlab as dh
    import dhlab.cli
    import dhlab.toric
    if Path(dh.__file__).resolve().parent != (SRC / "dhlab").resolve():
        print(f"imported dhlab from {dh.__file__}, not from {SRC}", file=sys.stderr)
        return 1

    d = Density(dh)
    polytope = RUN_DIR / "simplex3.json"
    polytope.write_text(json.dumps(SIMPLEX3))
    # Warm-up, not counted: first calls pay one-off costs users see only once
    # per process.  The sampler runs in fresh processes (see sample_child.py).
    if run.workload == "certify":
        certify_config(dh, inputs.certify_configs(random.Random(0), 1)[0], NO_TRACE)
    elif run.workload == "toric":
        toric_profile(dh, inputs.simplex(np.random.default_rng(0), 3, 0, 1), NO_TRACE)

    rounds, tracers = [], []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < args.seconds:
        # Objects alive now (numpy, sympy, the checks' caches) move out of the
        # collector's reach: a dhlab process has none of them, and traversing
        # them would add the benchmark's own heap to dhlab's collections.
        gc.collect()
        gc.freeze()
        # A traced run alternates traced and untraced rounds; the difference
        # in op_rate between them is the tracing overhead.
        traced = run.trace and r % 2 == 0
        tracer = Tracer(r) if traced else NO_TRACE
        with instrument_toric(dh, tracer) if traced else contextlib.nullcontext():
            if run.workload == "certify":
                figures = certify_round(run, dh, r, tracer)
            elif run.workload == "toric":
                figures = toric_round(run, dh, r, tracer, polytope)
            else:
                figures = density_round(run, dh, r, tracer, d)
        figures["cli"] = [(name, c.seconds, c.rss_mb) if c else (name, None, None)
                          for name, c in figures["cli"]]
        figures["traced"] = traced
        rounds.append(figures)
        if traced:
            tracers.append(tracer)
        print(f"round {r}{' (traced)' if traced else ''}: "
              + " ".join(f"{name}={s:.4g}s" for name, s, _ in figures["cli"] if s)
              + f" library={math.fsum(s for _, s, _ in figures['ops'] if s):.4g}s", flush=True)
        r += 1

    if run.trace:
        metrics = per_layer(run, dh, d, tracers, imports, rounds)
        units = {name: unit_of(name) for name in PER_LAYER}
    else:
        metrics = end_to_end(run, setup, [f for f in rounds if not f["traced"]])
        units = {"setup_s": "s", "cli_s": "s", "cli_rss_mb": "MB", "op_rate": "1/s"}

    raw = {"workload": run.workload, "seed": run.seed, "seconds": args.seconds,
           "trace": run.trace, "threads": run.threads, "setup_s": setup,
           "import_times": imports, "rounds": rounds, "errors": run.errors,
           "known_fault_failures": run.fault_notes}
    stem = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}"
    (RUN_DIR / f"{stem}.json").write_text(json.dumps(raw, indent=1))
    if run.trace:
        (RUN_DIR / f"{stem}.spans.json").write_text(
            json.dumps([t.to_json() for t in tracers]))

    for e in run.errors:
        print("ERROR " + e, file=sys.stderr)
    print(f"{run.attempted} operations, {run.failed} failed "
          f"({len(run.fault_notes)} known-fault failures)")
    missing = [k for k, v in metrics.items() if v is None]
    if missing:
        print(f"no measurement for {missing}", file=sys.stderr)
        return 1
    result = {"correct": not run.errors, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("measure.philox_share", "toric.lp_per_bin", "trace.overhead"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
