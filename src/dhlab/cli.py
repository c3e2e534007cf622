"""Command-line interface: reproducible verification, density, log-concavity
and toric-baseline runs.

Exit codes are stable and distinct:

* 0 - success (and, for the log-concavity commands, the density is log-concave)
* 1 - operational or verification failure
* 2 - usage or input error
* 3 - mathematical negative finding: log-concavity is violated

Code 3 is deliberately separate from 1: a violated inequality is a finding,
not a malfunction, and scripts need to tell them apart.  All randomized
outputs embed their provenance (seed, sample count, window, parameters,
generator name) in header comments, and identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .construction import (
    CutWindow,
    DegenerateWindowError,
    OmegaParams,
    VerificationReport,
    analytic_dh_density,
    standard_construction,
    verify_construction,
)
from .exterior import Form, Poly
from .logconcavity import DomainError, analytic_logconcavity, discrete_logconcavity
from .measure import (
    GENERATOR_NAME,
    SamplerConfig,
    compare,
    env_threads,
    normalize,
    sample_pushforward,
)
from .toric import (
    EmptyPolytopeError,
    HPolytope,
    InsufficientDataError,
    UnboundedPolytopeError,
    prekopa_check,
    slice_profile,
    suggested_tolerance,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3

DISCRETE_TOL = 1e-9
DENSITY_GATE = 0.03


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.window = CutWindow(*args.window)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    try:
        args.params = OmegaParams(*map(Fraction, args.params))
    except (ValueError, ZeroDivisionError):
        parser.error(f"cannot parse --params {' '.join(args.params)} as rationals")
    try:
        return args.run(args)
    except BrokenPipeError:
        return EXIT_FAILURE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhlab",
        description="Moment-map pushforward densities: symbolic verification, "
                    "Monte-Carlo estimation, log-concavity analysis and toric "
                    "slice-volume baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--window", nargs=2, type=float, default=[0.5, 4.5],
                       metavar=("A", "B"), help="moment-map cut window (default 0.5 4.5)")
        p.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
        p.add_argument("--params", nargs=2, default=["2", "3"], metavar=("C1", "C2"),
                       help="constants of the symplectic form, as rationals (default 2 3)")
        p.add_argument("--output", type=Path, default=None, help="write the report/CSV here")

    p_verify = sub.add_parser("verify", help="run the exact symbolic verification battery")
    common(p_verify)
    p_verify.set_defaults(run=cmd_verify)

    p_density = sub.add_parser("density", help="Monte-Carlo pushforward density vs analytic")
    common(p_density)
    p_density.set_defaults(run=cmd_density)
    p_density.add_argument("--samples", type=int, default=2_000_000,
                           help="number of Monte-Carlo samples (default 2000000)")
    p_density.add_argument("--bins", type=int, default=40, help="histogram bins (default 40)")
    p_density.add_argument("--flat", action="store_true",
                           help="synthetic constant-density mode (flat pushforward)")

    p_logc = sub.add_parser("logconcavity", help="log-concavity analysis of a density")
    common(p_logc)
    p_logc.set_defaults(run=cmd_logconcavity)
    mode = p_logc.add_mutually_exclusive_group(required=True)
    mode.add_argument("--analytic", action="store_true",
                      help="analyze the exact pushforward density of the construction")
    mode.add_argument("--input", type=Path, default=None,
                      help="CSV of s,f(s) samples on a uniform grid")

    p_toric = sub.add_parser("toric", help="slice-volume profile of a convex polytope")
    common(p_toric)
    p_toric.set_defaults(run=cmd_toric)
    p_toric.add_argument("--input", type=Path, required=True,
                         help='polytope JSON: {"dim": d, "halfspaces": [{"a": [...], "b": v}, ...]}')
    p_toric.add_argument("--axis", type=int, default=0, help="projection axis (default 0)")
    p_toric.add_argument("--bins", type=int, default=40, help="profile bins (default 40)")
    p_toric.add_argument("--method", choices=["exact2d", "mc"], default=None,
                         help="slice method (default: exact2d in dim 2, else mc)")
    p_toric.add_argument("--samples", type=int, default=100_000,
                         help="Monte-Carlo samples per bin (default 100000)")
    return parser


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    omega, report = _construct_and_verify(args)
    print(report.text_table())
    if args.output is not None:
        doc = report.to_json_dict()
        doc["omega"] = omega.to_json()
        args.output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if report.all_passed else EXIT_FAILURE


def cmd_density(args: argparse.Namespace) -> int:
    _, report = _construct_and_verify(args)
    if not report.all_passed:
        return EXIT_FAILURE
    if args.flat:
        top = Poly.constant(6, 6)
        analytic = Poly.constant(1, 1)
    else:
        top = report.top_power_poly
        analytic = analytic_dh_density(report, args.window)

    try:
        sampler = SamplerConfig(args.samples, args.bins, args.window, args.seed)
        threads = env_threads()
    except ValueError as exc:
        print(f"bad sampling configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    est = normalize(sample_pushforward(top, sampler, threads))
    comp = compare(est, analytic, args.window)

    _emit(args.output, _density_csv_lines(est, comp, sampler, args))
    n_extreme = int(np.count_nonzero(np.abs(comp.per_bin_z) > 3))
    print(f"max relative error {comp.max_rel_error:.4f} "
          f"(worst bin {comp.worst_bin} at t={est.bin_centers[comp.worst_bin]:.4g}); "
          f"{n_extreme}/{args.bins} bins with |z| > 3")
    if comp.max_rel_error > DENSITY_GATE:
        print(f"relative error exceeds {DENSITY_GATE:.0%}: statistical tolerance "
              f"not met at {args.samples} samples; increase --samples",
              file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_logconcavity(args: argparse.Namespace) -> int:
    if args.analytic:
        _, report = _construct_and_verify(args)
        if not report.all_passed:
            return EXIT_FAILURE
        try:
            density = analytic_dh_density(report, args.window)
            result = analytic_logconcavity(density, (args.window.lo, args.window.hi))
        except (DegenerateWindowError, DomainError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAILURE
    else:
        try:
            samples = _read_samples_csv(args.input)
        except OSError as exc:
            print(f"cannot read {args.input}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ValueError as exc:
            print(f"bad samples file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        try:
            result = discrete_logconcavity(samples, DISCRETE_TOL)
        except (DomainError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAILURE

    payload = json.dumps(result.to_json_dict(), indent=2, sort_keys=True)
    print(payload)
    if args.output is not None:
        args.output.write_text(payload + "\n")
    if result.log_concave:
        print("log-concave: yes")
        return EXIT_OK
    intervals = ", ".join(f"({lo:.9f}, {hi:.9f})" for lo, hi in result.violation_intervals)
    print(f"log-concave: NO; violations on {intervals}")
    return EXIT_VIOLATION


def cmd_toric(args: argparse.Namespace) -> int:
    try:
        data = json.loads(args.input.read_text())
        polytope = HPolytope.from_json_dict(data)
    except OSError as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"bad polytope JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE

    method = args.method or ("exact2d" if polytope.dim == 2 else "mc")
    try:
        profile = slice_profile(polytope, args.axis, args.bins, method=method,
                                mc_n=args.samples, seed=args.seed)
    except (UnboundedPolytopeError, EmptyPolytopeError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ValueError as exc:  # incompatible method/axis/bins for this input
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = prekopa_check(profile, suggested_tolerance(profile))
    except (InsufficientDataError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    lines = [
        f"# dhlab toric profile: axis={args.axis} bins={args.bins} method={method} "
        f"mc_n={args.samples} seed={args.seed}",
        f"# polytope: dim={polytope.dim} halfspaces={len(polytope.halfspaces)}",
        "s,volume,stderr",
    ]
    lines += [f"{s!r},{v!r},{e!r}" for s, v, e in
              zip(profile.grid.tolist(), profile.volumes.tolist(), profile.stderrs.tolist())]
    _emit(args.output, lines)

    trimmed = sum(result.trimmed)
    note = f" ({trimmed} empty end bins trimmed)" if trimmed else ""
    if result.log_concave:
        print(f"slice profile is log-concave{note}")
        return EXIT_OK
    print(f"slice profile is NOT log-concave{note}: {result.violation_intervals}")
    return EXIT_VIOLATION


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _construct_and_verify(args: argparse.Namespace) -> tuple[Form, VerificationReport]:
    """The standard construction and its verify battery, with each failed
    identity named on stderr."""
    _, _, omega = standard_construction(args.window, args.params)
    report = verify_construction(omega, args.window, args.params)
    for name in report.failed_identities():
        print(f"verification failed: {name}", file=sys.stderr)
    return omega, report


def _density_csv_lines(est, comp, sampler: SamplerConfig, args: argparse.Namespace) -> list[str]:
    lines = [
        f"# dhlab density: generator={GENERATOR_NAME} seed={sampler.seed} "
        f"samples={sampler.sample_count} bins={sampler.bins} "
        f"window=[{args.window.lo!r},{args.window.hi!r}] "
        f"params=[{args.params.c1},{args.params.c2}] flat={args.flat}",
        "bin_center,analytic_density,mc_density,stderr,z_score",
    ]
    # analytic_density is the density at the bin centre; z_score measures the
    # bin against the density's exact average over the bin
    for c, a, d, e, z in zip(est.bin_centers.tolist(), comp.centre_values.tolist(),
                             est.density.tolist(), est.stderr.tolist(),
                             comp.per_bin_z.tolist()):
        lines.append(f"{c!r},{a!r},{d!r},{e!r},{z!r}")
    return lines


def _emit(output: Path | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text)


def _read_samples_csv(path: Path) -> list[tuple[float, float]]:
    samples: list[tuple[float, float]] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: expected 's,f' columns")
        try:
            samples.append((float(parts[0]), float(parts[1])))
        except ValueError:
            if not samples and all(not _is_float(x) for x in parts[:2]):
                continue  # header row
            raise ValueError(f"line {lineno}: cannot parse {line!r}") from None
    if len(samples) < 3:
        raise ValueError("need at least 3 sample rows")
    return samples


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


if __name__ == "__main__":
    raise SystemExit(main())
