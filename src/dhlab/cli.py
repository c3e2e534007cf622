"""Command-line interface: reproducible verification, density, log-concavity
and toric-baseline runs.

Exit codes are stable and distinct:

* 0 - success (and, for the log-concavity commands, the density is log-concave)
* 1 - operational or verification failure
* 2 - usage or input error
* 3 - mathematical negative finding: log-concavity is violated

Code 3 is deliberately separate from 1: a violated inequality is a finding,
not a malfunction, and scripts need to tell them apart.  Only ``main`` turns
an exception into a code: a DomainError (input with no result) gives 1, and
input a command cannot use (an OSError on a named path, or another
ValueError raised while reading user input) gives 2.  This module alone reads
argv and the environment.  All randomized outputs embed their provenance
(seed, sample count, window, parameters, generator name) in header comments,
and identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager
from pathlib import Path

from .construction import (
    CutWindow,
    OmegaParams,
    VerificationReport,
    analytic_dh_density,
    standard_construction,
    verify_construction,
)
from .exterior import Form, Poly
from .logconcavity import DomainError, analytic_logconcavity, discrete_logconcavity

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3

DISCRETE_TOL = 1e-9
DENSITY_GATE = 0.03


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # report them with the usage of the subcommand that refused them
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")  # exits 2
    if "window" in vars(args):
        try:
            args.window = CutWindow(*args.window)
        except ValueError as exc:
            parser.error(str(exc))  # exits 2
        try:
            args.params = OmegaParams(*args.params)
        except (ValueError, ZeroDivisionError):
            parser.error(f"cannot parse --params {' '.join(args.params)} as rationals")
    try:
        if args.output is not None:
            _write(args.output, "", "a")  # fail before the work; "a" truncates nothing
        return args.run(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except _InputError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_FAILURE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhlab",
        description="Moment-map pushforward densities: symbolic verification, "
                    "Monte-Carlo estimation, log-concavity analysis and toric "
                    "slice-volume baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str, window=False, seed=False):
        # a subcommand has only the options its handler reads
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, parser=p)
        # every option is long, so "-1/3" or "-1e3" is a value, never an option
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        if window:
            p.add_argument("--window", nargs=2, type=float, default=[0.5, 4.5],
                           metavar=("A", "B"), help="moment-map cut window (default 0.5 4.5)")
            p.add_argument("--params", nargs=2, default=["2", "3"], metavar=("C1", "C2"),
                           help="constants of the symplectic form, as rationals (default 2 3)")
        if seed:
            p.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
        p.add_argument("--output", type=Path, default=None, help="write the report/CSV here")
        return p

    command("verify", cmd_verify, "run the exact symbolic verification battery", window=True)

    p_density = command("density", cmd_density, "Monte-Carlo pushforward density vs analytic",
                        window=True, seed=True)
    p_density.add_argument("--samples", type=int, default=2_000_000,
                           help="number of Monte-Carlo samples (default 2000000)")
    p_density.add_argument("--bins", type=int, default=40, help="histogram bins (default 40)")
    p_density.add_argument("--flat", action="store_true",
                           help="synthetic constant-density mode (flat pushforward)")

    p_logc = command("logconcavity", cmd_logconcavity, "log-concavity analysis of a density",
                     window=True)
    mode = p_logc.add_mutually_exclusive_group(required=True)
    mode.add_argument("--analytic", action="store_true",
                      help="analyze the exact pushforward density of the construction")
    mode.add_argument("--input", type=Path, default=None,
                      help="CSV of s,f(s) samples on a uniform grid; ignores --window, --params")

    p_toric = command("toric", cmd_toric, "slice-volume profile of a convex polytope", seed=True)
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
        _write(args.output, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if report.all_passed else EXIT_FAILURE


def cmd_density(args: argparse.Namespace) -> int:
    # .measure imports numpy, so only density imports it, and verify and
    # logconcavity start without it; .toric loads numpy only to build a profile
    from .measure import GENERATOR_NAME, SamplerConfig, compare, normalize, sample_pushforward

    _, report = _construct_and_verify(args)
    if not report.all_passed:
        return EXIT_FAILURE
    if args.flat:
        top = Poly.constant(report.top_power_poly.nvars, 6)
        analytic = Poly.constant(1, 1)
    else:
        top = report.top_power_poly
        analytic = analytic_dh_density(report, args.window)

    with _input("bad sampling configuration"):
        sampler = SamplerConfig(args.samples, args.bins, args.window, args.seed)
        threads = _env_threads()
    est = normalize(sample_pushforward(top, sampler, threads))
    comp = compare(est, analytic, args.window)

    lines = [
        f"# dhlab density: generator={GENERATOR_NAME} seed={args.seed} "
        f"samples={args.samples} bins={args.bins} "
        f"window=[{args.window.lo!r},{args.window.hi!r}] "
        f"params=[{args.params.c1},{args.params.c2}] flat={args.flat}",
        "bin_center,analytic_density,mc_density,stderr,z_score",
    ]
    # analytic_density is the density at the bin centre; z_score measures the
    # bin against the density's exact average over the bin
    lines += [f"{c!r},{a!r},{d!r},{e!r},{z!r}" for c, a, d, e, z in
              zip(est.bin_centers.tolist(), comp.centre_values.tolist(),
                  est.density.tolist(), est.stderr.tolist(), comp.per_bin_z.tolist())]
    _emit(args.output, lines)
    n_extreme = sum(abs(z) > 3 for z in comp.per_bin_z.tolist())
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
        density = analytic_dh_density(report, args.window)
        result = analytic_logconcavity(density, (args.window.lo, args.window.hi))
    else:
        with _input("bad samples file"):  # unparsable rows, or not a uniform grid
            result = discrete_logconcavity(_read_samples_csv(args.input), DISCRETE_TOL)

    payload = json.dumps(result.to_json_dict(), indent=2, sort_keys=True)
    print(payload)
    if args.output is not None:
        _write(args.output, payload + "\n")
    if result.log_concave:
        print("log-concave: yes")
        return EXIT_OK
    intervals = ", ".join(f"({lo:.9f}, {hi:.9f})" for lo, hi in result.violation_intervals)
    print(f"log-concave: NO; violations on {intervals}")
    return EXIT_VIOLATION


def cmd_toric(args: argparse.Namespace) -> int:
    from .toric import HPolytope, prekopa_check, slice_profile, suggested_tolerance

    with _input("bad polytope JSON"):  # json.JSONDecodeError is a ValueError
        polytope = HPolytope.from_json(_read(args.input))
    with _input("usage error"):  # incompatible method/axis/bins for this input
        profile = slice_profile(polytope, args.axis, args.bins, method=args.method,
                                mc_n=args.samples, seed=args.seed)
    result = prekopa_check(profile, suggested_tolerance(profile))

    lines = [
        f"# dhlab toric profile: axis={args.axis} bins={args.bins} method={profile.method} "
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

class _InputError(Exception):
    """Input a command cannot use: main prints the message and exits 2."""


@contextmanager
def _input(prefix: str):
    """Raise a ValueError from the block as an _InputError reading
    ``prefix: message``; a DomainError passes through to main."""
    try:
        yield
    except DomainError:
        raise
    except ValueError as exc:
        raise _InputError(f"{prefix}: {exc}") from exc


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


def _write(path: Path, text: str, mode: str = "w") -> None:
    try:
        with path.open(mode) as f:
            f.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}") from exc


def _env_threads() -> int:
    """Sampler threads from DH_LAB_THREADS: 1 if unset or empty, else a positive integer."""
    raw = os.environ.get("DH_LAB_THREADS", "")
    try:
        threads = int(raw or "1")
    except ValueError:
        raise ValueError(f"DH_LAB_THREADS must be an integer, not {raw!r}") from None
    if threads < 1:
        raise ValueError(f"DH_LAB_THREADS must be a positive integer, not {raw!r}")
    return threads


def _construct_and_verify(args: argparse.Namespace) -> tuple[Form, VerificationReport]:
    """The standard construction and its verify battery, with each failed
    identity named on stderr."""
    _, _, omega = standard_construction(args.window, args.params)
    report = verify_construction(omega, args.window, args.params)
    for name in report.failed_identities():
        print(f"verification failed: {name}", file=sys.stderr)
    return omega, report


def _emit(output: Path | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        _write(output, text)


def _read_samples_csv(path: Path) -> list[tuple[float, float]]:
    samples: list[tuple[float, float]] = []
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
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
    return samples


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


if __name__ == "__main__":
    raise SystemExit(main())
