"""Seeded sweeps of degenerate CLI inputs, run through ``cli.main`` in process.

Each property is the CLI's contract: whatever the input, ``main`` returns an
exit code in 0-3 (or argparse exits 2), no other exception escapes, no
warning is issued, exits 1 and 2 print a message without a traceback, every
CSV printed has a finite, strictly ascending first column, and a second run
of the same argv gives the same code, stdout, stderr and output file, as
does a density run under each DH_LAB_THREADS setting (unset, empty, 1, 2
or 3).  A samples file rescaled by a power of two keeps its exit code and
report.  The sweeps are seeded, so a failure names an argv that reproduces
it.

Budget: the whole file runs in under 10 s on 2 vCPUs (4 to 5 s measured);
each sweep samples its combinations per seed to stay within it.
"""

import itertools
import json
import math
import random
import warnings
from pathlib import Path

import pytest

from dhlab.cli import main

# projection ranges [x, x + k ulp(x)]: at 0 they are subnormal, at 2**60 an
# ulp is 256, and at 1e300 the range is narrow beside its ends
_RANGE_STARTS = (0.0, 1.0, 2.0**60, 1e300)
_RANGE_ULPS = (1, 2, 3, 5, 8, 13, 40, 1000)
# ranges [x, 1.7e308]: a finite width whose bin centres can overflow
_WIDE_STARTS = (1e300, 1e307)
_BINS = (1, 2, 3, 8, 40)
_METHODS = ("exact2d", "mc")
# numbers as argv strings: signed zeros, the float range's edges and beyond,
# non-finite values, rationals, forms float() or Fraction() may refuse, and
# an integer with no float
_NUMBERS = ("0", "-0.0", "5e-324", "1e-308", "1e308", "1e400", "nan", "inf", "-inf", "1/3",
            "-1/0", "0x10", "1_000", "", " 2", str(10**400))


def _first_column(out: str) -> list[float]:
    """The first field of each printed line that starts with a number: the CSV rows."""
    column = []
    for line in out.splitlines():
        try:
            column.append(float(line.split(",")[0]))
        except ValueError:  # a comment, a header or a verdict
            pass
    return column


def _run(argv: list[str], capsys, output: Path | None) -> tuple:
    """main(argv)'s exit code, stdout, stderr, warnings and the bytes of the
    ``output`` path (None if no file is there afterwards)."""
    if output is not None and output.exists():
        output.unlink()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
    out, err = capsys.readouterr()
    written = output.read_bytes() if output is not None and output.exists() else None
    return code, out, err, [str(w.message) for w in caught], written


def _check_run(argv: list[str], capsys, context: str = "",
               output: Path | None = None) -> int:
    """main(argv)'s exit code, once each property of the contract holds;
    ``output`` is the path argv passes to --output, if any."""
    first = _run(argv, capsys, output)
    code, out, err, caught, _ = first
    assert code in (0, 1, 2, 3), (argv, context, code)
    assert not caught and "Warning" not in err, (argv, context, err, caught)
    if code in (1, 2):
        assert err.strip() and "Traceback" not in err, (argv, context, err)
    if argv[0] in ("density", "toric"):  # the commands that print a CSV
        column = _first_column(out)
        assert all(map(math.isfinite, column)), (argv, context, column)
        assert all(a < b for a, b in zip(column, column[1:])), (argv, context, column)
    assert _run(argv, capsys, output) == first, (argv, context)
    return code


def _output(rng: random.Random, tmp_path: Path) -> tuple[list[str], Path | None]:
    """No --output (half the time), one to a new file, or one to a path that
    cannot be written (one time in six)."""
    target = rng.choice((None, None, None, tmp_path / "out", tmp_path / "out",
                         tmp_path / "no_such_dir" / "out"))
    return ([] if target is None else ["--output", str(target)]), target


def _box(dim: int, narrow: int, lo: float, hi: float) -> dict:
    """[lo, hi] along axis ``narrow`` times [0, 1] along the others."""
    halfspaces = []
    for axis in range(dim):
        low, high = (lo, hi) if axis == narrow else (0.0, 1.0)
        unit = [int(k == axis) for k in range(dim)]
        halfspaces += [{"a": unit, "b": high}, {"a": [-v for v in unit], "b": -low}]
    return {"dim": dim, "halfspaces": halfspaces}


@pytest.mark.parametrize("seed", range(10))
def test_toric_narrow_projection_sweep(tmp_path, capsys, seed):
    # budget: under 3 s for all seeds on 2 vCPUs (dim is kept at 2-3: vertex
    # enumeration grows fast with dim)
    rng = random.Random(seed)
    path = tmp_path / "box.json"
    ranges = [(x, x + rng.choice(_RANGE_ULPS) * math.ulp(x)) for x in _RANGE_STARTS]
    for lo, hi in ranges + [(x, 1.7e308) for x in _WIDE_STARTS]:
        dim = rng.choice((2, 3))
        narrow = rng.randrange(dim)
        path.write_text(json.dumps(_box(dim, narrow, lo, hi)))
        bins = rng.choice(_BINS)
        # along the narrow axis the bins are a few ulps wide; along another
        # the slices are that thin
        for axis, method in itertools.product((narrow, (narrow + 1) % dim), _METHODS):
            _check_run(["toric", "--input", str(path), "--axis", str(axis), "--bins", str(bins),
                        "--method", method, "--samples", "200"], capsys, path.read_text())


@pytest.mark.parametrize("seed", range(10))
def test_density_narrow_window_sweep(tmp_path, monkeypatch, capsys, seed):
    # windows [x, x + k ulp(x)] with k up to bins + 1: few floats per bin;
    # then the default window, where the bin sums round, so a merge whose
    # order followed the thread count would show.  140000 samples (always
    # on the default window) are three chunks of 2**16, which 2 or 3 threads
    # split, and every DH_LAB_THREADS setting gives the same code, streams
    # and file
    rng = random.Random(seed)
    for x in (1.0, 2.0**60, 1e300, 0.5):
        bins = rng.choice([b for b in _BINS if b >= 2])  # density needs 2
        hi = 4.5 if x == 0.5 else x + rng.randint(1, bins + 1) * math.ulp(x)
        flat = ["--flat"] if rng.random() < 0.5 else []
        flags, output = _output(rng, tmp_path)
        samples = "140000" if x == 0.5 else rng.choice(("200", "140000"))
        argv = ["density", "--window", repr(x), repr(hi), "--bins", str(bins), "--samples",
                samples, "--seed", str(seed), *flat, *flags]
        monkeypatch.delenv("DH_LAB_THREADS", raising=False)
        _check_run(argv, capsys, output=output)
        first = _run(argv, capsys, output)
        for threads in ("", "1", "2", "3"):
            monkeypatch.setenv("DH_LAB_THREADS", threads)
            assert _run(argv, capsys, output) == first, (argv, threads)


@pytest.mark.parametrize("seed", range(10))
def test_window_and_params_sweep(tmp_path, capsys, seed):
    # each of the two window ends and the two params is its default or a
    # number from the edge list; 10 argvs per command, each run twice
    rng = random.Random(seed)
    for _ in range(10):
        window, params = (
            [rng.choice(_NUMBERS) if rng.random() < 0.3 else default for default in defaults]
            for defaults in (("0.5", "4.5"), ("2", "3")))
        for command in (["verify"], ["logconcavity", "--analytic"]):
            flags, output = _output(rng, tmp_path)
            _check_run([*command, "--window", *window, "--params", *params, *flags], capsys,
                       output=output)


def _samples_csv(rng: random.Random) -> str:
    """A samples file: an optional header, then up to 8 rows of a log-concave
    or a log-convex profile on a uniform grid, with at most one flaw: a
    repeated or moved point, or a value that is zero, negative, subnormal,
    huge, non-finite or no number, or a row of one or three fields."""
    lines = [rng.choice(("s,f", "# comment", "s,f,extra"))] if rng.random() < 0.3 else []
    n = rng.choice((0, 2, 3, 5, 8, 8))
    h = rng.choice((1.0, 0.25, 1e-300, 1e300))
    curve = rng.choice((2.0, -2.0, 0.0))  # log-concave, log-convex, flat
    rows = [[repr(k * h), repr(2.0 ** (curve * (k - n / 2) ** 2 / max(n, 1)))] for k in range(n)]
    if rows:
        k = rng.randrange(n)
        flaw = rng.choice(("none", "none", "none", "repeated", "moved", "value", "fields"))
        if flaw == "repeated" and k:
            rows[k][0] = rows[k - 1][0]
        elif flaw == "moved":
            rows[k][0] = repr((k + 0.37) * h)
        elif flaw == "value":
            rows[k][1] = rng.choice(("0", "-1", "1e-320", "1e300", "nan", "inf", "x", ""))
        elif flaw == "fields":
            rows[k] = rows[k][:1] if rng.random() < 0.5 else rows[k] + ["7"]
    return "\n".join(lines + [",".join(row) for row in rows]) + "\n"


# profiles with values in [1, 8): a dip, a log-convex run, a log-concave hump and
# the geometric equality case; 2**k for -1022 <= k <= 1020 scales each sample
# exactly to a normal float
_SCALED_PROFILES = {(4.0, 1.0, 4.0, 4.0): 3, (1.0, 1.5, 3.0, 7.5): 3,
                    (1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0): 0, (1.0, 2.0, 4.0): 0}


@pytest.mark.parametrize("seed", range(10))
def test_samples_csv_sweep(tmp_path, capsys, seed):
    rng = random.Random(seed)
    path = tmp_path / "samples.csv"
    for _ in range(6):
        path.write_text(_samples_csv(rng))
        flags, output = _output(rng, tmp_path)
        _check_run(["logconcavity", "--input", str(path), *flags], capsys, path.read_text(),
                   output)
    # the verdict, its intervals and its witnesses are the same at every scale
    output = tmp_path / "report.json"
    for values, want in _SCALED_PROFILES.items():
        seen = set()
        for k in (0, rng.randint(-1022, -500), rng.randint(-500, 500), rng.randint(500, 1020)):
            path.write_text("".join(f"{j},{v * 2.0 ** k!r}\n" for j, v in enumerate(values)))
            code = _check_run(["logconcavity", "--input", str(path), "--output", str(output)],
                              capsys, path.read_text(), output)
            seen.add((code, output.read_text()))
        assert len(seen) == 1 and next(iter(seen))[0] == want, (values, seen)


def _polytope_doc(rng: random.Random) -> str:
    """A polytope JSON document: a box in dimension 1-3, then up to two of:
    a flat axis, a dropped row (unbounded), an infeasible pair (empty),
    repeated and zero rows, a normal of the wrong length, a non-numeric
    entry, a huge coordinate, a wrong "dim"; or a document that is no
    polytope at all."""
    if rng.random() < 0.1:
        return rng.choice(("", "{", "[]", "null", '{"dim": 2}', '{"halfspaces": []}',
                           '{"dim": 2, "halfspaces": []}'))
    dim = rng.choice((1, 2, 3))
    doc = _box(dim, rng.randrange(dim), 0.0, 1.0)
    rows = doc["halfspaces"]
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(("flat", "drop", "infeasible", "repeat", "zero", "length",
                           "non-numeric", "huge", "dim"))
        # a row to change, among those a mutation has not made malformed
        lists = [i for i, row in enumerate(rows) if isinstance(row["a"], list)]
        k = rng.choice(lists) if lists else None
        if kind == "flat":
            axis = rng.randrange(dim)
            rows += [{"a": [-int(i == axis) for i in range(dim)], "b": -1.0}]
        elif kind == "drop" and k is not None:
            rows.pop(k)
        elif kind == "infeasible":
            rows += [{"a": [1] + [0] * (dim - 1), "b": -1}, {"a": [-1] + [0] * (dim - 1), "b": -1}]
        elif kind == "repeat" and k is not None:
            rows.append(dict(rows[k]))
        elif kind == "zero":
            rows.append({"a": [0] * dim, "b": rng.choice((0, 1, -1))})
        elif kind == "length" and k is not None:
            rows[k] = {"a": rows[k]["a"] + [0], "b": rows[k]["b"]}
        elif kind == "non-numeric" and k is not None:
            rows[k] = dict(rows[k], **{rng.choice("ab"): rng.choice(("1", None, True, [1]))})
        elif kind == "huge" and k is not None:
            rows[k] = {"a": [v * rng.choice((1, 1e300)) for v in rows[k]["a"]],
                       "b": rng.choice((1e308, 10**400, -1e308, 1.7e308))}
        elif kind == "dim":
            doc["dim"] = rng.choice((0, -1, dim + 1, "2", True, 2.0))
    return json.dumps(doc)


@pytest.mark.parametrize("seed", range(10))
def test_polytope_json_sweep(tmp_path, capsys, seed):
    rng = random.Random(seed)
    path = tmp_path / "polytope.json"
    for _ in range(6):
        path.write_text(_polytope_doc(rng))
        flags, output = _output(rng, tmp_path)
        method = rng.choice(([], ["--method", "exact2d"], ["--method", "mc"]))
        _check_run(["toric", "--input", str(path), "--axis", str(rng.choice((0, 0, 1, 2, -1))),
                    "--bins", str(rng.choice(_BINS)), "--samples", "200", *method, *flags],
                   capsys, path.read_text(), output)
