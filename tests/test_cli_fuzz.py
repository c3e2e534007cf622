"""Seeded sweeps of degenerate CLI inputs, run through ``cli.main`` in process.

Each property is the CLI's contract: whatever the input, ``main`` returns an
exit code in 0-3, no exception escapes, no warning is issued, exits 1 and 2
print a message without a traceback, and every CSV printed has a finite,
strictly ascending first column.  The sweeps are seeded, so a failure names
an argv that reproduces it.
"""

import itertools
import json
import math
import random
import warnings

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


def _first_column(out: str) -> list[float]:
    """The first field of each printed line that starts with a number: the CSV rows."""
    column = []
    for line in out.splitlines():
        try:
            column.append(float(line.split(",")[0]))
        except ValueError:  # a comment, a header or a verdict
            pass
    return column


def _check_run(argv: list[str], capsys, context: str = "") -> int:
    """main(argv)'s exit code, once each property of the contract holds."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (argv, context, code)
    assert not caught and "Warning" not in err, (argv, context, err, caught)
    if code in (1, 2):
        assert err.strip() and "Traceback" not in err, (argv, context, err)
    column = _first_column(out)
    assert all(map(math.isfinite, column)), (argv, context, column)
    assert all(a < b for a, b in zip(column, column[1:])), (argv, context, column)
    return code


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
def test_density_narrow_window_sweep(monkeypatch, capsys, seed):
    # windows [x, x + k ulp(x)] with k up to bins + 1: few floats per bin
    monkeypatch.delenv("DH_LAB_THREADS", raising=False)
    rng = random.Random(seed)
    for x in (1.0, 2.0**60, 1e300):
        bins = rng.choice([b for b in _BINS if b >= 2])  # density needs 2
        hi = x + rng.randint(1, bins + 1) * math.ulp(x)
        flat = ["--flat"] if rng.random() < 0.5 else []
        _check_run(["density", "--window", repr(x), repr(hi), "--bins", str(bins),
                    "--samples", "200", "--seed", str(seed), *flat], capsys)
