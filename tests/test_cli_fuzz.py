"""Seeded sweeps of degenerate CLI inputs, run through ``cli.main`` in process.

Each property is the CLI's contract: whatever the input, ``main`` returns an
exit code in 0-3, no exception escapes, and exits 1 and 2 print a message
without a traceback.  The sweeps are seeded, so a failure names an argv
that reproduces it.
"""

import itertools
import json
import math
import random

import pytest

from dhlab.cli import main

# projection ranges [x, x + k ulp(x)]: at 0 they are subnormal, at 2**60 an
# ulp is 256, and at 1e300 the range is narrow beside its ends
_RANGE_STARTS = (0.0, 1.0, 2.0**60, 1e300)
_RANGE_ULPS = (1, 2, 3, 5, 8, 13, 40, 1000)
_BINS = (1, 2, 3, 8, 40)
_METHODS = ("exact2d", "mc")


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
    for x in _RANGE_STARTS:
        dim = rng.choice((2, 3))
        narrow = rng.randrange(dim)
        hi = x + rng.choice(_RANGE_ULPS) * math.ulp(x)
        path.write_text(json.dumps(_box(dim, narrow, x, hi)))
        bins = rng.choice(_BINS)
        # along the narrow axis the bins are a few ulps wide; along another
        # the slices are that thin
        for axis, method in itertools.product((narrow, (narrow + 1) % dim), _METHODS):
            argv = ["toric", "--input", str(path), "--axis", str(axis), "--bins", str(bins),
                    "--method", method, "--samples", "200"]
            code, err = main(argv), capsys.readouterr().err
            assert code in (0, 1, 2, 3), (argv, path.read_text(), code)
            if code in (1, 2):
                assert err.strip() and "Traceback" not in err, (argv, path.read_text(), err)
