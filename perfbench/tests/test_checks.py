"""The benchmark's checkers reject wrong answers, so they cannot pass vacuously.

    python3 -m pytest perfbench/tests -q
"""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import import_times  # noqa: E402

F = Fraction
LEFT, RIGHT = 2.5 - math.sqrt(3) / 2, 2.5 + math.sqrt(3) / 2


def top_power(a2, a1, a0):
    return {(0, 0, 0, 0, 2, 0): F(a2), (0, 0, 0, 0, 1, 0): F(a1), (0, 0, 0, 0, 0, 0): F(a0)}


def test_top_power_is_six_pfaffian():
    assert checks.check_top_power(top_power(6, -30, 42), F(2), F(3)) == []
    # 6 (1 + (3/2 - t)(7/3 - t)) = 6t^2 - 23t + 27
    assert checks.check_top_power(top_power(6, -23, 27), F(3, 2), F(7, 3)) == []


@pytest.mark.parametrize("wrong", [
    top_power(6, -30, 43),                                  # one coefficient off
    {(0, 0, 0, 0, 2, 0): F(6), (0, 0, 0, 0, 1, 0): F(-30)},  # one term missing
    {**top_power(6, -30, 42), (0, 1, 0, 0, 0, 0): F(1)},    # one term too many
])
def test_top_power_off_by_one_term_is_rejected(wrong):
    assert checks.check_top_power(wrong, F(2), F(3))


def test_violation_set_of_the_paper():
    (lo, hi), = checks.violation_set(F(2), F(3), F(1, 2), F(9, 2))
    assert lo == pytest.approx(LEFT, abs=1e-15) and hi == pytest.approx(RIGHT, abs=1e-15)
    assert checks.check_violations([(LEFT, RIGHT)], F(2), F(3), F(1, 2), F(9, 2)) == []
    # clipped to the window, and empty once |c1 - c2| >= 2
    assert checks.violation_set(F(2), F(3), F(2), F(3)) == [(2.0, 3.0)]
    assert checks.violation_set(F(1), F(4), F(1, 2), F(9, 2)) == []


@pytest.mark.parametrize("shift", [2e-9, -2e-9, 1e-6])
def test_shifted_violation_endpoint_is_rejected(shift):
    assert checks.check_violations([(LEFT + shift, RIGHT)], F(2), F(3), F(1, 2), F(9, 2))
    assert checks.check_violations([(LEFT, RIGHT + shift)], F(2), F(3), F(1, 2), F(9, 2))
    assert checks.check_violations([], F(2), F(3), F(1, 2), F(9, 2))


def test_known_faults_have_the_exact_answers():
    # (a): the top power 6 (t - 2)^2 vanishes at t = 2 inside [0.5, 4.4]
    assert not checks.nondegenerate(F(1), F(3), F(1, 2), F("4.4"))
    assert checks.check_nondegenerate(True, F(1), F(3), F(1, 2), F("4.4"))
    assert checks.expected_exit("verify", F(1), F(3), F(1, 2), F("4.4")) == 1
    assert checks.expected_exit("logconcavity", F(1), F(3), F(1, 2), F("4.4")) == 1
    # (b): a violation interval about 6.3e-5 wide around t = 2
    c2 = F("2.999999999")
    (lo, hi), = checks.violation_set(F(1), c2, F(1, 2), F(9, 2))
    assert 1.99996 < lo < 1.99997 and 2.00003 < hi < 2.00004
    assert checks.expected_exit("logconcavity", F(1), c2, F(1, 2), F(9, 2)) == 3
    assert checks.check_exit(0, 3, "dhlab logconcavity")


def test_chern_numbers():
    good = {k: F(v) for k, v in checks.CHERN_EXPECTED.items()}
    assert checks.check_chern(good) == []
    assert checks.check_chern({**good, "x1^x2": F(-1)})
    assert checks.check_chern({k: v for k, v in good.items() if k != "x2^x3"})


def test_bin_averages_integrate_the_density():
    coeffs = checks.density_coeffs(F(2), F(3))
    avgs = checks.bin_averages(coeffs, 0.5, 4.5, 40)
    assert math.fsum(avgs) * 0.1 == pytest.approx(1.0, abs=1e-14)
    # the bin average exceeds the centre value by f'' h^2 / 24 for a quadratic
    centres = [0.5 + 0.1 * (k + 0.5) for k in range(40)]
    mass = 25 / 3  # integral of t^2 - 5t + 7 over [0.5, 4.5]
    for a, c in zip(avgs, checks.normalized_values(coeffs, 0.5, 4.5, centres)):
        assert a - c == pytest.approx(2 * 0.01 / 24 / mass, rel=1e-6)


def synthetic_histogram():
    avgs = checks.bin_averages(checks.density_coeffs(F(2), F(3)), 0.5, 4.5, 40)
    stderr = [1e-3 * a for a in avgs]
    return list(avgs), stderr, avgs


def test_histogram_at_the_exact_averages_passes():
    density, stderr, avgs = synthetic_histogram()
    assert checks.check_histogram(density, stderr, avgs, 0.1) == []


def test_histogram_bin_moved_by_8_standard_errors_is_rejected():
    density, stderr, avgs = synthetic_histogram()
    # move one bin up and another down by the same mass, so only z can tell
    density[7] += 8 * stderr[7]
    density[30] -= 8 * stderr[7]
    problems = checks.check_histogram(density, stderr, avgs, 0.1)
    assert any(p.startswith("bin 7") for p in problems)
    assert not any("integrates" in p for p in problems)


def test_histogram_not_integrating_to_one_is_rejected():
    density, stderr, avgs = synthetic_histogram()
    density = [d * (1 + 1e-9) for d in density]
    assert any("integrates" in p for p in checks.check_histogram(density, stderr, avgs, 0.1))


def test_weighted_estimate_and_thread_agreement():
    density, stderr = checks.weighted_estimate([1.0, 3.0], [1.0, 5.0], 4, 0.5)
    assert density == [0.5, 1.5]
    assert stderr[0] == pytest.approx(math.sqrt(1 - 1 / 4) / 2)
    assert checks.check_same([1.0, 2.0], [1.0, 2.0 * (1 + 1e-11)], 1e-10, "x") == []
    assert checks.check_same([1.0, 2.0], [1.0, 2.0 * (1 + 1e-9)], 1e-10, "x")


SQUARE = ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0))
TRIANGLE = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def test_chord_lengths():
    assert checks.chord_length(SQUARE, 0, 0.5) == 1.0
    assert checks.chord_length(SQUARE, 1, 0.5) == 2.0
    assert checks.chord_length(TRIANGLE, 0, 0.25) == pytest.approx(0.75)
    assert checks.chord_length(TRIANGLE, 0, 1.5) == 0.0


def test_slice_volume_off_by_one_percent_is_rejected():
    grid = [0.125, 0.375, 0.625, 0.875]
    exact = [checks.chord_length(TRIANGLE, 0, s) for s in grid]
    assert checks.check_exact_profile(exact, exact, "triangle") == []
    assert checks.check_exact_profile([exact[0] * 1.01, *exact[1:]], exact, "triangle")

    lower, upper = (0.0, -1.0, 2.0), (1.0, 1.0, 2.5)
    boxed = [checks.box_slice(lower, upper, 0, s) for s in grid]
    assert boxed == [1.0] * 4
    assert checks.check_exact_profile([1.0, 1.0, 1.01, 1.0], boxed, "box")

    want = [checks.simplex_slice((0.0, 0.0, 0.0), 1.0, 0, s) for s in grid]
    assert want[0] == pytest.approx(0.875 ** 2 / 2)
    errs = [1e-3 * w for w in want]
    assert checks.check_mc_profile(want, errs, want, "simplex") == []
    assert checks.check_mc_profile([want[0] * 1.01, *want[1:]], errs, want, "simplex")
    # a zero standard error only passes an exact value
    assert checks.check_mc_profile([want[0] * 1.01], [0.0], want, "simplex")


def test_prekopa_verdict_must_be_log_concave():
    assert checks.check_log_concave(True, "p") == []
    assert checks.check_log_concave(False, "p")


def test_certify_configs_are_seeded_and_balanced():
    a = inputs.certify_configs(random.Random("s"), 5)
    assert a == inputs.certify_configs(random.Random("s"), 5)
    assert sorted(c.kind for c in a) == sorted(inputs.KINDS * 5)
    for c in a:
        assert abs(c.c1 - c.c2) != 2
        assert inputs.kind_of(c.c1, c.c2, c.lo, c.hi) == c.kind
        assert float(c.lo) == c.lo and float(c.hi) == c.hi


def test_toric_bodies_contain_their_shapes():
    import numpy as np
    bodies = inputs.toric_bodies(np.random.default_rng(3))
    assert [(b.kind, b.dim) for b in bodies] == list(inputs.ROUND_PLAN)
    for b in bodies:
        if b.kind == "polygon":
            for v in b.shape:
                assert all(a[0] * v[0] + a[1] * v[1] <= off + 1e-9 for a, off in b.halfspaces)


def test_import_times_sum_top_level_modules_of_a_package():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:        50 |        150 |     scipy",
        "import time:        10 |        10 |         numpy.linalg",
        "import time:        20 |        30 |       scipy.sparse",
        "import time:       400 |        430 |     scipy.optimize",
        "import time:         5 |        620 |   dhlab.toric",
        "import time:         1 |        621 | dhlab",
        "import time:         7 |          7 | scipy.special",
    ])
    times = import_times(report, ("dhlab", "scipy"))
    assert times["dhlab"] == pytest.approx(621e-6)
    assert times["scipy"] == pytest.approx((150 + 430 + 7) * 1e-6)
