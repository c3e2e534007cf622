"""Discrete and exact log-concavity tests, and root isolation."""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dhlab.exterior
from dhlab import (
    DomainError,
    Poly,
    analytic_logconcavity,
    concavity_discriminant,
    discrete_logconcavity,
    isolate_roots,
)
from dhlab.exterior import positive_on, root_brackets
from helpers import rounds_to_root

RHO = Poly(1, {(2,): 1, (1,): -5, (0,): 7})       # t^2 - 5 t + 7
G_RHO = Poly(1, {(2,): -2, (1,): 10, (0,): -11})  # rho rho'' - (rho')^2
LEFT = 2.5 - math.sqrt(3) / 2
RIGHT = 2.5 + math.sqrt(3) / 2


def _grid(lo, hi, h):
    n = round((hi - lo) / h)
    return np.linspace(lo, hi, n + 1)


# ---------------------------------------------------------------------------
# root isolation
# ---------------------------------------------------------------------------

def test_isolate_quadratic_roots():
    roots = isolate_roots(G_RHO, (0.0, 5.0))
    assert len(roots) == 2
    assert roots[0] == pytest.approx(LEFT, abs=1e-9)
    assert roots[1] == pytest.approx(RIGHT, abs=1e-9)
    assert all(rounds_to_root(r, lambda x: G_RHO.evaluate_exact((x,)), (0, 5)) for r in roots)


def test_isolate_no_real_roots():
    assert isolate_roots(RHO, (0.0, 5.0)) == []


def test_isolate_linear_root():
    assert isolate_roots(Poly(1, {(1,): 1, (0,): Fraction(-5, 2)}), (0.0, 5.0)) == [2.5]


def test_isolate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        isolate_roots(RHO, (2.0, 2.0))
    with pytest.raises(ValueError, match="empty interval"):  # ends beyond the float range
        isolate_roots(RHO, (2 ** 1101, 2 ** 1100))


@pytest.mark.parametrize("check", [isolate_roots, positive_on, analytic_logconcavity])
@pytest.mark.parametrize("interval", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
def test_root_isolation_names_an_interval_end_that_is_not_finite(check, interval):
    with pytest.raises(ValueError, match=r"interval \(.*\) has an end that is not finite"):
        check(RHO, interval)


def test_isolate_root_on_grid_point():
    # roots at 1 and 4 are rational, met exactly or bracketed until they round
    p = Poly(1, {(2,): 1, (1,): -5, (0,): 4})
    assert isolate_roots(p, (0.0, 5.0)) == [1.0, 4.0]


def test_isolate_double_root():
    # 6 (t - 2)^2 touches zero without a sign change
    p = Poly(1, {(2,): 6, (1,): -24, (0,): 24})
    assert isolate_roots(p, (0.5, 4.4)) == [2.0]


def test_isolate_close_root_pair():
    # roots 2 -/+ 1e-6 lie far inside any fixed-pitch sign scan
    p = Poly(1, {(2,): 1, (1,): -4, (0,): 4 - Fraction(1, 10 ** 12)})
    roots = isolate_roots(p, (0.0, 5.0))
    assert roots == [float(2 - Fraction(1, 10 ** 6)), float(2 + Fraction(1, 10 ** 6))]


def test_isolate_random_products_of_known_roots():
    # rational roots of multiplicity 1-3, some 1e-6 apart, some at the ends
    rng = random.Random(7)
    t = Poly.variable(1, 0)
    for _ in range(200):
        roots = [Fraction(rng.randint(-40, 40), rng.choice([1, 3, 8, 10 ** 6]))
                 for _ in range(rng.randint(0, 4))]
        p = rng.choice([-3, 1, Fraction(2, 5)]) * (t * t + 1) ** rng.randint(0, 1)
        for r in roots:
            p = p * (t - r) ** rng.randint(1, 3)
        lo = Fraction(rng.randint(-50, 0), 7)
        if roots and rng.random() < 0.3:
            lo = min(roots)
        hi = lo + rng.randint(1, 60)
        want = sorted({r for r in roots if lo <= r <= hi})
        got = isolate_roots(p, (lo, hi))
        assert got == [float(r) for r in want], (p, lo, hi)


def test_isolate_roots_at_interval_ends():
    # the interval is closed: roots at both ends count
    p = Poly(1, {(2,): 1, (1,): -5, (0,): 4})
    assert isolate_roots(p, (1.0, 4.0)) == [1.0, 4.0]
    with pytest.raises(ValueError):
        isolate_roots(Poly(1), (0.0, 1.0))


def test_isolate_rounds_each_root_once():
    t = Poly.variable(1, 0)
    # 1 + 3*2**-53 lies half-way between 1 + 2**-52 and 1 + 2**-51, and no
    # bisection point of (0, 3) is ever that root: the tie goes to the even one
    assert isolate_roots(t - 1 - Fraction(3, 2 ** 53), (0, 3)) == [1 + 2 ** -51]
    # about 1050 halvings of (0, 3) before the bracket rounds to one double
    assert isolate_roots(t - Fraction(1, 10 ** 300), (0, 3)) == [1e-300]


def test_isolate_roots_beyond_float_range():
    # regression: float() of such a root's bracket overflowed; the root is
    # +-inf, the rule Poly.evaluate applies to values
    t = Poly.variable(1, 0)
    right, left = (Fraction(0), Fraction(2 ** 1101)), (Fraction(-2 ** 1101), Fraction(0))
    assert isolate_roots(t - 2 ** 1100, right) == [math.inf]
    assert isolate_roots(t + 2 ** 1100, left) == [-math.inf]
    assert isolate_roots((t - 2 ** 1100) * (t - 3), right) == [3.0, math.inf]
    # the rounding boundary between the largest double and inf
    edge = 2 ** 1024 - 2 ** 970
    assert isolate_roots(t - (edge - 1), right) == [sys.float_info.max]
    assert isolate_roots(t - edge, right) == [math.inf]
    assert isolate_roots(t + (edge - 1), left) == [-sys.float_info.max]
    assert isolate_roots(t + edge, left) == [-math.inf]


def test_rounding_oracle_agrees_with_float():
    # the oracle for irrational roots, against Python's rounding of rationals
    rng = random.Random(5)
    edge = 2 ** 1024 - 2 ** 970
    roots = [1 + Fraction(1, 2 ** 53), 1 + Fraction(3, 2 ** 53), Fraction(1, 10 ** 300),
             Fraction(1, 2 ** 1076), Fraction(edge - 1), Fraction(edge), Fraction(edge + 1),
             Fraction(0)]
    roots += [Fraction(rng.randint(-2 ** 60, 2 ** 60), rng.randint(1, 2 ** 60))
              for _ in range(200)]
    interval = (-2 ** 1100, 2 ** 1100)
    for r in roots + [-r for r in roots]:
        try:
            e = float(r)
        except OverflowError:
            e = math.inf if r > 0 else -math.inf
        f = lambda x: 3 * (x - r)
        assert rounds_to_root(e, f, interval), r
        for other in (math.nextafter(e, -math.inf), math.nextafter(e, math.inf)):
            assert other == e or not rounds_to_root(other, f, interval), (r, other)


def _random_product(rng):
    """A polynomial with known rational roots of multiplicity 1-3, and an
    interval that sometimes ends on a double root."""
    t = Poly.variable(1, 0)
    roots = [Fraction(rng.randint(-40, 40), rng.choice([1, 3, 8, 10 ** 6]))
             for _ in range(rng.randint(0, 3))]
    p = rng.choice([-3, 1, Fraction(2, 5)]) * (t * t + 1) ** rng.randint(0, 1)
    for r in roots:
        p = p * (t - r) ** rng.randint(1, 3)
    lo = Fraction(rng.randint(-50, 0), 7)
    hi = lo + rng.randint(1, 60)
    end = rng.random()
    if end < 0.2:
        p = p * (t - lo) ** 2
    elif end < 0.4:
        p = p * (t - hi) ** 2
    return p, (lo, hi)


def test_positive_on_agrees_with_root_brackets():
    rng = random.Random(10)
    verdicts = []
    for _ in range(300):
        p, (lo, hi) = _random_product(rng)
        want = p.evaluate_exact((lo,)) > 0 and not root_brackets(p, (lo, hi))
        assert positive_on(p, (lo, hi)) == want, (p, lo, hi)
        verdicts.append(want)
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur


def test_positive_on_narrows_no_bracket(monkeypatch):
    # a verdict needs only the root count, not roots bisected until they round
    def narrow(*args):
        raise AssertionError("positive_on narrowed a root bracket")

    monkeypatch.setattr(dhlab.exterior, "_narrow", narrow)
    rng = random.Random(11)
    for _ in range(100):
        p, interval = _random_product(rng)
        positive_on(p, interval)
    with pytest.raises(AssertionError, match="narrowed"):
        root_brackets(RHO * (Poly.variable(1, 0) - 1), (0, 5))


# ---------------------------------------------------------------------------
# discrete test
# ---------------------------------------------------------------------------

def test_log_affine_passes_any_tolerance():
    s = _grid(0.0, 2.0, 0.01)
    samples = [(x, math.exp(3 * x + 1)) for x in s]
    report = discrete_logconcavity(samples, tol=1e-12)
    assert report.log_concave
    assert report.violation_intervals == ()


def test_exactly_geometric_passes_zero_tolerance():
    # f = 2^i is log-affine and exact in floats, so the equality case holds
    # with no slack at all
    samples = [(0.1 * i, float(2.0 ** i)) for i in range(40)]
    assert discrete_logconcavity(samples, tol=0.0).log_concave


def test_constant_profile_is_log_concave():
    samples = [(x, 1.0) for x in _grid(0.0, 1.0, 0.1)]
    assert discrete_logconcavity(samples, tol=0.0).log_concave


def test_density_violation_interval_matches_analytic():
    h = 0.01
    s = _grid(0.5, 4.5, h)
    report = discrete_logconcavity([(x, RHO.evaluate((x,))) for x in s], tol=1e-9)
    assert not report.log_concave
    assert len(report.violation_intervals) == 1
    lo, hi = report.violation_intervals[0]
    assert abs(lo - LEFT) <= h + 1e-12
    assert abs(hi - RIGHT) <= h + 1e-12


def test_discrete_rejects_nonpositive_samples():
    samples = [(0.0, 1.0), (0.1, 0.0), (0.2, 1.0)]
    with pytest.raises(DomainError):
        discrete_logconcavity(samples, tol=1e-9)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_discrete_rejects_nonfinite_samples(bad):
    # NaN compares false with everything, and inf / inf is NaN: neither may
    # slip through the positivity check or into the midpoint test
    samples = [(0.0, 1.0), (0.1, 1.0), (0.2, bad), (0.3, 1.0)]
    with pytest.raises(DomainError, match="s=0.2"):
        discrete_logconcavity(samples, tol=1e-9)
    with pytest.raises(DomainError, match="s=nan"):
        discrete_logconcavity([(0.0, 1.0), (float("nan"), 1.0), (0.2, 1.0)], tol=1e-9)


@pytest.mark.parametrize("scale", [2.0 ** -511, 2.0 ** 510])
def test_discrete_verdict_is_scale_invariant_in_float_range(scale):
    samples = [(0.0, 2.0), (1.0, 1.0), (2.0, 2.0)]
    want = discrete_logconcavity(samples, tol=1e-9)
    got = discrete_logconcavity([(s, f * scale) for s, f in samples], tol=1e-9)
    assert not want.log_concave
    assert got.violation_intervals == want.violation_intervals


@pytest.mark.parametrize("samples, at", [
    ([(0.0, 2e-200), (1.0, 1e-200), (2.0, 2e-200)], "s=0.0"),  # products underflow to 0
    ([(0.0, 1.0), (1.0, 1e300), (2.0, 1.0)], "s=1.0"),  # f**2 overflows
    ([(0.0, 1.0), (1.0, 1.0), (2.0, 2.0 ** -512)], "s=2.0"),
])
def test_discrete_rejects_samples_outside_float_range(samples, at):
    with pytest.raises(DomainError, match=at):
        discrete_logconcavity(samples, tol=1e-9)


def test_discrete_rejects_nonuniform_grid():
    samples = [(0.0, 1.0), (0.1, 1.0), (0.35, 1.0)]
    with pytest.raises(ValueError):
        discrete_logconcavity(samples, tol=1e-9)


def test_discrete_grid_check_is_relative_to_the_step():
    # steps of 1e-12, 6e-10, 3e-10 and 5e-11 are no uniform grid at any scale;
    # a bound of 1e-9 absolute let them through where s is below 1
    s = [0.0, 1e-12, 6e-10, 9e-10, 9.5e-10]
    f = [1.0, 1.0, 1.0, 5.0, 1.0]
    for scale in (1.0, 1e12):
        with pytest.raises(ValueError, match="uniform grid"):
            discrete_logconcavity([(x * scale, v) for x, v in zip(s, f)], tol=1e-9)


@pytest.mark.parametrize("lo", [1e6, 2.0 ** 40])
def test_discrete_accepts_offset_bin_centres(lo):
    # slice_profile's centres of 40 bins on [lo, lo + 1] round by up to 2 ulps
    # of lo: at 1e6 their steps differ by 2.3e-10, 9.3e-9 of the step
    edges = np.linspace(lo, lo + 1, 41)
    centres = 0.5 * (edges[:-1] + edges[1:])
    assert discrete_logconcavity([(c, 1.0) for c in centres], tol=1e-9).log_concave


def test_discrete_needs_three_samples():
    with pytest.raises(ValueError):
        discrete_logconcavity([(0.0, 1.0), (0.1, 1.0)], tol=1e-9)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 1.0, 1.5])
def test_discrete_rejects_a_tolerance_that_flags_nothing(tol):
    # with 1 - tol <= 0, or NaN in every comparison, no index is ever flagged:
    # the V below would pass as log-concave
    samples = [(0.0, 1.0), (1.0, 0.1), (2.0, 1.0), (3.0, 5.0)]
    assert not discrete_logconcavity(samples, tol=1e-9).log_concave
    with pytest.raises(ValueError, match="tol"):
        discrete_logconcavity(samples, tol=tol)


def test_discrete_scale_invariance():
    h = 0.02
    s = _grid(0.5, 4.5, h)
    base = [(x, RHO.evaluate((x,))) for x in s]
    scaled = [(x, 4096.0 * f) for x, f in base]  # power of two: exact float scaling
    r1 = discrete_logconcavity(base, tol=1e-9)
    r2 = discrete_logconcavity(scaled, tol=1e-9)
    assert r1.violation_intervals == r2.violation_intervals
    assert r1.log_concave == r2.log_concave


def test_discrete_refinement_consistency():
    ends = {}
    for h in (0.02, 0.01):
        s = _grid(0.5, 4.5, h)
        rep = discrete_logconcavity([(x, RHO.evaluate((x,))) for x in s], tol=1e-9)
        ends[h] = rep.violation_intervals[0]
    for side, exact in [(0, LEFT), (1, RIGHT)]:
        coarse = abs(ends[0.02][side] - exact)
        fine = abs(ends[0.01][side] - exact)
        assert fine <= coarse + 1e-12
        assert abs(ends[0.02][side] - ends[0.01][side]) <= 2 * 0.02 + 1e-12


def test_discrete_witnesses_are_sound():
    s = _grid(0.5, 4.5, 0.01)
    rep = discrete_logconcavity([(x, RHO.evaluate((x,))) for x in s], tol=1e-9)
    for witness_s, surplus in rep.witness_points:
        assert surplus > 0
        assert G_RHO.evaluate((witness_s,)) > 0


def _profiles():
    """(s, f) grids with violations: the golden Karshon grid, RHO on two
    pitches, and seeded bumpy positive profiles."""
    from dhlab.cli import _read_samples_csv
    yield _read_samples_csv(Path(__file__).parent / "golden" / "karshon_grid.csv")
    for h in (0.02, 0.01):
        yield [(x, RHO.evaluate((x,))) for x in _grid(0.5, 4.5, h)]
    rng = random.Random(8)
    for _ in range(20):
        yield [(k / 8, rng.uniform(0.1, 10.0)) for k in range(rng.randint(3, 40))]


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
def test_discrete_witness_is_the_surplus_that_flagged_it(tol):
    # the witness surplus is f(s-h) f(s+h) - f(s)*f(s), the very products
    # the flag test forms, so a reported witness is bit-identical to it
    for samples in _profiles():
        rep = discrete_logconcavity(samples, tol)
        s = [x for x, _ in samples]
        f = [v for _, v in samples]
        assert len(rep.witness_points) == len(rep.violation_intervals)
        for (ws, wg), (lo, hi) in zip(rep.witness_points, rep.violation_intervals):
            i = s.index(ws)
            assert lo <= ws <= hi
            assert f[i - 1] * f[i + 1] * (1.0 - tol) - f[i] * f[i] > 0  # flagged
            assert wg == f[i - 1] * f[i + 1] - f[i] * f[i]


def test_karshon_grid_witness_uses_the_flag_square():
    samples = list(_profiles())[0]
    (ws, wg), = discrete_logconcavity(samples, 1e-9).witness_points
    s = [x for x, _ in samples]
    f = [v for _, v in samples]
    i = s.index(ws)
    assert wg == f[i - 1] * f[i + 1] - f[i] * f[i] == 0.002220351178180091
    assert wg != f[i - 1] * f[i + 1] - f[i] ** 2  # libm pow differs in the last bit


# ---------------------------------------------------------------------------
# analytic test
# ---------------------------------------------------------------------------

def test_discriminant_of_density():
    assert concavity_discriminant(RHO) == G_RHO


def test_analytic_violation_of_density():
    report = analytic_logconcavity(RHO, (0.5, 4.5))
    assert not report.log_concave
    assert len(report.violation_intervals) == 1
    lo, hi = report.violation_intervals[0]
    assert lo == pytest.approx(LEFT, abs=1e-9)
    assert hi == pytest.approx(RIGHT, abs=1e-9)
    (ws, wg), = report.witness_points
    assert wg > 0
    assert G_RHO.evaluate((ws,)) > 0


def test_analytic_violation_touching_endpoint():
    # 1 + t^2 on (0, 4): g = 2 - 2 t^2 > 0 exactly on (0, 1)
    f = Poly(1, {(2,): 1, (0,): 1})
    report = analytic_logconcavity(f, (0.0, 4.0))
    assert concavity_discriminant(f) == Poly(1, {(2,): -2, (0,): 2})
    (lo, hi), = report.violation_intervals
    assert lo == 0.0
    assert hi == pytest.approx(1.0, abs=1e-9)


def test_analytic_merges_across_a_double_root_of_g():
    # 1 + t^4 on (-1, 1): g = 4 t^2 (3 - t^4) is positive on both sides of
    # its double root at 0, so the two sides are one violation interval
    f = Poly(1, {(4,): 1, (0,): 1})
    assert concavity_discriminant(f) == Poly(1, {(6,): -4, (2,): 12})
    report = analytic_logconcavity(f, (-1.0, 1.0))
    assert report.violation_intervals == ((-1.0, 1.0),)
    assert len(report.witness_points) == 1


def test_analytic_constant_is_log_concave():
    report = analytic_logconcavity(Poly.constant(1, 1), (0.0, 1.0))
    assert report.log_concave
    assert report.violation_intervals == ()


def test_analytic_exponential_like_quadratic_is_log_concave():
    # (1 - s)^2 on (0, 1): g = -2 (1 - s)^2 <= 0 away from s = 1
    f = Poly(1, {(2,): 1, (1,): -2, (0,): 1})
    assert analytic_logconcavity(f, (0.0, 0.999)).log_concave


def test_analytic_rejects_nonpositive_density():
    with pytest.raises(DomainError):
        analytic_logconcavity(Poly(1, {(1,): 1, (0,): -1}), (0.0, 2.0))  # root at 1
    with pytest.raises(DomainError):
        analytic_logconcavity(Poly.constant(1, -1), (0.0, 1.0))


def test_analytic_scale_invariance():
    scaled = RHO * 64
    r1 = analytic_logconcavity(RHO, (0.5, 4.5))
    r2 = analytic_logconcavity(scaled, (0.5, 4.5))
    assert r1.violation_intervals == r2.violation_intervals


def test_analytic_agrees_with_discrete_within_two_pitches():
    h = 0.01
    s = _grid(0.5, 4.5, h)
    discrete = discrete_logconcavity([(x, RHO.evaluate((x,))) for x in s], tol=1e-9)
    analytic = analytic_logconcavity(RHO, (0.5, 4.5))
    (dlo, dhi), = discrete.violation_intervals
    (alo, ahi), = analytic.violation_intervals
    assert abs(dlo - alo) <= 2 * h
    assert abs(dhi - ahi) <= 2 * h


def test_report_json_shape():
    report = analytic_logconcavity(RHO, (0.5, 4.5))
    doc = report.to_json_dict()
    assert doc["log_concave"] is False
    assert len(doc["intervals"]) == 1
    assert doc["witnesses"][0][1] > 0


# ---------------------------------------------------------------------------
# the parametric family f = 1 + (c1 - t)(c2 - t), against its closed form
# ---------------------------------------------------------------------------

def _family(c1: Fraction, c2: Fraction) -> Poly:
    return Poly(1, {(2,): 1, (1,): -(c1 + c2), (0,): 1 + c1 * c2})


def _family_violation(c1: Fraction, c2: Fraction, lo: Fraction, hi: Fraction):
    """(log f)'' > 0 exactly where g = 2(1 - (c1-c2)^2/4) - 2(t - s/2)^2 > 0:
    the interval s/2 -/+ sqrt(1 - (c1-c2)^2/4), clipped to the window, and
    nowhere when |c1 - c2| >= 2."""
    rest = 1 - (c1 - c2) ** 2 / 4
    if rest <= 0:
        return []
    mid, r = float(c1 + c2) / 2, math.sqrt(rest)
    a, b = max(float(lo), mid - r), min(float(hi), mid + r)
    return [(a, b)] if a < b else []


def test_family_violation_set_matches_closed_form():
    rng = random.Random(1996)
    checked = 0
    for _ in range(300):
        c1, c2 = (Fraction(rng.randint(-24, 24), rng.randint(1, 8)) for _ in range(2))
        mid = (c1 + c2) / 2
        lo = mid + Fraction(rng.randint(-24, 24), rng.randint(1, 8))
        hi = lo + Fraction(rng.randint(1, 32), rng.randint(1, 8))
        f = _family(c1, c2)
        # f is a convex quadratic: its minimum on [lo, hi] is at the clamped vertex
        if f.evaluate_exact((min(max(mid, lo), hi),)) <= 0:
            with pytest.raises(DomainError):
                analytic_logconcavity(f, (lo, hi))
            continue
        report = analytic_logconcavity(f, (lo, hi))
        want = _family_violation(c1, c2, lo, hi)
        assert len(report.violation_intervals) == len(want), (c1, c2, lo, hi)
        for got, expected in zip(report.violation_intervals, want):
            assert got == pytest.approx(expected, abs=1e-9), (c1, c2, lo, hi)
        assert report.log_concave == (not want)
        checked += 1
    assert checked >= 100


def test_family_violation_ends_are_correctly_rounded():
    # an end inside the window is mid -/+ sqrt(1 - (c1-c2)^2/4) rounded once;
    # a window end inside the violation set stays the window end.  |c1 - c2|
    # < 2, so f > 0 and the set is nonempty; windows of either side 1/16-32
    # around mid hold some ends and cut others
    rng = random.Random(1997)
    ends = 0
    for _ in range(300):
        c1 = Fraction(rng.randint(-24, 24), rng.randint(1, 8))
        c2 = c1 + Fraction(rng.randint(-63, 63), 32)
        mid, rest = (c1 + c2) / 2, 1 - (c1 - c2) ** 2 / 4
        window = tuple(float(mid + side * Fraction(rng.randint(1, 32), rng.randint(1, 16)))
                       for side in (-1, 1))
        report = analytic_logconcavity(_family(c1, c2), window)
        assert len(report.violation_intervals) == 1

        def g(x):  # the sign of (log f)''
            return rest - (x - mid) ** 2

        for interval in report.violation_intervals:
            for end, window_end in zip(interval, window):
                if g(Fraction(window_end)) > 0:
                    assert end == window_end, (c1, c2, window)
                else:
                    assert rounds_to_root(end, g, window), (c1, c2, window, end)
                    ends += 1
    assert ends >= 400


@pytest.mark.parametrize("c1, c2", [(Fraction(1), Fraction(3)),
                                    (Fraction(1, 3), Fraction(7, 3))])
def test_family_boundary_double_root(c1, c2):
    # |c1 - c2| = 2: f = (t - s/2)^2, so g = -2 (t - s/2)^2 <= 0 off the root
    mid = (c1 + c2) / 2
    f = _family(c1, c2)
    assert f == Poly(1, {(2,): 1, (1,): -2 * mid, (0,): mid ** 2})
    for window in ((mid + Fraction(1, 2), mid + 2), (mid - 2, mid - Fraction(1, 10**9))):
        report = analytic_logconcavity(f, window)
        assert report.log_concave and report.violation_intervals == ()
    # window ends are read as floats, so a window may end on the root only
    # where s/2 is one
    touching = ((mid, mid + 1), (mid - 1, mid)) if float(mid) == mid else ()
    for window in ((mid - 1, mid + 1), *touching):
        with pytest.raises(DomainError):
            analytic_logconcavity(f, window)
