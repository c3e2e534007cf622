"""Log-concavity analysis for positive densities.

Two complementary routes:

* a discrete midpoint test on uniformly gridded samples, using the
  multiplicative inequality f(s)^2 >= f(s-h) f(s+h) in integers on the
  samples' exact values (no transcendental evaluation, no rounding), and
* an exact route for positive polynomial densities via the concavity
  discriminant g = f*f'' - (f')^2, which has the sign of (log f)''
  wherever f > 0, reporting each root of g correctly rounded.

Both produce a :class:`ViolationReport`; a density is log-concave exactly
when the report carries no violation intervals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, zip_longest
from typing import Sequence

from . import intpoly
from .exterior import DimensionError, Poly
from .intpoly import derivative, nearest_double, product, rational, scaled_value

DISCRETE_TOL = 1e-9  # the midpoint test's slack for exact data


class DomainError(ValueError):
    """Raised when well-formed input has no result: a density not strictly
    positive where it must be, a degenerate window, an empty or unbounded
    polytope, too few bins.  dhlab raises no other class for that."""


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of a log-concavity test.

    ``log_concave`` holds exactly when ``violation_intervals`` is empty.
    Each witness is an (s, g) pair with g > 0: the local certificate that
    log-concavity fails near s (g is the concavity discriminant for the
    analytic test and f(s-h) f(s+h) / f(s)^2 - 1, rounded once and capped
    at the largest float, for the discrete one).  ``trimmed`` counts
    zero-volume bins dropped from the ends of a sampled profile before
    testing.
    """

    log_concave: bool
    violation_intervals: tuple[tuple[float, float], ...]
    witness_points: tuple[tuple[float, float], ...]
    trimmed: tuple[int, int] = (0, 0)

    def to_json_dict(self) -> dict:
        return {
            "log_concave": self.log_concave,
            "intervals": [list(iv) for iv in self.violation_intervals],
            "witnesses": [list(w) for w in self.witness_points],
            "trimmed_bins": list(self.trimmed),
        }


def concavity_discriminant(f: Poly) -> Poly:
    """g = f*f'' - (f')^2 for a univariate polynomial f.

    sign(g) = sign((log f)'') wherever f > 0, so g > 0 marks exactly the
    log-convexity violations of a positive f.  Computed on f's integer
    numerators over a common denominator s, as s**2 * g.
    """
    if f.nvars != 1:
        raise DimensionError("concavity discriminant needs a univariate polynomial")
    s, c = _dense(f)
    return Poly(1, {(e,): Fraction(v, s * s) for e, v in enumerate(_discriminant(c)) if v})


def discrete_logconcavity(samples: Sequence[tuple[float, float]],
                          tol: float) -> ViolationReport:
    """Midpoint log-concavity test on a uniform grid of (s, f(s)) samples.

    Index i is flagged when r_i (1 - tol) > 1 for the midpoint ratio
    r_i = f(s_{i-1}) f(s_{i+1}) / f(s_i)^2 of the samples' exact values,
    decided in integers; runs of adjacent flagged indices merge into
    violation intervals, each witnessed by (s_i, r_i - 1) at its largest
    r_i.  ``tol`` is a relative slack in [0, 1), so the verdict is the same
    for c f at every c > 0 that scales each sample exactly.  A nonpositive
    or non-finite sample raises DomainError naming its s.
    """
    if not 0 <= tol < 1:  # else 1 - tol <= 0, or NaN, and no index is ever flagged
        raise ValueError(f"tol must be in [0, 1), got {tol!r}")
    pts = [(float(s), float(v)) for s, v in samples]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 samples, got {len(pts)}")
    for x, fx in pts:
        if not (math.isfinite(x) and math.isfinite(fx) and fx > 0):
            raise DomainError(f"nonpositive or non-finite sample at s={x}; log undefined")
    s = [p[0] for p in pts]
    h = s[1] - s[0]
    slack = 1e-9 * h + 8 * math.ulp(max(map(abs, s)))  # plus the rounding of s
    if h <= 0 or any(abs(b - a - h) > slack for a, b in zip(s, s[1:])):
        raise ValueError("samples must sit on an ascending uniform grid")

    # the samples times one power of two, as integers: r_i = m[i-1] m[i+1] / m[i]^2
    ratios = [v.as_integer_ratio() for _, v in pts]
    scale = max(d for _, d in ratios)
    m = [n * (scale // d) for n, d in ratios]
    t, u = rational(tol).as_integer_ratio()  # r_i (1 - tol) > 1 iff r_i (u - t) > u
    flagged = [i for i in range(1, len(m) - 1) if m[i - 1] * m[i + 1] * (u - t) > m[i] * m[i] * u]

    intervals: list[tuple[float, float]] = []
    witnesses: list[tuple[float, float]] = []
    for _, group in groupby(enumerate(flagged), lambda ki: ki[1] - ki[0]):
        run = [i for _, i in group]
        intervals.append((s[run[0]], s[run[-1]]))
        r = {i: Fraction(m[i - 1] * m[i + 1], m[i] * m[i]) for i in run}
        i = max(run, key=r.__getitem__)  # the strongest violation in the run
        witnesses.append((s[i], min(nearest_double(r[i] - 1), sys.float_info.max)))
    return ViolationReport(not intervals, tuple(intervals), tuple(witnesses))


def bin_centers(lo: float, hi: float, bins: int, subject: str) -> list[float]:
    """Centres of the bins of np.linspace(lo, hi, bins + 1), bit for bit.  Raises DomainError
    naming ``subject`` if the width or a centre is not finite, or the centres do not ascend."""
    step = (hi - lo) / bins
    # linspace's edges; it scales k / bins instead where the step underflows
    # to 0, which moves no edge of a grid whose centres ascend
    edges = [lo + k * step for k in range(bins)] + [hi]
    centers = [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
    if not all(map(math.isfinite, (hi - lo, *centers))):
        raise DomainError(f"{subject} is wider than the float range: [{lo}, {hi}]")
    if any(a >= b for a, b in zip(centers, centers[1:])):
        raise DomainError(f"{subject} is too narrow for {bins} float bins: [{lo}, {hi}]")
    return centers


def analytic_logconcavity(f: Poly, interval: tuple) -> ViolationReport:
    """Exact log-concavity analysis of a positive polynomial density.

    Positivity is certified exactly on the window as given (f(lo) > 0 and
    no root in [lo, hi]).  The roots of the concavity discriminant g are
    bracketed until each rounds to one double, and the sign of g between
    two roots is that of g at a rational point proven to lie between them.
    Reported are the maximal subintervals where g > 0, with the correctly
    rounded roots or window ends as ends and the point of largest g
    sampled there as witness.
    """
    s, c, lo, hi = _exact(f, interval)
    if not c or not intpoly.positive_on(c, lo, hi):
        raise DomainError(f"density is not strictly positive on "
                          f"[{nearest_double(lo)}, {nearest_double(hi)}]")
    g = _discriminant(c)  # s**2 (f f'' - f'^2)
    if not g:
        return ViolationReport(True, (), ())

    brackets = intpoly.root_brackets(g, lo, hi)
    ends = [nearest_double(x) for x in (lo, *((a + b) / 2 for a, b in brackets), hi)]
    fences = [lo, *(x for bracket in brackets for x in bracket), hi]
    intervals: list[tuple[float, float]] = []
    witnesses: list[tuple[Fraction, Fraction]] = []  # (g(x), x)
    for a, b, u, v in zip(ends, ends[1:], fences[::2], fences[1::2]):
        x = (u + v) / 2  # strictly between the roots at a and b; on a root if a == b
        scaled = scaled_value(g, x.numerator, x.denominator)  # of the sign of g(x)
        if scaled <= 0:
            continue
        gx = Fraction(scaled, s * s * x.denominator ** (len(g) - 1))
        if intervals and a <= intervals[-1][1]:  # g > 0 on both sides of a root
            intervals[-1] = (intervals[-1][0], b)
            witnesses[-1] = max(witnesses[-1], (gx, x))
        else:
            intervals.append((a, b))
            witnesses.append((gx, x))
    return ViolationReport(not intervals, tuple(intervals),
                           tuple((nearest_double(x), nearest_double(gx)) for gx, x in witnesses))


def root_brackets(p: Poly, interval: tuple) -> list[tuple[Fraction, Fraction]]:
    """Rational brackets of the distinct real roots of a univariate p in a
    closed interval, as :func:`dhlab.intpoly.root_brackets` gives them."""
    return intpoly.root_brackets(*_exact(p, interval)[1:])


def isolate_roots(p: Poly, interval: tuple[float, float]) -> list[float]:
    """Distinct real roots of a univariate polynomial in a closed interval,
    ascending, each correctly rounded to a double (ties to even; beyond the
    float range, +-inf); see :func:`root_brackets`."""
    return [nearest_double((a + b) / 2) for a, b in root_brackets(p, interval)]


def positive_on(p: Poly, interval: tuple) -> bool:
    """Exact strict positivity on [lo, hi]: p(lo) > 0 and no root in (lo, hi] (Sturm count)."""
    return intpoly.positive_on(*_exact(p, interval)[1:])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _exact(p: Poly, interval: tuple) -> tuple[int, list, Fraction, Fraction]:
    """_dense(p) for a univariate p, and the ends lo < hi of a closed
    interval as Fractions; dhlab.intpoly refuses a zero p."""
    if p.nvars != 1:
        raise DimensionError("root isolation needs a univariate polynomial")
    try:
        lo, hi = rational(interval[0]), rational(interval[1])
    except ValueError:  # an infinite or NaN end
        raise ValueError(f"interval {tuple(interval)} has an end that is not finite") from None
    if not lo < hi:
        raise ValueError(f"empty interval ({nearest_double(lo)}, {nearest_double(hi)})")
    return (*_dense(p), lo, hi)


def _dense(p: Poly) -> tuple[int, list]:
    """A common denominator s of a univariate p's coefficients, and p times
    s as integer coefficients, constant first, with no trailing zeros."""
    dense = [p.terms.get((e,), 0) for e in range(p.degree_in(0) + 1)] if p else []
    s = math.lcm(*(c.denominator for c in dense))
    return s, [c.numerator * (s // c.denominator) for c in dense]


def _discriminant(c: list) -> list:
    """c c'' - c'^2, which leads with -n a**2 for c = a t**n + ..., n >= 1."""
    d1 = derivative(c)
    return [u - v for u, v in zip_longest(product(c, derivative(d1)), product(d1, d1), fillvalue=0)]
