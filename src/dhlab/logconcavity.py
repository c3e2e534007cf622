"""Log-concavity analysis for positive densities.

Two complementary routes:

* a discrete midpoint test on uniformly gridded samples, using the
  multiplicative inequality f(s)^2 >= f(s-h) f(s+h) (exact for log-affine
  functions, no transcendental evaluation needed), and
* an exact route for positive polynomial densities via the concavity
  discriminant g = f*f'' - (f')^2, which has the sign of (log f)''
  wherever f > 0, reporting each root of g correctly rounded.

Both produce a :class:`ViolationReport`; a density is log-concave exactly
when the report carries no violation intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exterior import DimensionError, Poly, _round, positive_on, root_brackets

# The samples discrete_logconcavity accepts: within this range the products
# f(s-h) f(s+h) and f(s)^2 are finite normal floats.
SAMPLE_MIN, SAMPLE_MAX = 2.0 ** -511, 2.0 ** 511


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
    analytic test and the midpoint surplus f(s-h)f(s+h) - f(s)^2 for the
    discrete one).  ``trimmed`` counts zero-volume bins dropped from the
    ends of a sampled profile before testing.
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
    log-convexity violations of a positive f.
    """
    if f.nvars != 1:
        raise DimensionError("concavity discriminant needs a univariate polynomial")
    d1 = f.partial(0)
    return f * d1.partial(0) - d1 * d1


def discrete_logconcavity(samples: Sequence[tuple[float, float]],
                          tol: float) -> ViolationReport:
    """Midpoint log-concavity test on a uniform grid of (s, f(s)) samples.

    Index i is flagged when f(s_i)^2 < f(s_{i-1}) f(s_{i+1}) (1 - tol); runs
    of adjacent flagged indices merge into violation intervals.  ``tol`` is
    a relative (multiplicative) slack in [0, 1), so the verdict is invariant
    under positive rescaling of f that keeps every sample in [2**-511,
    2**511], where every product of two samples is a finite normal float.  A
    sample outside that range, nonpositive or non-finite raises DomainError
    naming its s.
    """
    if not 0 <= tol < 1:  # else 1 - tol <= 0, or NaN, and no index is ever flagged
        raise ValueError(f"tol must be in [0, 1), got {tol!r}")
    pts = [(float(s), float(v)) for s, v in samples]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 samples, got {len(pts)}")
    for x, fx in pts:
        if not (math.isfinite(x) and math.isfinite(fx) and fx > 0):
            raise DomainError(f"nonpositive or non-finite sample at s={x}; log undefined")
        if not SAMPLE_MIN <= fx <= SAMPLE_MAX:
            raise DomainError(f"sample f={fx!r} at s={x} lies outside [2**-511, 2**511], "
                              f"where the midpoint products overflow or underflow")
    s = [p[0] for p in pts]
    f = [p[1] for p in pts]
    h = s[1] - s[0]
    slack = 1e-9 * h + 8 * math.ulp(max(map(abs, s)))  # plus the rounding of s
    if h <= 0 or any(abs(b - a - h) > slack for a, b in zip(s, s[1:])):
        raise ValueError("samples must sit on an ascending uniform grid")

    flagged = [i for i in range(1, len(f) - 1)
               if f[i - 1] * f[i + 1] * (1.0 - tol) - f[i] * f[i] > 0]

    intervals: list[tuple[float, float]] = []
    witnesses: list[tuple[float, float]] = []
    for run in _runs(flagged):
        intervals.append((s[run[0]], s[run[-1]]))
        # strongest violation in the run, on the scale-free surplus
        surplus = {i: f[i - 1] * f[i + 1] - f[i] * f[i] for i in run}
        i = max(run, key=lambda i: surplus[i] / (f[i] * f[i]))
        witnesses.append((s[i], surplus[i]))
    return ViolationReport(not intervals, tuple(intervals), tuple(witnesses))


def analytic_logconcavity(f: Poly, interval: tuple[float, float]) -> ViolationReport:
    """Exact log-concavity analysis of a positive polynomial density.

    Positivity is certified exactly (f(lo) > 0 and no root in [lo, hi]).
    The roots of the concavity discriminant g are bracketed in rational
    arithmetic until each rounds to one double, and the sign of g between
    two roots is that of g at a rational point proven to lie between them.
    Reported are the maximal subintervals where g > 0, with the correctly
    rounded roots or the window ends as ends and the sampled point of
    largest g as witness.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not f or not positive_on(f, (lo, hi)):  # positive_on checks f and the interval
        raise DomainError(f"density is not strictly positive on [{lo}, {hi}]")

    g = concavity_discriminant(f)
    if not g:
        return ViolationReport(True, (), ())

    brackets = root_brackets(g, (lo, hi))
    ends = [lo, *(_round((a + b) / 2) for a, b in brackets), hi]
    fences = [Fraction(lo), *(x for bracket in brackets for x in bracket), Fraction(hi)]
    intervals: list[tuple[float, float]] = []
    witnesses: list[tuple[Fraction, Fraction]] = []  # (g(x), x)
    for a, b, u, v in zip(ends, ends[1:], fences[::2], fences[1::2]):
        x = (u + v) / 2  # strictly between the roots at a and b; on a root if a == b
        gx = g.evaluate_exact((x,))
        if gx <= 0:
            continue
        if intervals and a <= intervals[-1][1]:  # g > 0 on both sides of a root
            intervals[-1] = (intervals[-1][0], b)
            witnesses[-1] = max(witnesses[-1], (gx, x))
        else:
            intervals.append((a, b))
            witnesses.append((gx, x))
    return ViolationReport(not intervals, tuple(intervals),
                           tuple((_round(x), _round(gx)) for gx, x in witnesses))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _runs(indices: list[int]) -> list[list[int]]:
    runs: list[list[int]] = []
    for i in indices:
        if runs and i == runs[-1][-1] + 1:
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs
