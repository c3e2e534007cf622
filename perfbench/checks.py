"""Checks of dhlab's outputs against answers computed apart from dhlab.

Every checker takes plain numbers and returns a list of problems, empty when
the output is right, so that the tests can hand each one a wrong answer.
The expected answers come from the closed forms of the construction:

* omega = dx1^dx2 + dx3^dx4 + (c1-t) dx1^dx4 + (c2-t) dx2^dx3
          + dt^(dtheta + x4 dx1 - x2 dx3)  (canonical gauge),
  whose top power is 3! Pf(M) for its 6x6 coefficient matrix M;
* the density f(t) = 1 + (c1-t)(c2-t), a convex quadratic;
* (log f)'' > 0 exactly on (s/2 - r, s/2 + r) with s = c1 + c2 and
  r = sqrt(1 - (c1-c2)^2/4);
* slice volumes of simplices, boxes and polygons in closed form.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import sympy

# Per-bin |z| bound for Monte-Carlo estimates.  P(|Z| > 6) = 2.0e-9 per bin,
# so a correct program raises a false alarm about once in 5e8 bin tests,
# far beyond the bins that all runs of the benchmark check together.
Z_BOUND = 6.0
ENDPOINT_TOL = 1e-9
THREAD_REL_TOL = 1e-10
UNIT_MASS_TOL = 1e-12
EXACT_REL_TOL = 1e-9

CHERN_EXPECTED = {"x1^x2": 0, "x1^x3": 0, "x1^x4": -1,
                  "x2^x3": -1, "x2^x4": 0, "x3^x4": 0}
EXIT_OK, EXIT_FAILURE, EXIT_VIOLATION = 0, 1, 3

_CHART = sympy.symbols("x1 x2 x3 x4 t theta")


# ---------------------------------------------------------------------------
# certify: the symbolic path
# ---------------------------------------------------------------------------

def pfaffian(m: sympy.Matrix) -> sympy.Expr:
    """Pfaffian of an antisymmetric matrix by expansion along the first row."""
    n = m.shape[0]
    if n == 0:
        return sympy.Integer(1)
    total = sympy.Integer(0)
    for j in range(1, n):
        if m[0, j] != 0:
            rest = [k for k in range(1, n) if k != j]
            total += (-1) ** (j - 1) * m[0, j] * pfaffian(m.extract(rest, rest))
    return total


def expected_top_power(c1: Fraction, c2: Fraction) -> dict[tuple[int, ...], Fraction]:
    """Terms of the dx1^...^dtheta coefficient of omega^3, as 6 Pf(M)."""
    x1, x2, x3, x4, t, theta = _CHART
    m = sympy.zeros(6, 6)

    def put(i: int, j: int, v) -> None:
        m[i, j] += v
        m[j, i] -= v

    put(0, 1, 1)
    put(2, 3, 1)
    put(0, 3, sympy.Rational(c1.numerator, c1.denominator) - t)
    put(1, 2, sympy.Rational(c2.numerator, c2.denominator) - t)
    put(4, 5, 1)        # dt^dtheta
    put(4, 0, x4)       # dt^(x4 dx1)
    put(4, 2, -x2)      # dt^(-x2 dx3)
    poly = sympy.Poly(sympy.expand(6 * pfaffian(m)), *_CHART)
    return {exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.terms()}


def density_coeffs(c1: Fraction, c2: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """(a0, a1, a2) of f(t) = 1 + (c1-t)(c2-t) = a0 + a1 t + a2 t^2."""
    return 1 + c1 * c2, -(c1 + c2), Fraction(1)


def nondegenerate(c1: Fraction, c2: Fraction, lo: Fraction, hi: Fraction) -> bool:
    """f > 0 on [lo, hi], decided exactly at the minimum of the convex f."""
    v = min(max((c1 + c2) / 2, lo), hi)
    return 1 + (c1 - v) * (c2 - v) > 0


def violation_set(c1: Fraction, c2: Fraction, lo: Fraction,
                  hi: Fraction) -> list[tuple[float, float]]:
    """(s/2 - r, s/2 + r) clipped to [lo, hi]; pieces shorter than the
    endpoint tolerance are dropped, since no float answer can resolve them."""
    d = 1 - (c1 - c2) ** 2 / 4
    if d <= 0:
        return []
    with localcontext() as ctx:
        ctx.prec = 50
        r = (Decimal(d.numerator) / Decimal(d.denominator)).sqrt()
        centre = Decimal((c1 + c2).numerator) / Decimal(2 * (c1 + c2).denominator)
        a = max(centre - r, Decimal(lo.numerator) / Decimal(lo.denominator))
        b = min(centre + r, Decimal(hi.numerator) / Decimal(hi.denominator))
        if b - a <= Decimal(ENDPOINT_TOL):
            return []
        return [(float(a), float(b))]


def expected_exit(command: str, c1: Fraction, c2: Fraction, lo: Fraction,
                  hi: Fraction) -> int:
    """Exit code the README of dhlab prescribes for `verify` or
    `logconcavity --analytic` on this configuration."""
    if not nondegenerate(c1, c2, lo, hi):
        return EXIT_FAILURE
    if command == "verify":
        return EXIT_OK
    return EXIT_VIOLATION if violation_set(c1, c2, lo, hi) else EXIT_OK


def check_top_power(got: dict[tuple[int, ...], Fraction], c1: Fraction,
                    c2: Fraction) -> list[str]:
    want = expected_top_power(c1, c2)
    got = {tuple(k): Fraction(v) for k, v in got.items() if v != 0}
    if got != want:
        return [f"top power {sorted(got.items())} != 6 Pf(M) = {sorted(want.items())}"]
    return []


def check_nondegenerate(got: bool, c1, c2, lo, hi) -> list[str]:
    want = nondegenerate(c1, c2, lo, hi)
    if got != want:
        return [f"nondegenerate on [{lo}, {hi}] at ({c1}, {c2}): got {got}, exact {want}"]
    return []


def check_violations(got, c1, c2, lo, hi) -> list[str]:
    got = [(float(a), float(b)) for a, b in got if float(b) - float(a) > ENDPOINT_TOL]
    want = violation_set(c1, c2, lo, hi)
    if len(got) != len(want) or any(
            abs(ga - wa) > ENDPOINT_TOL or abs(gb - wb) > ENDPOINT_TOL
            for (ga, gb), (wa, wb) in zip(got, want)):
        return [f"violation set at ({c1}, {c2}) on [{lo}, {hi}]: got {got}, exact {want}"]
    return []


def check_chern(got: dict[str, Fraction]) -> list[str]:
    got = {k: Fraction(v) for k, v in got.items()}
    if got != {k: Fraction(v) for k, v in CHERN_EXPECTED.items()}:
        return [f"curvature numbers {got} != {CHERN_EXPECTED}"]
    return []


def check_exit(got: int, want: int, what: str) -> list[str]:
    return [] if got == want else [f"{what}: exit {got}, expected {want}"]


# ---------------------------------------------------------------------------
# density: the Monte-Carlo path
# ---------------------------------------------------------------------------

def bin_averages(coeffs, lo: float, hi: float, bins: int) -> list[float]:
    """Exact per-bin averages of the density normalized on [lo, hi]: the bin
    integral divided by the bin width.  Values at bin centres would carry an
    O(h^2) bias that a long enough run resolves."""
    def antider(x: Fraction) -> Fraction:
        return sum(c * x ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))

    lo_q, hi_q = Fraction(lo), Fraction(hi)
    mass = antider(hi_q) - antider(lo_q)
    h = (hi_q - lo_q) / bins
    edges = [lo_q + h * k for k in range(bins + 1)]
    return [float((antider(b) - antider(a)) / (mass * h)) for a, b in zip(edges, edges[1:])]


def normalized_values(coeffs, lo: float, hi: float, points) -> list[float]:
    """The normalized density at given points, in exact arithmetic."""
    lo_q, hi_q = Fraction(lo), Fraction(hi)
    mass = sum(c * (hi_q ** (k + 1) - lo_q ** (k + 1)) / (k + 1)
               for k, c in enumerate(coeffs))
    return [float(sum(c * Fraction(x) ** k for k, c in enumerate(coeffs)) / mass)
            for x in points]


def weighted_estimate(sums, sq_sums, samples: int, width: float):
    """Density and standard error per bin from a weighted histogram's raw
    sums: density W_i / (W h); the variance of W_i is sum(w^2) - W_i^2 / N."""
    scale = math.fsum(sums) * width
    density = [s / scale for s in sums]
    stderr = [math.sqrt(max(q - s * s / samples, 0.0)) / scale for s, q in zip(sums, sq_sums)]
    return density, stderr


def check_histogram(density, stderr, averages, width: float) -> list[str]:
    """Each bin within Z_BOUND standard errors of its exact average, and the
    estimate integrating to 1."""
    problems = []
    for i, (d, e, a) in enumerate(zip(density, stderr, averages)):
        if not e > 0 or abs(d - a) > Z_BOUND * e:
            problems.append(f"bin {i}: estimate {d!r} vs exact average {a!r}, stderr {e!r}")
    mass = math.fsum(density) * width
    if abs(mass - 1.0) > UNIT_MASS_TOL:
        problems.append(f"density integrates to {mass!r}, not 1")
    return problems


def check_same(a, b, rel: float, what: str) -> list[str]:
    bad = [i for i, (x, y) in enumerate(zip(a, b)) if abs(x - y) > rel * abs(y)]
    if len(a) != len(b) or bad:
        return [f"{what}: differ beyond {rel:g} relative at {bad[:5]}"]
    return []


# ---------------------------------------------------------------------------
# toric: slice volumes
# ---------------------------------------------------------------------------

def chord_length(vertices, axis: int, s: float) -> float:
    """Length of the slice {x_axis = s} of a convex polygon given by its
    vertices, from the crossings of the line with the boundary edges."""
    other = 1 - axis
    ys = []
    n = len(vertices)
    for k in range(n):
        p, q = vertices[k], vertices[(k + 1) % n]
        if (p[axis] - s) * (q[axis] - s) <= 0 and p[axis] != q[axis]:
            lam = (s - p[axis]) / (q[axis] - p[axis])
            ys.append(p[other] + lam * (q[other] - p[other]))
    return max(ys) - min(ys) if ys else 0.0


def simplex_slice(origin, size: float, axis: int, s: float) -> float:
    """(d-1)-volume of {x >= origin, sum(x - origin) <= size} at x_axis = s."""
    d = len(origin)
    left = size - (s - origin[axis])
    return left ** (d - 1) / math.factorial(d - 1) if 0 <= left <= size else 0.0


def box_slice(lower, upper, axis: int, s: float) -> float:
    if not lower[axis] <= s <= upper[axis]:
        return 0.0
    return math.prod(u - l for k, (l, u) in enumerate(zip(lower, upper)) if k != axis)


def check_exact_profile(volumes, expected, what: str) -> list[str]:
    bad = [i for i, (v, e) in enumerate(zip(volumes, expected))
           if abs(v - e) > EXACT_REL_TOL * max(abs(e), 1e-300)]
    return [f"{what}: bins {bad[:5]} off the exact slice volume"] if bad else []


def check_mc_profile(volumes, stderrs, expected, what: str) -> list[str]:
    bad = [i for i, (v, e, x) in enumerate(zip(volumes, stderrs, expected))
           if abs(v - x) > Z_BOUND * e and v != x]
    return [f"{what}: bins {bad[:5]} beyond {Z_BOUND} standard errors"] if bad else []


def check_log_concave(verdict: bool, what: str) -> list[str]:
    return [] if verdict else [f"{what}: Prekopa check says not log-concave"]
