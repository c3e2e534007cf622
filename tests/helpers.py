"""Shared generators for randomized tests (seeded, deterministic)."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from dhlab import (Chart, CutWindow, Form, HPolytope, OmegaParams, Poly, SamplerConfig,
                   ViolationReport, canonical_chart, wedge)
from dhlab.construction import DIM, T_AXIS
from dhlab.logconcavity import root_brackets
from dhlab.toric import _BOX_PAD, _mc_slicer, _rng, _slice_extent

WINDOW = CutWindow(0.5, 4.5)


def chart6() -> Chart:
    return canonical_chart()


def random_rational(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def random_poly(rng: random.Random, nvars: int, max_degree: int = 2,
                max_terms: int = 3) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = random_rational(rng)
    return Poly(nvars, terms)


def random_form(rng: random.Random, chart: Chart, degree: int | None = None,
                max_degree: int = 3) -> Form:
    if degree is None:
        degree = rng.randint(0, max_degree)
    tuples = list(combinations(range(chart.dim), degree))
    terms = {}
    for idx in rng.sample(tuples, k=min(len(tuples), rng.randint(1, 3))):
        terms[idx] = random_poly(rng, chart.dim)
    return Form(chart, degree, terms)


def abs_eval(p: Poly, point) -> float:
    """sum |c| * prod |x|^e: a rigorous magnitude bound for evaluate()."""
    total = 0.0
    for exps, c in p.terms.items():
        term = abs(float(c))
        for x, e in zip(point, exps):
            term *= abs(float(x)) ** e
        total += term
    return total


def rounds_to_root(e: float, f, interval) -> bool:
    """Whether the double e is the correctly rounded value of a root of f in
    the closed interval, for f mapping Fractions to Fractions and changing
    sign at each of its roots.

    The reals that round to e lie between the half-ulp points (e- + e)/2 and
    (e + e+)/2 to its neighbours e- and e+, with +-inf read as +-2**1024;
    the cell of +-inf is unbounded on its far side, and every cell is
    clipped to the interval.  A root exactly on a half-ulp point rounds to
    the neighbour of even significand: inf's counts as even and the largest
    double's is odd, so 2**1024 - 2**970 rounds to inf.
    """
    def exact(d):
        return Fraction(d) if math.isfinite(d) else Fraction(2 ** 1024) * (1 if d > 0 else -1)

    below, above = math.nextafter(e, -math.inf), math.nextafter(e, math.inf)
    lower = (exact(below) + exact(e)) / 2 if e != -math.inf else None
    upper = (exact(e) + exact(above)) / 2 if e != math.inf else None
    even = math.isinf(e) or int(e / math.ulp(e)) % 2 == 0
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    u = lo if lower is None else max(lo, lower)
    v = hi if upper is None else min(hi, upper)
    if u > v:
        return False
    fu, fv = f(u), f(v)
    for x, fx, half_ulp in ((u, fu, lower), (v, fv, upper)):
        if not fx:
            return x != half_ulp or even
    return (fu > 0) != (fv > 0)


# ---------------------------------------------------------------------------
# Reference wedge and exterior derivative, summing Polys
# ---------------------------------------------------------------------------

def _ref_sorted_indices(idx: tuple):
    """(sign, ascending tuple) of an index tuple, or None if an index repeats."""
    lst, sign = list(idx), 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign, j = -sign, j - 1
    return None if len(set(lst)) < len(lst) else (sign, tuple(lst))


def _ref_sum(pairs) -> dict:
    """Sum (index tuple, Poly) pairs with Poly.__add__, dropping a tuple
    whose sum cancels."""
    acc: dict = {}
    for k, v in pairs:
        if k in acc:
            v = acc[k] + v
            if not v:
                del acc[k]
                continue
        elif not v:
            continue
        acc[k] = v
    return acc


def reference_exterior_derivative(a: Form) -> dict:
    """The term map of d a, built from Poly.partial and Poly sums alone."""
    pairs = []
    for idx, p in a.terms.items():
        for v in range(a.chart.dim):
            merged = _ref_sorted_indices((v,) + idx)
            if merged is not None:
                pairs.append((merged[1], p.partial(v) if merged[0] > 0 else -p.partial(v)))
    return _ref_sum(pairs)


def reference_build_omega(theta: Form, params: OmegaParams) -> Form:
    """omega summed from basis forms one at a time: dx1^dx2, dx3^dx4,
    (c1-t) dx1^dx4, (c2-t) dx2^dx3, dt^Theta."""
    chart = theta.chart
    t = Poly.variable(chart.dim, T_AXIS)
    dt = Form.basis(chart, T_AXIS)
    return (Form.basis(chart, 0, 1) + Form.basis(chart, 2, 3)
            + (params.c1 - t) * Form.basis(chart, 0, 3)
            + (params.c2 - t) * Form.basis(chart, 1, 2)
            + wedge(dt, theta))


# ---------------------------------------------------------------------------
# Reference log-concavity in Fractions
# ---------------------------------------------------------------------------

def reference_concavity_discriminant(f: Poly) -> Poly:
    """g = f f'' - (f')^2 from Poly products and sums of Fractions."""
    d1 = f.partial(0)
    return f * d1.partial(0) - d1 * d1


def reference_analytic_logconcavity(f: Poly, interval: tuple) -> ViolationReport:
    """The analytic report with g built and evaluated in Fractions at every
    fence, from the same root brackets; for a positive f on the interval."""
    lo, hi = float(interval[0]), float(interval[1])
    g = reference_concavity_discriminant(f)
    if not g:
        return ViolationReport(True, (), ())
    brackets = root_brackets(g, (lo, hi))
    ends = [lo, *(_ref_round((a + b) / 2) for a, b in brackets), hi]
    fences = [Fraction(lo), *(x for bracket in brackets for x in bracket), Fraction(hi)]
    intervals, witnesses = [], []
    for a, b, u, v in zip(ends, ends[1:], fences[::2], fences[1::2]):
        x = (u + v) / 2
        gx = g.evaluate_exact((x,))
        if gx <= 0:
            continue
        if intervals and a <= intervals[-1][1]:
            intervals[-1] = (intervals[-1][0], b)
            witnesses[-1] = max(witnesses[-1], (gx, x))
        else:
            intervals.append((a, b))
            witnesses.append((gx, x))
    return ViolationReport(not intervals, tuple(intervals),
                           tuple((_ref_round(x), _ref_round(gx)) for gx, x in witnesses))


# ---------------------------------------------------------------------------
# Reference root isolation in Fractions
# ---------------------------------------------------------------------------

def _ref_round(x: Fraction) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _ref_value(c: list, x: Fraction) -> int:
    """den**deg * c(num/den) for integer coefficients c, constant first."""
    num, den = x.numerator, x.denominator
    acc, scale = 0, 1
    for v in reversed(c):
        acc = acc * num + v * scale
        scale *= den
    return acc


def _ref_deriv(c: list) -> list:
    return [k * v for k, v in enumerate(c)][1:]


def _ref_divmod(n: list, d: list) -> tuple[list, list]:
    """Quotient and remainder of trimmed Fraction coefficient lists, constant first."""
    r = list(n)
    q = [Fraction(0)] * max(len(n) - len(d) + 1, 0)
    while len(r) >= len(d):
        k = len(r) - len(d)
        c = q[k] = r[-1] / d[-1]
        for i, v in enumerate(d):
            r[k + i] -= c * v
        while r and not r[-1]:
            r.pop()
    return q, r


def _ref_sturm(p: Poly, interval: tuple):
    """lo, hi, the square-free part q of p and the variation count v, by
    Euclid's algorithm over the rationals."""
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    dense = [p.terms.get((e,), Fraction(0)) for e in range(p.degree_in(0) + 1)]
    g, r = dense, _ref_deriv(dense)
    while r:
        g, r = r, _ref_divmod(g, r)[1]
    q = _ref_divmod(dense, g)[0]
    chain = [q, _ref_deriv(q)]
    while chain[-1]:
        chain.append([-c for c in _ref_divmod(chain[-2], chain[-1])[1]])
    chain.pop()
    for i, s in enumerate(chain):
        k = math.lcm(*(c.denominator for c in s))
        chain[i] = [c.numerator * (k // c.denominator) for c in s]

    def variations(x: Fraction) -> int:
        signs = [v > 0 for v in (_ref_value(s, x) for s in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return lo, hi, chain[0], variations


def _ref_split_point(a: Fraction, b: Fraction) -> Fraction | None:
    x, y = _ref_round(a), _ref_round(b)
    if x == y:
        return None
    if math.nextafter(x, y) != y:
        return (a + b) / 2
    half_gap = Fraction(min(math.ulp(x), math.ulp(y))) / 2
    m = Fraction(x) + half_gap if math.isfinite(x) else Fraction(y) - half_gap
    return m if a < m < b else None


def _ref_narrow(q: list, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    qb = _ref_value(q, b)
    if not qb:
        return b, b
    qa = _ref_value(q, a)
    while True:
        m = _ref_split_point(a, b) if qa else (a + b) / 2
        if m is None:
            return a, b
        qm = _ref_value(q, m)
        if not qm:
            return m, m
        if (qm > 0) == (qb > 0):
            b = m
        else:
            a, qa = m, qm


def reference_root_brackets(p: Poly, interval: tuple) -> list[tuple[Fraction, Fraction]]:
    """The root brackets of a univariate p in a closed interval, computed as
    dhlab computed them in Fractions: a Sturm chain from Euclid's algorithm
    over the rationals, bisection on Fraction ends, then narrowing to the
    bisection point or half-ulp rounding boundary.  Shares no code with
    dhlab.intpoly, so tests can use it as an oracle."""
    lo, hi, q, variations = _ref_sturm(p, interval)
    out = [(lo, lo)] if not _ref_value(q, lo) else []
    pending = [(lo, hi, variations(lo), variations(hi))]
    while pending:
        a, b, va, vb = pending.pop()
        if va - vb == 1:
            out.append(_ref_narrow(q, a, b))
        elif va - vb > 1:
            m = (a + b) / 2
            vm = variations(m)
            pending += [(m, b, vm, vb), (a, m, va, vm)]
    return out


def reference_positive_on(p: Poly, interval: tuple) -> bool:
    lo, hi, _, variations = _ref_sturm(p, interval)
    return p.evaluate_exact((lo,)) > 0 and variations(lo) == variations(hi)


def iter_sample_chunks(top_poly: Poly, cfg: SamplerConfig):
    """Yield (points, weights) chunk by chunk, rebuilt from the documented
    stream alone: chart axis ax of every sample is drawn once for the whole
    run by Generator.random from Philox started at counter ax * 2**64, the
    s-th double is sample s's coordinate, and t is rescaled to the window.
    Shares no code or offset arithmetic with the sampler, so tests can use
    it as an oracle."""
    key = np.random.SeedSequence(cfg.seed).generate_state(2, np.uint64)
    lo, hi = cfg.window.lo, cfg.window.hi
    pts = np.column_stack([
        np.random.Generator(np.random.Philox(key=key, counter=ax << 64)).random(cfg.sample_count)
        for ax in range(DIM)])
    pts[:, T_AXIS] = lo + (hi - lo) * pts[:, T_AXIS]
    for start in range(0, cfg.sample_count, cfg.chunk_size):
        chunk = pts[start:start + cfg.chunk_size]
        n = len(chunk)
        weights = np.zeros(n)
        for exps, c in top_poly.terms.items():
            term = np.full(n, float(c))
            for ax, e in enumerate(exps):
                if e == 1:
                    term *= chunk[:, ax]
                elif e > 1:
                    term *= chunk[:, ax] ** e
            weights += term
        yield chunk, weights


def slice_volume_mc(p: HPolytope, axis: int, s: float, n: int, seed: int) -> float:
    """Hit-or-miss volume of one slice, a one-centre profile on the single
    stream of ``seed``."""
    return _mc_slicer(p, axis, int(n))([float(s)], _rng(seed))[0][0]


def slice_volume_mc_reference(p: HPolytope, axis: int, s: float, n: int,
                              rng: np.random.Generator) -> tuple[float, float]:
    """The hit-or-miss slice estimate in one shot: all ``n`` points of the
    unit cube at once, then every half-space, folded into the slice's box
    padded by ``_BOX_PAD`` times the largest vertex coordinate, tested on
    every point: u hits when (a * widths) u <= b - a lows.  A slice whose
    unpadded box has all 2**k corners in every half-space is its box: the
    product of the box's sides, with stderr 0, and nothing drawn.  Shares
    only the slice's extent with _mc_slicer, so tests can use it as an oracle
    for how the kernel pads, folds, blocks and tests its draws, for which
    bins it samples and for what it shares across bins."""
    a = np.array([normal for normal, _ in p.halfspaces])
    b = np.array([offset for _, offset in p.halfspaces])
    keep = [i for i in range(p.dim) if i != axis]
    a_slice, b_slice = a[:, keep], b - a[:, axis] * s
    if not keep:
        return (1.0, 0.0) if np.all(b_slice >= 0) else (0.0, 0.0)
    vertices = p._vertices
    extent = _slice_extent(vertices[:, axis], vertices[:, keep], s)
    if extent is None:
        return 0.0, 0.0
    corners = np.array(list(product(*zip(*extent))))
    if np.all(corners @ a_slice.T <= b_slice):
        return float(np.prod(extent[1] - extent[0])), 0.0
    pad = _BOX_PAD * float(np.abs(vertices).max())
    lows, highs = extent[0] - pad, extent[1] + pad
    widths = highs - lows
    box_vol = float(np.prod(widths))
    u = rng.random((n, len(keep)))
    folded, cuts = a_slice * widths, b_slice
    for j, low in enumerate(lows):  # the cut of each row is b - a.lows, term by term
        cuts = cuts - a_slice[:, j] * low
    hits = int(np.count_nonzero(np.all(u @ folded.T <= cuts, axis=1)))
    phat = hits / n
    return box_vol * phat, box_vol * float(np.sqrt(phat * (1.0 - phat) / n))


def exact_chord_2d(p: HPolytope, axis: int, s: float) -> float:
    """Length of the slice of a planar polytope at axis = s, rounded once.

    The slice spans the exact vertices on the line axis = s and the points
    where the segments between vertices on either side cross it, all in
    Fractions.  Shares only the exact vertices with dhlab.toric, so tests
    can use it as an oracle for the exact 2-d slicer."""
    vertices, _, _ = p._vrep
    s, other = Fraction(s), 1 - axis
    ends = [v[other] for v in vertices if v[axis] == s]
    for u, v in combinations(vertices, 2):
        if (u[axis] - s) * (v[axis] - s) < 0:
            ends.append(u[other] + (s - u[axis]) / (v[axis] - u[axis]) * (v[other] - u[other]))
    return float(max(ends) - min(ends)) if ends else 0.0


def fraction_rref(rows, width: int) -> tuple[dict[int, int], list[list[Fraction]]]:
    """Gauss-Jordan elimination over the rationals, row by row in order.

    Returns {index of each row independent of the rows before it: its pivot
    column}, stopping at rank ``width``, and the reduced rows in the same
    order, each 1 at its own pivot and 0 at the others.  The reference for
    the fraction-free elimination of dhlab.toric, whose rows must be
    positive multiples of these."""
    reduced: list[list[Fraction]] = []
    pivots: dict[int, int] = {}
    for i, row in enumerate(rows):
        if len(pivots) == width:
            break
        v = [Fraction(x) for x in row]
        for c, r in zip(pivots.values(), reduced):
            if v[c]:
                f = v[c]
                v = [x - f * y for x, y in zip(v, r)]
        c = next((k for k, x in enumerate(v) if x), None)
        if c is None:
            continue
        v = [x / v[c] for x in v]
        for r in reduced:
            if r[c]:
                f = r[c]
                r[:] = [x - f * y for x, y in zip(r, v)]
        reduced.append(v)
        pivots[i] = c
    return pivots, reduced


def random_polytope(rng: np.random.Generator, dim: int) -> HPolytope:
    """A bounded polytope with nonempty interior: an axis box plus a few
    oblique cuts, every half-space kept a fixed margin away from a center."""
    center = rng.uniform(-1.0, 1.0, size=dim)
    half = rng.uniform(0.6, 1.5, size=dim)
    halfspaces = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        halfspaces.append((tuple(e), float(center[i] + half[i])))
        halfspaces.append((tuple(-e), float(-(center[i] - half[i]))))
    margin = 0.4
    for _ in range(int(rng.integers(0, 12 - 2 * dim + 1))):
        a = rng.normal(size=dim)
        norm = float(np.linalg.norm(a))
        if norm < 1e-9:
            continue
        halfspaces.append((tuple(a), float(a @ center + margin * norm)))
    return HPolytope(dim, tuple(halfspaces))
