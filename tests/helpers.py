"""Shared generators for randomized tests (seeded, deterministic)."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np

from dhlab import Chart, CutWindow, Form, HPolytope, Poly, SamplerConfig, canonical_chart
from dhlab.construction import DIM, T_AXIS
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


def iter_sample_chunks(top_poly: Poly, cfg: SamplerConfig):
    """Yield (points, weights) chunk by chunk, rebuilt from the documented
    stream alone: sample s owns the 8 doubles that Philox draws from counter
    block 2*s, the first six are its chart point, and t is rescaled to the
    window.  Shares no code with the sampler, so tests can use it as an oracle."""
    key = np.random.SeedSequence(cfg.seed).generate_state(2, np.uint64)
    lo, hi = cfg.window.lo, cfg.window.hi
    for start in range(0, cfg.sample_count, cfg.chunk_size):
        n = min(cfg.chunk_size, cfg.sample_count - start)
        bg = np.random.Philox(key=key, counter=2 * start)
        pts = np.random.Generator(bg).random((n, 8))[:, :DIM]
        pts[:, T_AXIS] = lo + (hi - lo) * pts[:, T_AXIS]
        weights = np.zeros(n)
        for exps, c in top_poly.terms.items():
            term = np.full(n, float(c))
            for ax, e in enumerate(exps):
                if e == 1:
                    term *= pts[:, ax]
                elif e > 1:
                    term *= pts[:, ax] ** e
            weights += term
        yield pts, weights


def slice_volume_mc(p: HPolytope, axis: int, s: float, n: int, seed: int) -> float:
    """Hit-or-miss slice volume from the single stream of ``seed``."""
    return _mc_slicer(p, axis, int(n))(float(s), _rng(seed))[0]


def slice_volume_mc_reference(p: HPolytope, axis: int, s: float, n: int,
                              rng: np.random.Generator) -> tuple[float, float]:
    """The hit-or-miss slice estimate in one shot: all ``n`` points at once,
    then every half-space tested on every point, in a box padded by
    ``_BOX_PAD`` times the largest vertex coordinate.  Shares only the
    slice's extent with _mc_slicer, so tests can use it as an oracle for how
    the kernel pads, blocks, scales and tests its draws and for what it
    reuses across slices."""
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
    pad = _BOX_PAD * float(np.abs(vertices).max())
    lows, highs = extent[0] - pad, extent[1] + pad
    widths = highs - lows
    box_vol = float(np.prod(widths))
    pts = lows + widths * rng.random((n, len(keep)))
    hits = int(np.count_nonzero(np.all(pts @ a_slice.T <= b_slice, axis=1)))
    phat = hits / n
    return box_vol * phat, box_vol * float(np.sqrt(phat * (1.0 - phat) / n))


def exact_chord_2d(p: HPolytope, axis: int, s: float) -> float:
    """Length of the slice of a planar polytope at axis = s, rounded once.

    The slice spans the exact vertices on the line axis = s and the points
    where the segments between vertices on either side cross it, all in
    Fractions.  Shares only the exact vertices with dhlab.toric, so tests
    can use it as an oracle for the exact 2-d slicer."""
    vertices, _ = p._vrep
    s, other = Fraction(s), 1 - axis
    ends = [v[other] for v in vertices if v[axis] == s]
    for u, v in combinations(vertices, 2):
        if (u[axis] - s) * (v[axis] - s) < 0:
            ends.append(u[other] + (s - u[axis]) / (v[axis] - u[axis]) * (v[other] - u[other]))
    return float(max(ends) - min(ends)) if ends else 0.0


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
