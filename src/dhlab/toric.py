"""Slice-volume profiles of convex polytopes under coordinate projections.

This is the log-concave baseline: the pushforward density of the uniform
measure on a convex body along a coordinate axis is its slice-volume
function, which is log-concave on its support (Prekopa / Brunn-Minkowski).
In the half-dimensional torus-action picture the polytope is a moment
image carrying density one, so the slice profile along an axis is exactly
the pushforward density of the circle subaction for that axis.

Polytopes are half-space systems {x : a.x <= b}, sliced along coordinate
axes only (a general circle needs an irrational rotation, which loses the
lattice normalization |xi|).  Every float is a dyadic rational, so each
half-space is an exact integer row; the double-description method (Motzkin
et al. 1953; Fukuda & Prodon 1996) enumerates the vertices, recession rays
and lines once per polytope, by fraction-free elimination in Python
integers.  Emptiness, boundedness and axis ranges are read from that
enumeration, and a polytope lacks interior when a half-space is tight at
every vertex, so no float solver decides them; ``slice_profile`` checks
boundedness on every axis once.  Monte-Carlo slicing takes each bin's box
from the slice's exact extent along each other coordinate, the chord at the
bin of the vertices' hull in that coordinate and the axis (one lower and one
upper chain per coordinate and profile, built in integers), rounded outward
once; so no bin solves anything and no pad widens a box.  A bin whose slice
fills its box, decided exactly, gives the box's exact volume rounded once,
with standard error 0, and samples nothing.  A sampled bin tests only the
half-spaces that can reject a point of its box.  The sampled bins share
the profile's one PCG64DXSM stream, seeded by
``SeedSequence(seed, spawn_key=(axis,))`` (``GENERATOR_NAME``): every bin
tests the same points of the unit cube, each scaled into its own box, so the
points are drawn once per profile rather than once per bin, and the bins'
errors are positively correlated (common random numbers), which smooths the
second differences that ``prekopa_check`` reads.  A bin's estimate still
depends only on the seed, the axis, the sample count and its centre.  A 2-d
chord is the exact length of its slice, read from the same chains and
rounded once, so each chord is the double nearest the exact one; on a
polygon every Monte-Carlo bin fills its box, so it gives the same chords.

Construction, JSON validation, the enumeration, ``projection_range``, every
argument check of ``slice_profile``, its float bin grid, its 2-d chords and
``suggested_tolerance`` run in Python integers and floats, and
``prekopa_check`` decides in integers on the bins' exact values; numpy
loads only to run Monte Carlo and to build a profile's arrays on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, reduce
from typing import TYPE_CHECKING

from .intpoly import integer, nearest_double, primitive
from .logconcavity import (DISCRETE_TOL, DomainError, ViolationReport, bin_centers,
                           discrete_logconcavity)

# numpy is imported in each function that builds an array, so that polytopes,
# their vertices and ranges, every input and grid error of slice_profile and
# the verdict on a profile cost no numpy import
if TYPE_CHECKING:
    import numpy as np

GENERATOR_NAME = "pcg64dxsm(SeedSequence(seed,spawn_key=(axis,)))"


class UnboundedPolytopeError(DomainError):
    """Raised when an operation needs a bounded polytope."""


class EmptyPolytopeError(DomainError):
    """Raised when the half-space system has no solution."""


class InsufficientDataError(DomainError):
    """Raised when a profile has too few positive bins to test."""


@dataclass(frozen=True)
class HPolytope:
    """A polytope {x in R^dim : normal.x <= offset for each half-space}."""

    dim: int
    halfspaces: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self):
        object.__setattr__(self, "dim", integer("dim", self.dim))
        if self.dim < 1:
            raise ValueError("polytope dimension must be >= 1")
        hs = []
        for k, (normal, offset) in enumerate(self.halfspaces):
            try:
                normal, offset = tuple(float(v) for v in normal), float(offset)
            except OverflowError:  # an int beyond the float range
                raise ValueError(f"half-space {k} has a number beyond the float range") from None
            if len(normal) != self.dim:
                raise ValueError(f"normal {normal} has length != dim {self.dim}")
            if not all(map(math.isfinite, (*normal, offset))):
                raise ValueError(f"half-space {k} is not finite: a={list(normal)}, b={offset}")
            hs.append((normal, offset))
        object.__setattr__(self, "halfspaces", tuple(hs))

    @cached_property
    def _vrep(self) -> tuple[list[tuple[Fraction, ...]], list[tuple[int, ...]], list[int]]:
        """The exact vertices, the recession rays and lines, and each vertex's
        tight set (a bitset over indices into ``halfspaces``), found once;
        raises EmptyPolytopeError if there is no vertex."""
        return _enumerate(self.dim, self.halfspaces)

    @staticmethod
    def from_json_dict(data: dict) -> "HPolytope":
        """The polytope of a ``{"dim": d, "halfspaces": [{"a": [...], "b": v},
        ...]}`` document; raises ValueError naming the first field that is
        missing or of the wrong type."""
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        dim, halfspaces = data.get("dim"), data.get("halfspaces")
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError(f'"dim" must be an integer, got {dim!r}')
        if not isinstance(halfspaces, list):
            raise ValueError(f'"halfspaces" must be a list, got {halfspaces!r}')
        for k, h in enumerate(halfspaces):
            if not isinstance(h, dict):
                raise ValueError(f"half-space {k} must be an object, got {h!r}")
            a, b = h.get("a"), h.get("b")
            if not (isinstance(a, list) and all(map(_is_number, a))):
                raise ValueError(f'"a" of half-space {k} must be a list of numbers, got {a!r}')
            if not _is_number(b):
                raise ValueError(f'"b" of half-space {k} must be a number, got {b!r}')
        return HPolytope(dim, tuple((tuple(h["a"]), h["b"]) for h in halfspaces))


class SliceVolumeFn:
    """Sampled slice-volume profile along one coordinate axis.

    Volumes vanish outside the projection interval and, by convexity of the
    body, the positive bins form a single contiguous run.  ``rows`` holds
    ``(s, volume, stderr)`` floats; its columns ``grid``, ``volumes`` and
    ``stderrs`` are numpy arrays, built (and numpy imported) on first use.
    """

    def __init__(self, method: str, grid, volumes, stderrs):
        self.method = method  # "exact2d" or "mc": the slicing method that built it
        self.rows = tuple(zip(map(float, grid), map(float, volumes), map(float, stderrs),
                              strict=True))

    def _column(k: int):
        def column(self) -> np.ndarray:
            import numpy as np

            return np.array([row[k] for row in self.rows])
        return cached_property(column)

    grid, volumes, stderrs = map(_column, range(3))
    del _column


def projection_range(p: HPolytope, axis: int) -> tuple[float, float]:
    """Min and max of the axis coordinate over the polytope, the floats
    nearest the exact extremes over its vertices.  Raises
    EmptyPolytopeError if the polytope is empty, and UnboundedPolytopeError
    if a recession ray or line moves along the axis; the other axes may
    still be unbounded."""
    axis = integer("axis", axis)
    if not 0 <= axis < p.dim:
        raise ValueError(f"axis {axis} out of range for dim {p.dim}")
    vertices, directions, _ = p._vrep
    _check_bounded(directions, axis)
    coords = [v[axis] for v in vertices]
    return nearest_double(min(coords)), nearest_double(max(coords))


def slice_profile(p: HPolytope, axis: int, bins: int, method: str | None = None,
                  mc_n: int = 100_000, seed: int = 0) -> SliceVolumeFn:
    """Slice volumes at bin centers across the projection range.

    ``method`` is "exact2d" (dim = 2 only), whose chords are the exact
    slices' lengths, read from the hull chains and rounded once, or "mc";
    None means "exact2d" in dimension 2, else "mc".  Monte-Carlo bins test
    the same points, drawn once from the stream of (seed, axis), each scaled
    into its slice's exact bounding box rounded outward, so a bin's estimate
    depends on its centre but not on the other bins.
    A polytope flat along the axis has no profile: InsufficientDataError.
    A projection whose width or bin centres overflow, or whose centres do not
    ascend strictly, raises DomainError (``bin_centers``) before numpy loads.
    """
    axis, bins = integer("axis", axis), integer("bins", bins)
    mc_n, seed = integer("mc_n", mc_n), integer("seed", seed)
    if method is None:
        method = "exact2d" if p.dim == 2 else "mc"
    if method not in ("exact2d", "mc"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact2d" and p.dim != 2:
        raise ValueError("method exact2d requires a 2-dimensional polytope")
    if bins < 1:
        raise ValueError("bins must be positive")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if mc_n < 1:
        raise ValueError("sample count must be positive")
    lo, hi = projection_range(p, axis)
    if not lo < hi:
        raise InsufficientDataError(f"polytope is flat along axis {axis}: it projects to {lo}")
    centers = bin_centers(lo, hi, bins, f"polytope's projection along axis {axis}")
    for other in range(p.dim):  # the slices must be bounded too
        _check_bounded(p._vrep[1], other)
    if method == "exact2d":
        chords = [0.0 if box is None else _box_volume(s, box)
                  for s, box in zip(centers, _slice_boxes(p, axis)(centers))]
        return SliceVolumeFn(method, centers, chords, [0.0] * bins)
    vols, errs = zip(*_mc_slicer(p, axis, mc_n)(centers, _rng(seed, axis)))
    return SliceVolumeFn(method, centers, vols, errs)


def prekopa_check(f: SliceVolumeFn, tol: float) -> ViolationReport:
    """Discrete log-concavity test of a slice profile.

    Zero-volume bins at the ends of the support are trimmed (the log is
    undefined there) and recorded in the report; at least 3 positive bins
    must remain.
    """
    pos = [i for i, (_, v, _) in enumerate(f.rows) if v > 0]
    if len(pos) < 3:
        raise InsufficientDataError(f"only {len(pos)} positive bins; need at least 3")
    first, last = pos[0], pos[-1]
    report = discrete_logconcavity([(s, v) for s, v, _ in f.rows[first:last + 1]], tol)
    return replace(report, trimmed=(first, len(f.rows) - 1 - last))


def suggested_tolerance(f: SliceVolumeFn) -> float:
    """Multiplicative slack for prekopa_check absorbing the profile's MC noise.

    A relative perturbation r of each bin moves the midpoint ratio
    f(s)^2 / (f(s-h) f(s+h)) by up to (1+r)^2/(1-r)^2; the returned slack
    covers four (_NOISE_STDERRS) standard errors of that worst case (floor
    DISCRETE_TOL for exact profiles), capped at 0.9: from r = 0.17 on, that slack
    would reach 1, where the midpoint test flags nothing.  A bin with standard
    error 0, exact or a Monte-Carlo bin whose slice fills its bounding box,
    adds no slack.
    """
    ratios = [e / v for _, v, e in f.rows if v > 0]
    if not ratios:
        return DISCRETE_TOL
    r = max(ratios) * _NOISE_STDERRS
    if r >= 0.45:
        return 0.9
    return min(0.9, max(DISCRETE_TOL, (1 + r) ** 2 / (1 - r) ** 2 - 1))


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------

_NOISE_STDERRS = 4.0  # standard errors of MC noise that suggested_tolerance covers


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    """The generator of one Monte-Carlo stream: PCG64DXSM seeded by
    ``SeedSequence(seed, spawn_key=stream)``, drawn from its start.

    A profile never indexes into its stream, so it needs no counter-based
    generator: PCG64DXSM, numpy's bit generator for many parallel streams
    (period 2**128), draws doubles at less than half the cost of Philox.
    """
    import numpy as np

    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(v) for v in stream))
    return np.random.Generator(np.random.PCG64DXSM(ss))


def linprog(*args, **kwargs):
    """Not called by dhlab, which solves no linear program.

    perfbench's ``instrument_toric`` wraps this attribute to count LP solves
    (it reads 0 now), so the name stays until perfbench drops its LP count
    and stops wrapping it (ROADMAP.md, item 2); then it goes.  For an LP,
    call scipy.optimize.linprog.
    """
    raise NotImplementedError("dhlab.toric solves no linear programs")


def _check_bounded(directions: list[tuple[int, ...]], axis: int) -> None:
    if any(d[axis] for d in directions):
        raise UnboundedPolytopeError(f"polytope is unbounded along axis {axis}")


def _enumerate(dim: int, halfspaces) -> tuple[list[tuple[Fraction, ...]],
                                              list[tuple[int, ...]], list[int]]:
    """Exact vertices, recession rays and lines, and the vertices' tight sets
    (bitsets over the half-spaces' indices) of {x : a.x <= b}.

    Each half-space becomes the primitive integer row (a, -b) of the cone
    {(x, l) : a.x <= b l, l >= 0}, whose extreme rays with l > 0 are the
    vertices and with l = 0 the recession rays.  If the normals do not span
    R^dim, the lines are a basis of their null space; the polytope is cut
    to the normals' span (x orthogonal to each line) so the cone is pointed.
    """
    rows = [_integer_row([*normal, -offset]) for normal, offset in halfspaces]
    lines = _null_space([row[:dim] for row in rows], dim)
    rows += [(*sign, 0) for n in lines for sign in (n, tuple(-v for v in n))]
    rows.append((0,) * dim + (-1,))
    rays = _double_description(rows, dim + 1)
    vertices = [(tuple(Fraction(v, y[-1]) for v in y[:-1]), t) for y, t in rays if y[-1]]
    if not vertices:
        raise EmptyPolytopeError("half-space system is infeasible")
    mask = (1 << len(halfspaces)) - 1
    return ([v for v, _ in vertices], lines + [y[:-1] for y, _ in rays if not y[-1]],
            [t & mask for _, t in vertices])


def _double_description(rows: list[tuple[int, ...]],
                        width: int) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays, as primitive integer vectors, of the pointed cone
    {y : r.y <= 0 for each row r}, each with its tight set: the bitset over
    row indices of the nonzero rows with r.y = 0.  The rows must span R^width.

    Starts from the simplicial cone of width independent rows and adds the
    other rows one at a time.  Rays in a new half-space stay (those on its
    hyperplane gain it as a tight row), rays outside go, and each pair of
    adjacent rays on opposite sides gives the ray where their 2-face
    crosses the new hyperplane; a row of zeros is skipped.  Two rays are
    adjacent when their common tight rows number at least width - 2 and
    no third ray is tight on all of them (the combinatorial test of Fukuda
    & Prodon).
    """
    basis, _ = _rref(rows, width)
    tight_all = sum(1 << i for i in basis)
    # ray k solves B y = -e_k for the basis rows B: the y part of the null
    # vector of [B | I] whose free column is width + k
    tagged = [(*rows[i], *(int(j == k) for j in range(width))) for k, i in enumerate(basis)]
    rays = [(tuple(primitive(z[:width])), tight_all & ~(1 << i))
            for z, i in zip(_null_space(tagged, 2 * width), basis)]
    for i, row in enumerate(rows):
        if i in basis or not any(row):
            continue
        bit = 1 << i
        signs = [_dot(row, y) for y, _ in rays]
        kept = [(y, t | bit if s == 0 else t) for (y, t), s in zip(rays, signs) if s <= 0]
        tights = [t for _, t in rays]
        negative = [k for k, s in enumerate(signs) if s < 0]
        for p, sp in enumerate(signs):
            if sp <= 0:
                continue
            yp, tp = rays[p]
            for n in negative:
                yn, tn = rays[n]
                common = tp & tn
                if common.bit_count() < width - 2 or any(
                        t & common == common for k, t in enumerate(tights)
                        if k != p and k != n):
                    continue
                sn = signs[n]
                kept.append((tuple(primitive([sp * b - sn * a for a, b in zip(yp, yn)])),
                             common | bit))
        rays = kept
    return rays


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _integer_row(values) -> tuple[int, ...]:
    """The primitive integer multiple of a vector of ints, Fractions or floats."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return tuple(primitive([n * (den // d) for n, d in ratios]))


def _rref(rows, width: int) -> tuple[dict[int, int], list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in order.

    Returns {index of each row independent of the rows before it: its pivot
    column}, stopping at rank ``width``, and the reduced rows in the same
    order, each the primitive integer multiple, positive at its own pivot,
    of the rational reduced row, which is 0 at the other pivots.
    """
    reduced: list[list[int]] = []
    pivots: dict[int, int] = {}
    for i, row in enumerate(rows):
        if len(pivots) == width:
            break
        v = list(row)
        for c, r in zip(pivots.values(), reduced):
            if v[c]:
                v = _eliminate(v, r, c)
        c = next((k for k, x in enumerate(v) if x), None)
        if c is None:
            continue
        v = primitive(v if v[c] > 0 else [-x for x in v])
        reduced[:] = [_eliminate(r, v, c) if r[c] else r for r in reduced]
        reduced.append(v)
        pivots[i] = c
    return pivots, reduced


def _eliminate(v: list[int], r: list[int], c: int) -> list[int]:
    """v - (v[c] / r[c]) r, 0 at c, as a primitive integer row: a positive
    multiple, as r[c] > 0."""
    g = math.gcd(v[c], r[c])
    return primitive([r[c] // g * x - v[c] // g * y for x, y in zip(v, r)])


def _null_space(rows, width: int) -> list[tuple[int, ...]]:
    """A basis of {y : r.y = 0 for each row r}, as primitive integer vectors,
    one per column without a pivot."""
    pivots, reduced = _rref(rows, width)
    den = math.lcm(*(r[c] for c, r in zip(pivots.values(), reduced)))
    basis = []
    for free in range(width):
        if free in pivots.values():
            continue
        y = [den * (k == free) for k in range(width)]
        for c, r in zip(pivots.values(), reduced):
            y[c] = den // r[c] * -r[free]
        basis.append(tuple(primitive(y)))
    return basis


_MC_BLOCK = 4096  # most points per block of the hit test
_MC_STACK = 4 * _MC_BLOCK  # most floats in one block's stacked hit test, over all bins
_UNIT_ROUNDOFF = 2.0 ** -53  # the relative error of one rounded double operation
_LEAST_DOUBLE = 2.0 ** -1074  # what one operation may lose to underflow, and more


def _orientation(a, b, c) -> int:
    """The 3x3 determinant of three homogeneous points (t, x, d), d > 0: its
    sign is that of the turn from a to b to c in the plane (t/d, x/d),
    positive counter-clockwise."""
    (ta, xa, da), (tb, xb, db), (tc, xc, dc) = a, b, c
    return ta * (xb * dc - xc * db) - xa * (tb * dc - tc * db) + da * (tb * xc - tc * xb)


def _hull_chain(points: list, sign: int) -> list:
    """Andrew's monotone chain (Inf. Process. Lett. 9, 1979) of homogeneous
    points of strictly ascending t: the upper chain of their convex hull for
    sign 1, the lower for -1, without collinear points."""
    chain: list = []
    for q in points:
        while len(chain) > 1 and sign * _orientation(chain[-2], chain[-1], q) >= 0:
            chain.pop()
        chain.append(q)
    return chain


def _chain_at(chain: list, k: int, num: int, den: int) -> tuple[int, int]:
    """A chain's height at t = num / den, a t on its segment k, as a pair
    (numerator, denominator > 0)."""
    (t1, x1, d1), (t2, x2, d2) = chain[k], chain[k + 1]
    return x1 * (t2 * den - num * d2) + x2 * (num * d1 - t1 * den), den * (t2 * d1 - t1 * d2)


def _round_out(num: int, den: int, up: bool) -> float:
    """The smallest double >= num / den if ``up``, else the largest double
    <= it (den > 0); beyond the float range, +-inf or the largest finite
    double on its side."""
    try:
        x = num / den  # correctly rounded
    except OverflowError:
        x = math.inf if num > 0 else -math.inf
    if math.isinf(x):
        return x if (x > 0) == up else math.nextafter(x, 0.0)
    n, d = x.as_integer_ratio()
    if (n * den < num * d) if up else (n * den > num * d):
        return math.nextafter(x, math.inf if up else -math.inf)
    return x


def _slice_boxes(p: HPolytope, axis: int):
    """The bounding boxes of the slices at axis = s of a bounded ``p`` whose
    vertices have two heights or more: a function of a list of centres
    giving, at each, None where the hyperplane misses ``p``, else
    ``(lows, highs, ends)`` over the coordinates other than the axis.
    ``lows`` holds the largest double <= the slice's exact least coordinate,
    ``highs`` the smallest double >= its greatest (either may be infinite
    beyond the float range), and ``ends`` those exact ends as (numerator,
    denominator > 0) pairs, least and greatest for each coordinate in turn.

    The slice's extent along coordinate j at s is the chord at s of the
    projection of ``p`` onto (axis, j), and that projection is the convex
    hull of the vertices' (t, x_j).  So the lower and upper chains of each
    such hull, through the least and the greatest x_j at each distinct
    height t, are built once here, in Python integers: each vertex is
    written over one denominator, and each turn is the sign of an integer
    determinant.  One walk over the centres, in ascending order, then reads
    every box from the chains.
    """
    vertices = p._vrep[0]
    homogeneous, rounded = [], []
    for v in vertices:
        den = math.lcm(*(x.denominator for x in v))
        homogeneous.append(([x.numerator * (den // x.denominator) for x in v], den))
        rounded.append([nearest_double(x) for x in v])

    # the exact order by a coordinate, compared as Fractions only where the
    # rounded coordinates tie (rounding is monotone)
    def by(j):
        return lambda i: (rounded[i][j], vertices[i][j])

    levels: list[list[int]] = []  # the vertices at each distinct height, ascending
    for i in sorted(range(len(vertices)), key=by(axis)):
        if levels and vertices[levels[-1][0]][axis] == vertices[i][axis]:
            levels[-1].append(i)
        else:
            levels.append([i])
    chains = []  # the lower chain, then the upper, of each coordinate but the axis
    for j in range(p.dim):
        if j != axis:
            for extreme, sign in ((min, -1), (max, 1)):
                ends = [homogeneous[extreme(level, key=by(j))] for level in levels]
                chains.append(_hull_chain([(x[axis], x[j], den) for x, den in ends], sign))
    (first, first_den), (last, last_den) = ((x[axis], den) for x, den in
                                            (homogeneous[levels[0][0]],
                                             homogeneous[levels[-1][0]]))

    def boxes(centers) -> list:
        found: list = [None] * len(centers)
        at = [0] * len(chains)  # the segment of each chain that the walk is on
        for i in sorted(range(len(centers)), key=centers.__getitem__):
            num, den = centers[i].as_integer_ratio()
            if num * first_den < first * den or num * last_den > last * den:
                continue
            ends = []
            for c, chain in enumerate(chains):
                k = at[c]
                while k + 2 < len(chain) and chain[k + 1][0] * den <= num * chain[k + 1][2]:
                    k += 1
                at[c] = k
                ends.append(_chain_at(chain, k, num, den))
            found[i] = ([_round_out(*end, False) for end in ends[::2]],
                        [_round_out(*end, True) for end in ends[1::2]], ends)
        return found

    return boxes


def _box_volume(s: float, box) -> float:
    """The volume of a box from _slice_boxes, the exact product of its sides
    rounded once; raises DomainError naming s if that is inf, or 0 from a
    positive product."""
    lows, highs, ends = box
    volume, scale = 1, 1
    for (x, d), (y, e) in zip(ends[::2], ends[1::2]):
        volume, scale = volume * (y * d - x * e), scale * d * e
    rounded = nearest_double(volume, scale)
    if math.isinf(rounded) or rounded == 0 < volume:
        _refuse(s, [high - low for low, high in zip(lows, highs)])
    return rounded


def _holds(row: tuple, num: int, den: int, ends: list) -> bool:
    """Whether the integer half-space ``row`` = (along, across, offset),
    along s + across . y + offset <= 0, holds on the whole box of ``ends``
    (from _slice_boxes) at s = num / den, decided exactly at the box's
    corner that is greatest along the row."""
    along, across, offset = row
    total, scale = along * num + offset * den, den
    for c, least, greatest in zip(across, ends[::2], ends[1::2]):
        if c:
            x, d = greatest if c > 0 else least
            total, scale = total * d + c * x * scale, scale * d
    return total <= 0


def _mc_slicer(p: HPolytope, axis: int, n: int):
    """The hit-or-miss estimator of the (dim-1)-volumes of the slices of
    ``p`` at axis = s, each from n points: a function of ``(centers, rng)``
    giving the volume and its standard error at each centre, in order.

    What does not depend on s is built here, once per profile: the float
    rows of the half-spaces without the axis, the mask of those normal to
    it (each holds on a whole slice or empties it, and where it empties it
    the chains give no box), their exact integer rows, and the exact hull
    chains from which _slice_boxes reads every slice's box: its exact
    bounding box, rounded outward once, each width rounded up, so that it
    holds the slice with no pad.  Each step after the walk over the chains
    is an array operation over all bins, the cuts and box volumes taken
    column by column in a fixed order.  If the exact slice fills its exact
    box, decided exactly (float bounds settle most rows, and integers the
    rest), the bin gives that box's exact volume, rounded once, with standard
    error 0, and samples nothing; a one-point slice gives 1 by the same rule.  Every other bin folds its box into its rows: a point u
    of the unit cube, scaled to lows + widths * u, hits when (rows * widths)
    u <= bounds - rows lows.  A bin keeps only the rows that can reject a
    point of its box: a row is dropped when its folded entries are all <= 0
    and its cut is >= 0, or when its largest value on the box, plus the
    rounding bound of a (dim-1)-term dot product, is within its cut; so
    dropping a row changes no count.

    The sampled bins share one stream, so every bin tests the same points:
    if any bin is sampled, the call draws rng's next n * (dim-1) doubles in
    row-major order, one point per row, and none otherwise.  The points come
    in blocks, each drawn once and tested against every sampled bin's kept
    rows in one product; a block holds at most _MC_BLOCK points, and its
    product at most _MC_STACK floats unless one point's test needs more.  A
    bin folds its rows alone, and each entry of the product is that of its
    row and point, so a bin's count is the same whatever the block size and
    whatever other bins share the product: its estimate depends only on
    (rng's state, n, s).  An empty slice or a polytope without interior
    (decided exactly) gives 0; a slice whose box volume is not finite, or
    whose extents are positive but multiply to 0, raises DomainError naming
    the first such s, and so does a vertex beyond the float range, naming
    the first axis along which it lies.
    """
    import numpy as np

    a, b = map(np.array, zip(*p.halfspaces))
    along = a[:, axis]
    k = p.dim - 1
    rest = np.delete(a, axis, axis=1)
    normal = ~rest.any(axis=1)
    rows, row_along, row_offsets = rest[~normal], along[~normal], b[~normal]
    exact_rows = []
    for (h, offset), skip in zip(p.halfspaces, normal.tolist()):
        if not skip:
            row = _integer_row([*h, -offset])
            exact_rows.append((row[axis], row[:axis] + row[axis + 1:-1], row[-1]))
    # a half-space tight at every vertex: no interior, and every slice has volume 0
    boxes = None if reduce(int.__and__, p._vrep[2]) else _slice_boxes(p, axis)
    for j in range(p.dim):  # a box to sample needs float corners
        if boxes and any(math.isinf(nearest_double(v[j])) for v in p._vrep[0]):
            raise DomainError(f"a vertex lies beyond the float range along axis {j}")

    def estimate(centers, rng: np.random.Generator) -> list[tuple[float, float]]:
        out = [(0.0, 0.0)] * len(centers)
        found = boxes(centers) if boxes else [None] * len(centers)
        live = [i for i, box in enumerate(found) if box is not None]
        if not live:
            return out
        s = np.array([centers[i] for i in live])[:, None]
        # an overflow gives inf or nan, which fails every test below but the
        # exact one, and reads as a miss in the hit test
        with np.errstate(over="ignore", invalid="ignore"):
            lows = np.array([found[i][0] for i in live]).reshape(len(live), k)
            highs = np.array([found[i][1] for i in live]).reshape(len(live), k)
            # each width rounded up, so that the box holds [lows, highs]: the
            # rounding error of highs - lows is exact by Knuth's TwoSum
            widths = highs - lows
            part = widths - highs
            short = (highs - (widths - part)) - (lows + part) > 0
            widths = np.where(short, np.nextafter(widths, np.inf), widths)
            volumes = np.ones(len(live))
            for column in widths.T:
                volumes = volumes * column
            bad = ~np.isfinite(volumes) | ((volumes == 0) & (widths > 0).all(axis=1))
            if bad.any():
                _refuse(centers[live[bad.argmax()]], widths[bad.argmax()].tolist())
            # bounds - rows @ lows, one column at a time: a matrix-vector
            # product may round a row by where it sits in the matrix
            cuts = row_offsets - row_along * s
            scale = np.abs(row_offsets) + np.abs(row_along * s)
            for j in range(k):
                cuts = cuts - rows[:, j] * lows[:, j, None]
                scale = scale + np.abs(rows[:, j]) * np.maximum(np.abs(lows[:, j, None]),
                                                                np.abs(highs[:, j, None]))
            folded = rows * widths[:, None, :]
            # each row's largest value on the box, less its value at lows, and
            # the most that rounding may move a (dim-1)-term dot product
            top = np.maximum(folded, 0.0).sum(axis=2)
            slack = 2 * (k + 2) * _UNIT_ROUNDOFF * np.abs(folded).sum(axis=2) \
                + (k + 1) * _LEAST_DOUBLE
            finite = np.isfinite(folded).all(axis=2)
            rejects = ~(finite & (((folded <= 0).all(axis=2) & (cuts >= 0))
                                  | (top + slack <= cuts)))
            # the exact row against the exact box: where nothing overflowed,
            # every rounding above, and the outward rounding of the box, moves
            # top - cuts by less than this margin; rounded outward, a subnormal
            # end moves by up to 2**-1074, which a row's entry scales
            margin = 8 * (k + 2) * (_UNIT_ROUNDOFF * scale
                                    + _LEAST_DOUBLE * (1 + np.abs(rows).sum(axis=1)))
            known = finite & np.isfinite(cuts) & np.isfinite(margin)
            cutting, inside = known & (top - cuts > margin), known & (cuts - top > margin)
        sampled = []
        for j, (i, cut) in enumerate(zip(live, cutting.any(axis=1).tolist())):
            num, den = centers[i].as_integer_ratio()
            ends = found[i][2]
            if cut or not all(_holds(row, num, den, ends) for row, skip
                              in zip(exact_rows, inside[j].tolist()) if not skip):
                sampled.append(j)
                continue
            out[i] = _box_volume(centers[i], found[i]), 0.0
        if not sampled:
            return out
        keep = rejects[sampled]
        counts = keep.sum(axis=1)
        ruled = counts > 0
        # each ruled bin's kept rows, then its first kept row again up to the
        # most rows a bin keeps, so that one reshape tests every bin: a
        # repeated row rejects no point its first copy passes
        width = int(counts.max())
        first = np.argsort(~keep[ruled], axis=1, kind="stable")[:, :width]
        picked = np.where(np.arange(width) < counts[ruled, None], first, first[:, :1])
        at = np.flatnonzero(ruled)[:, None]
        stacked = folded[sampled][at, picked].reshape(-1, k)
        block = min(n, _MC_BLOCK, max(1, _MC_STACK // max(1, len(stacked))))
        # each row's cut repeated across the block: a broadcast compare runs
        # three times slower than one between equal shapes
        stacked_cuts = np.repeat(cuts[sampled][at, picked].reshape(-1, 1), block, axis=1)
        hits = np.zeros(len(sampled), dtype=np.int64)
        hits[~ruled] = n  # no row can reject a point of the box
        for start in range(0, n, block):
            m = min(block, n - start)
            u = rng.random((m, k))
            if len(stacked):
                passed = stacked @ u.T <= stacked_cuts[:, :m]
                hits[ruled] += passed.reshape(len(at), width, m).all(axis=1).sum(axis=1)
        for j, h in zip(sampled, hits.tolist()):
            box_vol, phat = float(volumes[j]), h / n
            out[live[j]] = box_vol * phat, box_vol * math.sqrt(phat * (1.0 - phat) / n)
        return out

    return estimate


def _refuse(s: float, extents: list[float]):
    raise DomainError(f"the slice at s={s} has extents {extents}: "
                      "its volume is outside the float range")
