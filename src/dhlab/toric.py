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
boundedness on every axis once.  Monte-Carlo slicing takes each bin's
bounding box from where segments between vertices cross the slicing
hyperplane, so no bin solves anything, and builds what does not depend on
the bin (rows, vertex columns) once per profile.  A bin whose slice fills
its bounding box gives the box's volume with standard error 0 and samples
nothing.  The other bins share the profile's one PCG64DXSM stream, seeded by
``SeedSequence(seed, spawn_key=(axis,))`` (``GENERATOR_NAME``): every bin
tests the same points of the unit cube, each scaled into its own box, so the
points are drawn once per profile rather than once per bin, and the bins'
errors are positively correlated (common random numbers), which smooths the
second differences that ``prekopa_check`` reads.  A bin's estimate still
depends only on the seed, the axis, the sample count and its centre.  2-d
slicing computes every bin's chord in one pass per profile in integers and
rounds it once, so each chord is the double nearest the exact one.

Construction, JSON validation, the enumeration, ``projection_range``, every
argument check of ``slice_profile``, its float bin grid, its 2-d chords and
``suggested_tolerance`` run in Python integers and floats, and
``prekopa_check`` decides in integers on the bins' exact values; numpy
loads only to run Monte Carlo and to build a profile's arrays on first read.
"""

from __future__ import annotations

import math
import sys
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

    @cached_property
    def _vertices(self) -> np.ndarray:
        """The vertices, one per row, rounded to floats, of a polytope that
        must be bounded: slice_profile checks every axis before it gets here.

        Raises EmptyPolytopeError if the polytope is empty, and DomainError
        naming the first axis where a vertex is beyond the float range; has
        no rows if a half-space is tight at every vertex, so on their hull: an
        implicit equality, which a nonempty bounded polytope has iff it has no interior.
        """
        import numpy as np

        vertices, _, tights = self._vrep
        if reduce(int.__and__, tights):
            return np.empty((0, self.dim))
        rounded = np.array([[nearest_double(x) for x in v] for v in vertices])
        beyond = np.flatnonzero(~np.isfinite(rounded).all(axis=0))
        if beyond.size:
            raise DomainError(f"a vertex lies beyond the float range along axis {beyond[0]}")
        return rounded

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

    ``method`` is "exact2d" (dim = 2 only), whose chords are exact and
    rounded once, computed for every bin in one pass per profile, or "mc";
    None means "exact2d" in dimension 2, else "mc".  Monte-Carlo bins test
    the same points, drawn once from the stream of (seed, axis), so a bin's
    estimate depends on its centre but not on the other bins.
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
        return SliceVolumeFn(method, centers, _chords_2d(p, axis, centers), [0.0] * bins)
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


def _chords_2d(p: HPolytope, axis: int, centers: list[float]) -> list[float]:
    """The lengths, as a list of floats, of the slices of a planar polytope
    at axis = s for each s in ``centers``, each the exact length rounded once;
    the polytope must be bounded.  With s = num / den, each half-space, a
    primitive integer row, bounds the free coordinate on one side at a
    quotient of integers, or empties the slice (length 0.0); the nearest
    bounds are picked by cross-multiplication.  Raises DomainError naming
    the first s whose length is beyond the float range."""
    other = 1 - axis
    rows = [_integer_row([normal[axis], normal[other], -offset])
            for normal, offset in p.halfspaces]
    chords = []
    for s in centers:
        num, den = s.as_integer_ratio()
        hi = lo = None  # (n, c): across * u <= n / den, so u <= or >= n / (c den)
        for along, across, offset in rows:
            n = -(along * num + offset * den)
            if across > 0 and (hi is None or n * hi[1] < hi[0] * across):
                hi = n, across
            elif across < 0 and (lo is None or n * lo[1] > lo[0] * across):
                lo = n, across
            elif not across and n < 0:
                chords.append(0.0)
                break
        else:  # hi - lo = (n_lo c_hi - n_hi c_lo) / (-c_hi c_lo den), c_hi c_lo < 0
            chords.append(nearest_double(max(lo[0] * hi[1] - hi[0] * lo[1], 0),
                                         -hi[1] * lo[1] * den))
            if not math.isfinite(chords[-1]):
                raise DomainError(f"the slice at s={s} has length {chords[-1]}, "
                                  "outside the float range")
    return chords


_BOX_PAD = 64 * sys.float_info.epsilon
_MC_BLOCK = 4096  # most points per block of the hit test
_MC_STACK = 4 * _MC_BLOCK  # most floats in one block's stacked hit test, over all bins


def _slice_extent(t: np.ndarray, rest: np.ndarray,
                  s: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Least and greatest coordinates of the slice at axis = s, for the
    vertices' coordinates ``t`` along the axis and ``rest`` along the others;
    None if no vertex reaches the hyperplane.

    They are taken over the vertices on the hyperplane and the points where
    the segments between vertices on either side cross it.  Those points lie
    in the polytope, and every vertex of the slice lies on an edge of the
    polytope, so this is the slice's bounding box up to rounding.
    """
    import numpy as np

    below, above = t < s, t > s
    frac = (s - t[below])[:, None] / (t[above][None, :] - t[below][:, None])
    lower, upper = rest[below][:, None, :], rest[above][None, :, :]
    crossings = (lower + frac[:, :, None] * (upper - lower)).reshape(frac.size, rest.shape[1])
    pts = np.concatenate([crossings, rest[t == s]])
    if not len(pts):
        return None
    return pts.min(axis=0), pts.max(axis=0)


def _mc_slicer(p: HPolytope, axis: int, n: int):
    """The hit-or-miss estimator of the (dim-1)-volumes of the slices of
    ``p`` at axis = s, each from n points: a function of ``(centers, rng)``
    giving the volume and its standard error at each centre, in order.

    What does not depend on s is built here, once per profile: the float rows of
    the half-spaces without the axis, the mask of those normal to it, the
    vertices (enumerated exactly on first use, rounded to floats) split into the
    axis column and the others, and the box pad.  Each centre's slice takes its
    bounding box from the vertices.  If that box lies in every half-space, the
    slice is its box and every point would hit: the bin gives the product of
    the box's sides, with standard error 0, and samples nothing.  A segment's
    slices are points, so one inside gives 1 by the same rule.  Every other
    bin widens its box by the pad, which only guards a sampled estimate, and
    folds the box into its rows: a point u of the unit cube, scaled to
    lows + widths * u, hits when (rows * widths) u <= bounds - rows lows.

    The sampled bins share one stream, so every bin tests the same points:
    if any bin is sampled, the call draws rng's next n * (dim-1) doubles in
    row-major order, one point per row, and none otherwise.  The points come
    in blocks, each drawn once and tested against every sampled bin's folded
    rows in one product; a block holds at most _MC_BLOCK points, and its
    product at most _MC_STACK floats unless one point's test needs more.  A
    bin folds its rows alone, and each entry of the product is that of its
    row and point, so a bin's count is the same whatever the block size and
    whatever other bins share the product: its estimate depends only on
    (rng's state, n, s).  An empty slice or a polytope without interior
    (decided exactly) gives 0; a slice whose box volume is not finite, or
    whose extents are positive but multiply to 0, raises DomainError naming s.
    """
    import numpy as np

    a, b = map(np.array, zip(*p.halfspaces))
    along = a[:, axis]
    k = p.dim - 1
    rest = np.delete(a, axis, axis=1)
    # a half-space normal to the axis is +-0.0 at every point: it passes all or none
    normal = ~rest.any(axis=1)
    rows = rest[~normal]
    vertices = p._vertices
    t, others = vertices[:, axis], np.delete(vertices, axis, axis=1)
    # widen each box by the rounding in the vertices: a box too small would
    # bias the estimate, where one too large only adds variance
    pad = _BOX_PAD * float(np.abs(vertices).max(initial=0.0))

    def estimate(centers, rng: np.random.Generator) -> list[tuple[float, float]]:
        out = [(0.0, 0.0)] * len(centers)
        sampled, folded, cuts = [], [], []  # (bin, box volume); rows * widths; their bounds
        # an overflow gives inf or nan, which reads as a cut in the box test
        # and as a miss in the hit test
        with np.errstate(over="ignore", invalid="ignore"):
            for i, s in enumerate(centers):
                bounds = b - along * s
                extent = _slice_extent(t, others, s)
                if extent is None or np.any(bounds[normal] < 0):
                    continue
                least, greatest = extent
                lows, highs = least - pad, greatest + pad
                widths = highs - lows
                box_vol = float(np.prod(widths))
                spans = greatest - least
                slice_box_vol = np.prod(spans)
                if not math.isfinite(box_vol) or (slice_box_vol == 0 and np.all(spans > 0)):
                    raise DomainError(f"the slice at s={s} has extents {spans.tolist()}: "
                                      "its volume is outside the float range")
                # every corner of the unpadded box in every half-space: the slice
                # is its box, so every point would hit
                bounds = bounds[~normal]
                if np.all(np.maximum(rows * least, rows * greatest).sum(axis=1) <= bounds):
                    out[i] = float(slice_box_vol), 0.0
                    continue
                # bounds - rows @ lows, one column at a time: a matrix-vector
                # product may round a row by where it sits in the matrix
                for column, low in zip(rows.T, lows):
                    bounds = bounds - column * low
                sampled.append((i, box_vol))
                folded.append(rows * widths)
                cuts.append(bounds)
            if not sampled:
                return out
            folded = np.concatenate(folded)
            block = min(n, _MC_BLOCK, max(1, _MC_STACK // len(folded)))
            # each row's bound repeated across the block: a broadcast compare
            # runs three times slower than one between equal shapes
            cuts = np.repeat(np.concatenate(cuts)[:, None], block, axis=1)
            shape = len(sampled), len(rows), -1
            hits = np.zeros(len(sampled), dtype=np.int64)
            for start in range(0, n, block):
                m = min(block, n - start)
                u = rng.random((m, k))
                hits += (folded @ u.T <= cuts[:, :m]).reshape(shape).all(axis=1).sum(axis=1)
        for (i, box_vol), h in zip(sampled, hits.tolist()):
            phat = h / n
            out[i] = box_vol * phat, box_vol * math.sqrt(phat * (1.0 - phat) / n)
        return out

    return estimate
