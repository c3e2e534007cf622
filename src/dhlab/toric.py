"""Slice-volume profiles of convex polytopes under coordinate projections.

This is the log-concave baseline: the pushforward density of the uniform
measure on a convex body along a coordinate axis is its slice-volume
function, which is log-concave on its support (Prekopa / Brunn-Minkowski).
In the half-dimensional torus-action picture the polytope is a moment
image carrying density one, so the slice profile along an axis is exactly
the pushforward density of the circle subaction for that axis.

Polytopes are half-space systems {x : a.x <= b}.  Only coordinate-axis
projections are implemented; for a general direction, rotate the polytope
first.  Every float is a dyadic rational, so each half-space is an exact
integer row, and the vertices, recession rays and lines are enumerated once
per polytope in Python integers by the double-description method (Motzkin
et al. 1953; Fukuda & Prodon 1996).  Emptiness, boundedness along each
axis, axis ranges and whether the polytope has interior are all read from
that enumeration, so no float solver decides them.  Monte-Carlo slicing
takes each bin's bounding box from where segments between vertices cross
the slicing hyperplane, so no bin solves anything, and builds what does not
depend on the bin (rows, vertex columns) once per profile.  2-d slicing
computes every bin's chord in one float pass per profile; each half-space's
crossing rounds before the chord's subtraction, so a chord can differ from
the exact one rounded once in its last bits.

Construction, JSON validation, the enumeration, ``projection_range`` and
every argument check of ``slice_profile`` run in Python integers and floats;
numpy loads only when a profile's arrays are built.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .intpoly import integer, nearest_double, primitive, rational
from .logconcavity import DomainError, ViolationReport, discrete_logconcavity

# numpy is imported in each function that builds or reads an array, so that
# polytopes, their vertices and ranges, and every input error of slice_profile
# cost no numpy import
if TYPE_CHECKING:
    import numpy as np


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
    def _vrep(self) -> tuple[list[tuple[Fraction, ...]], list[tuple[int, ...]]]:
        """The exact vertices, and the recession rays and lines, found once;
        raises EmptyPolytopeError if there is no vertex."""
        return _enumerate(self.dim, self.halfspaces)

    @cached_property
    def _vertices(self) -> np.ndarray:
        """The vertices, one per row, rounded to floats.

        Raises like projection_range if the polytope is empty or unbounded,
        and DomainError naming the first axis where a vertex is beyond the
        float range; has no rows if the vertices' exact affine rank is < dim.
        """
        import numpy as np

        vertices, directions = self._vrep
        for axis in range(self.dim):
            _check_bounded(directions, axis)
        pivots, _ = _rref([(*v, 1) for v in vertices], self.dim + 1)
        if len(pivots) <= self.dim:
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

    @staticmethod
    def from_json(text: str) -> "HPolytope":
        return HPolytope.from_json_dict(json.loads(text))


@dataclass(frozen=True, eq=False)
class SliceVolumeFn:
    """Sampled slice-volume profile along one coordinate axis.

    Volumes vanish outside the projection interval and, by convexity of the
    body, the positive bins form a single contiguous run.
    """

    method: str  # "exact2d" or "mc": the slicing method that built it
    grid: np.ndarray
    volumes: np.ndarray
    stderrs: np.ndarray


def projection_range(p: HPolytope, axis: int) -> tuple[float, float]:
    """Min and max of the axis coordinate over the polytope, the floats
    nearest the exact extremes over its vertices.  Raises
    EmptyPolytopeError if the polytope is empty, and UnboundedPolytopeError
    if a recession ray or line moves along the axis; the other axes may
    still be unbounded."""
    axis = integer("axis", axis)
    if not 0 <= axis < p.dim:
        raise ValueError(f"axis {axis} out of range for dim {p.dim}")
    vertices, directions = p._vrep
    _check_bounded(directions, axis)
    coords = [v[axis] for v in vertices]
    return nearest_double(min(coords)), nearest_double(max(coords))


def slice_profile(p: HPolytope, axis: int, bins: int, method: str | None = None,
                  mc_n: int = 100_000, seed: int = 0) -> SliceVolumeFn:
    """Slice volumes at bin centers across the projection range.

    ``method`` is "exact2d" (dim = 2 only), whose chords are computed for
    every bin in one pass per profile, or "mc"; None means "exact2d" in
    dimension 2, else "mc".  Monte-Carlo bins use independent streams from
    (seed, axis, bin), so the profile does not depend on evaluation order.
    A polytope flat along the axis has no profile: InsufficientDataError.
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
    if not math.isfinite(hi - lo):
        raise DomainError(f"polytope's projection along axis {axis} is wider than the "
                          f"float range: [{lo}, {hi}]")
    for other in range(p.dim):  # the slices must be bounded too
        _check_bounded(p._vrep[1], other)
    import numpy as np

    edges = np.linspace(lo, hi, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    errs = np.zeros(bins)
    if method == "exact2d":
        return SliceVolumeFn(method, centers, _chords_2d(p, axis, centers), errs)
    vols = np.zeros(bins)
    estimate = _mc_slicer(p, axis, mc_n)
    for i, s in enumerate(centers):
        vols[i], errs[i] = estimate(float(s), _rng(seed, axis, i))
    return SliceVolumeFn(method, centers, vols, errs)


def prekopa_check(f: SliceVolumeFn, tol: float) -> ViolationReport:
    """Discrete log-concavity test of a slice profile.

    Zero-volume bins at the ends of the support are trimmed (the log is
    undefined there) and recorded in the report; at least 3 positive bins
    must remain.
    """
    import numpy as np

    vols = np.asarray(f.volumes, dtype=float)
    pos = vols > 0
    if int(pos.sum()) < 3:
        raise InsufficientDataError(
            f"only {int(pos.sum())} positive bins; need at least 3")
    first = int(np.argmax(pos))
    last = len(vols) - 1 - int(np.argmax(pos[::-1]))
    report = discrete_logconcavity(
        list(zip(f.grid[first:last + 1], vols[first:last + 1])), tol)
    return replace(report, trimmed=(first, len(vols) - 1 - last))


def suggested_tolerance(f: SliceVolumeFn) -> float:
    """Multiplicative slack for prekopa_check absorbing the profile's MC noise.

    A relative perturbation r of each bin moves the midpoint ratio
    f(s)^2 / (f(s-h) f(s+h)) by up to (1+r)^2/(1-r)^2; the returned slack
    covers four (_NOISE_STDERRS) standard errors of that worst case (floor
    1e-9 for exact profiles), capped at 0.9: from r = 0.17 on, that slack
    would reach 1, where the midpoint test flags nothing.
    """
    import numpy as np

    vols = np.asarray(f.volumes, dtype=float)
    pos = vols > 0
    if not pos.any():
        return 1e-9
    r = float(np.max(f.stderrs[pos] / vols[pos])) * _NOISE_STDERRS
    if r >= 0.45:
        return 0.9
    return min(0.9, max(1e-9, (1 + r) ** 2 / (1 - r) ** 2 - 1))


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------

_NOISE_STDERRS = 4.0  # standard errors of MC noise that suggested_tolerance covers


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    import numpy as np

    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(v) for v in stream))
    return np.random.Generator(np.random.Philox(ss))


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
                                              list[tuple[int, ...]]]:
    """Exact vertices, and recession rays and lines, of {x : a.x <= b}.

    Each half-space becomes the primitive integer row (a, -b) of the cone
    {(x, l) : a.x <= b l, l >= 0}, whose extreme rays with l > 0 are the
    vertices and with l = 0 the recession rays.  If the normals do not span
    R^dim, the lines are a basis of their null space; the polytope is cut
    to the normals' span (x orthogonal to each line) so the cone is pointed.
    """
    rows = [_integer_row([*map(rational, normal), -rational(offset)])
            for normal, offset in halfspaces]
    rows = [row for row in rows if any(row)]
    lines = _null_space([row[:dim] for row in rows], dim)
    rows += [(*sign, 0) for n in lines for sign in (n, tuple(-v for v in n))]
    rows.append((0,) * dim + (-1,))
    rays = _double_description(rows, dim + 1)
    vertices = [tuple(Fraction(v, y[-1]) for v in y[:-1]) for y in rays if y[-1]]
    if not vertices:
        raise EmptyPolytopeError("half-space system is infeasible")
    return vertices, lines + [y[:-1] for y in rays if not y[-1]]


def _double_description(rows: list[tuple[int, ...]], width: int) -> list[tuple[int, ...]]:
    """Extreme rays, as primitive integer vectors, of the pointed cone
    {y : r.y <= 0 for each row r}; the rows must span R^width.

    Starts from the simplicial cone of width independent rows and adds the
    other rows one at a time.  Rays in a new half-space stay (those on its
    hyperplane gain it as a tight row), rays outside go, and each pair of
    adjacent rays on opposite sides gives the ray where their 2-face
    crosses the new hyperplane.  Two rays are
    adjacent when their common tight rows number at least width - 2 and
    no third ray is tight on all of them (the combinatorial test of Fukuda
    & Prodon); tight sets are bitsets over the row indices.
    """
    basis, _ = _rref(rows, width)
    tight_all = sum(1 << i for i in basis)
    rays = []
    for i in basis:
        (y,) = _null_space([rows[k] for k in basis if k != i], width)
        if _dot(rows[i], y) > 0:
            y = tuple(-v for v in y)
        rays.append((y, tight_all & ~(1 << i)))
    for i, row in enumerate(rows):
        if i in basis:
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
    return [y for y, _ in rays]


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _integer_row(values: list[Fraction]) -> tuple[int, ...]:
    """The primitive integer multiple of a rational vector."""
    den = math.lcm(*(v.denominator for v in values))
    return tuple(primitive([v.numerator * (den // v.denominator) for v in values]))


def _rref(rows, width: int) -> tuple[dict[int, int], list[list[Fraction]]]:
    """Gauss-Jordan elimination over the rationals, row by row in order.

    Returns {index of each row independent of the rows before it: its pivot
    column}, stopping at rank ``width``, and the reduced rows in the same
    order, each 1 at its own pivot and 0 at the others.
    """
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


def _null_space(rows, width: int) -> list[tuple[int, ...]]:
    """A basis of {y : r.y = 0 for each row r}, as primitive integer vectors,
    one per column without a pivot."""
    pivots, reduced = _rref(rows, width)
    basis = []
    for free in range(width):
        if free in pivots.values():
            continue
        y = [Fraction(int(k == free)) for k in range(width)]
        for c, r in zip(pivots.values(), reduced):
            y[c] = -r[free]
        basis.append(_integer_row(y))
    return basis


def _chords_2d(p: HPolytope, axis: int, centers: np.ndarray) -> np.ndarray:
    """Lengths of the slices of a planar polytope at axis = s for each s in
    ``centers``: each half-space bounds the free coordinate on one side, or
    empties the slice; the polytope must be bounded.  Raises DomainError
    naming the first s whose length is beyond the float range."""
    import numpy as np

    other = 1 - axis
    rows = [(normal[axis], normal[other], offset) for normal, offset in p.halfspaces]
    chords = []
    for s in centers.tolist():
        lo, hi = -math.inf, math.inf
        for along, across, offset in rows:
            c = offset - along * s
            if across > 0:
                hi = min(hi, c / across)
            elif across < 0:
                lo = max(lo, c / across)
            elif c < 0:
                chords.append(0.0)
                break
        else:
            chords.append(max(hi - lo, 0.0))
            if not math.isfinite(chords[-1]):
                raise DomainError(f"the slice at s={s} has length {chords[-1]}, "
                                  "outside the float range")
    return np.array(chords)


_BOX_PAD = 64 * sys.float_info.epsilon
_MC_BLOCK = 4096  # points per block of the hit test


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
    ``p`` at axis = s, each from n points: a function of ``(s, rng)`` giving
    the volume and its standard error.

    What does not depend on s is built here, once per profile: the float rows of
    the half-spaces without the axis, the mask of those normal to it, the
    vertices (enumerated exactly on first use, rounded to floats) split into the
    axis column and the others, and the box pad.  Each call takes the slice's
    bounding box from the vertices, widened by the pad, and draws rng's next
    n * (dim-1) doubles in row-major order, in fresh blocks of min(n, _MC_BLOCK)
    points.  It scales each block into the box by one flat multiply and add over
    rows that repeat the box's widths and lows, which are the same IEEE
    operations as broadcasting, so the estimate is the one-shot estimate bit for
    bit, whatever the block size.  A segment's slices are points: one inside
    gives 1 and draws nothing.  An empty slice or a polytope without interior
    (decided exactly) gives 0; a slice whose box volume is not finite, or whose
    extents are positive but multiply to 0, raises DomainError naming s.
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
    block = min(n, _MC_BLOCK)

    def estimate(s: float, rng: np.random.Generator) -> tuple[float, float]:
        with np.errstate(over="ignore", invalid="ignore"):
            bounds = b - along * s
            extent = _slice_extent(t, others, s)
            if extent is None or np.any(bounds[normal] < 0):
                return 0.0, 0.0
            least, greatest = extent
            lows, highs = least - pad, greatest + pad
            widths = highs - lows
            box_vol = float(np.prod(widths))
            spans = greatest - least
            if not math.isfinite(box_vol) or (np.prod(spans) == 0 and np.all(spans > 0)):
                raise DomainError(f"the slice at s={s} has extents {spans.tolist()}: "
                                  "its volume is outside the float range")
        # a flat multiply-add over rows tiling the box: broadcasting a row of
        # two or three would run one short inner loop per point
        scale, shift = np.tile(widths, block), np.tile(lows, block)
        bounds = bounds[~normal, None]
        hits = 0
        for start in range(0, n, block):
            m = min(block, n - start)
            pts = rng.random((m, k))
            flat = pts.reshape(-1)
            flat *= scale[:m * k]
            flat += shift[:m * k]
            hits += np.count_nonzero((rows @ pts.T <= bounds).all(axis=0))
        phat = hits / n
        return box_vol * phat, box_vol * float(np.sqrt(phat * (1.0 - phat) / n))

    return estimate
