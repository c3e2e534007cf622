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
the slicing hyperplane, so no bin solves anything.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .logconcavity import ViolationReport, discrete_logconcavity


class UnboundedPolytopeError(ValueError):
    """Raised when an operation needs a bounded polytope."""


class EmptyPolytopeError(ValueError):
    """Raised when the half-space system has no solution."""


class InsufficientDataError(ValueError):
    """Raised when a profile has too few positive bins to test."""


@dataclass(frozen=True)
class HPolytope:
    """A polytope {x in R^dim : normal.x <= offset for each half-space}."""

    dim: int
    halfspaces: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("polytope dimension must be >= 1")
        hs = []
        for k, (normal, offset) in enumerate(self.halfspaces):
            normal, offset = tuple(float(v) for v in normal), float(offset)
            if len(normal) != self.dim:
                raise ValueError(f"normal {normal} has length != dim {self.dim}")
            if not all(map(math.isfinite, (*normal, offset))):
                raise ValueError(f"half-space {k} is not finite: a={list(normal)}, b={offset}")
            hs.append((normal, offset))
        object.__setattr__(self, "halfspaces", tuple(hs))

    @cached_property
    def _system(self) -> tuple[np.ndarray, np.ndarray]:
        a = np.array([h[0] for h in self.halfspaces], dtype=float).reshape(-1, self.dim)
        b = np.array([h[1] for h in self.halfspaces], dtype=float)
        return a, b

    @cached_property
    def _vrep(self) -> tuple[list[tuple[Fraction, ...]], list[tuple[int, ...]]]:
        """The exact vertices, and the recession rays and lines, found once;
        raises EmptyPolytopeError if there is no vertex."""
        return _enumerate(self.dim, self.halfspaces)

    @cached_property
    def _vertices(self) -> np.ndarray:
        """The vertices, one per row, rounded to floats.

        Raises like projection_range, naming the first unbounded axis, if
        the polytope is empty or unbounded; has no rows if the polytope has
        no interior (the vertices' exact affine rank is below dim).
        """
        vertices, directions = self._vrep
        for axis in range(self.dim):
            _check_bounded(directions, axis)
        pivots, _ = _rref([(*v, 1) for v in vertices], self.dim + 1)
        if len(pivots) <= self.dim:
            return np.empty((0, self.dim))
        return np.array(vertices, dtype=float)

    def contains(self, points: np.ndarray) -> np.ndarray:
        a, b = self._system
        pts = np.atleast_2d(points)
        return np.all(pts @ a.T <= b, axis=1)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "halfspaces": [{"a": list(n), "b": off} for n, off in self.halfspaces],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "HPolytope":
        return HPolytope(int(data["dim"]),
                         tuple((tuple(h["a"]), h["b"]) for h in data["halfspaces"]))

    @staticmethod
    def from_json(text: str) -> "HPolytope":
        return HPolytope.from_json_dict(json.loads(text))


@dataclass(frozen=True, eq=False)
class SliceVolumeFn:
    """Sampled slice-volume profile along one coordinate axis.

    Volumes vanish outside the projection interval and, by convexity of the
    body, the positive bins form a single contiguous run.
    """

    axis: int
    grid: np.ndarray
    volumes: np.ndarray
    stderrs: np.ndarray


def projection_range(p: HPolytope, axis: int) -> tuple[float, float]:
    """Min and max of the axis coordinate over the polytope, the floats
    nearest the exact extremes over its vertices.  Raises
    EmptyPolytopeError if the polytope is empty, and UnboundedPolytopeError
    if a recession ray or line moves along the axis; the other axes may
    still be unbounded."""
    if not 0 <= axis < p.dim:
        raise ValueError(f"axis {axis} out of range for dim {p.dim}")
    vertices, directions = p._vrep
    _check_bounded(directions, axis)
    coords = [v[axis] for v in vertices]
    return float(min(coords)), float(max(coords))


def slice_volume_exact_2d(p: HPolytope, axis: int, s: float) -> float:
    """Length of the slice of a planar polytope at a fixed axis value.

    Each half-space restricts the free coordinate to a half-line; the slice
    is their intersection interval (empty slices have length 0).
    """
    if p.dim != 2:
        raise ValueError("exact slicing is implemented for dim = 2 only")
    other = 1 - axis
    lo, hi = -np.inf, np.inf
    for normal, offset in p.halfspaces:
        c = offset - normal[axis] * s
        a = normal[other]
        if a > 0:
            hi = min(hi, c / a)
        elif a < 0:
            lo = max(lo, c / a)
        elif c < 0:
            return 0.0
    if not np.isfinite(hi - lo):
        raise UnboundedPolytopeError("slice is unbounded; polytope is not bounded")
    return float(max(hi - lo, 0.0))


def slice_profile(p: HPolytope, axis: int, bins: int, method: str = "exact2d",
                  mc_n: int = 100_000, seed: int = 0) -> SliceVolumeFn:
    """Slice volumes at bin centers across the projection range.

    ``method`` is "exact2d" (dim = 2 only) or "mc"; Monte-Carlo bins use
    independent streams derived from (seed, axis, bin), so the profile does
    not depend on evaluation order.  A polytope flat along the axis has no
    profile to bin and raises InsufficientDataError.
    """
    if method not in ("exact2d", "mc"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact2d" and p.dim != 2:
        raise ValueError("method exact2d requires a 2-dimensional polytope")
    if bins < 1:
        raise ValueError("bins must be positive")
    lo, hi = projection_range(p, axis)
    if not lo < hi:
        raise InsufficientDataError(f"polytope is flat along axis {axis}: it projects to {lo}")
    edges = np.linspace(lo, hi, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    vols = np.zeros(bins)
    errs = np.zeros(bins)
    for i, s in enumerate(centers):
        if method == "exact2d":
            vols[i] = slice_volume_exact_2d(p, axis, float(s))
        else:
            vols[i], errs[i] = _slice_volume_mc(p, axis, float(s), mc_n,
                                                _rng(seed, axis, i))
    return SliceVolumeFn(axis, centers, vols, errs)


def prekopa_check(f: SliceVolumeFn, tol: float) -> ViolationReport:
    """Discrete log-concavity test of a slice profile.

    Zero-volume bins at the ends of the support are trimmed (the log is
    undefined there) and recorded in the report; at least 3 positive bins
    must remain.
    """
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


def suggested_tolerance(f: SliceVolumeFn, sigmas: float = 4.0) -> float:
    """Multiplicative slack for prekopa_check absorbing the profile's MC noise.

    A relative perturbation r of each bin moves the midpoint ratio
    f(s)^2 / (f(s-h) f(s+h)) by up to (1+r)^2/(1-r)^2; the returned slack
    covers ``sigmas`` standard errors of that worst case (floor 1e-9 for
    exact profiles, capped below 1 for very noisy ones).
    """
    vols = np.asarray(f.volumes, dtype=float)
    pos = vols > 0
    if not pos.any():
        return 1e-9
    r = float(np.max(f.stderrs[pos] / vols[pos])) * sigmas
    if r >= 0.45:
        return 0.9
    return max(1e-9, (1 + r) ** 2 / (1 - r) ** 2 - 1)


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------

def _rng(seed: int, *stream: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(v) for v in stream))
    return np.random.Generator(np.random.Philox(ss))


def linprog(*args, **kwargs):
    """Not called by dhlab, which solves no linear program.

    perfbench's ``instrument_toric`` wraps this attribute to count LP solves
    (it reads 0 now), so the name stays until perfbench reads counters from
    the opt-in run trace (ROADMAP.md, item 5) instead of wrapping module
    attributes; then it goes.  For an LP, call scipy.optimize.linprog.
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
    rows = [_integer_row([*map(Fraction, normal), -Fraction(offset)])
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
                kept.append((_primitive([sp * b - sn * a for a, b in zip(yp, yn)]),
                             common | bit))
        rays = kept
    return [y for y, _ in rays]


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _primitive(v: list[int]) -> tuple[int, ...]:
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g else tuple(v)


def _integer_row(values: list[Fraction]) -> tuple[int, ...]:
    """The primitive integer multiple of a rational vector."""
    den = math.lcm(*(v.denominator for v in values))
    return _primitive([v.numerator * (den // v.denominator) for v in values])


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


_BOX_PAD = 64 * np.finfo(float).eps


def _slice_box(vertices: np.ndarray, axis: int,
               s: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Bounding box, over the other axes, of the slice at axis = s; None if
    no vertex reaches the hyperplane.

    The box spans the vertices on the hyperplane and the points where the
    segments between vertices on either side cross it.  Those points lie in
    the polytope, and every vertex of the slice lies on an edge of the
    polytope, so this is the slice's bounding box up to rounding.
    """
    t = vertices[:, axis]
    rest = np.delete(vertices, axis, axis=1)
    below, above = t < s, t > s
    frac = (s - t[below])[:, None] / (t[above][None, :] - t[below][:, None])
    lower, upper = rest[below][:, None, :], rest[above][None, :, :]
    crossings = (lower + frac[:, :, None] * (upper - lower)).reshape(-1, rest.shape[1])
    pts = np.concatenate([crossings, rest[t == s]])
    if not len(pts):
        return None
    # widen by the rounding in the vertices: a box too small would bias the
    # estimate, where one too large only adds variance
    pad = _BOX_PAD * float(np.abs(vertices).max())
    return pts.min(axis=0) - pad, pts.max(axis=0) + pad


def _slice_volume_mc(p: HPolytope, axis: int, s: float, n: int,
                     rng: np.random.Generator) -> tuple[float, float]:
    """Hit-or-miss estimate of the (dim-1)-volume of the slice at axis = s,
    with its standard error, sampled uniformly in the slice's bounding box.
    The box comes from the polytope's exact vertices, enumerated on the
    first call and rounded to floats; an empty slice or a polytope without
    interior (decided exactly) gives 0."""
    if n < 1:
        raise ValueError("sample count must be positive")
    a, b = p._system
    keep = [i for i in range(p.dim) if i != axis]
    a_slice = a[:, keep]
    b_slice = b - a[:, axis] * s

    if not keep:  # slicing a segment: the slice is a point, counting measure
        return (1.0, 0.0) if np.all(b_slice >= 0) else (0.0, 0.0)

    box = _slice_box(p._vertices, axis, s)
    if box is None:
        return 0.0, 0.0
    lows, highs = box
    widths = highs - lows
    box_vol = float(np.prod(widths))

    pts = lows + widths * rng.random((n, len(keep)))
    hits = int(np.count_nonzero(np.all(pts @ a_slice.T <= b_slice, axis=1)))
    phat = hits / n
    return box_vol * phat, box_vol * float(np.sqrt(phat * (1.0 - phat) / n))
