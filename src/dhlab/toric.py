"""Slice-volume profiles of convex polytopes under coordinate projections.

This is the log-concave baseline: the pushforward density of the uniform
measure on a convex body along a coordinate axis is its slice-volume
function, which is log-concave on its support (Prekopa / Brunn-Minkowski).
In the half-dimensional torus-action picture the polytope is a moment
image carrying density one, so the slice profile along an axis is exactly
the pushforward density of the circle subaction for that axis.

Polytopes are half-space systems {x : a.x <= b}.  Only coordinate-axis
projections are implemented; for a general direction, rotate the polytope
first.  Linear programs (scipy's HiGHS) find axis extremes, and with them
emptiness and boundedness.  Monte-Carlo slicing needs each slice's bounding
box: the vertices are enumerated once per polytope (2*dim range LPs, one
Chebyshev-centre LP, then Qhull's half-space intersection), and every bin
takes its box from where segments between vertices cross the slicing
hyperplane, so no LP runs per bin.  scipy is imported on first use, so
code that never slices a polytope does not load it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
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
    def _vertices(self) -> np.ndarray:
        """The vertices, one per row (repeats possible), found once.

        Raises like projection_range if the polytope is empty or unbounded;
        has no rows if the polytope has no interior (dim >= 2 only).
        """
        for axis in range(self.dim):
            projection_range(self, axis)
        a, b = self._system
        centre, radius = _chebyshev_centre(a, b)
        if not radius > 0:
            return np.empty((0, self.dim))
        from scipy.spatial import HalfspaceIntersection

        # a zero normal bounds nothing (its b >= 0, the polytope being
        # nonempty), and Qhull cannot take it
        rows = np.any(a != 0, axis=1)
        return HalfspaceIntersection(np.column_stack([a[rows], -b[rows]]),
                                     centre).intersections

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
    """Min and max of the axis coordinate over the polytope (two LPs);
    raises if the polytope is empty or unbounded along the axis.  Run on
    every axis, it proves the polytope bounded and nonempty."""
    if not 0 <= axis < p.dim:
        raise ValueError(f"axis {axis} out of range for dim {p.dim}")
    a, b = p._system
    return _extreme(a, b, axis, "min"), _extreme(a, b, axis, "max")


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
    """scipy.optimize.linprog, imported on the first call."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def _extreme(a: np.ndarray, b: np.ndarray, axis: int, sense: str) -> float:
    cost = np.zeros(a.shape[1])
    cost[axis] = 1.0 if sense == "min" else -1.0
    res = linprog(cost, A_ub=a, b_ub=b, bounds=[(None, None)] * a.shape[1],
                  method="highs")
    if res.status == 2:
        raise EmptyPolytopeError("half-space system is infeasible")
    if res.status == 3:
        raise UnboundedPolytopeError(f"polytope is unbounded along axis {axis}")
    if res.status != 0:
        raise RuntimeError(f"LP solver failed: {res.message}")
    return float(res.fun if sense == "min" else -res.fun)


def _chebyshev_centre(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Centre and radius of the largest ball in a nonempty bounded
    {x : a.x <= b}: maximize r subject to a_i.x + r |a_i| <= b_i, r >= 0."""
    dim = a.shape[1]
    cost = np.zeros(dim + 1)
    cost[-1] = -1.0
    res = linprog(cost, A_ub=np.column_stack([a, np.linalg.norm(a, axis=1)]), b_ub=b,
                  bounds=[(None, None)] * dim + [(0, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"LP solver failed: {res.message}")
    return res.x[:-1], float(res.x[-1])


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
    The box comes from the polytope's vertices, enumerated on the first
    call, so slicing solves no LP; an empty slice or a polytope without
    interior gives 0."""
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
