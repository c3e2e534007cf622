"""Polytope slice volumes and the Prekopa log-concavity baseline."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
import scipy.spatial

import dhlab.toric

from dhlab import (
    DomainError,
    EmptyPolytopeError,
    HPolytope,
    InsufficientDataError,
    Poly,
    SliceVolumeFn,
    UnboundedPolytopeError,
    prekopa_check,
    projection_range,
    slice_profile,
    slice_volume_exact_2d,
    suggested_tolerance,
)
from helpers import random_polytope, slice_volume_mc

SQUARE = HPolytope(2, (
    ((1.0, 0.0), 1.0), ((-1.0, 0.0), 0.0),
    ((0.0, 1.0), 1.0), ((0.0, -1.0), 0.0),
))
SIMPLEX2 = HPolytope(2, (
    ((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0), ((1.0, 1.0), 1.0),
))
CUBE3 = HPolytope(3, tuple(
    (tuple(s * float(i == ax) for i in range(3)), 1.0 if s > 0 else 0.0)
    for ax in range(3) for s in (1.0, -1.0)
))
SHIFTED_CUBE = HPolytope(3, tuple(
    (tuple(s * float(i == ax) for i in range(3)), 5.0 if s > 0 else -2.0)
    for ax in range(3) for s in (1.0, -1.0)
))
SIMPLEX3 = HPolytope(3, (
    ((-1.0, 0.0, 0.0), 0.0), ((0.0, -1.0, 0.0), 0.0), ((0.0, 0.0, -1.0), 0.0),
    ((1.0, 1.0, 1.0), 1.0),
))


# ---------------------------------------------------------------------------
# ranges and boundedness
# ---------------------------------------------------------------------------

def test_projection_ranges():
    assert projection_range(SQUARE, 0) == pytest.approx((0.0, 1.0), abs=1e-9)
    assert projection_range(SIMPLEX2, 0) == pytest.approx((0.0, 1.0), abs=1e-9)
    assert projection_range(SHIFTED_CUBE, 2) == pytest.approx((2.0, 5.0), abs=1e-9)


def test_unbounded_polytope_rejected():
    halfplane = HPolytope(2, (((-1.0, 0.0), 0.0),))
    with pytest.raises(UnboundedPolytopeError):
        projection_range(halfplane, 0)


def test_empty_polytope_rejected():
    empty = HPolytope(1, (((1.0,), -1.0), ((-1.0,), -1.0)))  # x <= -1 and x >= 1
    with pytest.raises(EmptyPolytopeError):
        projection_range(empty, 0)


# ---------------------------------------------------------------------------
# exact 2d slices
# ---------------------------------------------------------------------------

def test_square_slice_is_constant():
    assert slice_volume_exact_2d(SQUARE, 0, 0.3) == pytest.approx(1.0)


def test_simplex_slice_is_affine():
    assert slice_volume_exact_2d(SIMPLEX2, 0, 0.25) == pytest.approx(0.75)


def test_slice_outside_is_zero():
    assert slice_volume_exact_2d(SIMPLEX2, 0, 1.5) == 0.0
    assert slice_volume_exact_2d(SIMPLEX2, 0, -0.5) == 0.0


def test_exact_slice_requires_dim_2():
    with pytest.raises(ValueError):
        slice_volume_exact_2d(CUBE3, 0, 0.5)


# ---------------------------------------------------------------------------
# Monte-Carlo slices
# ---------------------------------------------------------------------------

def test_cube_slice_mc():
    vol = slice_volume_mc(CUBE3, 0, 0.5, n=100_000, seed=3)
    assert abs(vol - 1.0) <= 0.01


def test_simplex3_slice_mc_at_base():
    # slice at x = 0 is the triangle y, z >= 0, y + z <= 1: area 1/2;
    # hit-or-miss in the unit box has stderr 0.5/sqrt(n)
    n = 100_000
    vol = slice_volume_mc(SIMPLEX3, 0, 0.0, n=n, seed=5)
    assert abs(vol - 0.5) <= 3 * 0.5 / np.sqrt(n)


def test_mc_slice_outside_is_zero():
    assert slice_volume_mc(SIMPLEX3, 0, 2.0, n=1000, seed=1) == 0.0
    assert slice_volume_mc(SIMPLEX3, 0, -1.0, n=1000, seed=1) == 0.0


def test_mc_slice_of_segment_is_indicator():
    segment = HPolytope(1, (((1.0,), 1.0), ((-1.0,), 0.0)))
    assert slice_volume_mc(segment, 0, 0.5, n=10, seed=1) == 1.0
    assert slice_volume_mc(segment, 0, 1.5, n=10, seed=1) == 0.0


def test_mc_slice_deterministic():
    a = slice_volume_mc(SIMPLEX3, 0, 0.25, n=20_000, seed=9)
    b = slice_volume_mc(SIMPLEX3, 0, 0.25, n=20_000, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# vertices: the Monte-Carlo slice boxes come from them
# ---------------------------------------------------------------------------

def _box(lower, upper, scale=1.0):
    """An axis box with every half-space multiplied through by ``scale``."""
    dim = len(lower)
    halfspaces = []
    for i in range(dim):
        e = tuple(scale * float(k == i) for k in range(dim))
        halfspaces += [(e, scale * upper[i]), (tuple(-v for v in e), -scale * lower[i])]
    return HPolytope(dim, tuple(halfspaces))


def _rounded(points) -> set:
    return {tuple(v) for v in np.round(np.asarray(points, dtype=float), 9) + 0.0}


def _vertex_set(p: HPolytope) -> set:
    return _rounded(p._vertices)


def test_octahedron_vertices_despite_degeneracy():
    # four facets meet at each vertex of |x| + |y| + |z| <= 1
    octahedron = HPolytope(3, tuple(
        (signs, 1.0) for signs in itertools.product((1.0, -1.0), repeat=3)))
    assert _vertex_set(octahedron) == {
        tuple(s * float(k == i) for k in range(3)) for i in range(3) for s in (1.0, -1.0)}


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_box_mc_slices_are_exact(scale):
    # every sample in the slice's bounding box hits, so the estimate is the
    # box area, whatever the scale of the normals
    lower, upper = (0.0, -1.0, 2.0), (1.0, 1.0, 5.0)
    box = _box(lower, upper, scale)
    assert _vertex_set(box) == set(itertools.product(*zip(lower, upper)))
    widths = np.subtract(upper, lower)
    for axis in range(3):
        profile = slice_profile(box, axis, bins=8, method="mc", mc_n=2000, seed=axis)
        area = np.prod(widths) / widths[axis]
        assert np.allclose(profile.volumes, area, rtol=1e-12, atol=0)
        assert np.all(profile.stderrs == 0)


@pytest.mark.parametrize("extra", [CUBE3.halfspaces, (((0.0, 0.0, 0.0), 1.0),)],
                         ids=["duplicated", "zero-normal"])
def test_redundant_halfspaces_keep_the_cube(extra):
    cube = HPolytope(3, CUBE3.halfspaces + extra)
    assert _vertex_set(cube) == set(itertools.product((0.0, 1.0), repeat=3))
    profile = slice_profile(cube, 1, bins=8, method="mc", mc_n=2000)
    assert np.allclose(profile.volumes, 1.0, rtol=1e-12, atol=0)


def test_polytope_without_interior_has_zero_profile():
    # the unit cube cut to the plane x + y = 1: nonempty and bounded, not
    # flat along axis 0, but every slice is a segment of area 0
    plane = HPolytope(3, CUBE3.halfspaces + (((1.0, 1.0, 0.0), 1.0),
                                             ((-1.0, -1.0, 0.0), -1.0)))
    vertices, directions = plane._vrep
    assert set(vertices) == {(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert directions == []
    profile = slice_profile(plane, 0, bins=8, method="mc", mc_n=2000)
    assert plane._vertices.shape == (0, 3)
    assert np.all(profile.volumes == 0) and np.all(profile.stderrs == 0)


def test_mc_profile_lp_count_does_not_grow_with_bins(monkeypatch):
    # the vertices come from exact enumeration, so no profile solves an LP
    solve = dhlab.toric.linprog
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(dhlab.toric, "linprog", counted)
    counts = []
    for bins in (4, 64):
        calls.clear()
        slice_profile(HPolytope(3, SIMPLEX3.halfspaces), 0, bins, method="mc", mc_n=1000)
        counts.append(len(calls))
    assert counts == [0, 0]


# ---------------------------------------------------------------------------
# exact vertex enumeration
# ---------------------------------------------------------------------------

def _qhull_vertices(p: HPolytope) -> np.ndarray:
    """Qhull's vertices, from an interior point: the Chebyshev centre."""
    a, b = p._system
    norms = np.linalg.norm(a, axis=1)
    ball = scipy.optimize.linprog(np.r_[np.zeros(p.dim), -1.0], A_ub=np.c_[a, norms],
                                  b_ub=b, bounds=[(None, None)] * p.dim + [(0, None)])
    return scipy.spatial.HalfspaceIntersection(np.c_[a, -b], ball.x[:-1]).intersections


def _tangent_polytope(rng: np.random.Generator, dim: int, count: int) -> HPolytope:
    """``count`` half-spaces tangent to the unit sphere, random normals."""
    normals = rng.normal(size=(count, dim))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return HPolytope(dim, tuple((tuple(n), 1.0) for n in normals))


def test_vertices_match_qhull_on_random_polytopes():
    rng = np.random.default_rng(1953)
    for _ in range(50):
        p = random_polytope(rng, int(rng.integers(2, 5)))
        vertices, directions = p._vrep
        assert directions == []
        assert len(set(vertices)) == len(vertices)
        assert _rounded(vertices) == _rounded(_qhull_vertices(p))


@pytest.mark.parametrize("dim, count", [(3, 200), (4, 60)])
def test_vertex_count_matches_qhull_at_stress_size(dim, count):
    p = _tangent_polytope(np.random.default_rng(count), dim, count)
    vertices, directions = p._vrep
    assert directions == []
    assert len(vertices) == len(_rounded(_qhull_vertices(p))) > count


def test_vertices_are_exact_rationals():
    # x + 2y <= 1 and 2x + y <= 1 meet at (1/3, 1/3), which no float is
    kite = HPolytope(2, (((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0),
                         ((1.0, 2.0), 1.0), ((2.0, 1.0), 1.0)))
    vertices, _ = kite._vrep
    assert set(vertices) == {(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2)),
                             (Fraction(1, 3), Fraction(1, 3))}
    assert all(isinstance(x, Fraction) for v in vertices for x in v)


def test_segment_has_two_vertices():
    segment = HPolytope(1, (((2.0,), 1.0), ((-4.0,), 1.0)))  # -1/4 <= x <= 1/2
    assert sorted(segment._vrep[0]) == [(Fraction(-1, 4),), (Fraction(1, 2),)]
    assert projection_range(segment, 0) == (-0.25, 0.5)
    assert segment._vertices.shape == (2, 1)


def test_slab_is_unbounded_only_along_its_line():
    slab = HPolytope(2, (((1.0, 0.0), 1.0), ((-1.0, 0.0), 0.0)))  # 0 <= x <= 1
    assert slab._vrep[1] == [(0, 1)]
    assert projection_range(slab, 0) == (0.0, 1.0)
    with pytest.raises(UnboundedPolytopeError, match="axis 1"):
        projection_range(slab, 1)
    with pytest.raises(UnboundedPolytopeError, match="axis 1"):
        slab._vertices


def test_recession_ray_names_its_axis():
    # a quadrant corner: bounded below on both axes, unbounded above
    corner = HPolytope(2, (((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0), ((1.0, -1.0), 0.0)))
    vertices, directions = corner._vrep
    assert vertices == [(0, 0)]
    assert sorted(directions) == [(0, 1), (1, 1)]
    with pytest.raises(UnboundedPolytopeError, match="axis 0"):
        projection_range(corner, 0)


def test_no_halfspaces_is_unbounded_along_axis_0():
    space = HPolytope(3, ())
    with pytest.raises(UnboundedPolytopeError, match="axis 0"):
        projection_range(space, 0)
    with pytest.raises(UnboundedPolytopeError, match="axis 0"):
        space._vertices


def test_emptiness_takes_precedence_over_unboundedness():
    # x <= 0 and x >= 1, with y free
    empty = HPolytope(2, (((1.0, 0.0), 0.0), ((-1.0, 0.0), -1.0)))
    for axis in (0, 1):
        with pytest.raises(EmptyPolytopeError):
            projection_range(empty, axis)
    with pytest.raises(EmptyPolytopeError):
        empty._vertices


def test_zero_normal_with_negative_offset_is_empty():
    # 0.x <= -1 holds nowhere, however bounded the rest
    with pytest.raises(EmptyPolytopeError):
        projection_range(HPolytope(2, SQUARE.halfspaces + (((0.0, 0.0), -1.0),)), 0)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_simplex_profile_exact():
    profile = slice_profile(SIMPLEX2, 0, bins=100, method="exact2d")
    assert np.allclose(profile.volumes, 1.0 - profile.grid, atol=1e-12)
    assert np.all(profile.stderrs == 0)


def test_square_profile_constant():
    profile = slice_profile(SQUARE, 0, bins=25, method="exact2d")
    assert np.allclose(profile.volumes, 1.0, atol=1e-12)


def test_simplex3_profile_mc_matches_closed_form():
    profile = slice_profile(SIMPLEX3, 0, bins=20, method="mc", mc_n=100_000, seed=21)
    expected = (1.0 - profile.grid) ** 2 / 2.0
    interior = profile.grid <= 0.9
    rel = np.abs(profile.volumes[interior] - expected[interior]) / expected[interior]
    assert np.max(rel) <= 0.05


def test_profile_method_validation():
    with pytest.raises(ValueError):
        slice_profile(CUBE3, 0, bins=10, method="exact2d")
    with pytest.raises(ValueError):
        slice_profile(SQUARE, 0, bins=10, method="nope")


def test_exact2d_and_mc_agree():
    exact = slice_profile(SIMPLEX2, 0, bins=24, method="exact2d")
    mc = slice_profile(SIMPLEX2, 0, bins=24, method="mc", mc_n=40_000, seed=33)
    diff = np.abs(mc.volumes - exact.volumes)
    assert np.all(diff <= 3 * np.maximum(mc.stderrs, 1e-9))


def test_translation_invariance():
    shift = 1.25
    translated = HPolytope(2, (
        ((-1.0, 0.0), -shift), ((0.0, -1.0), 0.0), ((1.0, 1.0), 1.0 + shift),
    ))
    base = slice_profile(SIMPLEX2, 0, bins=40, method="exact2d")
    moved = slice_profile(translated, 0, bins=40, method="exact2d")
    assert np.allclose(moved.grid, base.grid + shift, atol=1e-9)
    assert np.allclose(moved.volumes, base.volumes, atol=1e-9)


# ---------------------------------------------------------------------------
# prekopa check
# ---------------------------------------------------------------------------

def test_simplex_profile_is_log_concave():
    profile = slice_profile(SIMPLEX2, 0, bins=50, method="exact2d")
    report = prekopa_check(profile, tol=1e-9)
    assert report.log_concave


def test_quadratic_slice_profile_is_log_concave():
    # exact 3-simplex profile (1-s)^2 / 2, injected directly
    grid = np.linspace(0.025, 0.975, 20)
    f = SliceVolumeFn(0, grid, (1.0 - grid) ** 2 / 2.0, np.zeros(20))
    assert prekopa_check(f, tol=1e-9).log_concave


def test_counterexample_density_fails_prekopa():
    rho = Poly(1, {(2,): 1, (1,): -5, (0,): 7})
    grid = np.linspace(0.5, 4.5, 81)
    fake = SliceVolumeFn(0, grid, np.array([rho.evaluate((s,)) for s in grid]),
                         np.zeros(81))
    report = prekopa_check(fake, tol=1e-9)
    assert not report.log_concave


def test_prekopa_trims_empty_end_bins():
    grid = np.linspace(0.0, 1.0, 12)
    vols = np.concatenate([[0.0], (1.0 - grid[1:-2]), [0.0, 0.0]])
    report = prekopa_check(SliceVolumeFn(0, grid, vols, np.zeros(12)), tol=1e-9)
    assert report.log_concave
    assert report.trimmed == (1, 2)


def test_prekopa_needs_three_positive_bins():
    f = SliceVolumeFn(0, np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]),
                      np.zeros(3))
    with pytest.raises(InsufficientDataError):
        prekopa_check(f, tol=1e-9)


@pytest.mark.parametrize("method", ["exact2d", "mc"])
def test_flat_polytope_profile_is_insufficient_data(method):
    # x pinned to 0: every bin centre would sit on the same point
    dim = 2 if method == "exact2d" else 3
    flat = HPolytope(dim, tuple(
        (tuple(s * float(i == ax) for i in range(dim)), float(ax > 0 and s > 0))
        for ax in range(dim) for s in (1.0, -1.0)
    ))
    with pytest.raises(InsufficientDataError, match="axis 0"):
        slice_profile(flat, 0, 10, method=method, mc_n=1000)


def test_prekopa_interior_zero_is_domain_error():
    f = SliceVolumeFn(0, np.linspace(0, 1, 5), np.array([1.0, 1.0, 0.0, 1.0, 1.0]),
                      np.zeros(5))
    with pytest.raises(DomainError):
        prekopa_check(f, tol=1e-9)


def test_random_polytope_profiles_are_log_concave():
    # Brunn-Minkowski at desk scale: MC profiles of random bounded polytopes
    # pass the discrete test with slack absorbing 4 standard errors
    rng = np.random.default_rng(2718)
    failures = []
    for k in range(12):
        dim = int(rng.integers(2, 5))
        polytope = random_polytope(rng, dim)
        profile = slice_profile(polytope, axis=int(rng.integers(0, dim)), bins=16,
                                method="mc", mc_n=20_000, seed=int(rng.integers(1 << 30)))
        # support convexity: positive bins form one contiguous run
        pos = np.flatnonzero(profile.volumes > 0)
        assert np.all(np.diff(pos) == 1)
        report = prekopa_check(profile, suggested_tolerance(profile))
        if not report.log_concave:
            failures.append((k, report.violation_intervals))
    assert failures == []


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_polytope_json_round_trip():
    doc = SIMPLEX3.to_json_dict()
    assert HPolytope.from_json_dict(doc) == SIMPLEX3
    text = json.dumps(doc)
    assert HPolytope.from_json(text) == SIMPLEX3


@pytest.mark.parametrize("normal, offset", [
    ((np.nan, 0.0), 1.0), ((0.0, np.inf), 1.0), ((1.0, 0.0), np.nan), ((1.0, 0.0), -np.inf),
])
def test_nonfinite_halfspace_rejected(normal, offset):
    with pytest.raises(ValueError, match="half-space 1 is not finite"):
        HPolytope(2, (((-1.0, 0.0), 0.0), (normal, offset)))


def test_polytope_validation():
    with pytest.raises(ValueError):
        HPolytope(2, (((1.0,), 0.0),))  # normal length mismatch
    with pytest.raises(ValueError):
        HPolytope(0, ())
