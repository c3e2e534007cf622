"""Polytope slice volumes and the Prekopa log-concavity baseline."""

import functools
import itertools
import json
import math
import tracemalloc
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
    suggested_tolerance,
)
from dhlab.toric import _BOX_PAD, _MC_BLOCK, _chords_2d, _mc_slicer, _rng
from helpers import (exact_chord_2d, fraction_rref, random_polytope, slice_volume_mc,
                     slice_volume_mc_reference)

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
SEGMENT = HPolytope(1, (((1.0,), 1.0), ((-1.0,), 0.0)))
# the unit cube cut to the plane x + y = 1: bounded, without interior
PLANE_CUT = HPolytope(3, CUBE3.halfspaces + (((1.0, 1.0, 0.0), 1.0),
                                            ((-1.0, -1.0, 0.0), -1.0)))


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
    # along axis 1 every chord is 1 - (-0.0), exactly 1
    profile = slice_profile(SQUARE, 1, bins=7, method="exact2d")
    assert np.all(profile.volumes == 1.0)


def test_simplex_slice_is_affine():
    # along axis 1 the chord runs from x = -0.0 to x = 1 - s: one rounding
    profile = slice_profile(SIMPLEX2, 1, bins=9, method="exact2d")
    assert np.all(profile.volumes == 1.0 - profile.grid)


def test_exact_slice_of_slab_names_the_unbounded_axis():
    slab = HPolytope(2, (((1.0, 0.0), 1.0), ((-1.0, 0.0), 0.0)))  # 0 <= x <= 1
    for method in ("exact2d", "mc"):
        with pytest.raises(UnboundedPolytopeError, match="axis 1"):
            slice_profile(slab, 0, 8, method=method, mc_n=100)


def test_exact2d_profiles_match_the_exact_vertex_oracle():
    # every chord is the exact chord rounded once; the oracle shares only
    # the exact vertices with dhlab.toric
    rng = np.random.default_rng(1606)
    worst = 0.0
    for _ in range(50):
        polygon = random_polytope(rng, 2)
        axis = int(rng.integers(0, 2))
        profile = slice_profile(polygon, axis, bins=32, method="exact2d")
        want = np.array([exact_chord_2d(polygon, axis, s) for s in profile.grid.tolist()])
        assert np.all(want > 0)
        worst = max(worst, float(np.max(np.abs(profile.volumes - want) / want)))
    assert worst == 0


def test_polygon_without_interior_has_zero_exact2d_profile():
    # the unit square cut to the diagonal x = y: every slice is a point
    diagonal = HPolytope(2, SQUARE.halfspaces + (((1.0, -1.0), 0.0), ((-1.0, 1.0), 0.0)))
    assert diagonal._vertices.shape == (0, 2)
    for axis in (0, 1):
        profile = slice_profile(diagonal, axis, bins=16, method="exact2d")
        assert np.all(profile.volumes == 0) and np.all(profile.stderrs == 0)


def test_exact2d_slice_beyond_a_half_space_is_empty():
    # 10 x <= 1: the double 0.1 lies beyond 1/10, the double below it does not
    below = math.nextafter(0.1, 0)
    strip = HPolytope(2, (((10.0, 0.0), 1.0), ((-1.0, 0.0), 0.0),
                          ((0.0, 1.0), 1.0), ((0.0, -1.0), 0.0)))
    assert _chords_2d(strip, 0, [0.1, below]) == [0.0, 1.0]
    assert [exact_chord_2d(strip, 0, s) for s in (0.1, below)] == [0.0, 1.0]
    # a body one ulp wide, whose one bin centre rounds onto 0.1
    sliver = HPolytope(2, (((10.0, 0.0), 1.0), ((-1.0, 0.0), -below),
                           ((0.0, 1.0), 1.0), ((0.0, -1.0), 0.0)))
    profile = slice_profile(sliver, 0, 1)
    assert profile.volumes.tolist() == [0.0]
    assert [exact_chord_2d(sliver, 0, s) for s in profile.grid.tolist()] == [0.0]


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
    assert slice_volume_mc(SEGMENT, 0, 0.5, n=10, seed=1) == 1.0
    assert slice_volume_mc(SEGMENT, 0, 1.5, n=10, seed=1) == 0.0


def test_mc_slice_deterministic():
    a = slice_volume_mc(SIMPLEX3, 0, 0.25, n=20_000, seed=9)
    b = slice_volume_mc(SIMPLEX3, 0, 0.25, n=20_000, seed=9)
    assert a == b


# x >= 1/49 in the unit cube: 49 * float(1/49) rounds below 1, so at the
# projection's lower end the half-space normal to axis 0 rejects every point
ROUNDED_END = HPolytope(3, CUBE3.halfspaces + (((-49.0, 0.0, 0.0), -1.0),))


def _kernel_cases():
    """(polytope, axis, s): every axis of each body, sliced at both ends of
    its projection, within _BOX_PAD of them, and inside."""
    rng = np.random.default_rng(49)
    bodies = [SIMPLEX3, SHIFTED_CUBE, ROUNDED_END, *(random_polytope(rng, d) for d in (3, 4, 5)),
              SIMPLEX2]  # last, so the other cases keep their streams; k = 1 column
    for p in bodies:
        pad = _BOX_PAD * float(np.abs(p._vertices).max())
        for axis in range(p.dim):
            lo, hi = projection_range(p, axis)
            for s in (lo, lo + 0.5 * pad, 0.3 * lo + 0.7 * hi, np.nextafter(hi, lo), hi):
                yield p, axis, float(s)


def _profile_stream(seed: int, axis: int) -> np.random.Generator:
    # the README's formula for a profile's stream, apart from _rng, so the
    # documented stream is pinned too
    return np.random.Generator(np.random.PCG64DXSM(
        np.random.SeedSequence(seed, spawn_key=(axis,))))


@pytest.mark.parametrize("n", [1, _MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1,
                               3 * _MC_BLOCK + 7, 100_000])
def test_mc_slice_matches_the_one_shot_reference_bit_for_bit(n):
    # blocking the draws and the hit test must not move a single bit
    for k, (p, axis, s) in enumerate(_kernel_cases()):
        got = _mc_slicer(p, axis, n)([s], _rng(7, axis, k))[0]
        want = slice_volume_mc_reference(p, axis, s, n, _rng(7, axis, k))
        assert np.array(got).tobytes() == np.array(want).tobytes(), (p, axis, s, got, want)


def test_mc_slice_at_a_rounded_end_is_empty():
    lo, _ = projection_range(ROUNDED_END, 0)
    assert -1.0 + 49.0 * lo < 0
    estimate = _mc_slicer(ROUNDED_END, 0, 1000)
    assert estimate([lo], _rng(1))[0] == (0.0, 0.0)
    vol, err = estimate([0.5], _rng(1))[0]
    assert vol == pytest.approx(1.0, rel=1e-12) and err == 0.0


@pytest.mark.parametrize("n", [1, _MC_BLOCK - 1, _MC_BLOCK + 1, 3 * _MC_BLOCK + 7])
def test_mc_profile_matches_the_one_shot_reference_bit_for_bit(n):
    # the slicer shares its rows, vertex columns and points between bins, and
    # a last partial block tests only part of the repeated bounds; neither
    # may leave a stale bit behind
    bodies = [SIMPLEX3, ROUNDED_END, random_polytope(np.random.default_rng(4), 4),
              SEGMENT, PLANE_CUT, SIMPLEX2]
    for p in bodies:
        for axis in range(p.dim):
            profile = slice_profile(p, axis, bins=7, method="mc", mc_n=n, seed=11)
            for i, s in enumerate(profile.grid.tolist()):
                got = (profile.volumes[i], profile.stderrs[i])
                want = slice_volume_mc_reference(p, axis, s, n, _profile_stream(11, axis))
                assert np.array(got).tobytes() == np.array(want).tobytes(), (p, axis, i)


def _kernel_bodies():
    return list(dict.fromkeys(p for p, _, _ in _kernel_cases()))


@pytest.mark.parametrize("n", [1, _MC_BLOCK - 1, _MC_BLOCK + 1, 3 * _MC_BLOCK + 7, 100_000])
def test_mc_profile_bins_are_one_centre_calls_bit_for_bit(n):
    # a bin's estimate depends only on (seed, axis, n, s): whichever bins
    # share its blocks, and so however many points a block holds, it is the
    # estimate of a one-centre call on a fresh stream of the profile
    for p in _kernel_bodies():
        for axis in range(p.dim):
            estimate = _mc_slicer(p, axis, n)
            for bins in (7, 40):
                profile = slice_profile(p, axis, bins=bins, method="mc", mc_n=n, seed=13)
                for i, row in enumerate(profile.rows):
                    want = estimate([row[0]], _profile_stream(13, axis))[0]
                    assert np.array(row[1:]).tobytes() == np.array(want).tobytes(), \
                        (p, axis, bins, i)


def test_mc_profile_does_not_depend_on_block_size(monkeypatch):
    cases = [(p, axis) for p in _kernel_bodies() for axis in range(p.dim)]
    want = [slice_profile(p, axis, 40, method="mc", mc_n=3000, seed=17).rows
            for p, axis in cases]
    for block, stack in ((1, 1), (7, 50), (_MC_BLOCK, 2**30)):
        monkeypatch.setattr(dhlab.toric, "_MC_BLOCK", block)
        monkeypatch.setattr(dhlab.toric, "_MC_STACK", stack)
        got = [slice_profile(p, axis, 40, method="mc", mc_n=3000, seed=17).rows
               for p, axis in cases]
        assert got == want, (block, stack)


def test_box_filling_bin_draws_nothing():
    # every point of each slice's bounding box would hit, so a profile of
    # box-filling bins draws nothing from its stream
    rng = _rng(3, 0)
    state = rng.bit_generator.state
    estimates = _mc_slicer(SHIFTED_CUBE, 0, 1000)([2.5, 3.5, 4.75], rng)
    assert rng.bit_generator.state == state
    assert estimates == [(9.0, 0.0)] * 3


@pytest.mark.parametrize("bins", [1, 40])
def test_sampled_profile_draws_its_points_once(bins):
    # one sampled bin or forty, with box-filling bins among them or not, a
    # profile draws n points of dim - 1 doubles from its stream, once
    n = 3 * _MC_BLOCK + 7
    # the unit cube cut by x + y + z <= 2.5: the cut misses the slices' boxes
    # up to x = 0.5, and reaches each one after
    cut_cube = HPolytope(3, CUBE3.halfspaces + (((1.0, 1.0, 1.0), 2.5),))
    centers = [0.75] if bins == 1 else np.linspace(0.0, 1.0, bins).tolist()
    for p in (SIMPLEX3, cut_cube):
        rng, twin = _rng(3, 0), _rng(3, 0)
        estimates = _mc_slicer(p, 0, n)(centers, rng)
        assert any(err > 0 for _, err in estimates)
        assert p is SIMPLEX3 or bins == 1 or any(err == 0 < v for v, err in estimates)
        twin.random((n, p.dim - 1))
        assert rng.bit_generator.state == twin.bit_generator.state


def test_mc_profile_second_differences_are_the_exact_ones():
    # every bin tests the same points, each scaled into its own box; the
    # slices of the 3-simplex are similar triangles, so up to the box pad the
    # same points hit in every bin and the noise in the log second
    # differences, which the midpoint test reads, cancels
    profile = slice_profile(SIMPLEX3, 0, bins=20, method="mc", mc_n=20_000, seed=23)
    exact = (1.0 - profile.grid) ** 2 / 2.0
    assert np.all(profile.stderrs > 0)
    second = np.diff(np.log(profile.volumes), 2)
    assert np.max(np.abs(second - np.diff(np.log(exact), 2))) <= 1e-6


def test_mc_slice_memory_does_not_grow_with_samples():
    SIMPLEX3._vertices  # the vertices are cached
    tracemalloc.start()
    try:
        slice_profile(SIMPLEX3, 0, bins=40, method="mc", mc_n=2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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


@pytest.mark.parametrize("lower, upper, scale", [
    ((2.0, 2.0, 2.0), (5.0, 5.0, 5.0), 1.0),
    ((0.1, -1.3, 2.0), (0.7, 1.1, 5.5), 1.0),
    ((0.1, -1.3, 2.0), (0.7, 1.1, 5.5), 1e3),
], ids=["cube", "box", "scaled box"])
def test_box_mc_bins_are_the_product_of_the_sides_bit_for_bit(lower, upper, scale):
    # a box's slices fill their bounding boxes, so no pad widens them: on the
    # cube [2, 5]^3 each bin is 9.0, not the padded 9.000000000000853
    box = _box(lower, upper, scale)
    for axis in range(3):
        profile = slice_profile(box, axis, bins=8, method="mc", mc_n=2000, seed=axis)
        area = np.prod(np.delete(np.subtract(upper, lower), axis))
        assert profile.volumes.tolist() == [float(area)] * 8
        assert profile.stderrs.tolist() == [0.0] * 8


@pytest.mark.parametrize("extra", [CUBE3.halfspaces, (((0.0, 0.0, 0.0), 1.0),)],
                         ids=["duplicated", "zero-normal"])
def test_redundant_halfspaces_keep_the_cube(extra):
    cube = HPolytope(3, CUBE3.halfspaces + extra)
    assert _vertex_set(cube) == set(itertools.product((0.0, 1.0), repeat=3))
    profile = slice_profile(cube, 1, bins=8, method="mc", mc_n=2000)
    assert np.allclose(profile.volumes, 1.0, rtol=1e-12, atol=0)


def test_polytope_without_interior_has_zero_profile():
    # nonempty and bounded, not flat along axis 0, but every slice is a
    # segment of area 0; the two half-spaces of the plane, 6 and 7, are the
    # ones tight at every vertex
    vertices, directions, tights = PLANE_CUT._vrep
    assert set(vertices) == {(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert directions == []
    assert functools.reduce(int.__and__, tights) == 1 << 6 | 1 << 7
    profile = slice_profile(PLANE_CUT, 0, bins=8, method="mc", mc_n=2000)
    assert PLANE_CUT._vertices.shape == (0, 3)
    assert np.all(profile.volumes == 0) and np.all(profile.stderrs == 0)


def _bodies_with_and_without_interior():
    """Named bodies, and seeded random ones cut by 0 to dim hyperplanes near
    their centres, each an exact pair a.x <= b and -a.x <= -b."""
    yield from (SQUARE, SIMPLEX3, SEGMENT, PLANE_CUT,
                # x <= c and -x <= -c: a square face of the cube
                HPolytope(3, CUBE3.halfspaces + (((1.0, 0.0, 0.0), 0.5),
                                                 ((-1.0, 0.0, 0.0), -0.5))),
                # the square cut to its diagonal
                HPolytope(2, SQUARE.halfspaces + (((1.0, -1.0), 0.0), ((-1.0, 1.0), 0.0))),
                # a segment in the plane, and a point on the line
                HPolytope(2, SQUARE.halfspaces + (((0.0, 1.0), 0.5), ((0.0, -1.0), -0.5))),
                HPolytope(1, (((1.0,), 0.25), ((-1.0,), -0.25))),
                # 0.x <= 0 holds everywhere with equality, yet cuts nothing
                HPolytope(3, CUBE3.halfspaces + (((0.0, 0.0, 0.0), 0.0),)))
    rng = np.random.default_rng(1996)
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        p = random_polytope(rng, dim)
        center, cuts = p._vertices.mean(axis=0), []
        for _ in range(int(rng.integers(0, dim + 1))):
            a = rng.normal(size=dim)
            b = float(a @ center)
            cuts += [(tuple(a), b), (tuple(-a), -b)]
        yield HPolytope(dim, p.halfspaces + tuple(cuts))


def test_tight_sets_decide_interior_as_the_affine_rank_does():
    # a half-space tight at every vertex is an implicit equality: exactly
    # when the vertices' affine rank is below the dimension
    outcomes = []
    for p in _bodies_with_and_without_interior():
        vertices, directions, tights = p._vrep
        assert directions == []
        for v, tight in zip(vertices, tights):
            assert tight == sum(1 << k for k, (a, b) in enumerate(p.halfspaces) if any(a)
                                and sum(map(Fraction.__mul__, map(Fraction, a), v)) == b)
        pivots, _ = fraction_rref([(*v, 1) for v in vertices], p.dim + 1)
        no_interior = len(pivots) <= p.dim
        assert (functools.reduce(int.__and__, tights) != 0) == no_interior, p
        assert (len(p._vertices) == 0) == no_interior
        outcomes.append(no_interior)
    assert outcomes[:9] == [False, False, False, True, True, True, True, True, False]
    assert 10 < sum(outcomes[9:]) < 30


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
    a = np.array([normal for normal, _ in p.halfspaces])
    b = np.array([offset for _, offset in p.halfspaces])
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
        vertices, directions, _ = p._vrep
        assert directions == []
        assert len(set(vertices)) == len(vertices)
        assert _rounded(vertices) == _rounded(_qhull_vertices(p))


@pytest.mark.parametrize("dim, count", [(3, 200), (4, 60)])
def test_vertex_count_matches_qhull_at_stress_size(dim, count):
    p = _tangent_polytope(np.random.default_rng(count), dim, count)
    vertices, directions, _ = p._vrep
    assert directions == []
    assert len(vertices) == len(_rounded(_qhull_vertices(p))) > count


def _integer_matrices():
    """(rows, width): seeded integer matrices, most of them rank-deficient,
    some with rows of zeros, repeated rows or entries near 2**60, and a rank
    cap ``width`` at or below their column count."""
    rng = np.random.default_rng(1968)
    yield [], 3
    for _ in range(300):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 7))
        rank = int(rng.integers(0, min(m, n) + 1))
        rows = (rng.integers(-4, 5, size=(m, rank)) @ rng.integers(-4, 5, size=(rank, n))).tolist()
        if rng.random() < 0.3:
            rows = [[x * int(f) for x in row] for row, f in zip(rows, rng.integers(1, 2**60, m))]
        if rng.random() < 0.3:
            rows.insert(int(rng.integers(0, m + 1)), [0] * n)
        if rng.random() < 0.3:
            rows.insert(int(rng.integers(0, m + 1)), list(rows[int(rng.integers(0, m))]))
        yield rows, n if rng.random() < 0.7 else int(rng.integers(1, n + 1))


def test_integer_rref_matches_the_fraction_reference():
    # same pivots, and each reduced row is the primitive integer multiple,
    # positive at its pivot, of the rational one; the null space from it
    # is a primitive integer basis
    for rows, width in _integer_matrices():
        pivots, reduced = dhlab.toric._rref(rows, width)
        want_pivots, want = fraction_rref(rows, width)
        assert pivots == want_pivots, rows
        for c, r, w in zip(pivots.values(), reduced, want):
            assert all(type(x) is int for x in r) and math.gcd(*r) == 1
            assert r[c] > 0 and [Fraction(x, r[c]) for x in r] == w, rows
        n = len(rows[0]) if rows else width
        basis = dhlab.toric._null_space(rows, n)
        assert len(basis) == n - len(fraction_rref(rows, n)[0])
        assert len(fraction_rref(basis, n)[0]) == len(basis)
        for y in basis:
            assert all(type(x) is int for x in y) and math.gcd(*y) == 1
            assert all(sum(a * b for a, b in zip(row, y)) == 0 for row in rows)


@pytest.mark.parametrize("dim", range(2, 7))
def test_enumeration_reduces_a_constant_number_of_times(monkeypatch, dim):
    # the normals' lines take one reduction, the first cone two (a basis, and
    # its inverse), whatever the dimension
    rref, calls = dhlab.toric._rref, []
    monkeypatch.setattr(dhlab.toric, "_rref", lambda *a: calls.append(a) or rref(*a))
    for p in (_box((0.0,) * dim, (1.0,) * dim), HPolytope(dim, ())):
        calls.clear()
        p._vrep
        assert len(calls) <= 3


def test_vertices_are_exact_rationals():
    # x + 2y <= 1 and 2x + y <= 1 meet at (1/3, 1/3), which no float is
    kite = HPolytope(2, (((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0),
                         ((1.0, 2.0), 1.0), ((2.0, 1.0), 1.0)))
    vertices, _, _ = kite._vrep
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
        slice_profile(slab, 0, 8)


def test_recession_ray_names_its_axis():
    # a quadrant corner: bounded below on both axes, unbounded above
    corner = HPolytope(2, (((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0), ((1.0, -1.0), 0.0)))
    vertices, directions, _ = corner._vrep
    assert vertices == [(0, 0)]
    assert sorted(directions) == [(0, 1), (1, 1)]
    with pytest.raises(UnboundedPolytopeError, match="axis 0"):
        projection_range(corner, 0)


def test_no_halfspaces_is_unbounded_along_axis_0():
    space = HPolytope(3, ())
    with pytest.raises(UnboundedPolytopeError, match="axis 0"):
        projection_range(space, 0)
    with pytest.raises(UnboundedPolytopeError, match="axis 0"):
        slice_profile(space, 0, 8)


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


def test_integer_fields_take_numpy_integers():
    square = HPolytope(np.int64(2), SQUARE.halfspaces)
    assert square == SQUARE and type(square.dim) is int
    assert projection_range(SQUARE, np.int32(1)) == projection_range(SQUARE, 1)
    got = slice_profile(SIMPLEX3, np.int64(0), np.int16(6), mc_n=np.uint32(500),
                        seed=np.uint64(3))
    want = slice_profile(SIMPLEX3, 0, 6, mc_n=500, seed=3)
    assert got.volumes.tolist() == want.volumes.tolist()
    assert got.stderrs.tolist() == want.stderrs.tolist()


@pytest.mark.parametrize("p, method", [(SEGMENT, "mc"), (SIMPLEX2, "exact2d"),
                                       (SIMPLEX3, "mc"), (_box((0.0,) * 4, (1.0,) * 4), "mc")])
def test_profile_method_defaults_by_dimension(p, method):
    default = slice_profile(p, 0, bins=6, mc_n=500, seed=3)
    chosen = slice_profile(p, 0, bins=6, method=method, mc_n=500, seed=3)
    assert default.method == chosen.method == method
    for field in ("grid", "volumes", "stderrs"):
        assert getattr(default, field).tobytes() == getattr(chosen, field).tobytes()


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
    f = SliceVolumeFn("mc", grid, (1.0 - grid) ** 2 / 2.0, np.zeros(20))
    assert prekopa_check(f, tol=1e-9).log_concave


def test_counterexample_density_fails_prekopa():
    rho = Poly(1, {(2,): 1, (1,): -5, (0,): 7})
    grid = np.linspace(0.5, 4.5, 81)
    fake = SliceVolumeFn("mc", grid, np.array([rho.evaluate((s,)) for s in grid]),
                         np.zeros(81))
    report = prekopa_check(fake, tol=1e-9)
    assert not report.log_concave


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 1.0, 1.5])
def test_prekopa_rejects_a_tolerance_that_flags_nothing(tol):
    f = SliceVolumeFn("mc", np.arange(4.0), np.array([1.0, 0.1, 1.0, 5.0]), np.zeros(4))
    assert not prekopa_check(f, tol=1e-9).log_concave
    with pytest.raises(ValueError, match="tol"):
        prekopa_check(f, tol=tol)


@pytest.mark.parametrize("rel", [0.0, 0.01, 0.05, 0.1, 0.5, 5.0,
                                 pytest.param(None, id="no positive bin")])
def test_suggested_tolerance_is_a_tolerance_prekopa_accepts(rel):
    # from a relative stderr of 4.3%, four of them make (1 + r)^2 / (1 - r)^2 - 1
    # reach 1, where the midpoint test would flag nothing; a profile with no
    # positive bin gets the floor, and prekopa_check refuses it for its bins
    vols = np.zeros(3) if rel is None else np.array([1.0, 2.0, 1.5])
    f = SliceVolumeFn("mc", np.arange(3.0), vols, (rel or 0.0) * vols)
    tol = suggested_tolerance(f)
    assert 0 <= tol < 1
    if rel is None:
        assert tol == 1e-9
        with pytest.raises(InsufficientDataError, match="^only 0 positive bins; need at least 3$"):
            prekopa_check(f, tol)
    else:
        assert prekopa_check(f, tol).log_concave


def test_prekopa_trims_empty_end_bins():
    grid = np.linspace(0.0, 1.0, 12)
    vols = np.concatenate([[0.0], (1.0 - grid[1:-2]), [0.0, 0.0]])
    report = prekopa_check(SliceVolumeFn("mc", grid, vols, np.zeros(12)), tol=1e-9)
    assert report.log_concave
    assert report.trimmed == (1, 2)


def test_prekopa_needs_three_positive_bins():
    f = SliceVolumeFn("mc", np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]),
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


@pytest.mark.parametrize("method", ["exact2d", "mc"])
@pytest.mark.parametrize("mc_n", [0, -3])
def test_sample_count_is_checked_before_any_work(method, mc_n):
    # whatever the method, and before a flat polytope is found flat
    dim = 2 if method == "exact2d" else 3
    flat = HPolytope(dim, tuple(
        (tuple(s * float(i == ax) for i in range(dim)), float(ax > 0 and s > 0))
        for ax in range(dim) for s in (1.0, -1.0)
    ))
    for p in (SQUARE if dim == 2 else CUBE3, flat):
        with pytest.raises(ValueError, match="sample count must be positive"):
            slice_profile(p, 0, 10, method=method, mc_n=mc_n)


# (polytope, axis, method): each first bin, at s = 0.0625, has a slice
# whose box volume or chord is beyond the float range
_WIDE_POLYGON = _box((-1e308, 0.0), (1e308, 1.0))
_FLOAT_RANGE_SLICES = {
    "overflowing box": (_box((0.0, 0.0, 0.0), (1.0, 1e200, 1e200)), 0, "mc"),
    "underflowing box": (_box((0.0, 0.0, 0.0), (1.0, 1e-200, 1e-200)), 0, "mc"),
    "overflowing chord": (_WIDE_POLYGON, 1, "exact2d"),
    "overflowing mc box": (_WIDE_POLYGON, 1, "mc"),
}


@pytest.mark.parametrize("case", _FLOAT_RANGE_SLICES)
def test_slice_beyond_the_float_range_is_domain_error(case):
    # an inf, or a 0 from positive widths, is no slice volume; a numpy
    # warning on the way would fail here too (warnings are errors)
    p, axis, method = _FLOAT_RANGE_SLICES[case]
    with pytest.raises(DomainError, match=r"slice at s=0\.0625 .*outside the float range"):
        slice_profile(p, axis, bins=8, method=method, mc_n=1000)


@pytest.mark.parametrize("method", ["exact2d", "mc"])
def test_projection_wider_than_the_float_range_is_domain_error(method):
    # 1e308 - (-1e308) overflows, so the bins have no finite centres
    with pytest.raises(DomainError, match="axis 0 is wider than the float range"):
        slice_profile(_WIDE_POLYGON, 0, bins=8, method=method, mc_n=1000)


# x <= 1e600 (1e-300 x <= 1e300, exactly) in [0, oo) x [0, 1]^(dim-1)
def _far_box(dim: int) -> HPolytope:
    return HPolytope(dim, ((tuple(1e-300 * float(i == 0) for i in range(dim)), 1e300),)
                     + _box((0.0,) * dim, (1.0,) * dim).halfspaces[1:])


def test_vertex_beyond_the_float_range_rounds_to_inf_or_names_its_axis():
    assert projection_range(_far_box(2), 0) == (0.0, float("inf"))
    assert projection_range(_far_box(3), 1) == (0.0, 1.0)
    with pytest.raises(DomainError, match="vertex lies beyond the float range along axis 0"):
        slice_profile(_far_box(3), 1, bins=4, mc_n=100)


def test_large_finite_slices_are_measured():
    # just inside the float range, the box is still measured as a whole
    profile = slice_profile(_box((0.0, 0.0, 0.0), (1.0, 1e150, 1e150)), 0, bins=8,
                            method="mc", mc_n=1000)
    assert np.allclose(profile.volumes, 1e300, rtol=1e-12, atol=0)


def test_prekopa_interior_zero_is_domain_error():
    f = SliceVolumeFn("mc", np.linspace(0, 1, 5), np.array([1.0, 1.0, 0.0, 1.0, 1.0]),
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
    doc = {"dim": 3, "halfspaces": [{"a": list(a), "b": b} for a, b in SIMPLEX3.halfspaces]}
    assert HPolytope.from_json_dict(doc) == SIMPLEX3
    text = json.dumps(doc)
    assert HPolytope.from_json_dict(json.loads(text)) == SIMPLEX3


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
