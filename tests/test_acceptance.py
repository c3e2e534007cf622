"""Acceptance gate: one test per exit criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from dhlab import (
    CutWindow,
    Form,
    OmegaParams,
    Poly,
    SamplerConfig,
    analytic_dh_density,
    analytic_logconcavity,
    build_connection,
    build_omega,
    canonical_chart,
    canonical_gauge,
    compare,
    discrete_logconcavity,
    exterior_derivative,
    interior_product,
    normalize,
    prekopa_check,
    sample_pushforward,
    shifted_gauge,
    slice_profile,
    standard_construction,
    suggested_tolerance,
    verify_construction,
    wedge,
)
from helpers import random_form, random_polytope, random_rational

WINDOW = CutWindow(0.5, 4.5)
CHART = canonical_chart()
RHO = Poly(1, {(2,): 1, (1,): -5, (0,): 7})
LEFT = 2.5 - math.sqrt(3) / 2
RIGHT = 2.5 + math.sqrt(3) / 2


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def _gauge_family(count: int, seed: int):
    rng = random.Random(seed)
    base = canonical_gauge(CHART)
    yield base
    for _ in range(count):
        yield shifted_gauge(base, [random_rational(rng) for _ in range(4)])


def test_criterion_01_symbolic_closedness():
    start = time.perf_counter()
    ok = True
    for gauge in _gauge_family(100, seed=404):
        omega = build_omega(build_connection(gauge), OmegaParams())
        d_omega = exterior_derivative(omega)
        ok = ok and not d_omega and not d_omega.terms
    elapsed = time.perf_counter() - start
    _report(1, "closedness d(omega) = 0, 100 gauge shifts", ok and elapsed < 1.0,
            f"elapsed {elapsed:.3f}s")


def test_criterion_02_moment_map_identity():
    minus_dt = Form.basis(CHART, 4, coeff=-1)
    ok = all(
        interior_product(build_omega(build_connection(g), OmegaParams()), 5) == minus_dt
        for g in _gauge_family(100, seed=405)
    )
    _report(2, "moment identity i_dtheta omega = -dt", ok)


def test_criterion_03_top_power_identity():
    _, _, omega = standard_construction(WINDOW)
    top = wedge(wedge(omega, omega), omega).coefficient(0, 1, 2, 3, 4, 5)
    expected = Poly(CHART.dim, {(0, 0, 0, 0, 2, 0): 6,
                                (0, 0, 0, 0, 1, 0): -30,
                                (0, 0, 0, 0, 0, 0): 42})
    _report(3, "top power = 6(t^2 - 5t + 7)", top == expected,
            f"got {top.univariate(4)}")


def test_criterion_04_chern_integrals():
    # With the sign conventions that make omega closed AND its top power
    # equal 6(t^2-5t+7), the curvature is -dx1^dx4 - dx2^dx3, so the two
    # unit integrals sit on the ascending faces (x1,x4) and (x2,x3).
    _, _, omega = standard_construction(WINDOW)
    report = verify_construction(omega, WINDOW)
    expected = {
        "x1^x2": Fraction(0), "x1^x3": Fraction(0), "x1^x4": Fraction(-1),
        "x2^x3": Fraction(-1), "x2^x4": Fraction(0), "x3^x4": Fraction(0),
    }
    _report(4, "curvature face integrals (-1, -1, rest 0)",
            report.chern_numbers == expected, str(report.chern_numbers))


def test_criterion_05_dh_density_reproduction():
    start = time.perf_counter()
    _, _, omega = standard_construction(WINDOW)
    report = verify_construction(omega, WINDOW)
    density = analytic_dh_density(report, WINDOW)
    cfg = SamplerConfig(2_000_000, 40, WINDOW, seed=42)
    est = normalize(sample_pushforward(report.top_power_poly, cfg))
    comp = compare(est, density, WINDOW)
    elapsed = time.perf_counter() - start
    n_extreme = int(np.count_nonzero(np.abs(comp.per_bin_z) > 3))
    center_ok = abs(est.density[20] - 0.09) <= 0.003
    ok = (comp.max_rel_error <= 0.03 and n_extreme <= 1 and center_ok
          and elapsed <= 60.0)
    _report(5, "MC density matches analytic (3%, z, 0.09 +/- 0.003, <= 60s)", ok,
            f"max_rel {comp.max_rel_error:.4f}, |z|>3 in {n_extreme} bins, "
            f"center {est.density[20]:.4f}, {elapsed:.1f}s")


def test_criterion_06_non_log_concavity_finding():
    analytic = analytic_logconcavity(RHO, (WINDOW.lo, WINDOW.hi))
    (alo, ahi), = analytic.violation_intervals
    analytic_ok = abs(alo - LEFT) <= 1e-9 and abs(ahi - RIGHT) <= 1e-9

    h = 0.01
    grid = np.linspace(0.5, 4.5, 401)
    discrete = discrete_logconcavity([(s, RHO.evaluate((s,))) for s in grid],
                                     tol=1e-9)
    (dlo, dhi), = discrete.violation_intervals
    discrete_ok = abs(dlo - alo) <= 2 * h and abs(dhi - ahi) <= 2 * h
    _report(6, "violation interval (2.5 -/+ sqrt(3)/2) to 1e-9; discrete within 2h",
            analytic_ok and discrete_ok,
            f"analytic ({alo:.10f}, {ahi:.10f}), discrete ({dlo}, {dhi})")


def test_criterion_07_monotonicity():
    _, _, omega = standard_construction(WINDOW)
    density = analytic_dh_density(verify_construction(omega, WINDOW), WINDOW)
    slope = density.partial(0)
    lo, hi, mid = Fraction(1, 2), Fraction(9, 2), Fraction(5, 2)
    dec = all(slope.evaluate_exact((lo + (mid - lo) * k / 128,)) < 0
              for k in range(1, 128))
    inc = all(slope.evaluate_exact((mid + (hi - mid) * k / 128,)) > 0
              for k in range(1, 129))
    _report(7, "density decreases on (A, 2.5), increases on (2.5, B)", dec and inc)


def test_criterion_08_cut_invariance():
    windows = [CutWindow(0.5, 4.5), CutWindow(1.0, 4.0), CutWindow(2.0, 3.0)]
    densities = []
    intervals = []
    for window in windows:
        _, _, omega = standard_construction(window)
        report = verify_construction(omega, window)
        densities.append(analytic_dh_density(report, window))
        result = analytic_logconcavity(densities[-1], (window.lo, window.hi))
        intervals.append(result.violation_intervals)
    same_poly = densities[0] == densities[1] == densities[2] == RHO
    all_violate = all(len(iv) == 1 for iv in intervals)
    # each window sees the violation set clipped to itself; (2.0, 3.0) lies
    # inside (LEFT, RIGHT), so its whole interior violates
    expected = [(max(w.lo, LEFT), min(w.hi, RIGHT)) for w in windows]
    clipped_ok = all(
        abs(iv[0][0] - e[0]) <= 1e-8 and abs(iv[0][1] - e[1]) <= 1e-8
        for iv, e in zip(intervals, expected)
    )
    inner_ok = intervals[2][0] == (2.0, 3.0)
    _report(8, "same density poly across cut windows; violations clip to windows",
            same_poly and all_violate and clipped_ok and inner_ok,
            f"intervals {intervals}")


def test_criterion_09_toric_baseline():
    from dhlab import HPolytope

    simplex2 = HPolytope(2, (((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0),
                             ((1.0, 1.0), 1.0)))
    exact = slice_profile(simplex2, 0, bins=64, method="exact2d")
    exact_ok = bool(np.all(np.abs(exact.volumes - (1.0 - exact.grid)) <= 1e-12))

    simplex3 = HPolytope(3, (((-1.0, 0.0, 0.0), 0.0), ((0.0, -1.0, 0.0), 0.0),
                             ((0.0, 0.0, -1.0), 0.0), ((1.0, 1.0, 1.0), 1.0)))
    mc = slice_profile(simplex3, 0, bins=20, method="mc", mc_n=100_000, seed=99)
    expected = (1.0 - mc.grid) ** 2 / 2.0
    interior = mc.grid <= 0.9
    mc_ok = bool(np.max(np.abs(mc.volumes[interior] - expected[interior])
                        / expected[interior]) <= 0.05)

    rng = np.random.default_rng(31415)
    failures = 0
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        polytope = random_polytope(rng, dim)
        profile = slice_profile(polytope, axis=int(rng.integers(0, dim)), bins=16,
                                method="mc", mc_n=20_000,
                                seed=int(rng.integers(1 << 30)))
        result = prekopa_check(profile, suggested_tolerance(profile))
        failures += 0 if result.log_concave else 1
    _report(9, "toric baseline: exact 1-s, MC (1-s)^2/2 within 5%, 50 random pass",
            exact_ok and mc_ok and failures == 0,
            f"random-polytope failures {failures}/50")


def test_criterion_10_property_suites():
    rng = random.Random(515)
    cases_ok = True
    for _ in range(100):
        a = random_form(rng, CHART, max_degree=3)
        b = random_form(rng, CHART, degree=rng.randint(1, 2))
        c = random_form(rng, CHART, degree=rng.randint(1, 2))
        v = rng.randrange(CHART.dim)
        cases_ok = cases_ok and not exterior_derivative(exterior_derivative(a))
        sign = (-1) ** (a.degree * b.degree)
        cases_ok = cases_ok and wedge(a, b) == sign * wedge(b, a)
        cases_ok = cases_ok and exterior_derivative(wedge(a, b)) == \
            wedge(exterior_derivative(a), b) + \
            (-1) ** a.degree * wedge(a, exterior_derivative(b))
        cases_ok = cases_ok and interior_product(wedge(b, c), v) == \
            wedge(interior_product(b, v), c) + \
            (-1) ** b.degree * wedge(b, interior_product(c, v))
        cases_ok = cases_ok and not interior_product(interior_product(a, v), v)

    _, _, omega = standard_construction(WINDOW)
    top = verify_construction(omega, WINDOW).top_power_poly
    reference = sample_pushforward(
        top, SamplerConfig(200_000, 30, WINDOW, seed=6, chunk_size=200_000))
    chunk_ok = True
    for chunk in (1 << 12, 1 << 15, 12_345):
        other = sample_pushforward(
            top, SamplerConfig(200_000, 30, WINDOW, seed=6, chunk_size=chunk))
        rel = np.abs(other.weight_sums - reference.weight_sums) / reference.weight_sums
        chunk_ok = chunk_ok and float(np.max(rel)) <= 1e-10
    _report(10, "exterior property suites (100 cases) + MC chunk determinism 1e-10",
            cases_ok and chunk_ok)
