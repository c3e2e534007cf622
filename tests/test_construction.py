"""Verification battery for the chart, connection and symplectic form."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dhlab import (
    CutWindow,
    DegenerateWindowError,
    Form,
    GaugeError,
    OmegaParams,
    Poly,
    analytic_dh_density,
    build_connection,
    build_omega,
    canonical_chart,
    canonical_gauge,
    curvature_form,
    exterior_derivative,
    interior_product,
    shifted_gauge,
    standard_construction,
    verify_construction,
    wedge,
)
from dhlab.construction import TOP_TUPLE
from helpers import random_rational, reference_build_omega

WINDOW = CutWindow(0.5, 4.5)
CHART = canonical_chart()
RHO = Poly(1, {(2,): 1, (1,): -5, (0,): 7})


def _expected_top() -> Poly:
    # 6 + 6 (c1 - t)(c2 - t) with (c1, c2) = (2, 3):  6 t^2 - 30 t + 42
    t = {(0, 0, 0, 0, k, 0): c for k, c in [(2, 6), (1, -30), (0, 42)]}
    return Poly(CHART.dim, t)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, np.float32("nan"),
                               np.float16("inf"), np.longdouble("-inf")])
def test_a_nonfinite_number_never_enters_exact_arithmetic(x):
    # each of these converts through dhlab.intpoly.rational
    entries = [lambda: Poly(1, {(0,): x}), lambda: Poly.constant(6, x),
               lambda: Form.basis(CHART, 0, coeff=x), lambda: OmegaParams(x, 2),
               lambda: shifted_gauge(canonical_gauge(CHART), [x, 0, 0, 0])]
    for entry in entries:
        with pytest.raises(ValueError):
            entry()


def test_a_numpy_integer_enters_exact_arithmetic_as_an_int():
    # a numpy numerator would wrap around at 2**63 in the exact algebra
    big, want = OmegaParams(np.int64(2 ** 62), np.int64(3)), OmegaParams(2 ** 62, 3)
    assert type(big.c1.numerator) is int and big == want
    tops = [verify_construction(standard_construction(WINDOW, p)[2], WINDOW, p).top_power_poly
            for p in (big, want)]
    assert tops[0] == tops[1]


@pytest.mark.parametrize("x", [np.float16(0.25), np.float32(0.1), np.longdouble(-2.75)])
def test_a_numpy_float_enters_exact_arithmetic_as_its_binary_fraction(x):
    # every float16, float32 or longdouble is a finite binary fraction, though
    # Fraction() takes none of them; these three are doubles, so float() is exact
    want = Fraction(float(x))
    assert Poly.constant(6, x) == Poly.constant(6, want)
    assert Form.basis(CHART, 0, coeff=x) == Form.basis(CHART, 0, coeff=want)
    params = OmegaParams(x, 3)
    assert params == OmegaParams(want, 3) and type(params.c1.numerator) is int


# ---------------------------------------------------------------------------
# gauge and connection
# ---------------------------------------------------------------------------

def test_canonical_gauge_accepted():
    theta = build_connection(canonical_gauge(CHART))
    assert exterior_derivative(theta) == curvature_form(CHART)
    assert theta.coefficient(5) == Poly.constant(CHART.dim, 1)


def test_standard_construction_shares_one_checked_connection():
    chart, theta, omega = standard_construction(WINDOW)
    other = standard_construction(CutWindow(1, 2), OmegaParams(Fraction(1, 3), 7))
    assert other[0] is chart and other[1] is theta
    assert theta == build_connection(canonical_gauge(CHART))
    assert omega == build_omega(theta, OmegaParams())


def test_zero_gauge_rejected_with_residual():
    with pytest.raises(GaugeError) as err:
        build_connection(Form(CHART, 1))
    assert err.value.residual == -curvature_form(CHART)


def test_constant_closed_shift_accepted():
    gauge = shifted_gauge(canonical_gauge(CHART), [0, Fraction(5, 3), 0, 0])
    theta = build_connection(gauge)
    assert exterior_derivative(theta) == curvature_form(CHART)


def test_sign_flipped_gauge_rejected():
    # x4 dx1 + x2 dx3 has curvature -dx1^dx4 + dx2^dx3: wrong sign on the
    # second face, so the residual is 2 dx2^dx3
    bad = Form(CHART, 1, {
        (0,): Poly.variable(CHART.dim, 3),
        (2,): Poly.variable(CHART.dim, 1),
    })
    with pytest.raises(GaugeError) as err:
        build_connection(bad)
    assert err.value.residual == Form(CHART, 2, {(1, 2): 2})


def test_gauge_outside_base_rejected():
    t_coeff = Form(CHART, 1, {(0,): Poly.variable(CHART.dim, 4)})
    with pytest.raises(GaugeError):
        build_connection(t_coeff)
    theta_slot = Form(CHART, 1, {(5,): 1})
    with pytest.raises(GaugeError):
        build_connection(theta_slot)


# ---------------------------------------------------------------------------
# omega
# ---------------------------------------------------------------------------

def test_omega_term_slots():
    _, _, omega = standard_construction(WINDOW)
    assert omega.degree == 2
    assert set(omega.terms) == {(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4), (4, 5)}
    assert len(omega.terms) == 7


def test_omega_is_closed():
    _, _, omega = standard_construction(WINDOW)
    assert not exterior_derivative(omega)


def test_omega_sigma14_coefficient_vanishes_at_c1():
    _, _, omega = standard_construction(WINDOW)
    coeff = omega.coefficient(0, 3)
    t = Poly.variable(CHART.dim, 4)
    assert coeff == 2 - t
    assert coeff.evaluate_exact((0, 0, 0, 0, 2, 0)) == 0


def test_moment_map_identity():
    _, _, omega = standard_construction(WINDOW)
    assert interior_product(omega, 5) == Form.basis(CHART, 4, coeff=-1)


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------

def test_verify_default_parameters():
    _, _, omega = standard_construction(WINDOW)
    report = verify_construction(omega, WINDOW)
    assert report.all_passed
    assert report.top_power_poly == _expected_top()
    assert report.top_power_poly.univariate(4).primitive() == RHO


def test_omega_cubed_is_a_single_top_term():
    from dhlab import wedge

    _, _, omega = standard_construction(WINDOW)
    cubed = wedge(wedge(omega, omega), omega)
    assert cubed.degree == 6
    assert set(cubed.terms) == {(0, 1, 2, 3, 4, 5)}
    assert cubed == Form(CHART, 6, {(0, 1, 2, 3, 4, 5): _expected_top()})


def _random_connections(rng, count: int, shifted: bool):
    """(params, theta) for random rational (c1, c2), in the canonical gauge or
    a randomly shifted one."""
    base = canonical_gauge(CHART)
    for _ in range(count):
        params = OmegaParams(random_rational(rng), random_rational(rng))
        coeffs = [random_rational(rng) for _ in range(4)] if shifted else [0] * 4
        yield params, build_connection(shifted_gauge(base, coeffs))


def test_verify_top_power_equals_the_wedge_route():
    rng = random.Random(20)
    for params, theta in [*_random_connections(rng, 200, False),
                          *_random_connections(rng, 100, True)]:
        omega = build_omega(theta, params)
        report = verify_construction(omega, WINDOW, params)
        assert report.top_power_poly == wedge(wedge(omega, omega), omega).coefficient(*TOP_TUPLE)


def test_build_omega_equals_the_sum_of_its_basis_forms():
    rng = random.Random(22)
    cases = [*_random_connections(rng, 100, False), *_random_connections(rng, 100, True)]
    cases.append((OmegaParams(0, 0), build_connection(canonical_gauge(CHART))))
    for params, theta in cases:
        assert build_omega(theta, params) == reference_build_omega(theta, params), params


def test_verify_chern_numbers():
    _, _, omega = standard_construction(WINDOW)
    report = verify_construction(omega, WINDOW)
    assert report.chern_numbers == {
        "x1^x2": Fraction(0), "x1^x3": Fraction(0), "x1^x4": Fraction(-1),
        "x2^x3": Fraction(-1), "x2^x4": Fraction(0), "x3^x4": Fraction(0),
    }


def test_verify_zero_parameters():
    # (c1, c2) = (0, 0) gives top power 6 (1 + t^2), positive everywhere
    _, _, omega = standard_construction(WINDOW, OmegaParams(0, 0))
    report = verify_construction(omega, WINDOW, OmegaParams(0, 0))
    assert report.closed and report.moment_identity and report.nondegenerate_on_window
    assert report.top_power_poly.univariate(4) == Poly(1, {(2,): 6, (0,): 6})


def test_verify_flags_tampered_omega():
    _, _, omega = standard_construction(WINDOW)
    t = Poly.variable(CHART.dim, 4)
    tampered = omega - (2 - t) * Form.basis(CHART, 0, 3) + (2 - t * t) * Form.basis(CHART, 0, 3)
    report = verify_construction(tampered, WINDOW)
    assert not report.closed
    assert not report.all_passed
    # each tampering breaks one identity, and the report names that one alone
    t_dx1_dx2 = t * Form.basis(CHART, 0, 1)  # d of it is dt^dx1^dx2
    assert (verify_construction(omega + t_dx1_dx2, WINDOW).failed_identities()
            == ["closedness (d omega = 0)"])
    dx1_dtheta = Form.basis(CHART, 0, 5)  # its i_dtheta is -dx1
    assert (verify_construction(omega + dx1_dtheta, WINDOW).failed_identities()
            == ["moment-map identity (i_dtheta omega = -dt)"])


def test_verify_never_raises_on_nonconstant_curvature_face():
    _, _, omega = standard_construction(WINDOW)
    x2 = Poly.variable(CHART.dim, 1)
    nasty = omega + (x2 * x2) * Form.basis(CHART, 0, 4)
    report = verify_construction(nasty, WINDOW)
    assert not report.closed
    assert "x1^x2" not in report.chern_numbers  # non-constant face is omitted
    assert "x3^x4" in report.chern_numbers


def test_verify_detects_degenerate_window():
    # top power 6 (1 + (0-t)(5-t)) has a root near t = 0.209 inside (0.1, 1)
    params = OmegaParams(0, 5)
    window = CutWindow(0.1, 1.0)
    _, _, omega = standard_construction(window, params)
    report = verify_construction(omega, window, params)
    assert report.closed and report.moment_identity
    assert not report.nondegenerate_on_window
    with pytest.raises(DegenerateWindowError):
        analytic_dh_density(report, window)


# ---------------------------------------------------------------------------
# analytic density
# ---------------------------------------------------------------------------

def test_density_is_primitive_rho():
    _, _, omega = standard_construction(WINDOW)
    report = verify_construction(omega, WINDOW)
    density = analytic_dh_density(report, WINDOW)
    assert density == RHO
    assert density.evaluate((2.5,)) == 0.75
    assert density.integrate(Fraction(1, 2), Fraction(9, 2)) == Fraction(25, 3)
    # normalized value at the dip
    assert density.evaluate_exact((Fraction(5, 2),)) / density.integrate(0.5, 4.5) \
        == Fraction(9, 100)


def test_density_on_a_window_other_than_the_report():
    # with (c1, c2) = (1, 3) the top power is 6 (t - 2)^2: positive on the
    # report's window, degenerate on one that holds t = 2
    params = OmegaParams(1, 3)
    window = CutWindow(2.5, 4.5)
    _, _, omega = standard_construction(window, params)
    report = verify_construction(omega, window, params)
    assert report.all_passed
    with pytest.raises(DegenerateWindowError, match="requested window"):
        analytic_dh_density(report, CutWindow(0.5, 4.4))
    assert analytic_dh_density(report, CutWindow(3, 4)) == Poly(1, {(2,): 1, (1,): -4, (0,): 4})


def test_density_cut_window_invariance():
    polys = []
    for window in [CutWindow(0.5, 4.5), CutWindow(1.0, 4.0), CutWindow(2.0, 3.0)]:
        _, _, omega = standard_construction(window)
        report = verify_construction(omega, window)
        polys.append(analytic_dh_density(report, window))
    assert polys[0] == polys[1] == polys[2] == RHO


def test_density_monotone_around_dip():
    _, _, omega = standard_construction(WINDOW)
    density = analytic_dh_density(verify_construction(omega, WINDOW), WINDOW)
    slope = density.partial(0)
    assert slope == Poly(1, {(1,): 2, (0,): -5})
    lo, hi = Fraction(1, 2), Fraction(9, 2)
    mid = Fraction(5, 2)
    for k in range(1, 64):
        left = lo + (mid - lo) * k / 64
        right = mid + (hi - mid) * k / 64
        assert slope.evaluate_exact((left,)) < 0
        assert slope.evaluate_exact((right,)) > 0
    assert slope.evaluate_exact((mid,)) == 0


def test_density_requested_window_must_be_nondegenerate():
    params = OmegaParams(0, 5)
    window = CutWindow(1.0, 4.0)  # top power 6(1 - 5t + t^2) is positive here? no:
    # roots of 1 - 5t + t^2 are (5 +- sqrt 21)/2 ~ 0.209, 4.791, so (1, 4) is
    # inside the negative lobe -> must be rejected
    _, _, omega = standard_construction(window, params)
    report = verify_construction(omega, window, params)
    assert not report.nondegenerate_on_window


# ---------------------------------------------------------------------------
# gauge invariance
# ---------------------------------------------------------------------------

def test_gauge_invariance_of_verified_quantities():
    rng = random.Random(101)
    base_gauge = canonical_gauge(CHART)
    theta0 = build_connection(base_gauge)
    omega0 = build_omega(theta0, OmegaParams())
    top0 = verify_construction(omega0, WINDOW).top_power_poly
    minus_dt = Form.basis(CHART, 4, coeff=-1)
    for _ in range(100):
        coeffs = [random_rational(rng) for _ in range(4)]
        theta = build_connection(shifted_gauge(base_gauge, coeffs))
        omega = build_omega(theta, OmegaParams())
        if any(coeffs):
            assert omega != omega0
        assert not exterior_derivative(omega)
        assert interior_product(omega, 5) == minus_dt
        report = verify_construction(omega, WINDOW)
        assert report.top_power_poly == top0
        assert report.all_passed


def test_report_json_shape():
    _, _, omega = standard_construction(WINDOW)
    report = verify_construction(omega, WINDOW)
    doc = report.to_json_dict()
    assert doc["closed"] and doc["moment_identity"] and doc["all_passed"]
    assert doc["window"] == [0.5, 4.5]
    assert doc["top_power_str"] == "6*t^2 - 30*t + 42"
    assert doc["chern_numbers"]["x1^x4"] == {"num": -1, "den": 1}
    assert Poly.from_json(CHART.dim, doc["top_power_poly"]) == report.top_power_poly


def test_a_top_power_off_t_alone_prints_in_the_chart_names():
    _, _, omega = standard_construction(WINDOW)
    x1 = Poly.variable(CHART.dim, 0)
    report = verify_construction(omega + Form(CHART, 2, {(1, 2): x1}), WINDOW)
    want = "6*t^2 - 6*x1*t - 30*t + 12*x1 + 42"
    row = [line for line in report.text_table().splitlines()
           if line.startswith("top power coefficient ")]
    assert [line.split("  ", 1)[1].strip() for line in row] == [want]
    assert report.to_json_dict()["top_power_str"] == want
