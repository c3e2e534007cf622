"""Exactness tests for the symbolic exterior calculus core."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from dhlab import (
    Chart,
    ChartMismatchError,
    DimensionError,
    Form,
    OmegaParams,
    Poly,
    UnsupportedIntegrandError,
    Variable,
    exterior_derivative,
    integrate_over_face,
    interior_product,
    standard_construction,
    wedge,
)
from dhlab.exterior import _normalize_indices, power_coefficient
from helpers import (
    WINDOW,
    abs_eval,
    chart6,
    random_form,
    random_poly,
    reference_exterior_derivative,
)

CHART = chart6()
RHO = Poly(1, {(2,): 1, (1,): -5, (0,): 7})  # t^2 - 5 t + 7


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_ascending_pairs():
    a = Form.basis(CHART, 0, 1)
    b = Form.basis(CHART, 2, 3)
    assert wedge(a, b) == Form.basis(CHART, 0, 1, 2, 3)


def test_wedge_single_transposition():
    assert wedge(Form.basis(CHART, 3), Form.basis(CHART, 0)) == \
        Form.basis(CHART, 0, 3, coeff=-1)


def test_wedge_repeated_index_annihilates():
    a = Form.basis(CHART, 0, 1)
    assert not wedge(a, Form.basis(CHART, 1))
    assert not Form(CHART, 2, {(0, 0): 1})


def test_wedge_above_top_degree_is_zero():
    a = Form.basis(CHART, 0, 1, 2, 3)
    b = Form.basis(CHART, 3, 4, 5)
    out = wedge(a, b)
    assert out.degree == 7 and not out


def test_wedge_chart_mismatch():
    other = Chart(CHART.variables[:4] + (Variable("s", False),) + CHART.variables[5:])
    with pytest.raises(ChartMismatchError):
        wedge(Form.basis(CHART, 0), Form.basis(other, 1))


def test_basis_normalizes_index_order():
    assert Form(CHART, 2, {(3, 0): 1}) == Form.basis(CHART, 0, 3, coeff=-1)


def test_wedge_bilinear_and_associative():
    rng = random.Random(2024)
    for _ in range(100):
        a = random_form(rng, CHART, max_degree=2)
        b = random_form(rng, CHART, max_degree=2)
        c = random_form(rng, CHART, max_degree=2)
        p = random_poly(rng, CHART.dim)
        assert wedge(p * a, b) == p * wedge(a, b)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        if a.degree == b.degree:
            assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)


def test_wedge_graded_commutativity():
    rng = random.Random(7)
    for _ in range(120):
        a = random_form(rng, CHART)
        b = random_form(rng, CHART)
        sign = (-1) ** (a.degree * b.degree)
        assert wedge(a, b) == sign * wedge(b, a)


def _cancelling_form(rng, degree: int) -> Form:
    """A form whose coefficients come from a small pool of Polys with +-1
    coefficients, so that products and sums cancel often."""
    pool = [Poly.constant(CHART.dim, 1), Poly.variable(CHART.dim, 0), Poly.variable(CHART.dim, 4)]
    pool += [-p for p in pool] + [pool[0] + pool[1], pool[1] - pool[2]]
    tuples = [tuple(sorted(rng.sample(range(CHART.dim), degree))) for _ in range(4)]
    return Form(CHART, degree, [(idx, rng.choice(pool)) for idx in tuples])


_LARGE_DENOMINATORS = (2**61 - 1, 3**40, 5**27)  # pairwise coprime


def _large_denominators(rng, a: Form) -> Form:
    """a with each coefficient of each term divided by one of
    _LARGE_DENOMINATORS, so that sums and products meet denominators with
    no common factor."""
    return Form(a.chart, a.degree, {
        idx: Poly(a.chart.dim, {e: c / rng.choice(_LARGE_DENOMINATORS)
                                for e, c in p.terms.items()})
        for idx, p in a.terms.items()})


def test_d_matches_the_reference_that_sums_polys():
    omega = standard_construction(WINDOW, OmegaParams(Fraction(7, 3), Fraction(-1, 4)))[2]
    omega2 = wedge(omega, omega)
    cases = [(omega, omega), (omega2, omega), (omega, omega2)]
    rng = random.Random(31)
    cases += [(random_form(rng, CHART), random_form(rng, CHART)) for _ in range(150)]
    cases += [(_cancelling_form(rng, rng.randint(1, 2)), _cancelling_form(rng, rng.randint(1, 3)))
              for _ in range(150)]
    cases += [(_large_denominators(rng, random_form(rng, CHART)),
               _large_denominators(rng, random_form(rng, CHART))) for _ in range(150)]
    for a, b in cases:
        for x in (a, b, wedge(a, b)):
            assert exterior_derivative(x).terms == reference_exterior_derivative(x), x
    top = wedge(omega2, omega)
    assert list(top.terms) == [(0, 1, 2, 3, 4, 5)] and len(top.terms[(0, 1, 2, 3, 4, 5)].terms) == 3


def test_index_memo_stays_within_its_bound():
    chart = Chart(tuple(Variable(f"y{i}", True) for i in range(12)))
    rng = random.Random(12)
    sixes = list(combinations(range(12), 6))
    a, b = (Form(chart, 6, {idx: 1 for idx in rng.sample(sixes, 40)}) for _ in range(2))
    _normalize_indices.cache_clear()
    product = wedge(a, b)
    info = _normalize_indices.cache_info()
    assert info.maxsize is not None and info.misses > info.maxsize  # more tuples than it holds
    assert info.currsize <= info.maxsize
    assert product.degree == 12 and set(product.terms) <= {tuple(range(12))}


# ---------------------------------------------------------------------------
# top power by perfect matchings
# ---------------------------------------------------------------------------

def _two_form(rng, chart: Chart, kind: str) -> Form:
    """A random 2-form: a few tuples (sparse), every tuple (dense), every
    tuple over large coprime denominators (coprime), or a sum of dim/2 - 1
    products u ^ v of 1-forms with coefficients from a small pool of Polys
    (cancelling): its rank is below dim, so the matchings of its top
    Pfaffian cancel to zero."""
    if kind == "coprime":
        return _large_denominators(rng, _two_form(rng, chart, "dense"))
    if kind == "cancelling":
        one, x, y = (Poly.constant(chart.dim, 1), Poly.variable(chart.dim, 0),
                     Poly.variable(chart.dim, chart.dim - 1))
        pool = [one, -one, x, x - y, one + y]
        a = Form(chart, 2)
        for _ in range(max(1, chart.dim // 2 - 1)):
            u, v = (Form(chart, 1, {(i,): rng.choice(pool) for i in range(chart.dim)})
                    for _ in range(2))
            a = a + wedge(u, v)
        return a
    pairs = list(combinations(range(chart.dim), 2))
    if kind == "sparse":
        pairs = rng.sample(pairs, rng.randint(1, min(4, len(pairs))))
    return Form(chart, 2, {idx: random_poly(rng, chart.dim, max_degree=1) for idx in pairs})


def test_power_coefficient_matches_the_wedge_powers():
    rng = random.Random(47)
    cancelled = set()  # (dim, k) where a dense or cancelling a^k has a zero coefficient
    for dim in (2, 4, 6, 8):
        chart = Chart(tuple(Variable(f"y{i}", True) for i in range(dim)))
        for kind in ("sparse", "dense", "coprime", "cancelling"):
            for _ in range(12):
                a = _two_form(rng, chart, kind)
                power = Form.scalar(chart, 1)
                for k in range(1, dim // 2 + 1):
                    power = wedge(power, a)
                    for size in (2 * k - 1, 2 * k):
                        for idx in combinations(range(dim), size):
                            want = power.coefficient(*idx) if size == 2 * k else Poly(dim)
                            assert power_coefficient(a, idx) == want, (a, idx)
                            if size == 2 * k and kind != "sparse" and not want:
                                cancelled.add((dim, k))
    assert {(4, 2), (6, 3), (8, 4)} <= cancelled


def test_power_coefficient_is_zero_off_even_tuples_of_a_two_form():
    rng = random.Random(3)
    top = tuple(range(CHART.dim))
    omega = standard_construction(WINDOW)[2]
    zero = Poly(CHART.dim)
    for degree in (1, 3):
        a = random_form(rng, CHART, degree)
        assert a and power_coefficient(a, top) == zero and power_coefficient(a, (0, 1)) == zero
    assert power_coefficient(Form(CHART, 2), top) == zero
    assert power_coefficient(omega, (0, 1, 2)) == zero  # odd
    for idx in ((1, 0), (0, 3, 1, 2)):  # not ascending; Pf would not vanish on (0, 3, 1, 2)
        assert power_coefficient(omega, idx) == wedge(omega, omega).coefficient(*idx) == zero
    assert power_coefficient(omega, (0, 1)) == omega.coefficient(0, 1)
    assert power_coefficient(omega, ()) == Poly.constant(CHART.dim, 1)


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------

def test_derivative_of_coefficient_one_form():
    x4 = Poly.variable(CHART.dim, 3)
    assert exterior_derivative(Form(CHART, 1, {(0,): x4})) == \
        Form.basis(CHART, 0, 3, coeff=-1)


def test_d_squared_on_scalar():
    f = Poly(CHART.dim, {(2, 0, 1, 0, 0, 0): 1, (0, 0, 0, 0, 1, 0): 5})  # x1^2 x3 + 5t
    ddf = exterior_derivative(exterior_derivative(Form.scalar(CHART, f)))
    assert not ddf and ddf.degree == 2


def test_derivative_of_top_degree_is_zero():
    top = Form.basis(CHART, 0, 1, 2, 3, 4, 5)
    assert not exterior_derivative(top)


def test_d_squared_property():
    rng = random.Random(11)
    for _ in range(120):
        a = random_form(rng, CHART)
        assert not exterior_derivative(exterior_derivative(a))


def test_leibniz_rule():
    rng = random.Random(13)
    for _ in range(120):
        a = random_form(rng, CHART, max_degree=2)
        b = random_form(rng, CHART, max_degree=2)
        lhs = exterior_derivative(wedge(a, b))
        rhs = wedge(exterior_derivative(a), b) + \
            (-1) ** a.degree * wedge(a, exterior_derivative(b))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# interior product
# ---------------------------------------------------------------------------

def test_interior_product_second_slot_sign():
    dt_dtheta = Form.basis(CHART, 4, 5)
    assert interior_product(dt_dtheta, 5) == \
        Form.basis(CHART, 4, coeff=-1)


def test_interior_product_absent_axis():
    out = interior_product(Form.basis(CHART, 0, 1), 5)
    assert not out and out.degree == 1


def test_interior_product_degree_zero():
    out = interior_product(Form.scalar(CHART, 3), 0)
    assert not out


def test_interior_product_antiderivation():
    rng = random.Random(17)
    for _ in range(120):
        a = random_form(rng, CHART, degree=rng.randint(1, 2))
        b = random_form(rng, CHART, degree=rng.randint(1, 2))
        v = rng.randrange(CHART.dim)
        lhs = interior_product(wedge(a, b), v)
        rhs = wedge(interior_product(a, v), b) + \
            (-1) ** a.degree * wedge(a, interior_product(b, v))
        assert lhs == rhs


def test_interior_product_scalar_factor():
    # degree-0 factors contract to nothing: i_v(f b) = f i_v(b)
    rng = random.Random(18)
    for _ in range(50):
        f = random_poly(rng, CHART.dim)
        b = random_form(rng, CHART, degree=rng.randint(1, 3))
        v = rng.randrange(CHART.dim)
        assert interior_product(f * b, v) == f * interior_product(b, v)


def test_interior_product_squares_to_zero():
    rng = random.Random(19)
    for _ in range(120):
        a = random_form(rng, CHART)
        v = rng.randrange(CHART.dim)
        assert not interior_product(interior_product(a, v), v)


# ---------------------------------------------------------------------------
# polynomial evaluation
# ---------------------------------------------------------------------------

def test_evaluate_density_points():
    assert RHO.evaluate((2.5,)) == 0.75
    assert RHO.evaluate((0.5,)) == 4.75
    assert Poly(1).evaluate((1.23,)) == 0.0


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionError):
        RHO.evaluate((1.0, 2.0))


def test_evaluate_matches_exact():
    rng = random.Random(23)
    for _ in range(100):
        p = random_poly(rng, 3, max_degree=3)
        point = [rng.uniform(-2, 2) for _ in range(3)]
        exact = float(p.evaluate_exact(point))
        assert p.evaluate(point) == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_evaluate_is_ring_homomorphism_up_to_rounding():
    rng = random.Random(29)
    eps = 2.0 ** -52
    for _ in range(100):
        p = random_poly(rng, 2, max_degree=2)
        q = random_poly(rng, 2, max_degree=2)
        point = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
        lhs = (p * q).evaluate(point)
        rhs = p.evaluate(point) * q.evaluate(point)
        scale = max(1.0, abs_eval(p, point) * abs_eval(q, point))
        assert abs(lhs - rhs) <= 8 * eps * scale


def test_evaluate_is_correctly_rounded():
    rng = random.Random(1606)
    for _ in range(2000):
        p = random_poly(rng, 3, max_degree=4, max_terms=5)
        point = [rng.uniform(-3, 3) for _ in range(3)]
        assert p.evaluate(point) == float(p.evaluate_exact(point)), (p, point)


def test_evaluate_beyond_the_float_range_is_infinite():
    t = Poly.variable(1, 0)
    assert (t ** 2).evaluate((1e200,)) == math.inf
    assert (-t ** 2).evaluate((1e200,)) == -math.inf


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_evaluate_rejects_a_nonfinite_point(x):
    for evaluate in (RHO.evaluate, RHO.evaluate_exact, Poly(1).evaluate):
        with pytest.raises(ValueError):
            evaluate((x,))


# ---------------------------------------------------------------------------
# face integration
# ---------------------------------------------------------------------------

def _curv_literal() -> Form:
    # -dx1^dx4 - dx3^dx2, written exactly like that
    return Form(CHART, 2, {(0, 3): -1, (2, 1): -1})


def test_face_integral_matching_pair():
    assert integrate_over_face(_curv_literal(), (0, 3)) == Fraction(-1)


def test_face_integral_absent_pair():
    assert integrate_over_face(_curv_literal(), (0, 1)) == Fraction(0)


def test_face_integral_orientation_flip():
    # the dx3^dx2 term normalizes to +dx2^dx3; the (x3,x2) orientation flips it back
    assert integrate_over_face(_curv_literal(), (2, 1)) == Fraction(-1)
    assert integrate_over_face(_curv_literal(), (1, 2)) == Fraction(1)


def test_face_integral_rejects_nonconstant_coefficient():
    t = Poly.variable(CHART.dim, 4)
    form = Form(CHART, 2, {(0, 1): t})
    with pytest.raises(UnsupportedIntegrandError):
        integrate_over_face(form, (0, 1))


def test_face_integral_rejects_nonperiodic_axis():
    form = Form(CHART, 2, {(0, 4): 1})
    with pytest.raises(ValueError):
        integrate_over_face(form, (0, 4))


def test_face_integral_rejects_wrong_degree():
    with pytest.raises(ValueError):
        integrate_over_face(Form.basis(CHART, 0), (0, 1))


# ---------------------------------------------------------------------------
# Poly ring details, serialization
# ---------------------------------------------------------------------------

def test_poly_content_and_primitive():
    six_rho = Poly(1, {(2,): 6, (1,): -30, (0,): 42})
    assert six_rho.content() == Fraction(6)
    assert six_rho.primitive() == RHO
    assert (RHO * Fraction(-3, 2)).content() == Fraction(3, 2)


def test_poly_exact_integration():
    assert RHO.integrate(Fraction(1, 2), Fraction(9, 2)) == Fraction(25, 3)
    assert RHO.integrate(0.5, 4.5) == Fraction(25, 3)


@pytest.mark.parametrize("lo, hi", [(0, math.inf), (-math.inf, 1), (math.nan, 1), (0, math.nan)])
def test_integrate_rejects_a_nonfinite_end(lo, hi):
    with pytest.raises(ValueError):
        RHO.integrate(lo, hi)


@pytest.mark.parametrize("axis", [-1, 6, 10])
def test_axis_queries_reject_an_axis_off_the_chart(axis):
    t, five = Poly.variable(CHART.dim, 4), Poly.constant(CHART.dim, 5)
    face = Form.basis(CHART, 0, 1)
    for query in (t.partial, t.degree_in, t.univariate, five.degree_in, five.univariate,
                  lambda a: Poly.variable(CHART.dim, a), lambda a: interior_product(face, a),
                  lambda a: integrate_over_face(face, (0, a)),
                  lambda a: integrate_over_face(face, (a, 1))):
        with pytest.raises(DimensionError, match=f"^axis {axis} out of range for 6 variables$"):
            query(axis)


def test_poly_univariate_projection():
    t_only = Poly(CHART.dim, {(0, 0, 0, 0, 2, 0): 1, (0, 0, 0, 0, 0, 0): -1})
    assert t_only.univariate(4) == Poly(1, {(2,): 1, (0,): -1})
    mixed = Poly(CHART.dim, {(1, 0, 0, 0, 1, 0): 1})
    with pytest.raises(ValueError):
        mixed.univariate(4)


def test_poly_partial_derivative():
    assert RHO.partial(0) == Poly(1, {(1,): 2, (0,): -5})
    assert Poly.constant(1, 5).partial(0).terms == {}


def test_poly_pow_matches_repeated_product():
    p = Poly(2, {(1, 0): 1, (0, 1): Fraction(1, 2)})
    assert p ** 3 == p * p * p
    assert p ** 0 == Poly.constant(2, 1)


def test_form_json_round_trip():
    rng = random.Random(31)
    for _ in range(25):
        form = random_form(rng, CHART)
        data = form.to_json()
        assert Form.from_json(CHART, data) == form
    doc = Form.basis(CHART, 0, 3, coeff=Fraction(-2, 3)).to_json()
    assert doc == {"degree": 2,
                   "terms": [{"indices": [0, 3],
                              "poly": [{"exps": [0, 0, 0, 0, 0, 0], "num": -2, "den": 3}]}]}


def test_evaluate_exact_is_rational():
    val = RHO.evaluate_exact((Fraction(5, 2),))
    assert val == Fraction(3, 4)
    assert math.isclose(float(val), 0.75)


# ---------------------------------------------------------------------------
# zero coefficients are never stored
# ---------------------------------------------------------------------------

def _assert_no_zero_terms(x):
    if isinstance(x, Form):
        for p in x.terms.values():
            assert p, f"zero coefficient stored in {x!r}"
            _assert_no_zero_terms(p)
    else:
        assert all(isinstance(c, Fraction) and c for c in x.terms.values()), x.terms


def test_operations_store_no_zero_coefficient():
    rng = random.Random(8)
    for _ in range(60):
        # two variables and low degrees make cancelling sums and products common
        p, q = random_poly(rng, 2), random_poly(rng, 2)
        for r in (p + q, p - q, p - p, p + q - q, p * q, p * 0, 0 * p, p * (q - q),
                  -p, p ** 2, p.partial(0), p.partial(1)):
            _assert_no_zero_terms(r)
        a, c = random_form(rng, CHART), random_form(rng, CHART)
        b = random_form(rng, CHART, degree=a.degree)
        f = random_poly(rng, CHART.dim)
        for r in (a + b, a - b, a - a, a + (b - a), a * f, a * 0, a * (f - f), -a,
                  wedge(a, c), wedge(a, a), wedge(c, a), exterior_derivative(a),
                  exterior_derivative(exterior_derivative(a)),
                  *(interior_product(a, i) for i in range(CHART.dim))):
            _assert_no_zero_terms(r)


def test_constructors_sum_a_key_that_cancels_and_returns():
    p = Poly(1, [((1,), 1), ((1,), -1), ((1,), 2)])
    assert p.terms == {(1,): Fraction(2)}
    assert p == 2 * Poly.variable(1, 0)
    assert Poly(1, [((1,), 1), ((1,), -1)]).terms == {}
    assert Poly(2, [((0, 1), 0), ((1, 0), 3), ((0, 1), 0)]).terms == {(1, 0): Fraction(3)}

    assert not Form(CHART, 2, [((0, 1), 1), ((1, 0), 1)])
    back = Form(CHART, 2, [((0, 1), 1), ((1, 0), 1), ((1, 0), -3)])
    assert back == Form.basis(CHART, 0, 1, coeff=3)
    _assert_no_zero_terms(back)
