"""The errors the library raises for malformed arguments, type and message."""

import re
from dataclasses import replace

import numpy as np
import pytest

from dhlab import (
    Chart,
    CutWindow,
    DegenerateWindowError,
    DensityEstimate,
    DimensionError,
    EmptyMeasureError,
    Form,
    GaugeError,
    HPolytope,
    Histogram,
    Poly,
    SamplerConfig,
    Variable,
    analytic_dh_density,
    build_connection,
    canonical_chart,
    compare,
    concavity_discriminant,
    integrate_over_face,
    isolate_roots,
    normalize,
    projection_range,
    slice_profile,
    standard_construction,
    verify_construction,
)

WINDOW = CutWindow(0.5, 4.5)
CHART = canonical_chart()
SQUARE = HPolytope(2, (
    ((1.0, 0.0), 1.0), ((-1.0, 0.0), 0.0),
    ((0.0, 1.0), 1.0), ((0.0, -1.0), 0.0),
))
BIVARIATE = Poly(2, {(1, 1): 1})
X1 = Poly.variable(6, 0)
FACE = Form.basis(CHART, 0, 1)
# t - 2 on [1, 4]: mass 3/2 > 0, but negative on the first of three bins
BELOW_ZERO = Poly(1, {(1,): 1, (0,): -2})
THREE_BINS = DensityEstimate(np.array([1.5, 2.5, 3.5]), np.ones(3) / 3, np.zeros(3))


def _unclosed_report():
    _, _, omega = standard_construction(WINDOW)
    return replace(verify_construction(omega, WINDOW), closed=False)


def _set(obj, name, value):
    setattr(obj, name, value)


# name -> (call, exception type, the whole message)
CASES = {
    "slice_profile bins": (lambda: slice_profile(SQUARE, 0, 0), ValueError,
                           "bins must be positive"),
    "projection_range axis": (lambda: projection_range(SQUARE, 2), ValueError,
                              "axis 2 out of range for dim 2"),
    # an integer field of toric takes a numpy integer but no float or bool:
    # seed=1.5 ran seed 1's stream, and axis=True read axis 1
    "slice_profile seed 1.5": (lambda: slice_profile(SQUARE, 0, 4, seed=1.5), ValueError,
                               "seed must be an integer, got 1.5"),
    "slice_profile axis 0.5": (lambda: slice_profile(SQUARE, 0.5, 4), ValueError,
                               "axis must be an integer, got 0.5"),
    "slice_profile axis True": (lambda: slice_profile(SQUARE, True, 4), ValueError,
                                "axis must be an integer, got True"),
    "slice_profile bins 2.5": (lambda: slice_profile(SQUARE, 0, 2.5), ValueError,
                               "bins must be an integer, got 2.5"),
    "slice_profile mc_n 1000.5": (lambda: slice_profile(SQUARE, 0, 4, "mc", mc_n=1000.5),
                                  ValueError, "mc_n must be an integer, got 1000.5"),
    "projection_range axis 0.5": (lambda: projection_range(SQUARE, 0.5), ValueError,
                                  "axis must be an integer, got 0.5"),
    "projection_range axis True": (lambda: projection_range(SQUARE, True), ValueError,
                                   "axis must be an integer, got True"),
    "HPolytope dim 2.0": (lambda: HPolytope(2.0, SQUARE.halfspaces), ValueError,
                          "dim must be an integer, got 2.0"),
    "HPolytope dim True": (lambda: HPolytope(True, (((1.0,), 1.0), ((-1.0,), 0.0))),
                           ValueError, "dim must be an integer, got True"),
    "density of an unclosed form": (
        lambda: analytic_dh_density(_unclosed_report(), WINDOW), DegenerateWindowError,
        "form is not closed; no invariant density exists"),
    "connection of a 2-form": (lambda: build_connection(FACE), GaugeError,
                               "gauge potential must be a 1-form, got degree 2"),
    "integrate bivariate": (lambda: BIVARIATE.integrate(0, 1), DimensionError,
                            "definite integration requires a univariate polynomial"),
    "discriminant bivariate": (lambda: concavity_discriminant(BIVARIATE), DimensionError,
                               "concavity discriminant needs a univariate polynomial"),
    "isolate bivariate": (lambda: isolate_roots(BIVARIATE, (0.0, 1.0)), DimensionError,
                          "root isolation needs a univariate polynomial"),
    "forms of two degrees": (lambda: FACE + Form.basis(CHART, 0), ValueError,
                             "cannot add forms of different degree"),
    "form times form": (lambda: FACE * FACE, TypeError, "use wedge() for products of forms"),
    "face of one axis": (lambda: integrate_over_face(FACE, (0, 0)), ValueError,
                         "a face needs two distinct axes"),
    "chunk size 0": (lambda: SamplerConfig(1_000, 10, WINDOW, seed=1, chunk_size=0),
                     ValueError, "chunk_size must be positive"),
    "compare a density negative on a bin": (
        lambda: compare(THREE_BINS, BELOW_ZERO, CutWindow(1, 4)), ValueError,
        "analytic density must be strictly positive on the window"),
    "no samples": (lambda: normalize(Histogram(np.linspace(0.5, 4.5, 3), np.ones(2),
                                               np.ones(2), 0)),
                   EmptyMeasureError, "histogram has no samples"),
    "duplicate chart names": (
        lambda: Chart((Variable("x", True), Variable("x", False))), ValueError,
        "duplicate variable names in chart: ['x', 'x']"),
    "negative nvars": (lambda: Poly(-1), ValueError, "nvars must be nonnegative"),
    "negative exponent": (lambda: Poly(2, {(1, -1): 1}), ValueError,
                          "negative exponent in (1, -1)"),
    "negative power": (lambda: X1 ** -1, ValueError, "negative powers are not polynomials"),
    "negative form degree": (lambda: Form(CHART, -1), ValueError,
                             "form degree must be nonnegative"),
    "coefficient nvars": (lambda: Form(CHART, 1, {(0,): Poly.variable(2, 0)}), DimensionError,
                          "coefficient polynomial has wrong variable count"),
    "constant_value of x1": (lambda: X1.constant_value(), ValueError,
                             "polynomial is not constant"),
    "index tuple length": (lambda: Form(CHART, 2, {(0,): 1}), ValueError,
                           "index tuple (0,) has length != degree 2"),
    "index off the chart": (lambda: Form(CHART, 1, {(6,): 1}), DimensionError,
                            "index tuple (6,) out of range for chart dim 6"),
    "exponent vector length": (lambda: Poly(2, {(1,): 1}), DimensionError,
                               "exponent vector (1,) has length != 2"),
    "sum over two nvars": (lambda: X1 + Poly.variable(2, 0), DimensionError,
                           "polynomials over different variable counts"),
    "assign on a Poly": (lambda: _set(X1, "nvars", 3), AttributeError, "Poly is immutable"),
    "assign on a Form": (lambda: _set(FACE, "degree", 1), AttributeError, "Form is immutable"),
}


@pytest.mark.parametrize("call, exc, message", CASES.values(), ids=CASES.keys())
def test_a_malformed_argument_raises_its_error(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()
