"""The explicit chart: connection, symplectic form, moment map, cut window.

The geometry is the total space of a Hermitian line bundle over the 4-torus
(minus its zero section), carrying a fibrewise circle action.  On the chart
the coordinates are the four periodic base coordinates x1..x4, the moment
map value t (the fibre norm squared) and the fibre angle theta, all periods
normalized to 1.  The symplectic form is

    omega = dx1^dx2 + dx3^dx4 + (c1 - t) dx1^dx4 + (c2 - t) dx2^dx3
            + dt ^ Theta,

with Theta = dtheta + a for a gauge potential a whose curvature da equals
-dx1^dx4 - dx2^dx3.  These signs are forced: with the curvature pinned by
the two affine coefficients (closedness), the top power of omega is
6 (1 + (c1-t)(c2-t)) times the volume form, which for (c1, c2) = (2, 3)
is positive for every t; flipping the dx2^dx3 terms to dx3^dx2 would keep
omega closed but turn the top power into 6 (1 - (c1-t)(c2-t)), which
degenerates.  Everything here is verified symbolically, machine exact:
closedness, the moment-map contraction identity, the top-power coefficient
and the curvature integrals over the coordinate 2-faces.

The circle action's pushforward density (its Duistermaat-Heckman density)
is read off the top power: it is the t-polynomial coefficient of the
oriented volume tuple, reported up to a positive constant.  Restricting the
bundle to a moment-map window [A, B] (symplectic cutting at the ends)
leaves that density unchanged on the window, which is why the window enters
only as a validity domain and never changes the polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exterior import (
    Chart,
    Form,
    Poly,
    UnsupportedIntegrandError,
    Variable,
    exterior_derivative,
    integrate_over_face,
    interior_product,
    poly_str,
    positive_on,
    wedge,
)
from .logconcavity import DomainError

# Canonical chart layout: four periodic base coordinates, then the moment
# map value t, then the fibre angle.
X_AXES = (0, 1, 2, 3)
T_AXIS = 4
THETA_AXIS = 5
DIM = 6
TOP_TUPLE = (0, 1, 2, 3, 4, 5)  # positive orientation dx1^dx2^dx3^dx4^dt^dtheta

# Coordinate 2-faces of the base torus in ascending orientation; the
# curvature integrates to -1 on (x1,x4) and (x2,x3) and to 0 elsewhere.
CHERN_FACES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class GaugeError(ValueError):
    """Raised for a gauge potential with the wrong shape or curvature."""

    def __init__(self, message: str, residual: Form | None = None):
        super().__init__(message)
        self.residual = residual


class DegenerateWindowError(DomainError):
    """Raised when a density is requested on a window where the form degenerates."""


@dataclass(frozen=True)
class CutWindow:
    """A moment-map window [lo, hi] with finite ends 0 < lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not 0 < self.lo < self.hi < math.inf:
            raise ValueError(f"cut window needs finite 0 < A < B, got ({self.lo}, {self.hi})")


@dataclass(frozen=True)
class OmegaParams:
    """The two affine constants in the symplectic form's base coefficients."""

    c1: Fraction = Fraction(2)
    c2: Fraction = Fraction(3)

    def __post_init__(self):
        object.__setattr__(self, "c1", Fraction(self.c1))
        object.__setattr__(self, "c2", Fraction(self.c2))


def canonical_chart(window: CutWindow) -> Chart:
    """The chart (x1, x2, x3, x4, t, theta); x's and theta periodic on [0,1)."""
    return Chart((
        Variable("x1", True, 0.0, 1.0),
        Variable("x2", True, 0.0, 1.0),
        Variable("x3", True, 0.0, 1.0),
        Variable("x4", True, 0.0, 1.0),
        Variable("t", False, window.lo, window.hi),
        Variable("theta", True, 0.0, 1.0),
    ))


def curvature_form(chart: Chart) -> Form:
    """The fixed curvature -dx1^dx4 - dx2^dx3 of the line bundle."""
    return Form(chart, 2, {(0, 3): -1, (1, 2): -1})


def canonical_gauge(chart: Chart) -> Form:
    """The gauge a = x4 dx1 - x2 dx3, one valid potential for the curvature."""
    return Form(chart, 1, {
        (0,): Poly.variable(chart.dim, 3),
        (2,): -Poly.variable(chart.dim, 1),
    })


def shifted_gauge(a: Form, coeffs) -> Form:
    """Shift a gauge potential by the closed 1-form sum_i coeffs[i] dx_i."""
    return a + Form(a.chart, 1, {(i,): Fraction(c) for i, c in zip(X_AXES, coeffs)})


def build_connection(a: Form) -> Form:
    """Theta = dtheta + a for a gauge potential a, after checking it.

    The potential must be a 1-form in dx1..dx4 whose coefficients depend on
    x1..x4 only, with da = -dx1^dx4 - dx2^dx3.  Anything else raises
    GaugeError; a wrong curvature names the residual 2-form.
    """
    chart = a.chart
    if a.degree != 1:
        raise GaugeError(f"gauge potential must be a 1-form, got degree {a.degree}")
    for idx, p in a.terms.items():
        if idx[0] not in X_AXES or not p.uses_only(X_AXES):
            raise GaugeError("gauge potential must live in the base coordinates x1..x4")
    residual = exterior_derivative(a) - curvature_form(chart)
    if residual:
        raise GaugeError(f"gauge potential has the wrong curvature; residual d(a) - F = {residual!r}",
                         residual)
    return Form.basis(chart, THETA_AXIS) + a


def build_omega(theta: Form, params: OmegaParams) -> Form:
    """The 2-form dx1^dx2 + dx3^dx4 + (c1-t) dx1^dx4 + (c2-t) dx2^dx3 + dt^Theta."""
    chart = theta.chart
    t = Poly.variable(chart.dim, T_AXIS)
    dt = Form.basis(chart, T_AXIS)
    return (Form.basis(chart, 0, 1) + Form.basis(chart, 2, 3)
            + (params.c1 - t) * Form.basis(chart, 0, 3)
            + (params.c2 - t) * Form.basis(chart, 1, 2)
            + wedge(dt, theta))


def standard_construction(window: CutWindow,
                          params: OmegaParams = OmegaParams()) -> tuple[Chart, Form, Form]:
    """Chart, connection and symplectic form in the canonical gauge."""
    chart = canonical_chart(window)
    theta = build_connection(canonical_gauge(chart))
    return chart, theta, build_omega(theta, params)


@dataclass(frozen=True)
class VerificationReport:
    """Exact symbolic verification battery for a candidate symplectic form.

    ``top_power_poly`` is the coefficient of the oriented top tuple in
    omega^3 (it keeps the combinatorial factor 6 = 3!; densities derived
    from it are reported up to positive constants, so the factor is
    observationally irrelevant).  ``nondegenerate_on_window`` certifies
    that this coefficient is strictly positive on the window, exactly: it
    is positive at the lower end and a Sturm count over the rationals finds
    no root in the closed window.
    """

    closed: bool
    moment_identity: bool
    top_power_poly: Poly
    nondegenerate_on_window: bool
    chern_numbers: dict[str, Fraction]
    window: CutWindow
    params: OmegaParams

    @property
    def all_passed(self) -> bool:
        return self.closed and self.moment_identity and self.nondegenerate_on_window

    def failed_identities(self) -> list[str]:
        out = []
        if not self.closed:
            out.append("closedness (d omega = 0)")
        if not self.moment_identity:
            out.append("moment-map identity (i_dtheta omega = -dt)")
        if not self.nondegenerate_on_window:
            out.append(f"nondegeneracy on [{self.window.lo}, {self.window.hi}]")
        return out

    def to_json_dict(self) -> dict:
        return {
            "closed": self.closed,
            "moment_identity": self.moment_identity,
            "nondegenerate_on_window": self.nondegenerate_on_window,
            "all_passed": self.all_passed,
            "window": [self.window.lo, self.window.hi],
            "params": [
                {"num": self.params.c1.numerator, "den": self.params.c1.denominator},
                {"num": self.params.c2.numerator, "den": self.params.c2.denominator},
            ],
            "top_power_poly": self.top_power_poly.to_json(),
            "top_power_str": _pretty_top(self.top_power_poly),
            "chern_numbers": {
                face: {"num": c.numerator, "den": c.denominator}
                for face, c in self.chern_numbers.items()
            },
        }

    def text_table(self) -> str:
        rows = [
            ("closed (d omega = 0)", "PASS" if self.closed else "FAIL"),
            ("moment identity (i_dtheta omega = -dt)", "PASS" if self.moment_identity else "FAIL"),
            (f"nondegenerate on [{self.window.lo}, {self.window.hi}]",
             "PASS" if self.nondegenerate_on_window else "FAIL"),
            ("top power coefficient", _pretty_top(self.top_power_poly)),
        ]
        rows += [(f"chern number {face}", str(c)) for face, c in self.chern_numbers.items()]
        width = max(len(r[0]) for r in rows) + 2
        return "\n".join(f"{name:<{width}}{value}" for name, value in rows)


def verify_construction(omega: Form, window: CutWindow,
                        params: OmegaParams = OmegaParams()) -> VerificationReport:
    """Run the symbolic verification battery on a candidate 2-form.

    Failures are recorded in the report flags, never raised: closedness and
    the moment-map contraction are exact Form identities, nondegeneracy is a
    positivity certificate for the top-power coefficient on the window, and
    the curvature numbers integrate d(Theta) over the coordinate 2-faces,
    with Theta recovered from omega by contraction with the t-direction.
    """
    chart = omega.chart
    closed = exterior_derivative(omega).is_zero()
    minus_dt = Form.basis(chart, T_AXIS, coeff=-1)
    moment = interior_product(omega, THETA_AXIS) == minus_dt
    top = wedge(wedge(omega, omega), omega).coefficient(*TOP_TUPLE)
    nondeg = (bool(top) and top.uses_only([T_AXIS])
              and positive_on(top.univariate(T_AXIS), (window.lo, window.hi)))

    theta = interior_product(omega, T_AXIS)
    curvature = exterior_derivative(theta)
    names = chart.names
    chern = {}
    for i, j in CHERN_FACES:
        try:
            chern[f"{names[i]}^{names[j]}"] = integrate_over_face(curvature, (i, j))
        except UnsupportedIntegrandError:
            pass  # non-constant face coefficient: face omitted, never raised
    return VerificationReport(closed, moment, top, nondeg, chern, window, params)


def analytic_dh_density(report: VerificationReport, window: CutWindow) -> Poly:
    """The pushforward density as a univariate polynomial in t, up to a
    positive constant (the top-power coefficient divided by its content).

    The polynomial does not depend on the window: any window on which the
    form stays nondegenerate sees the restriction of the same density.
    """
    if not report.closed:
        raise DegenerateWindowError("form is not closed; no invariant density exists")
    if not report.nondegenerate_on_window:
        raise DegenerateWindowError(
            f"top power is not positive on [{report.window.lo}, {report.window.hi}]; "
            "Liouville measure degenerates there")
    top = report.top_power_poly.univariate(T_AXIS)
    if window != report.window and not positive_on(top, (window.lo, window.hi)):
        raise DegenerateWindowError(
            f"top power is not positive on the requested window [{window.lo}, {window.hi}]")
    return top.primitive()


def _pretty_top(top: Poly) -> str:
    try:
        return poly_str(top.univariate(T_AXIS), ["t"])
    except ValueError:
        return poly_str(top, ("x1", "x2", "x3", "x4", "t", "theta"))
