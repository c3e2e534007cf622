"""Exact symbolic exterior calculus on a single coordinate chart.

Coefficients live in the rational numbers (``fractions.Fraction``), so wedge
products, exterior derivatives and interior products are computed without any
rounding; floating point enters only when ``Poly.evaluate`` rounds a
polynomial's exact value at a numeric point once to a float.  Differential
forms are stored in the canonical basis: a k-form is a map from strictly
ascending k-tuples of variable indices to polynomial coefficients, with
permutation signs normalized away at construction time.

All objects here are immutable values after construction and all operations
are pure functions, so they are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class ChartMismatchError(ValueError):
    """Raised when combining forms that live on different charts."""


class DimensionError(ValueError):
    """Raised when a point or exponent vector has the wrong length."""


class UnsupportedIntegrandError(ValueError):
    """Raised when a face integral is requested for a non-constant coefficient."""


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Variable:
    """A chart variable: its name and periodicity flag."""

    name: str
    periodic: bool


@dataclass(frozen=True)
class Chart:
    """An ordered list of variables fixing the coordinate conventions.

    The symbolic operators treat every variable as a formal symbol (in
    particular, d of a periodic coordinate is a perfectly good 1-form on the
    chart); only face integration reads the periodicity flags.
    """

    variables: tuple[Variable, ...]

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in chart: {names}")

    @property
    def dim(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Multivariate polynomial with exact rational coefficients.

    Terms are a map from exponent vectors (one nonnegative integer per chart
    variable) to nonzero ``Fraction`` coefficients, built by :func:`_collect`,
    the one place where zero terms are dropped; the zero polynomial is the
    empty map.  For example, with three variables::

        {(2, 0, 1): Fraction(1), (0, 0, 0): Fraction(-5, 2)}

    is  x0^2 * x2 - 5/2.  Instances are immutable: attribute assignment is
    blocked and no method mutates ``terms`` after construction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping | Iterable | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        pairs = []
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for exps, coeff in items:
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars:
                    raise DimensionError(f"exponent vector {exps} has length != {nvars}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                pairs.append((exps, Fraction(coeff)))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", _collect(pairs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(nvars: int, value: Scalar) -> "Poly":
        return Poly(nvars, {(0,) * nvars: Fraction(value)})

    @staticmethod
    def variable(nvars: int, axis: int) -> "Poly":
        if not 0 <= axis < nvars:
            raise DimensionError(f"axis {axis} out of range for {nvars} variables")
        exps = tuple(1 if i == axis else 0 for i in range(nvars))
        return Poly(nvars, {exps: Fraction(1)})

    # -- ring structure ------------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise DimensionError("polynomials over different variable counts")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.nvars, other)
        return None

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _raw_poly(self.nvars, _collect([*self.terms.items(), *other.terms.items()]))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _raw_poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        pairs = []
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                pairs.append((tuple(a + b for a, b in zip(e1, e2)), c1 * c2))
        return _raw_poly(self.nvars, _collect(pairs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        out = Poly.constant(self.nvars, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                other = Poly.constant(self.nvars, other)
            else:
                return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- calculus and queries --------------------------------------------------

    def partial(self, axis: int) -> "Poly":
        """Exact partial derivative with respect to the given variable."""
        if not 0 <= axis < self.nvars:
            raise DimensionError(f"axis {axis} out of range")
        pairs = []
        for exps, c in self.terms.items():
            e = exps[axis]
            if e:
                pairs.append((exps[:axis] + (e - 1,) + exps[axis + 1:], c * e))
        return _raw_poly(self.nvars, _collect(pairs))

    def degree_in(self, axis: int) -> int:
        return max((e[axis] for e in self.terms), default=0)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()), _ZERO)

    def uses_only(self, axes: Iterable[int]) -> bool:
        allowed = set(axes)
        return all(
            all(e == 0 or i in allowed for i, e in enumerate(exps))
            for exps in self.terms
        )

    def univariate(self, axis: int) -> "Poly":
        """Reinterpret as a one-variable polynomial in the given axis.

        Fails unless every term depends on that axis alone.
        """
        if not self.uses_only([axis]):
            raise ValueError(f"polynomial involves variables other than axis {axis}")
        return Poly(1, {(exps[axis],): c for exps, c in self.terms.items()})

    def content(self) -> Fraction:
        """The positive rational c such that self / c has coprime integer coefficients."""
        if not self.terms:
            return Fraction(1)
        nums = [abs(c.numerator) for c in self.terms.values()]
        dens = [c.denominator for c in self.terms.values()]
        return Fraction(math.gcd(*nums), math.lcm(*dens))

    def primitive(self) -> "Poly":
        """Divide out the content; the sign of the polynomial is preserved."""
        return self * (1 / self.content())

    def evaluate(self, point: Sequence[float]) -> float:
        """The exact value at the point rounded once to the nearest float;
        a value beyond the float range is +-inf."""
        return _round(self.evaluate_exact(point))

    def evaluate_exact(self, point: Sequence) -> Fraction:
        """Evaluate with exact rational arithmetic (floats convert exactly);
        a NaN or infinite coordinate raises ValueError."""
        if len(point) != self.nvars:
            raise DimensionError(f"point of length {len(point)}, expected {self.nvars}")
        try:
            point = [Fraction(x) for x in point]
        except OverflowError as exc:  # Fraction raises ValueError for NaN itself
            raise ValueError(str(exc)) from None
        total = _ZERO
        for exps, c in self.terms.items():
            for x, e in zip(point, exps):
                if e:
                    c *= x ** e
            total += c
        return total

    def integrate(self, lo, hi) -> Fraction:
        """Exact definite integral of a univariate polynomial over [lo, hi]."""
        if self.nvars != 1:
            raise DimensionError("definite integration requires a univariate polynomial")
        lo, hi = Fraction(lo), Fraction(hi)
        total = Fraction(0)
        for (e,), c in self.terms.items():
            total += c * (hi ** (e + 1) - lo ** (e + 1)) / (e + 1)
        return total

    # -- serialization and display ----------------------------------------------

    def to_json(self) -> list[dict]:
        return [
            {"exps": list(exps), "num": c.numerator, "den": c.denominator}
            for exps, c in sorted(self.terms.items())
        ]

    @staticmethod
    def from_json(nvars: int, data: Iterable[Mapping]) -> "Poly":
        return Poly(nvars, {tuple(d["exps"]): Fraction(d["num"], d["den"]) for d in data})

    def __repr__(self):
        return f"Poly({self.nvars}, {poly_str(self)!r})"

    def __str__(self):
        return poly_str(self)


_ZERO = Fraction(0)


def _collect(pairs: Iterable[tuple]) -> dict:
    """Sum (key, coefficient) pairs by key into a term map without zeros.

    A key whose sum cancels leaves the map and re-enters at the end if a
    later pair brings it back; a first value is stored as it is.
    """
    acc: dict = {}
    for k, v in pairs:
        if k in acc:
            v = acc[k] + v
            if not v:
                del acc[k]
                continue
        elif not v:
            continue
        acc[k] = v
    return acc


def _raw_poly(nvars: int, terms: dict) -> Poly:
    """Internal constructor bypassing re-validation of already-clean term maps."""
    p = object.__new__(Poly)
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "terms", terms)
    return p


def poly_str(p: Poly, names: Sequence[str] | None = None) -> str:
    """Human-readable rendering, e.g. ``6*t^2 - 30*t + 42``."""
    if not p.terms:
        return "0"
    if names is None:
        names = [f"x{i}" for i in range(p.nvars)]
    pieces = []
    for exps, c in sorted(p.terms.items(), key=lambda kv: (-sum(kv[0]), kv[0])):
        factors = [
            names[i] if e == 1 else f"{names[i]}^{e}"
            for i, e in enumerate(exps) if e
        ]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        pieces.append(("- " if c < 0 else "+ ") + body)
    out = " ".join(pieces)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


# ---------------------------------------------------------------------------
# Exact real roots of univariate polynomials
# ---------------------------------------------------------------------------

def root_brackets(p: Poly, interval: tuple) -> list[tuple[Fraction, Fraction]]:
    """Rational brackets of the distinct real roots of p in a closed interval.

    The square-free part q = p / gcd(p, p') has the roots of p, each simple;
    its Sturm chain counts them exactly in any (a, b], and bisection on
    rational endpoints separates them and narrows each until every point
    strictly inside its bracket rounds to one double.  Brackets come in
    ascending order, each either (r, r) for a root r met exactly, or (a, b)
    with a < r < b and q(a), q(b) != 0, so a point strictly between two
    consecutive roots lies in [b_i, a_{i+1}].
    """
    lo, hi, q, variations = _sturm(p, interval)
    out = [(lo, lo)] if not _scaled_value(q, lo) else []
    pending = [(lo, hi, variations(lo), variations(hi))]  # roots in (a, b]: va - vb
    while pending:
        a, b, va, vb = pending.pop()
        if va - vb == 1:
            out.append(_narrow(q, a, b))
        elif va - vb > 1:
            m = (a + b) / 2
            vm = variations(m)
            pending += [(m, b, vm, vb), (a, m, va, vm)]  # left half first
    return out


def isolate_roots(p: Poly, interval: tuple[float, float]) -> list[float]:
    """Distinct real roots of a univariate polynomial in a closed interval,
    ascending, each correctly rounded to a double (ties to even; beyond the
    float range, +-inf); see :func:`root_brackets`."""
    return [_round((a + b) / 2) for a, b in root_brackets(p, interval)]


def positive_on(p: Poly, interval: tuple) -> bool:
    """Exact strict positivity on [lo, hi]: p(lo) > 0 and no root in (lo, hi] (Sturm count)."""
    lo, hi, _, variations = _sturm(p, interval)
    return p.evaluate_exact((lo,)) > 0 and variations(lo) == variations(hi)


def _sturm(p: Poly, interval: tuple):
    """Validated lo, hi; the square-free part q of p as integer coefficients;
    v with v(a) - v(b) roots of q in (a, b]."""
    if p.nvars != 1:
        raise DimensionError("root isolation needs a univariate polynomial")
    try:
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
    except (OverflowError, ValueError):  # an infinite or NaN end
        raise ValueError(f"interval {tuple(interval)} has an end that is not finite") from None
    if not lo < hi:
        raise ValueError(f"empty interval ({_round(lo)}, {_round(hi)})")
    if not p:
        raise ValueError("the zero polynomial vanishes everywhere")
    dense = [p.terms.get((e,), _ZERO) for e in range(p.degree_in(0) + 1)]
    g, r = dense, _deriv(dense)
    while r:
        g, r = r, _divmod(g, r)[1]
    q = _divmod(dense, g)[0]
    chain = [q, _deriv(q)]
    while chain[-1]:
        chain.append([-c for c in _divmod(chain[-2], chain[-1])[1]])
    chain.pop()
    for i, s in enumerate(chain):  # a positive integer multiple has the same signs
        k = math.lcm(*(c.denominator for c in s))
        chain[i] = [c.numerator * (k // c.denominator) for c in s]

    def variations(x: Fraction) -> int:
        signs = [v > 0 for v in (_scaled_value(s, x) for s in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return lo, hi, chain[0], variations


def _narrow(q: list, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """Bisect the one simple root of q in (a, b] to a bracket as promised by
    root_brackets, until every point strictly inside it rounds to the same
    double; a starts on a root of q only if it is the one before."""
    qb = _scaled_value(q, b)
    if not qb:
        return b, b
    qa = _scaled_value(q, a)
    while True:
        m = _split_point(a, b) if qa else (a + b) / 2
        if m is None:
            return a, b
        qm = _scaled_value(q, m)
        if not qm:
            return m, m
        if (qm > 0) == (qb > 0):
            b = m
        else:
            a, qa = m, qm


def _split_point(a: Fraction, b: Fraction) -> Fraction | None:
    """None if every point of (a, b) rounds to one double; else the midpoint,
    or, once a and b round to adjacent doubles, the rounding boundary between
    them, which a bisection point may never meet (1 + 3*2**-53 in (0, 3))."""
    x, y = _round(a), _round(b)
    if x == y:
        return None
    if math.nextafter(x, y) != y:
        return (a + b) / 2
    half_gap = Fraction(min(math.ulp(x), math.ulp(y))) / 2  # ulp(inf) is inf
    m = Fraction(x) + half_gap if math.isfinite(x) else Fraction(y) - half_gap
    return m if a < m < b else None


def _round(x: Fraction) -> float:
    """x rounded to the nearest double, ties to even; beyond the float range, +-inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _scaled_value(c: list, x: Fraction) -> int:
    """den**deg * c(num/den) for integer coefficients c, constant first: an
    integer of the sign of c(x)."""
    num, den = x.numerator, x.denominator
    acc, scale = 0, 1
    for v in reversed(c):
        acc = acc * num + v * scale
        scale *= den
    return acc


def _deriv(c: list) -> list:
    return [k * v for k, v in enumerate(c)][1:]


def _divmod(n: list, d: list) -> tuple[list, list]:
    """Quotient and remainder of trimmed coefficient lists, constant first."""
    r = list(n)
    q = [_ZERO] * max(len(n) - len(d) + 1, 0)
    while len(r) >= len(d):
        k = len(r) - len(d)
        c = q[k] = r[-1] / d[-1]
        for i, v in enumerate(d):
            r[k + i] -= c * v
        while r and not r[-1]:
            r.pop()
    return q, r


# ---------------------------------------------------------------------------
# Differential forms
# ---------------------------------------------------------------------------

class Form:
    """A degree-graded differential form on a chart.

    ``terms`` maps strictly ascending index tuples of length ``degree`` to
    nonzero ``Poly`` coefficients; :func:`_collect` builds every such map
    and is the one place where zero terms are dropped.
    Equality is structural equality of the normalized term maps, which is
    exact because the canonical representation is unique.
    """

    __slots__ = ("chart", "degree", "terms")

    def __init__(self, chart: Chart, degree: int,
                 terms: Mapping | Iterable | None = None):
        if degree < 0:
            raise ValueError("form degree must be nonnegative")
        pairs = []
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for idx, coeff in items:
                idx = tuple(int(i) for i in idx)
                if len(idx) != degree:
                    raise ValueError(f"index tuple {idx} has length != degree {degree}")
                if any(i < 0 or i >= chart.dim for i in idx):
                    raise DimensionError(f"index tuple {idx} out of range for chart dim {chart.dim}")
                norm = _normalize_indices(idx)
                if norm is None:
                    continue  # repeated index annihilates
                sign, key = norm
                if not isinstance(coeff, Poly):
                    coeff = Poly.constant(chart.dim, coeff)
                elif coeff.nvars != chart.dim:
                    raise DimensionError("coefficient polynomial has wrong variable count")
                pairs.append((key, coeff if sign > 0 else -coeff))
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", _collect(pairs))

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def scalar(chart: Chart, value) -> "Form":
        """A 0-form from a Poly or a rational constant."""
        coeff = value if isinstance(value, Poly) else Poly.constant(chart.dim, value)
        return Form(chart, 0, {(): coeff})

    @staticmethod
    def basis(chart: Chart, *indices: int, coeff=1) -> "Form":
        """The basis form  coeff * dx_{i1} ^ ... ^ dx_{ik}  (indices in any order)."""
        return Form(chart, len(indices), {tuple(indices): coeff})

    # -- vector space structure ------------------------------------------------

    def _check_chart(self, other: "Form"):
        if self.chart != other.chart:
            raise ChartMismatchError("forms live on different charts")

    def __add__(self, other: "Form") -> "Form":
        self._check_chart(other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return _raw_form(self.chart, self.degree,
                         _collect([*self.terms.items(), *other.terms.items()]))

    def __neg__(self) -> "Form":
        return _raw_form(self.chart, self.degree,
                         {i: -p for i, p in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, scalar) -> "Form":
        """Multiplication by a Poly or rational scalar (degree unchanged)."""
        if isinstance(scalar, Form):
            raise TypeError("use wedge() for products of forms")
        if not isinstance(scalar, Poly):
            scalar = Poly.constant(self.chart.dim, scalar)
        return _raw_form(self.chart, self.degree,
                         _collect((idx, p * scalar) for idx, p in self.terms.items()))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (self.chart == other.chart and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.chart, self.degree, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- exterior algebra ------------------------------------------------------

    def coefficient(self, *indices: int) -> Poly:
        """The Poly coefficient of an ascending index tuple (zero if absent)."""
        return self.terms.get(tuple(indices), Poly(self.chart.dim))

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "terms": [
                {"indices": list(idx), "poly": p.to_json()}
                for idx, p in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(chart: Chart, data: Mapping) -> "Form":
        return Form(chart, data["degree"], {
            tuple(t["indices"]): Poly.from_json(chart.dim, t["poly"])
            for t in data["terms"]
        })

    def __repr__(self):
        if not self.terms:
            return f"Form(degree={self.degree}, 0)"
        names = self.chart.names
        pieces = []
        for idx, p in sorted(self.terms.items()):
            basis = "^".join(f"d{names[i]}" for i in idx) or "1"
            pieces.append(f"({poly_str(p, names)})*{basis}")
        return " + ".join(pieces)


def _raw_form(chart: Chart, degree: int, terms: dict) -> Form:
    f = object.__new__(Form)
    object.__setattr__(f, "chart", chart)
    object.__setattr__(f, "degree", degree)
    object.__setattr__(f, "terms", terms)
    return f


def _normalize_indices(idx: tuple[int, ...]):
    """Sort an index tuple, tracking the permutation sign.

    Returns (sign, ascending tuple), or None if an index repeats.
    """
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):  # insertion sort; tuples are tiny
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return None
    return sign, tuple(lst)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def wedge(a: Form, b: Form) -> Form:
    """Exterior product.  Bilinear, associative, graded-commutative."""
    a._check_chart(b)
    degree = a.degree + b.degree
    pairs = []
    for ia, pa in a.terms.items():
        for ib, pb in b.terms.items():
            merged = _normalize_indices(ia + ib)
            if merged is not None:
                sign, key = merged
                p = pa * pb
                pairs.append((key, p if sign > 0 else -p))
    return _raw_form(a.chart, degree, _collect(pairs))


def exterior_derivative(a: Form) -> Form:
    """Exterior derivative, raising the degree by one.

    Computed term-wise via exact partial differentiation of the coefficient
    polynomials; the derivative of a top-degree form is the zero form.
    """
    pairs = []
    for idx, p in a.terms.items():
        for v in range(a.chart.dim):
            merged = _normalize_indices((v,) + idx)
            if merged is not None:
                sign, key = merged
                dp = p.partial(v)
                pairs.append((key, dp if sign > 0 else -dp))
    return _raw_form(a.chart, a.degree + 1, _collect(pairs))


def interior_product(a: Form, axis: int) -> Form:
    """Contraction with the coordinate vector field of a chart axis,
    lowering the degree by one.

    Sign convention: contracting the j-th index of an ascending tuple
    contributes (-1)^j, j counted from zero.  A 0-form contracts to the
    zero form (not an error).
    """
    if not 0 <= axis < a.chart.dim:
        raise DimensionError(f"axis {axis} out of range for chart dim {a.chart.dim}")
    if a.degree == 0:
        return Form(a.chart, 0)
    pairs = []
    for idx, p in a.terms.items():
        if axis in idx:
            j = idx.index(axis)
            pairs.append((idx[:j] + idx[j + 1:], p if j % 2 == 0 else -p))
    return _raw_form(a.chart, a.degree - 1, _collect(pairs))


def integrate_over_face(a: Form, axes: tuple[int, int]) -> Fraction:
    """Integrate a constant-coefficient 2-form over an oriented coordinate 2-face.

    Both face axes must be periodic variables (the face is a 2-torus of unit
    area in normalized coordinates), so the integral is the matching
    coefficient with the orientation sign of the requested axis order.
    """
    i, j = axes
    if i == j:
        raise ValueError("a face needs two distinct axes")
    if a.degree != 2:
        raise ValueError(f"face integration expects a 2-form, got degree {a.degree}")
    for ax in (i, j):
        if not 0 <= ax < a.chart.dim:
            raise DimensionError(f"axis {ax} out of range")
        if not a.chart.variables[ax].periodic:
            raise ValueError(f"axis {a.chart.names[ax]} is not periodic; not a closed face")
    key = (min(i, j), max(i, j))
    sign = 1 if i < j else -1
    coeff = a.coefficient(*key)
    if not coeff.is_constant():
        raise UnsupportedIntegrandError(
            f"coefficient of face {a.chart.names[i]}^{a.chart.names[j]} is not constant: {coeff}")
    return sign * coeff.constant_value()
