"""Exact real roots of polynomials with integer coefficients.

A polynomial is a list of ints, constant first, with no trailing zeros; the
zero polynomial is the empty list.  Sturm chains come from integer
pseudo-remainders and roots are bracketed by bisection on integer
numerators, so Fractions appear only as interval and bracket ends.
rational is the one way a number enters exact arithmetic, and nearest_double
the one correctly rounded conversion of an exact value to a float.
"""

from __future__ import annotations

import math
from fractions import Fraction


def primitive(c: list) -> list:
    """c divided by the gcd of its coefficients; the signs are kept."""
    g = math.gcd(*c)
    return [v // g for v in c] if g > 1 else c


def derivative(c: list) -> list:
    """The derivative of c."""
    return [k * v for k, v in enumerate(c)][1:]


def product(a: list, b: list) -> list:
    """The product of a and b."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def pseudo_divmod(n: list, d: list) -> tuple[list, list]:
    """Quotient and remainder of lc**j * n, for some j >= 0, on division by
    whichever of d and -d leads with lc = |d's leading coefficient|, for d
    of at most n's degree.  The remainder is a positive multiple of the
    remainder of n over the rationals; where d divides n, the quotient is a
    multiple of n / d."""
    if d[-1] < 0:
        d = [-v for v in d]
    q, r = [0] * (len(n) - len(d) + 1), list(n)
    while len(r) >= len(d):
        k, top = len(r) - len(d), r[-1]
        q, r = [d[-1] * v for v in q], [d[-1] * v for v in r]
        q[k] += top
        for i, v in enumerate(d):
            r[k + i] -= top * v
        while r and not r[-1]:
            r.pop()
    return q, r


def sturm_chain(p: list) -> list:
    """The Sturm chain of the square-free part q of a nonzero p, q first.

    Each member is a positive multiple of the member that Euclid's algorithm
    over the rationals gives, or each is a negative one, so the sign
    variations are the same everywhere.  The chain of p ends in gcd(p, p');
    where that is a constant, p is its own square-free part.
    """
    if not p:
        raise ValueError("the zero polynomial vanishes everywhere")
    chain = _chain(p)
    if len(chain[-1]) > 1:  # p has a multiple root
        chain = _chain(primitive(pseudo_divmod(p, chain[-1])[0]))
    return chain


def _chain(q: list) -> list:
    """q, q', -rem(q, q'), ... to the last nonzero member."""
    chain = [q, derivative(q)]
    while chain[-1]:
        chain.append(primitive([-c for c in pseudo_divmod(chain[-2], chain[-1])[1]]))
    return chain[:-1]


def scaled_value(c: list, num: int, den: int) -> int:
    """den**deg * c(num/den): an integer of the sign of c(num/den) for den > 0."""
    acc, scale = 0, 1
    for v in reversed(c):
        acc = acc * num + v * scale
        scale *= den
    return acc


def variations(chain: list, num: int, den: int) -> int:
    """Sign changes along the chain at num / den, den > 0, zeros skipped."""
    signs = [v > 0 for v in (scaled_value(s, num, den) for s in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def root_brackets(c: list, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Rational brackets of the distinct real roots of a nonzero c in [lo, hi].

    The square-free part q = c / gcd(c, c') has the roots of c, each simple;
    its Sturm chain counts them in any (a, b], and bisection separates them
    and narrows each until every point strictly inside its bracket rounds
    to one double.  Brackets ascend, each (r, r) for a root r met exactly or
    (a, b) with a < r < b and q(a), q(b) != 0, so a point strictly between
    two consecutive roots lies in [b_i, a_{i+1}].  Every end is N / den with
    den = odd * 2**k, odd the odd part of the common denominator of lo and
    hi: a bisection point or a rounding boundary only raises k.
    """
    chain = sturm_chain(c)
    den = math.lcm(lo.denominator, hi.denominator)
    a, b = int(lo * den), int(hi * den)
    out = [(lo, lo)] if not scaled_value(chain[0], a, den) else []
    # roots in (a, b]: va - vb
    pending = [(a, b, den, variations(chain, a, den), variations(chain, b, den))]
    while pending:
        a, b, den, va, vb = pending.pop()
        if va - vb == 1:
            out.append(_narrow(chain[0], a, b, den))
        elif va - vb > 1:
            vm = variations(chain, a + b, 2 * den)
            pending += [(a + b, 2 * b, 2 * den, vm, vb),
                        (2 * a, a + b, 2 * den, va, vm)]  # left half first
    return out


def positive_on(c: list, lo: Fraction, hi: Fraction) -> bool:
    """Strict positivity of a nonzero c on [lo, hi]: c(lo) > 0 and no root
    in (lo, hi], by the Sturm count alone."""
    chain, a, b = sturm_chain(c), lo.as_integer_ratio(), hi.as_integer_ratio()
    return scaled_value(c, *a) > 0 and variations(chain, *a) == variations(chain, *b)


def _narrow(q: list, a: int, b: int, den: int) -> tuple[Fraction, Fraction]:
    """Bisect the one simple root of q in (a / den, b / den] to a bracket as
    promised by root_brackets; a starts on a root of q only if it is the one
    before.  Once a and b round to adjacent doubles, the next point is the
    rounding boundary between them, which a bisection point may never meet
    (1 + 3*2**-53 in (0, 3)): their midpoint, with +-inf read as +-2**1024.
    """
    qa, qb = scaled_value(q, a, den), scaled_value(q, b, den)
    if not qb:
        a = b
    while a < b:
        x, y = nearest_double(a, den), nearest_double(b, den)
        if qa and x == y:
            break
        if qa and math.nextafter(x, y) == y:
            m = sum(Fraction(v if math.isfinite(v) else 2 ** 1024 if v > 0 else -2 ** 1024)
                    for v in (x, y)) / 2
            m, a, b, den = (m.numerator * den, a * m.denominator, b * m.denominator,
                            den * m.denominator)
            if not a < m < b:
                break
        else:
            m, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        qm = scaled_value(q, m, den)
        if not qm:
            a = b = m
        elif (qm > 0) == (qb > 0):
            b = m
        else:
            a, qa = m, qm
    return Fraction(a, den), Fraction(b, den)


def rational(x) -> Fraction:
    """x, an int, Fraction, numeric string or float of any width (numpy's too)
    as a Fraction of Python ints; a float converts exactly, and NaN or infinity
    raises ValueError.  A numpy integer's numerator becomes an int, so it cannot overflow."""
    try:
        try:
            q = Fraction(x)
        except TypeError:  # numpy floats other than float64 are no Rational
            if not hasattr(x, "as_integer_ratio"):
                raise
            q = Fraction(*x.as_integer_ratio())
    except OverflowError as exc:  # NaN raises ValueError by itself
        raise ValueError(str(exc)) from None
    return q if type(q.numerator) is int else Fraction(int(q.numerator), int(q.denominator))


def nearest_double(x: int | Fraction | float, den: int = 1) -> float:
    """x / den rounded to the nearest double, ties to even, for an int or
    Fraction x and an int den > 0 (int / int true division rounds
    correctly); beyond the float range, +-inf.  A float x with den 1 comes
    back unchanged, NaN and +-inf included."""
    if isinstance(x, float) and den == 1:
        return float(x)
    num, d = x.as_integer_ratio()
    try:
        return num / (d * den)
    except OverflowError:
        return math.inf if num > 0 else -math.inf
