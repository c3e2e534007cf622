"""Dense polynomials with integer coefficients, for exact real-root counting.

A polynomial is a list of ints, constant first, with no trailing zeros; the
zero polynomial is the empty list.  Only signs matter to the callers, so no
Fraction is ever built: pseudo-division scales by powers of a leading
coefficient, Sturm chain members are made primitive, and each routine says
which multiple of the rational result it returns.
"""

from __future__ import annotations

import math


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
