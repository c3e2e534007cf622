"""Seeded inputs of the workloads.  The same seed gives the same inputs.

dhlab sees only what these functions build: rational constants and windows,
Monte-Carlo seeds, and polytopes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import checks

# Each certify round sweeps this many configurations of each kind, so every
# round does the same mix of work whatever the seed.
KINDS = ("violating", "log-concave", "degenerate")


@dataclass(frozen=True)
class Config:
    """One certify configuration: omega's constants and the cut window.
    Window ends are multiples of 1/8, so the float dhlab receives is exact."""

    c1: Fraction
    c2: Fraction
    lo: Fraction
    hi: Fraction
    kind: str


def kind_of(c1: Fraction, c2: Fraction, lo: Fraction, hi: Fraction) -> str:
    if not checks.nondegenerate(c1, c2, lo, hi):
        return "degenerate"
    return "violating" if checks.violation_set(c1, c2, lo, hi) else "log-concave"


def certify_configs(rng: random.Random, per_kind: int) -> list[Config]:
    """``per_kind`` configurations of each kind, drawn by rejection.

    Constants are rationals with denominators 1 to 4 in [0, 5]; windows have
    ends in (0, 8] on a 1/8 grid.  |c1 - c2| = 2 is rejected: the top power
    then has a double root, which the fixed fault operation of the round
    already covers on every run (a random draw would make the share of
    failed operations depend on the seed).  With these denominators every
    other root pair of the top power or of (log f)'' is at least 0.5 apart,
    far wider than dhlab's 4e-4 scan pitch.
    """
    need = {k: per_kind for k in KINDS}
    out: list[Config] = []
    while any(need.values()):
        c1, c2 = (Fraction(rng.randint(0, 5 * q), q)
                  for q in (rng.randint(1, 4), rng.randint(1, 4)))
        if abs(c1 - c2) == 2:
            continue
        lo = Fraction(rng.randint(1, 40), 8)
        hi = lo + Fraction(rng.randint(4, 24), 8)
        kind = kind_of(c1, c2, lo, hi)
        if need[kind]:
            need[kind] -= 1
            out.append(Config(c1, c2, lo, hi, kind))
    return out


# ---------------------------------------------------------------------------
# toric
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Body:
    """A polytope for the toric set, with what the checks need to know."""

    kind: str           # "polygon", "simplex", "box" or "random"
    dim: int
    halfspaces: tuple
    axis: int
    seed: int           # dhlab's Monte-Carlo seed for this profile
    shape: tuple = ()   # vertices, (origin, size) or (lower, upper)


def _halfspaces_of_polygon(vertices) -> tuple:
    out = []
    for k, p in enumerate(vertices):
        q = vertices[(k + 1) % len(vertices)]
        normal = (q[1] - p[1], p[0] - q[0])  # outward for counter-clockwise order
        out.append((normal, normal[0] * p[0] + normal[1] * p[1]))
    return tuple(out)


def polygon(rng: np.random.Generator, axis: int, seed: int) -> Body:
    """A convex polygon: 5 to 8 points on an ellipse at sorted random angles."""
    n = int(rng.integers(5, 9))
    angles = np.sort(rng.uniform(0.0, 2 * np.pi, size=n))
    centre = rng.uniform(-1.0, 1.0, size=2)
    radii = rng.uniform(0.5, 2.0, size=2)
    vertices = tuple((float(centre[0] + radii[0] * np.cos(a)),
                      float(centre[1] + radii[1] * np.sin(a))) for a in angles)
    return Body("polygon", 2, _halfspaces_of_polygon(vertices), axis, seed, vertices)


def simplex(rng: np.random.Generator, dim: int, axis: int, seed: int) -> Body:
    origin = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=dim))
    size = float(rng.uniform(0.5, 2.0))
    hs = [(tuple(-1.0 if k == i else 0.0 for k in range(dim)), -origin[i])
          for i in range(dim)]
    hs.append(((1.0,) * dim, sum(origin) + size))
    return Body("simplex", dim, tuple(hs), axis, seed, (origin, size))


def box(rng: np.random.Generator, dim: int, axis: int, seed: int) -> Body:
    lower = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=dim))
    upper = tuple(l + float(w) for l, w in zip(lower, rng.uniform(0.5, 2.0, size=dim)))
    hs = []
    for i in range(dim):
        e = tuple(1.0 if k == i else 0.0 for k in range(dim))
        hs.append((e, upper[i]))
        hs.append((tuple(-v for v in e), -lower[i]))
    return Body("box", dim, tuple(hs), axis, seed, (lower, upper))


def random_polytope(rng: np.random.Generator, dim: int, axis: int, seed: int) -> Body:
    """An axis box plus up to 12 - 2 dim oblique cuts, each kept a fixed
    margin from the box centre, so the body is bounded with an interior."""
    centre = rng.uniform(-1.0, 1.0, size=dim)
    half = rng.uniform(0.6, 1.5, size=dim)
    hs = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        hs.append((tuple(e), float(centre[i] + half[i])))
        hs.append((tuple(-e), float(-(centre[i] - half[i]))))
    for _ in range(int(rng.integers(0, 12 - 2 * dim + 1))):
        a = rng.normal(size=dim)
        norm = float(np.linalg.norm(a))
        if norm > 1e-9:
            hs.append((tuple(float(v) for v in a), float(a @ centre + 0.4 * norm)))
    return Body("random", dim, tuple(hs), axis, seed)


# Bodies of one toric round: two exact 2-d profiles, Monte-Carlo profiles
# of simplices and boxes in dimensions 3 and 4, and random polytopes in
# dimensions 2 to 4 (2-d ones take the CLI's default, exact2d).
ROUND_PLAN = (("polygon", 2), ("polygon", 2), ("simplex", 3), ("simplex", 4),
              ("box", 3), ("box", 4), ("random", 2), ("random", 3),
              ("random", 3), ("random", 4))


def toric_bodies(rng: np.random.Generator) -> list[Body]:
    out = []
    for kind, dim in ROUND_PLAN:
        axis = int(rng.integers(0, dim))
        seed = int(rng.integers(1 << 30))
        if kind == "polygon":
            out.append(polygon(rng, axis, seed))
        elif kind == "random":
            out.append(random_polytope(rng, dim, axis, seed))
        else:
            out.append({"simplex": simplex, "box": box}[kind](rng, dim, axis, seed))
    return out
