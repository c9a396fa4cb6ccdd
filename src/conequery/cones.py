"""Exact algebra of circular sectors (cones) on the unit circle.

A cone C(lower, upper) is the closed arc {exp(i*t) : lower <= t <= upper}
of unit complex numbers.  The module provides total classification of raw
angle pairs, canonical finite unions of cones (multicones), the Boolean
operations on them, and aperture-scaling rotations acting on both.

Every angle comparison in this module shares the absolute tolerance
ANGLE_TOL; two multicones denote the same region iff their canonical forms
agree boundary-by-boundary within that tolerance.

PI, TWO_PI, wrap_angle and turn_distance are defined here for the whole
package; the last two take floats and numpy arrays alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

PI = math.pi
TWO_PI = 2.0 * math.pi

# Absolute tolerance for all angle comparisons.
ANGLE_TOL = 1e-9

# Classification labels; classify() returns exactly one of these.
EMPTY = "empty"
SINGLETON = "singleton"
FULL = "full"
PROPER = "proper"


def wrap_angle(t):
    """Reduce an angle (a float or an array) to the half-open interval [-pi, pi)."""
    s = t + PI
    if (isinstance(s, np.ndarray) and s.dtype.kind == "f" and s.size
            and s.min() >= -TWO_PI and s.max() < 2.0 * TWO_PI):
        # Here one masked turn equals s % TWO_PI bit for bit: fmod is exact,
        # and so is s - TWO_PI on [TWO_PI, 2 * TWO_PI) (Sterbenz's lemma).
        # NaN and inf fail the range test and take `%` below.
        below, above = s < 0.0, s >= TWO_PI
        np.add(s, TWO_PI, out=s, where=below)
        np.subtract(s, TWO_PI, out=s, where=above)
        np.subtract(s, PI, out=s)
        np.subtract(s, TWO_PI, out=s, where=s >= PI)
        return s
    w = s % TWO_PI - PI
    # Float modulo can land exactly on the upper seam for tiny negatives.
    if isinstance(w, float):
        return w - TWO_PI if w >= PI else w
    return np.where(w >= PI, w - TWO_PI, w)


def turn_distance(x):
    """Distance from an angle (a float or an array) to the nearest multiple of 2*pi."""
    d = np.abs(x - np.round(np.divide(x, TWO_PI)) * TWO_PI)
    return float(d) if d.ndim == 0 else d


@dataclass(frozen=True)
class Cone:
    """Closed arc from angle `lower` to angle `upper` (raw, unwrapped)."""

    lower: float
    upper: float

    def aperture(self) -> float:
        return max(self.upper - self.lower, 0.0)

    def axis(self) -> float:
        return 0.5 * (self.lower + self.upper)


def cone_from_axis(axis: float, aperture: float) -> Cone:
    """Cone centred on `axis` with the given angular width."""
    half = 0.5 * aperture
    return Cone(axis - half, axis + half)


def full_cone() -> Cone:
    return Cone(-PI, PI)


def classify(c: Cone) -> str:
    """Total, exclusive classification of a raw angle pair.

    empty      lower exceeds upper
    full       the arc wraps at least once around the circle
    singleton  zero width
    proper     anything else (width strictly between 0 and one turn)
    """
    width = c.upper - c.lower
    if width < -ANGLE_TOL:
        return EMPTY
    if width >= TWO_PI - ANGLE_TOL:
        return FULL
    if width <= ANGLE_TOL:
        return SINGLETON
    return PROPER


def cone_contains(c: Cone, t: float) -> bool:
    """Membership of the direction exp(i*t) in the arc (mod one turn)."""
    kind = classify(c)
    if kind == EMPTY:
        return False
    if kind == FULL:
        return True
    offset = (t - c.lower) % TWO_PI
    return offset <= c.aperture() + ANGLE_TOL or TWO_PI - offset <= ANGLE_TOL


@dataclass(frozen=True)
class Multicone:
    """Canonical finite union of cones.

    Canonical form: no empty members, each lower boundary in [-pi, pi),
    members sorted by lower boundary, and no two members overlap or touch
    on the circle (touching arcs are merged).  The full circle is the
    single member C(-pi, pi); the empty region has no members.  Canonical
    forms are unique for a given point set, so mc_equal decides region
    equality.
    """

    cones: tuple[Cone, ...]

    def __iter__(self) -> Iterator[Cone]:
        return iter(self.cones)

    def __len__(self) -> int:
        return len(self.cones)

    def is_empty(self) -> bool:
        return not self.cones

    def is_full(self) -> bool:
        return len(self.cones) == 1 and classify(self.cones[0]) == FULL


EMPTY_MC = Multicone(())
FULL_MC = Multicone((Cone(-PI, PI),))


def canonicalize(cones: Iterable[Cone]) -> Multicone:
    """Reduce an arbitrary collection of cones to canonical form."""
    arcs: list[list[float]] = []
    for c in cones:
        kind = classify(c)
        if kind == EMPTY:
            continue
        if kind == FULL:
            return FULL_MC
        start = wrap_angle(c.lower)
        arcs.append([start, start + c.aperture()])
    if not arcs:
        return EMPTY_MC

    arcs.sort()
    merged = [arcs[0]]
    for start, end in arcs[1:]:
        if start <= merged[-1][1] + ANGLE_TOL:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    # Arcs may spill past +pi and reconnect with the earliest ones.
    while len(merged) >= 2 and merged[-1][1] - TWO_PI >= merged[0][0] - ANGLE_TOL:
        first = merged.pop(0)
        merged[-1][1] = max(merged[-1][1], first[1] + TWO_PI)
    if merged[-1][1] - merged[-1][0] >= TWO_PI - ANGLE_TOL:
        return FULL_MC
    return Multicone(tuple(Cone(s, e) for s, e in merged))


def mc_contains(m: Multicone, t: float) -> bool:
    return any(cone_contains(c, t) for c in m.cones)


def mc_equal(a: Multicone, b: Multicone, tol: float = ANGLE_TOL) -> bool:
    """Boundary-by-boundary agreement of two canonical forms."""
    if len(a.cones) != len(b.cones):
        return False
    for ca, cb in zip(a.cones, b.cones):
        if abs(ca.lower - cb.lower) > tol or abs(ca.upper - cb.upper) > tol:
            return False
    return True


def mc_union(a: Multicone, b: Multicone) -> Multicone:
    return canonicalize(a.cones + b.cones)


def _arc_pair_intersections(a: Cone, b: Cone) -> list[Cone]:
    """Intersections of two canonical arcs, lifting b by whole turns."""
    out = []
    for k in (-1, 0, 1):
        lo = max(a.lower, b.lower + k * TWO_PI)
        hi = min(a.upper, b.upper + k * TWO_PI)
        if hi - lo >= -ANGLE_TOL:
            out.append(Cone(lo, hi))
    return out


def mc_intersect(a: Multicone, b: Multicone) -> Multicone:
    if a.is_empty() or b.is_empty():
        return EMPTY_MC
    if a.is_full():
        return canonicalize(b.cones)
    if b.is_full():
        return canonicalize(a.cones)
    pieces: list[Cone] = []
    for ca in a.cones:
        for cb in b.cones:
            pieces.extend(_arc_pair_intersections(ca, cb))
    return canonicalize(pieces)


def mc_complement(m: Multicone) -> Multicone:
    """Closure of the complementary region (boundaries stay shared).

    Because the result is a closed set, isolated singleton members leave no
    hole: complement is an involution exactly on multicones whose members
    all have positive aperture.
    """
    if m.is_empty():
        return FULL_MC
    if m.is_full():
        return EMPTY_MC
    gaps = []
    n = len(m.cones)
    for i, c in enumerate(m.cones):
        nxt = m.cones[(i + 1) % n]
        nxt_lower = nxt.lower + (TWO_PI if i == n - 1 else 0.0)
        gaps.append(Cone(c.upper, nxt_lower))
    return canonicalize(gaps)


def mc_subset(a: Multicone, b: Multicone, tol: float = ANGLE_TOL) -> bool:
    """Region containment: a is inside b iff intersecting with b leaves a unchanged."""
    return mc_equal(mc_intersect(a, b), a, tol)


def cone_subset(a: Cone, b: Cone, tol: float = ANGLE_TOL) -> bool:
    return mc_subset(canonicalize([a]), canonicalize([b]), tol)


# ---------------------------------------------------------------------------
# Rotations: shift the axis, rescale and shift the aperture.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rotation:
    """Cone map: axis += theta; aperture -> clamp(gamma*aperture + delta, 0, 2pi).

    gamma must be non-negative.  Empty and full cones are fixed points.
    """

    theta: float
    gamma: float = 1.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.gamma < 0.0:
            raise ValueError(f"aperture scale must be non-negative, got {self.gamma}")


def rotate(r: Rotation, c: Cone) -> Cone:
    kind = classify(c)
    if kind in (EMPTY, FULL):
        return c
    axis = wrap_angle(c.axis() + r.theta)
    aperture = min(max(r.gamma * c.aperture() + r.delta, 0.0), TWO_PI)
    return cone_from_axis(axis, aperture)


def mc_rotate(r: Rotation, m: Multicone) -> Multicone:
    if m.is_empty() or m.is_full():
        return m
    return canonicalize([rotate(r, c) for c in m.cones])


def compose(r1: Rotation, r2: Rotation) -> Rotation:
    """Rotation acting as r1 first, then r2.

    rotate(compose(r1, r2), c) == rotate(r2, rotate(r1, c)) whenever the
    intermediate aperture avoids the [0, 2pi] clamp.
    """
    return Rotation(
        r1.theta + r2.theta,
        r1.gamma * r2.gamma,
        r2.gamma * r1.delta + r2.delta,
    )


def inverse(r: Rotation) -> Rotation:
    """Reversing rotation (-theta, 1/gamma, -delta).

    This undoes r only for the two pure families (gamma == 1 or delta == 0);
    mixing scale and shift leaves a residual aperture offset delta*(1-gamma)/gamma.
    """
    if r.gamma == 0.0:
        raise ValueError("aperture scale 0 has no inverse")
    return Rotation(-r.theta, 1.0 / r.gamma, -r.delta)


def format_multicone(m: Multicone) -> str:
    """Debug form `MC[(lower,upper);...]` with nine decimal places."""
    body = ";".join(f"({c.lower:.9f},{c.upper:.9f})" for c in m.cones)
    return f"MC[{body}]"


def parse_cone_spec(spec: str) -> list[Cone]:
    """Parse `lower:upper;lower:upper;...` into raw cones (CLI debug input)."""
    cones = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        lo, _, hi = part.partition(":")
        cones.append(Cone(float(lo), float(hi)))
    return cones
