"""Predicates on rotation parameters behind ontology axiom forms.

Each window predicate reports a signed margin (radians, or the tighter of a
radian and a scale slack) such that `holds == (margin >= -tol)`.  The
predicates are sound: whenever one holds, the corresponding
subset/fixed-point relation verified by the cone algebra holds on every
unsaturated cone.

The `*_margin` functions are the per-dimension margins of the
width-preserving forms.  They take floats or arrays of any broadcastable
shape, and both the scalar predicates below and the vectorised axiom
extraction in `conequery.axioms` call them, so each formula lives here
alone.  Angles enter through `turn_distance`, so every margin acts on
angles modulo full turns.

The exact_* checks are per-coordinate angle congruences on boundary-rotor
vectors, with a default tolerance of 1e-6 rad.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from conequery.cones import ANGLE_TOL, Rotation, turn_distance

# Closed enumeration of the supported axiom forms.
CONTAINMENT = "containment"
COMPOSITION = "composition"
TRANSITIVITY = "transitivity"
INVERSE = "inverse"
SYMMETRY = "symmetry"
ASYMMETRY = "asymmetry"

#: How many relation ids an axiom or pattern of each kind names.
ARITY = {CONTAINMENT: 2, COMPOSITION: 3, TRANSITIVITY: 1, INVERSE: 2, SYMMETRY: 1,
         ASYMMETRY: 1}

PATTERN_KINDS = tuple(ARITY)

EXACT_TOL = 1e-6


@dataclass(frozen=True)
class ConditionReport:
    kind: str
    holds: bool
    margin: float


def _report(kind: str, margin: float, tol: float) -> ConditionReport:
    return ConditionReport(kind, margin >= -tol, margin)


# ---------------------------------------------------------------------------
# Per-dimension margins of the width-preserving rotations R(theta, 1, delta).
# ---------------------------------------------------------------------------


def symmetry_margin(theta, delta, gamma=1.0):
    """Slack of the symmetry window: some full turn lies within
    (gamma+1)*delta/2 of 2*theta."""
    return 0.5 * (gamma + 1.0) * delta - turn_distance(2.0 * theta)


def containment_margin(theta_r, delta_r, theta_s, delta_s):
    """r's images inside s's: the relative axis shift theta_s - theta_r sits
    within half the extra widening, (delta_s - delta_r)/2."""
    return 0.5 * (delta_s - delta_r) - turn_distance(theta_s - theta_r)


def composition_margin(theta1, delta1, theta2, delta2, theta3, delta3):
    """r1-then-r2's images inside r3's: the chained axis shift sits within
    half the spare widening, (delta3 - delta1 - delta2)/2."""
    return 0.5 * (delta3 - delta1 - delta2) - turn_distance(theta3 - theta1 - theta2)


def transitivity_margin(theta, delta):
    """The composition margin at r1 = r2 = r3."""
    return composition_margin(theta, delta, theta, delta, theta, delta)


def inverse_margin(r_upper, r_lower, s_upper, s_lower):
    """Boundary-rotor congruence: minus the larger distance from
    r_upper + s_upper and r_lower + s_lower to a full turn."""
    return -np.maximum(turn_distance(r_upper + s_upper),
                       turn_distance(r_lower + s_lower))


# ---------------------------------------------------------------------------
# Scalar predicates on Rotation objects.
# ---------------------------------------------------------------------------


def containment_additive(r: Rotation, s: Rotation, tol: float = ANGLE_TOL) -> ConditionReport:
    """r's images always inside s's images, for width-preserving rotations.

    Requires s's widening window to cover r's on both boundaries, modulo
    full turns (see ``containment_margin``).
    """
    if r.gamma != 1.0 or s.gamma != 1.0:
        raise ValueError("containment_additive needs gamma == 1 on both rotations")
    return _report(CONTAINMENT, containment_margin(r.theta, r.delta, s.theta, s.delta), tol)


def containment_multiplicative(r: Rotation, s: Rotation, tol: float = ANGLE_TOL) -> ConditionReport:
    """Containment for equal-axis-shift rotations: s scales and widens at least as much."""
    if abs(r.theta - s.theta) > tol:
        raise ValueError("containment_multiplicative needs equal axis shifts")
    return _report(CONTAINMENT, min(s.gamma - r.gamma, s.delta - r.delta), tol)


def composition_additive(r1: Rotation, r2: Rotation, r3: Rotation,
                         tol: float = ANGLE_TOL) -> ConditionReport:
    """r3's images contain the images of r1-then-r2 (width-preserving case).

    The chained axis shift must sit within half the spare widening,
    |theta3 - theta1 - theta2| <= (delta3 - delta1 - delta2)/2, taken
    modulo full turns (see ``composition_margin``).
    """
    for r in (r1, r2, r3):
        if r.gamma != 1.0:
            raise ValueError("composition_additive needs gamma == 1 on all rotations")
        if r.delta < 0.0:
            raise ValueError("composition_additive needs non-negative aperture shifts")
    margin = composition_margin(r1.theta, r1.delta, r2.theta, r2.delta, r3.theta, r3.delta)
    return _report(COMPOSITION, margin, tol)


def composition_multiplicative(r1: Rotation, r2: Rotation, r3: Rotation,
                               tol: float = ANGLE_TOL) -> ConditionReport:
    """Containment of the chained action for equal-axis-shift rotations.

    gamma1*gamma2 <= gamma3, and the spare widening must absorb both the
    chained shifts and the doubled axis offset:
    2*dist(theta) + gamma2*delta1 + delta2 <= delta3.
    """
    if abs(r1.theta - r2.theta) > tol or abs(r1.theta - r3.theta) > tol:
        raise ValueError("composition_multiplicative needs equal axis shifts")
    if r1.delta < 0.0 or r2.delta < 0.0:
        raise ValueError("composition_multiplicative needs non-negative aperture shifts")
    gamma_slack = r3.gamma - r1.gamma * r2.gamma
    delta_slack = r3.delta - (r2.gamma * r1.delta + r2.delta) - 2.0 * turn_distance(r1.theta)
    return _report(COMPOSITION, min(gamma_slack, delta_slack), tol)


def transitivity(r: Rotation, tol: float = ANGLE_TOL) -> ConditionReport:
    """Containment of r-then-r inside r: the matching composition report, relabelled."""
    compose = composition_additive if r.gamma == 1.0 else composition_multiplicative
    rep = compose(r, r, r, tol)
    return ConditionReport(TRANSITIVITY, rep.holds, rep.margin)


def symmetry(r: Rotation, tol: float = ANGLE_TOL) -> ConditionReport:
    """Applying r twice lands back on the starting cone's region.

    Holds iff some full turn 2k*pi falls inside the window
    [2*theta - (gamma+1)*delta/2, 2*theta + (gamma+1)*delta/2].
    """
    if r.gamma < 1.0:
        raise ValueError("symmetry needs gamma >= 1")
    if r.delta < 0.0:
        raise ValueError("symmetry needs non-negative aperture shift")
    return _report(SYMMETRY, symmetry_margin(r.theta, r.delta, r.gamma), tol)


def asymmetry(r: Rotation, tol: float = ANGLE_TOL) -> ConditionReport:
    """Negation of the symmetry window; margin flips sign."""
    rep = symmetry(r, tol)
    return ConditionReport(ASYMMETRY, not rep.holds, -rep.margin)


# ---------------------------------------------------------------------------
# Exact per-coordinate congruences on boundary-rotor angle vectors.
# ---------------------------------------------------------------------------


def _as_vectors(*vecs):
    arrs = [np.atleast_1d(np.asarray(v, dtype=float)) for v in vecs]
    n = arrs[0].shape[0]
    for a in arrs:
        if a.shape != (n,):
            raise ValueError("angle vectors must share one length")
    return arrs


def exact_symmetry(r_upper, r_lower, tol: float = EXACT_TOL) -> np.ndarray:
    """Per coordinate: both boundary rotors square to the identity (2*theta is a full turn)."""
    up, lo = _as_vectors(r_upper, r_lower)
    return (turn_distance(2.0 * up) <= tol) & (turn_distance(2.0 * lo) <= tol)


def exact_inverse(r1_upper, r1_lower, r2_upper, r2_lower, tol: float = EXACT_TOL) -> np.ndarray:
    """Per coordinate: the second rotor undoes the first on both boundaries."""
    u1, l1, u2, l2 = _as_vectors(r1_upper, r1_lower, r2_upper, r2_lower)
    return inverse_margin(u1, l1, u2, l2) >= -tol


def exact_composition(
    r1_upper, r1_lower, r2_upper, r2_lower, r3_upper, r3_lower, tol: float = EXACT_TOL
) -> np.ndarray:
    """Per coordinate: chaining the first two rotors equals the third on both boundaries."""
    u1, l1, u2, l2, u3, l3 = _as_vectors(
        r1_upper, r1_lower, r2_upper, r2_lower, r3_upper, r3_lower
    )
    return (turn_distance(u1 + u2 - u3) <= tol) & (turn_distance(l1 + l2 - l3) <= tol)
