import math

import numpy as np
import pytest

from conequery.cones import (
    PI,
    TWO_PI,
    Cone,
    Rotation,
    cone_subset,
    rotate,
)
from conequery.conditions import (
    ASYMMETRY,
    COMPOSITION,
    CONTAINMENT,
    SYMMETRY,
    TRANSITIVITY,
    ConditionReport,
    asymmetry,
    composition_additive,
    composition_multiplicative,
    containment_additive,
    containment_multiplicative,
    exact_composition,
    exact_inverse,
    exact_symmetry,
    symmetry,
    transitivity,
)

from _helpers import (
    draw_holding_composition_additive,
    draw_holding_composition_multiplicative,
    draw_holding_containment_additive,
    draw_holding_containment_multiplicative,
    draw_holding_symmetry,
    draw_holding_transitivity,
    oracle_violates,
)


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------


def test_containment_additive_examples():
    rep = containment_additive(Rotation(0, 1, 0.2), Rotation(0, 1, 0.4))
    assert rep.holds and rep.kind == CONTAINMENT
    assert rep.margin == pytest.approx(0.1)
    rep = containment_additive(Rotation(0, 1, 0.4), Rotation(0.5, 1, 0.4))
    assert not rep.holds


def test_containment_additive_rejects_scaling():
    with pytest.raises(ValueError):
        containment_additive(Rotation(0, 0.5, 0), Rotation(0, 1, 0))


def test_containment_multiplicative_examples():
    assert containment_multiplicative(Rotation(0.3, 0.5, 0), Rotation(0.3, 0.9, 0.1)).holds
    assert not containment_multiplicative(Rotation(0.3, 1.1, 0), Rotation(0.3, 0.9, 0.5)).holds
    with pytest.raises(ValueError):
        containment_multiplicative(Rotation(0.0, 1, 0), Rotation(0.5, 1, 0))


def test_composition_additive_examples():
    r1, r2 = Rotation(0.3, 1, 0.05), Rotation(0.2, 1, 0.05)
    assert composition_additive(r1, r2, Rotation(0.5, 1, 0.2)).holds
    assert not composition_additive(r1, r2, Rotation(0.7, 1, 0.2)).holds
    # the chained shift must fit in half the spare width: 0.3 > 0.4 / 2
    zero = Rotation(0.0, 1, 0.0)
    assert not composition_additive(zero, zero, Rotation(0.3, 1, 0.4)).holds


def test_composition_additive_preconditions():
    with pytest.raises(ValueError):
        composition_additive(Rotation(0, 0.5, 0), Rotation(0, 1, 0), Rotation(0, 1, 0))
    with pytest.raises(ValueError):
        composition_additive(Rotation(0, 1, -0.1), Rotation(0, 1, 0), Rotation(0, 1, 0))


def test_composition_multiplicative_examples():
    t = 0.0
    assert composition_multiplicative(
        Rotation(t, 0.5, 0.1), Rotation(t, 0.5, 0.1), Rotation(t, 0.3, 0.2)
    ).holds
    assert not composition_multiplicative(
        Rotation(t, 0.9, 0.1), Rotation(t, 0.9, 0.1), Rotation(t, 0.5, 0.1)
    ).holds
    with pytest.raises(ValueError):
        composition_multiplicative(
            Rotation(0.0, 1, 0), Rotation(0.2, 1, 0), Rotation(0.0, 1, 0)
        )
    # the spare widening must absorb the doubled shared axis shift, 2 * 0.4
    r = Rotation(0.4, 0.5, 0.0)
    assert not composition_multiplicative(r, r, Rotation(0.4, 0.5, 0.1)).holds


def test_transitivity_examples():
    rep = transitivity(Rotation(0, 1, 0))
    assert rep.holds and rep.kind == TRANSITIVITY
    assert not transitivity(Rotation(0.3, 1, 0.05)).holds
    # delegation matches calling the composition predicate directly
    r = Rotation(0.1, 1, 0.2)
    direct = composition_additive(r, r, r)
    via = transitivity(r)
    assert via.holds == direct.holds and via.margin == pytest.approx(direct.margin)
    shrink = Rotation(0.0, 0.7, 0.0)
    assert transitivity(shrink).holds


def test_symmetry_examples():
    assert symmetry(Rotation(PI, 1, 0)).holds
    assert not symmetry(Rotation(PI / 2, 1, 0)).holds
    rep = symmetry(Rotation(PI - 0.05, 1, 0.2))
    assert rep.holds
    assert rep.margin == pytest.approx(0.1)
    with pytest.raises(ValueError):
        symmetry(Rotation(0, 0.5, 0))
    with pytest.raises(ValueError):
        symmetry(Rotation(0, 1, -0.1))


def test_asymmetry_is_window_negation():
    r = Rotation(PI / 2, 1, 0.1)
    s = symmetry(r)
    a = asymmetry(r)
    assert a.kind == ASYMMETRY
    assert a.holds == (not s.holds)
    assert a.margin == pytest.approx(-s.margin)


def test_margin_continuity_and_flip_point():
    # sweep theta3 across the holding window; margin moves linearly and the
    # verdict flips exactly where it crosses -tol
    r1, r2 = Rotation(0.1, 1, 0.1), Rotation(0.2, 1, 0.1)
    last_margin = None
    for t3 in np.linspace(0.0, 0.8, 400):
        rep = composition_additive(r1, r2, Rotation(float(t3), 1, 0.5))
        assert rep.holds == (rep.margin >= -1e-9)
        if last_margin is not None:
            assert abs(rep.margin - last_margin) < 0.01
        last_margin = rep.margin


def test_symmetry_reduces_to_exact_for_pure_axis_shift():
    rng = np.random.default_rng(20)
    for _ in range(300):
        theta = rng.uniform(-2 * TWO_PI, 2 * TWO_PI)
        win = symmetry(Rotation(theta, 1, 0), tol=1e-6)
        ex = exact_symmetry([theta], [theta], tol=1e-6)
        assert win.holds == bool(ex[0])


# ---------------------------------------------------------------------------
# exact boundary-rotor congruences
# ---------------------------------------------------------------------------


def test_exact_symmetry_examples():
    assert exact_symmetry([PI, PI], [PI, PI]).all()
    assert not exact_symmetry([PI / 3], [PI / 3]).any()
    got = exact_symmetry([PI, PI / 3], [PI, PI])
    assert got.tolist() == [True, False]


def test_exact_symmetry_matches_complex_rotor_square():
    rng = np.random.default_rng(21)
    thetas = rng.uniform(-TWO_PI, TWO_PI, size=200)
    flags = exact_symmetry(thetas, thetas, tol=1e-6)
    rotor_sq = np.exp(2j * thetas)
    assert np.array_equal(flags, np.abs(rotor_sq - 1.0) <= 1e-6)


def test_exact_inverse_examples():
    assert exact_inverse([0.4], [0.2], [-0.4], [-0.2]).all()
    assert exact_inverse([0.4], [0.2], [TWO_PI - 0.4], [-0.2]).all()
    assert not exact_inverse([0.4], [0.2], [0.4], [-0.2]).any()


def test_exact_composition_examples():
    assert exact_composition([0.3], [0.3], [0.2], [0.2], [0.5], [0.5]).all()
    assert not exact_composition([0.3], [0.3], [0.2], [0.2], [0.6], [0.6]).any()


def test_exact_ops_reject_length_mismatch():
    with pytest.raises(ValueError):
        exact_inverse([0.1, 0.2], [0.1], [0.0, 0.0], [0.0, 0.0])


# ---------------------------------------------------------------------------
# soundness against the cone oracle (small n here; acceptance runs 1000x100)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "draw",
    [
        draw_holding_containment_additive,
        draw_holding_containment_multiplicative,
        draw_holding_composition_additive,
        draw_holding_composition_multiplicative,
        draw_holding_transitivity,
        draw_holding_symmetry,
    ],
)
def test_holding_predicates_never_violate_cone_oracle(draw):
    rng = np.random.default_rng(22)
    for _ in range(100):
        case = draw(rng)
        assert case.report.holds, "draw helper must produce holding instances"
        assert not oracle_violates(rng, case, n_cones=20)
