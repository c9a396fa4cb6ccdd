import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conequery import autodiff as ad
from conequery.cones import (
    EMPTY,
    EMPTY_MC,
    FULL,
    FULL_MC,
    PI,
    PROPER,
    SINGLETON,
    TWO_PI,
    Cone,
    Rotation,
    canonicalize,
    classify,
    compose,
    cone_contains,
    cone_from_axis,
    cone_subset,
    format_multicone,
    inverse,
    mc_complement,
    mc_contains,
    mc_equal,
    mc_intersect,
    mc_rotate,
    mc_subset,
    mc_union,
    parse_cone_spec,
    rotate,
    turn_distance,
    wrap_angle,
)

from _helpers import (
    angle_dist,
    probe_angles,
    random_cone,
    random_multicone,
    random_proper_cone,
    random_same_family_rotation,
    reference_wrap_angle,
    region_equal_by_sampling,
)


def mc(*cones):
    return canonicalize(cones)


# ---------------------------------------------------------------------------
# classification and membership
# ---------------------------------------------------------------------------


def test_classify_examples():
    assert classify(Cone(0.3, 0.1)) == EMPTY
    assert classify(Cone(1.2, 1.2)) == SINGLETON
    assert classify(Cone(0.0, TWO_PI)) == FULL
    assert classify(Cone(-PI / 4, PI / 4)) == PROPER


def test_classify_is_total_and_exclusive():
    rng = np.random.default_rng(0)
    kinds = {EMPTY, SINGLETON, FULL, PROPER}
    for _ in range(500):
        c = random_cone(rng)
        assert classify(c) in kinds


def test_contains_wraps_modulo_full_turns():
    c = Cone(0.0, PI / 2)
    assert cone_contains(c, PI / 4)
    assert cone_contains(c, PI / 4 + TWO_PI)
    assert cone_contains(c, PI / 4 - 6 * TWO_PI)
    assert not cone_contains(c, PI)
    # closed arc: both boundaries belong
    assert cone_contains(c, 0.0)
    assert cone_contains(c, PI / 2)


def test_contains_degenerate_classes():
    assert not cone_contains(Cone(1.0, 0.0), 0.5)
    assert cone_contains(Cone(0.0, TWO_PI), -2.34)
    assert cone_contains(Cone(1.2, 1.2), 1.2 + TWO_PI)
    assert not cone_contains(Cone(1.2, 1.2), 1.3)


def test_wrap_angle_range():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        t = rng.uniform(-50.0, 50.0)
        w = wrap_angle(t)
        assert -PI <= w < PI
        assert angle_dist(w, t) < 1e-9


def _reference_turn_distance(x):
    return np.abs(x - np.round(x / TWO_PI) * TWO_PI)


def _angles_with_seams():
    edges = [k * PI for k in range(-15, 16)] + [50.0, -50.0]
    near = [np.nextafter(e, s) for e in edges for s in (-np.inf, np.inf)]
    rng = np.random.default_rng(5)
    return np.concatenate([edges, near, [0.0, -0.0], rng.uniform(-50.0, 50.0, 1999)])


def test_wrap_angle_bit_identical_to_reference_on_floats_and_arrays():
    values = _angles_with_seams()
    floats = [wrap_angle(float(t)) for t in values]
    assert all(isinstance(w, float) for w in floats)
    want = [reference_wrap_angle(float(t)) for t in values]
    assert np.array(floats).tobytes() == np.array(want).tobytes()

    got = wrap_angle(values)
    assert got.tobytes() == reference_wrap_angle(values).tobytes()
    assert got.tobytes() == np.array(want).tobytes()
    assert np.all((got >= -PI) & (got < PI))
    assert np.array_equal(wrap_angle(values.reshape(-1, 2)), got.reshape(-1, 2))
    assert np.array_equal(ad.wrap(values), got)
    assert np.array_equal(ad.wrap(ad.Tape().leaf(values)).values, got)


def _near(x, steps=3):
    """x and its nearest float64 neighbours on either side."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(steps):
            y = float(np.nextafter(y, direction))
            out.append(y)
    return out


# t = -3pi and 3pi are the band edges s = t + pi = -2pi and 4pi; t = -pi and
# pi are the seams where one turn is added or taken away.
_WRAP_EDGES = [v for x in (-3 * PI, -PI, PI, 3 * PI, -TWO_PI, TWO_PI) for v in _near(x)]
_IN_BAND = st.one_of(st.floats(-3 * PI, 3 * PI), st.sampled_from(_WRAP_EDGES))
_ANY = st.one_of(st.floats(), st.floats(-4 * PI, 4 * PI), st.sampled_from(
    _WRAP_EDGES + [0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, -1e300]))


def _same_wrap(x):
    got, want = wrap_angle(x), reference_wrap_angle(x)
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(band=st.lists(_IN_BAND, max_size=40), extra=st.lists(_ANY, max_size=4))
def test_wrap_angle_equals_float_modulo_bit_for_bit(band, extra):
    with np.errstate(all="ignore"):
        for values in (band, band + extra):
            x = np.array(values, dtype=np.float64)
            for arr in (x, x.astype(np.float32), x.reshape(-1, 1)):
                _same_wrap(arr)
            for v in values[:8]:
                _same_wrap(v)
                _same_wrap(np.array(v))
                _same_wrap(np.array(v, dtype=np.float32))
        _same_wrap(np.array([], dtype=np.float64))
        _same_wrap(np.zeros((0, 3), dtype=np.float32))


def test_turn_distance_bit_identical_to_reference_on_floats_and_arrays():
    values = _angles_with_seams()
    got = turn_distance(values)
    assert got.tobytes() == _reference_turn_distance(values).tobytes()
    floats = [turn_distance(float(t)) for t in values]
    assert all(isinstance(d, float) for d in floats)
    assert np.array(floats).tobytes() == got.tobytes()


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


def test_canonicalize_wraps_and_sorts():
    m = mc(Cone(3 * PI / 2, 5 * PI / 2))
    assert len(m) == 1
    assert m.cones[0].lower == pytest.approx(-PI / 2, abs=1e-12)
    assert m.cones[0].upper == pytest.approx(PI / 2, abs=1e-12)


def test_canonicalize_merges_overlaps_and_touching():
    m = mc(Cone(0.0, 1.0), Cone(0.5, 2.0))
    assert len(m) == 1 and m.cones[0].upper - m.cones[0].lower == pytest.approx(2.0)
    m = mc(Cone(0.0, 1.0), Cone(1.0, 2.0))  # touching closed arcs join
    assert len(m) == 1
    m = mc(Cone(0.0, 1.0), Cone(1.5, 2.0))
    assert len(m) == 2


def test_canonicalize_merges_across_seam():
    m = mc(Cone(2.5, 3.5), Cone(-3.0, -2.0))  # 3.5 wraps past pi into -2.78
    assert len(m) == 1


def test_canonicalize_detects_full_tiling():
    assert mc(Cone(0.0, PI), Cone(PI, TWO_PI)).is_full()
    assert mc(Cone(0.0, 3.0), Cone(2.5, 5.0), Cone(4.5, TWO_PI + 0.2)).is_full()


def test_canonicalize_drops_empty_members():
    assert mc(Cone(1.0, 0.0)).is_empty()
    assert mc(Cone(1.0, 0.0), Cone(0.0, 0.5)) == mc(Cone(0.0, 0.5))


def test_canonicalize_idempotent_and_order_free():
    rng = np.random.default_rng(2)
    for _ in range(300):
        cones = [random_cone(rng) for _ in range(int(rng.integers(1, 5)))]
        m = canonicalize(cones)
        again = canonicalize(m.cones)
        assert mc_equal(m, again)
        perm = [cones[i] for i in rng.permutation(len(cones))]
        assert mc_equal(m, canonicalize(perm))


# ---------------------------------------------------------------------------
# set operations
# ---------------------------------------------------------------------------


def test_intersection_splits_into_two_arcs():
    left = mc(Cone(0.0, 3 * PI / 2))
    right = mc(Cone(PI, 5 * PI / 2))
    got = mc_intersect(left, right)
    want = mc(Cone(0.0, PI / 2), Cone(PI, 3 * PI / 2))
    assert mc_equal(got, want)


def test_union_and_intersection_identities():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = random_multicone(rng)
        assert mc_equal(mc_union(m, EMPTY_MC), m)
        assert mc_equal(mc_intersect(m, FULL_MC), m)
        assert mc_union(m, FULL_MC).is_full()
        assert mc_intersect(m, EMPTY_MC).is_empty()


def test_union_intersection_commute_associate_distribute():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a, b, c = (random_multicone(rng) for _ in range(3))
        assert mc_equal(mc_union(a, b), mc_union(b, a))
        assert mc_equal(mc_intersect(a, b), mc_intersect(b, a))
        assert mc_equal(mc_union(mc_union(a, b), c), mc_union(a, mc_union(b, c)))
        assert mc_equal(
            mc_intersect(mc_intersect(a, b), c), mc_intersect(a, mc_intersect(b, c))
        )
        assert mc_equal(
            mc_intersect(a, mc_union(b, c)),
            mc_union(mc_intersect(a, b), mc_intersect(a, c)),
        )
        assert mc_equal(
            mc_union(a, mc_intersect(b, c)),
            mc_intersect(mc_union(a, b), mc_union(a, c)),
        )


def test_set_ops_agree_with_membership_oracle():
    rng = np.random.default_rng(5)
    for _ in range(150):
        a = random_multicone(rng)
        b = random_multicone(rng)
        u = mc_union(a, b)
        i = mc_intersect(a, b)
        for t in probe_angles(rng, [a, b, u, i], n=16):
            assert mc_contains(u, t) == (mc_contains(a, t) or mc_contains(b, t))
            assert mc_contains(i, t) == (mc_contains(a, t) and mc_contains(b, t))


def test_complement_example_and_involution():
    got = mc_complement(mc(Cone(0.0, PI)))
    assert mc_equal(got, mc(Cone(PI, TWO_PI)))
    assert mc_complement(EMPTY_MC).is_full()
    assert mc_complement(FULL_MC).is_empty()
    rng = np.random.default_rng(6)
    for _ in range(200):
        m = random_multicone(rng)
        regular = all(c.aperture() > 1e-6 for c in m.cones)
        if regular:  # closure erases isolated points, so restrict to fat members
            assert mc_equal(mc_complement(mc_complement(m)), m)
        assert mc_union(m, mc_complement(m)).is_full()
        for t in probe_angles(rng, [m], n=8):
            assert mc_contains(mc_complement(m), t) != mc_contains(m, t)


def test_subset_examples_and_properties():
    assert mc_subset(mc(Cone(0.0, PI / 2)), mc(Cone(0.0, PI)))
    assert not mc_subset(FULL_MC, mc(Cone(0.0, PI)))
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = random_multicone(rng)
        b = random_multicone(rng)
        assert mc_subset(a, a)
        assert mc_subset(EMPTY_MC, a)
        assert mc_subset(a, FULL_MC)
        assert mc_subset(mc_intersect(a, b), a)
        assert mc_subset(a, mc_union(a, b))
        # mutual containment pins down equality of canonical forms
        if mc_subset(a, b) and mc_subset(b, a):
            assert mc_equal(a, b)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------


def test_rotate_axis_shift():
    got = rotate(Rotation(PI / 2, 1.0, 0.0), Cone(0.0, PI / 2))
    assert got.lower == pytest.approx(PI / 2, abs=1e-12)
    assert got.upper == pytest.approx(PI, abs=1e-12)


def test_rotate_aperture_widening():
    got = rotate(Rotation(0.0, 1.0, PI / 2), Cone(0.0, PI / 2))
    assert got.lower == pytest.approx(-PI / 4, abs=1e-12)
    assert got.upper == pytest.approx(3 * PI / 4, abs=1e-12)


def test_rotate_saturates_to_full():
    got = rotate(Rotation(0.0, 2.0, 0.0), Cone(0.0, 3 * PI / 2))
    assert classify(got) == FULL


def test_rotate_clamps_aperture_below():
    got = rotate(Rotation(0.0, 1.0, -PI), Cone(0.0, PI / 2))
    assert classify(got) == SINGLETON


def test_rotate_fixed_points():
    r = Rotation(1.0, 2.0, 0.3)
    e = Cone(1.0, 0.0)
    f = Cone(0.0, TWO_PI)
    assert rotate(r, e) == e
    assert rotate(r, f) == f


def test_rotation_rejects_negative_scale():
    with pytest.raises(ValueError):
        Rotation(0.0, -0.5, 0.0)


def test_compose_parameter_triple():
    got = compose(Rotation(0.0, 2.0, 0.0), Rotation(0.0, 0.5, 0.0))
    assert (got.theta, got.gamma, got.delta) == (0.0, 1.0, 0.0)


def test_compose_matches_sequential_action():
    rng = np.random.default_rng(8)
    for _ in range(300):
        r1 = Rotation(rng.uniform(-PI, PI), rng.uniform(0.3, 1.2), rng.uniform(-0.2, 0.5))
        r2 = Rotation(rng.uniform(-PI, PI), rng.uniform(0.3, 1.2), rng.uniform(-0.2, 0.5))
        c = random_proper_cone(rng, max_aperture=1.0)
        step = rotate(r2, rotate(r1, c))
        once = rotate(compose(r1, r2), c)
        # valid whenever the intermediate aperture avoided the clamp
        mid_ap = r1.gamma * c.aperture() + r1.delta
        if 0.0 <= mid_ap <= TWO_PI:
            assert angle_dist(step.axis(), once.axis()) < 1e-9
            assert abs(step.aperture() - once.aperture()) < 1e-9


def test_inverse_parameter_triple_and_identity_action():
    r = Rotation(0.7, 2.0, 0.0)
    ri = inverse(r)
    assert (ri.theta, ri.gamma, ri.delta) == (-0.7, 0.5, 0.0)
    rng = np.random.default_rng(9)
    for _ in range(300):
        r = random_same_family_rotation(rng)
        c = random_proper_cone(rng, max_aperture=2.0)
        if not (0.0 < r.gamma * c.aperture() + r.delta < TWO_PI):
            continue
        back = rotate(inverse(r), rotate(r, c))
        assert angle_dist(back.axis(), c.axis()) < 1e-9
        assert abs(back.aperture() - c.aperture()) < 1e-9


def test_inverse_of_scale_zero_rejected():
    with pytest.raises(ValueError):
        inverse(Rotation(0.0, 0.0, 1.0))


def test_scale_ordering_counterexample():
    # widening-then-shrinking saturates, shrinking-then-widening does not
    widen_first = rotate(Rotation(0.0, 0.5, 0.0), rotate(Rotation(0.0, 2.0, 0.0), Cone(0.0, PI)))
    shrink_first = rotate(Rotation(0.0, 2.0, 0.0), rotate(Rotation(0.0, 0.5, 0.0), Cone(0.0, PI)))
    assert classify(widen_first) == FULL
    assert classify(shrink_first) == PROPER
    assert shrink_first.lower == pytest.approx(0.0, abs=1e-12)
    assert shrink_first.upper == pytest.approx(PI, abs=1e-12)


def test_shrinking_rotations_commute():
    rng = np.random.default_rng(10)
    for _ in range(300):
        r1 = Rotation(rng.uniform(-PI, PI), rng.uniform(0.05, 1.0), 0.0)
        r2 = Rotation(rng.uniform(-PI, PI), rng.uniform(0.05, 1.0), 0.0)
        c = random_cone(rng)
        ab = rotate(r2, rotate(r1, c))
        ba = rotate(r1, rotate(r2, c))
        if classify(c) in (EMPTY, FULL):
            assert ab == ba
            continue
        assert angle_dist(ab.axis(), ba.axis()) < 1e-9
        assert abs(ab.aperture() - ba.aperture()) < 1e-9


def test_union_distribution_holds_for_pure_shift():
    rng = np.random.default_rng(11)
    for _ in range(200):
        r = Rotation(rng.uniform(-PI, PI), 1.0, rng.uniform(0.0, 1.0))
        a = random_multicone(rng)
        b = random_multicone(rng)
        lhs = mc_rotate(r, mc_union(a, b))
        rhs = mc_union(mc_rotate(r, a), mc_rotate(r, b))
        assert mc_equal(lhs, rhs)


def test_union_distribution_fails_for_shrinking_witness():
    a = mc(Cone(0.0, PI))
    b = mc(Cone(PI, TWO_PI))
    r = Rotation(0.3, 0.5, 0.0)
    lhs = mc_rotate(r, mc_union(a, b))  # union is the full circle, stays full
    rhs = mc_union(mc_rotate(r, a), mc_rotate(r, b))
    assert lhs.is_full()
    assert not rhs.is_full()
    assert not mc_equal(lhs, rhs)


def test_mc_rotate_pure_shift_moves_membership():
    rng = np.random.default_rng(12)
    for _ in range(100):
        m = random_multicone(rng)
        theta = rng.uniform(-PI, PI)
        moved = mc_rotate(Rotation(theta, 1.0, 0.0), m)
        for t in probe_angles(rng, [m], n=8):
            assert mc_contains(moved, t + theta) == mc_contains(m, t)


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def test_format_multicone_nine_decimals():
    m = mc(Cone(0.0, PI / 2))
    assert format_multicone(m) == "MC[(0.000000000,1.570796327)]"
    assert format_multicone(EMPTY_MC) == "MC[]"


def test_parse_cone_spec_round_trip():
    cones = parse_cone_spec("0:1.5; 3:4.2")
    assert cones == [Cone(0.0, 1.5), Cone(3.0, 4.2)]


def test_region_sampling_cross_check():
    # independent slow oracle: set ops by membership sampling
    rng = np.random.default_rng(13)
    for _ in range(60):
        a = random_multicone(rng)
        b = random_multicone(rng)
        assert region_equal_by_sampling(rng, mc_union(a, b), mc_union(b, a))
        assert region_equal_by_sampling(rng, mc_intersect(a, b), mc_intersect(b, a))
