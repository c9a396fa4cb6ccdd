"""Tests for the cone-embedding model operators, distances, and accounting."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conequery.autodiff as ad
import conequery.model as model
from conequery.cones import (
    Cone,
    Rotation,
    cone_contains,
    cone_from_axis,
    rotate,
    wrap_angle,
)
from conequery.model import (
    PI,
    TWO_PI,
    ConeBatch,
    ParameterStore,
    _embed_node,
    cone_entity_distance,
    dnf_entity_distance,
    embed_query,
    embed_structure,
    entity_points,
    intersect_cones,
    margin_loss,
    negate_cone,
    nominal_cone,
    param_breakdown,
    project_cone,
)
from conequery.queries import (
    ALL_STRUCTURES,
    STRUCTURE_TEMPLATES,
    Intersection,
    Nominal,
    Projection,
    Union,
    ground,
    structure_slots,
)
from conequery.training import batch_loss_and_grads

from _helpers import (
    angle_dist,
    composed_cone_entity_distance,
    composed_loss_and_grads,
    count_chords,
    per_input_intersect_cones,
    reference_dnf_entity_distance,
    reference_entity_points,
)


def toy_store(n_entities=30, n_relations=4, d=6, seed=0, **kw) -> ParameterStore:
    return ParameterStore(n_entities, n_relations, d, seed=seed, **kw)


# ---------------------------------------------------------------------------
# nominal embedding
# ---------------------------------------------------------------------------


def test_nominal_angles_wrap_on_read():
    store = toy_store()
    store.arrays["entity_axis"][3] = 3 * PI / 4 + TWO_PI  # stored raw, out of range
    m = store.tensors()
    cone = nominal_cone(m, [3])
    assert np.allclose(cone.axis[0], 3 * PI / 4, atol=1e-12)
    assert np.all(cone.aperture == 0.0)


def test_nominal_distance_to_own_entity_is_zero():
    store = toy_store()
    m = store.tensors()
    cone = nominal_cone(m, [5])
    e = entity_points(m, [5])
    assert cone_entity_distance(cone, e, lam=0.3)[0] == 0.0


@pytest.mark.parametrize("id_shape", [(4,), (8, 6)])
def test_entity_points_wrap_order_is_invisible(id_shape):
    # entity_points wraps and takes the trig of each distinct row once; (8,
    # 6) has more ids than the 30 table rows.  Against gather, wrap, then
    # trig, the values and the gradients must not change.
    store = toy_store()
    rng = np.random.default_rng(3)
    store.arrays["entity_axis"] += rng.integers(-3, 4, size=(30, 1)) * TWO_PI
    ids = rng.integers(30, size=id_shape)
    cone_shape = id_shape[:1] + (1,) * (len(id_shape) - 1) + (store.d,)
    cone = ConeBatch(rng.uniform(-PI, PI, size=cone_shape),
                     rng.uniform(0.0, TWO_PI, size=cone_shape))
    weights = rng.normal(size=id_shape)

    def run(entity):
        tape = ad.Tape()
        m = store.tensors(tape)
        dist = cone_entity_distance(cone, entity(m), 0.3)
        tape.backward(ad.total(ad.multiply(dist, weights)))
        return dist.values, m.entity_axis.grad

    got = run(lambda m: entity_points(m, ids))
    want = run(lambda m: reference_entity_points(m, ids)[0])
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    points = entity_points(store.tensors(), ids)
    _, cos, sin = reference_entity_points(store.tensors(), ids)
    assert np.array_equal(points.ids, ids)
    # the carried coordinates are the trig of the gathered, wrapped angles
    assert np.array_equal(points.cos, cos)
    assert np.array_equal(points.sin, sin)


@pytest.mark.parametrize("id_shape", [(7,), (8, 6)])
def test_distance_entity_gradient_scatters_in_add_at_order(id_shape):
    # the gradient that the distance sends to each point, scatter-added into
    # the entity table by np.add.at, with ids repeated and two disjuncts
    store = toy_store()
    rng = np.random.default_rng(5)
    ids = rng.integers(10, size=id_shape)  # rows 10..29 never used
    cone_shape = id_shape[:1] + (1,) * (len(id_shape) - 1) + (store.d,)
    cones = [ConeBatch(rng.uniform(-PI, PI, size=cone_shape),
                       rng.uniform(0.0, TWO_PI, size=cone_shape)) for _ in range(2)]
    weights = rng.normal(size=id_shape)

    tape = ad.Tape()
    m = store.tensors(tape)
    tape.backward(ad.total(ad.multiply(dnf_entity_distance(cones, entity_points(m, ids), 0.3),
                                       weights)))
    tape = ad.Tape()
    angles = tape.leaf(reference_entity_points(store.tensors(), ids)[0])
    tape.backward(ad.total(ad.multiply(dnf_entity_distance(cones, angles, 0.3), weights)))
    want = np.zeros_like(store.arrays["entity_axis"])
    np.add.at(want, ids.reshape(-1), angles.grad.reshape(-1, store.d))
    assert np.array_equal(m.entity_axis.grad, want)
    assert np.all(m.entity_axis.grad[10:] == 0.0)


@pytest.mark.parametrize("id_shape", [(4,), (8, 6)])
def test_distance_same_from_points_and_plain_angles(id_shape):
    # Carried cos/sin and cos/sin computed inside the distance must give the
    # same distances and the same gradients for every parameter.
    store = toy_store()
    rng = np.random.default_rng(4)
    ids = rng.integers(30, size=id_shape)
    anchors = rng.integers(30, size=(id_shape[0], 2))
    relations = rng.integers(4, size=(id_shape[0], 2))
    weights = rng.normal(size=id_shape)

    def run(entity):
        tape = ad.Tape()
        m = store.tensors(tape)
        cones = embed_structure(m, "2u", anchors, relations)
        if len(id_shape) == 2:
            cones = [ConeBatch(ad.reshape(c.axis, (id_shape[0], 1, store.d)),
                               ad.reshape(c.aperture, (id_shape[0], 1, store.d)))
                     for c in cones]
        dist = dnf_entity_distance(cones, entity(m), lam=0.3)
        tape.backward(ad.total(ad.multiply(dist, weights)))
        return dist.values, {n: getattr(m, n).grad for n in store.trainable_names()}

    points = run(lambda m: entity_points(m, ids))
    plain = run(lambda m: reference_entity_points(m, ids)[0])
    assert np.array_equal(points[0], plain[0])
    assert points[1].keys() == plain[1].keys()
    for name, g in points[1].items():
        assert np.array_equal(g, plain[1][name]), name


def test_entity_ids_validated():
    m = toy_store().tensors()
    with pytest.raises(ValueError):
        nominal_cone(m, [99])
    with pytest.raises(ValueError):
        project_cone(m, nominal_cone(m, [0]), [77])


# ---------------------------------------------------------------------------
# projection (existential edge)
# ---------------------------------------------------------------------------


def test_zero_relation_is_identity():
    store = toy_store(d=3)
    store.arrays["relation_axis"][0] = 0.0
    store.arrays["relation_aperture"][0] = 0.0
    m = store.tensors()
    cone = ConeBatch(np.array([[0.3, -1.2, 2.0]]), np.array([[0.0, 1.0, 6.0]]))
    out = project_cone(m, cone, [0])
    # identity up to the wrap's modulo arithmetic on the axis
    assert np.all(np.vectorize(angle_dist)(out.axis, cone.axis) < 1e-12)
    assert np.array_equal(out.aperture, cone.aperture)


def test_project_from_nominal_has_relation_aperture():
    store = toy_store()
    m = store.tensors()
    cone = nominal_cone(m, [2])
    out = project_cone(m, cone, [1])
    expected = np.abs(store.arrays["relation_aperture"][1])
    assert np.allclose(out.aperture[0], expected, atol=0)


def test_project_agrees_with_exact_rotation_per_dimension():
    rng = np.random.default_rng(7)
    store = toy_store(d=5)
    # widen the test surface: arbitrary raw relation parameters incl. clamping
    store.arrays["relation_axis"][:] = rng.uniform(-7, 7, size=(4, 5))
    store.arrays["relation_aperture"][:] = rng.uniform(-3, 7, size=(4, 5))
    m = store.tensors()
    for _ in range(40):
        axis = rng.uniform(-PI, PI, size=(1, 5))
        aperture = rng.uniform(0, TWO_PI, size=(1, 5))
        rid = int(rng.integers(4))
        out = project_cone(m, ConeBatch(axis, aperture), [rid])
        for j in range(5):
            rot = Rotation(
                wrap_angle(store.arrays["relation_axis"][rid, j]),
                1.0,
                abs(store.arrays["relation_aperture"][rid, j]),
            )
            want = rotate(rot, cone_from_axis(axis[0, j], aperture[0, j]))
            got_ax, got_ap = out.axis[0, j], out.aperture[0, j]
            if want.aperture() >= TWO_PI - 1e-9:
                assert got_ap >= TWO_PI - 1e-9
            else:
                assert angle_dist(got_ax, wrap_angle(want.axis())) < 1e-9
                assert abs(got_ap - want.aperture()) < 1e-9


def test_project_multiplicative_scales_aperture():
    store = toy_store(rotation_mode="multiplicative")
    store.arrays["relation_aperture"][2] = -0.5  # read through abs -> scale 0.5
    m = store.tensors()
    cone = ConeBatch(np.zeros((1, store.d)), np.full((1, store.d), 1.2))
    out = project_cone(m, cone, [2])
    assert np.allclose(out.aperture, 0.6, atol=1e-12)
    # a nominal (aperture 0) stays a point under pure scaling
    out2 = project_cone(m, nominal_cone(m, [0]), [2])
    assert np.all(ad.values_of(out2.aperture) == 0.0)


def test_project_commutes_when_unclamped():
    store = toy_store(d=4)
    store.arrays["relation_aperture"][:] = np.abs(store.arrays["relation_aperture"])
    m = store.tensors()
    cone = ConeBatch(np.full((1, 4), 0.2), np.full((1, 4), 0.5))
    ab = project_cone(m, project_cone(m, cone, [0]), [1])
    ba = project_cone(m, project_cone(m, cone, [1]), [0])
    assert np.allclose(
        np.vectorize(angle_dist)(ab.axis, ba.axis), 0.0, atol=1e-12
    )
    assert np.allclose(ab.aperture, ba.aperture, atol=1e-12)


# ---------------------------------------------------------------------------
# intersection
# ---------------------------------------------------------------------------


def test_intersect_identical_inputs_keep_axis():
    m = toy_store(seed=3).tensors()
    q = ConeBatch(
        np.random.default_rng(0).uniform(-PI, PI, size=(2, 6)),
        np.random.default_rng(1).uniform(0, TWO_PI, size=(2, 6)),
    )
    out = intersect_cones(m, [q, q])
    assert np.all(np.vectorize(angle_dist)(out.axis, q.axis) < 1e-12)


def test_intersect_aperture_never_exceeds_min():
    rng = np.random.default_rng(4)
    for seed in range(5):
        m = toy_store(seed=seed).tensors()
        cones = [
            ConeBatch(
                rng.uniform(-PI, PI, size=(3, 6)), rng.uniform(0, TWO_PI, size=(3, 6))
            )
            for _ in range(3)
        ]
        out = intersect_cones(m, cones)
        cap = np.minimum.reduce([ad.values_of(c.aperture) for c in cones])
        assert np.all(ad.values_of(out.aperture) <= cap)
        assert np.all(ad.values_of(out.aperture) >= 0.0)


def test_intersect_permutation_invariant():
    rng = np.random.default_rng(5)
    m = toy_store(seed=9).tensors()
    cones = [
        ConeBatch(rng.uniform(-PI, PI, size=(2, 6)), rng.uniform(0, TWO_PI, size=(2, 6)))
        for _ in range(3)
    ]
    a = intersect_cones(m, cones)
    b = intersect_cones(m, [cones[2], cones[0], cones[1]])
    assert np.all(np.vectorize(angle_dist)(a.axis, b.axis) < 1e-12)
    assert np.allclose(a.aperture, b.aperture, atol=1e-12)


@pytest.mark.parametrize("k", [2, 3])
def test_intersect_stacked_equals_per_input_reference(k):
    # one network pass over the k stacked inputs against one pass per input:
    # values and every gradient (net weights and input cones) within 1e-12,
    # with the first two inputs' apertures tied in some coordinates
    rng = np.random.default_rng(30 + k)
    store = toy_store(seed=k)
    cones = [(rng.uniform(-PI, PI, size=(5, 6)), rng.uniform(0, TWO_PI, size=(5, 6)))
             for _ in range(k)]
    cones[1][1][:, ::2] = cones[0][1][:, ::2]
    w_axis, w_aperture = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))

    def run(intersect):
        tape = ad.Tape()
        m = store.tensors(tape)
        leaves = [ConeBatch(tape.leaf(a), tape.leaf(p)) for a, p in cones]
        out = intersect(m, leaves)
        tape.backward(ad.add(ad.total(ad.multiply(out.axis, w_axis)),
                             ad.total(ad.multiply(out.aperture, w_aperture))))
        arrays = {"axis": out.axis.values, "aperture": out.aperture.values}
        arrays |= {n: getattr(m, n).grad for n in store.trainable_names()
                   if n.startswith(("attn", "ds_"))}
        for i, c in enumerate(leaves):
            arrays |= {f"axis{i}": c.axis.grad, f"aperture{i}": c.aperture.grad}
        return arrays

    got, want = run(intersect_cones), run(per_input_intersect_cones)
    assert got.keys() == want.keys() and len(got) == 2 + 12 + 2 * k
    for name, w in want.items():
        # the softmax ignores a shift shared by all inputs, so attn_b2's exact
        # gradient is 0 and both sides hold rounding residue: scale by attn_w2's
        scale = np.max(np.abs(want["attn_w2" if name == "attn_b2" else name]))
        assert got[name].shape == w.shape
        assert np.max(np.abs(got[name] - w)) <= 1e-12 * scale, name


def test_intersect_requires_two_inputs_and_net():
    m = toy_store().tensors()
    q = ConeBatch(np.zeros((1, 6)), np.ones((1, 6)))
    with pytest.raises(ValueError):
        intersect_cones(m, [q])


# ---------------------------------------------------------------------------
# negation
# ---------------------------------------------------------------------------


def test_negate_is_involution():
    rng = np.random.default_rng(6)
    cone = ConeBatch(rng.uniform(-PI, PI, size=(4, 6)), rng.uniform(0, TWO_PI, size=(4, 6)))
    back = negate_cone(negate_cone(cone))
    assert np.all(np.vectorize(angle_dist)(back.axis, cone.axis) < 1e-12)
    assert np.allclose(back.aperture, cone.aperture, atol=1e-12)


def test_negate_full_cone_gives_point():
    cone = ConeBatch(np.array([[0.5]]), np.array([[TWO_PI]]))
    out = negate_cone(cone)
    assert np.allclose(out.aperture, 0.0, atol=1e-12)
    assert angle_dist(out.axis[0, 0], wrap_angle(0.5 + PI)) < 1e-12


def test_negate_swaps_interior_membership():
    rng = np.random.default_rng(8)
    for _ in range(60):
        axis = rng.uniform(-PI, PI)
        ap = rng.uniform(0.3, TWO_PI - 0.3)
        out = negate_cone(ConeBatch(np.array([[axis]]), np.array([[ap]])))
        original = cone_from_axis(axis, ap)
        complement = cone_from_axis(float(out.axis[0, 0]), float(out.aperture[0, 0]))
        # a point strictly inside the original is outside the complement's interior
        inner = wrap_angle(axis + rng.uniform(-0.49, 0.49) * ap)
        margin = min(
            abs(wrap_angle(inner - (axis - ap / 2))), abs(wrap_angle(inner - (axis + ap / 2)))
        )
        assert cone_contains(original, inner)
        if margin > 1e-9:
            assert not cone_contains(
                Cone(complement.lower + 1e-12, complement.upper - 1e-12), inner
            )


# ---------------------------------------------------------------------------
# query embedding
# ---------------------------------------------------------------------------


def test_embed_1p_matches_manual_projection():
    store = toy_store()
    m = store.tensors()
    ast = ground(STRUCTURE_TEMPLATES["1p"], [4], [2])
    [cone] = embed_query(m, ast)
    manual = project_cone(m, nominal_cone(m, [4]), [2])
    assert np.array_equal(ad.values_of(cone.axis), ad.values_of(manual.axis))
    assert np.array_equal(ad.values_of(cone.aperture), ad.values_of(manual.aperture))


def test_embed_2u_has_two_1p_disjuncts():
    store = toy_store()
    m = store.tensors()
    ast = ground(STRUCTURE_TEMPLATES["2u"], [1, 2], [0, 3])
    disjuncts = embed_query(m, ast)
    assert len(disjuncts) == 2
    for (anchor, rel), cone in zip([(1, 0), (2, 3)], disjuncts):
        manual = project_cone(m, nominal_cone(m, [anchor]), [rel])
        assert np.array_equal(ad.values_of(cone.axis), ad.values_of(manual.axis))


def test_embed_up_disjuncts_are_2p_chains():
    store = toy_store()
    m = store.tensors()
    ast = ground(STRUCTURE_TEMPLATES["up"], [1, 2], [0, 1, 3])
    disjuncts = embed_query(m, ast)
    assert len(disjuncts) == 2
    for (anchor, rel), cone in zip([(1, 0), (2, 1)], disjuncts):
        manual = project_cone(m, project_cone(m, nominal_cone(m, [anchor]), [rel]), [3])
        assert np.array_equal(ad.values_of(cone.axis), ad.values_of(manual.axis))
        assert np.array_equal(ad.values_of(cone.aperture), ad.values_of(manual.aperture))


def test_embed_rejects_non_root_union():
    m = toy_store().tensors()
    bad = Intersection((Union((Nominal(0), Nominal(1))), Nominal(2)))
    with pytest.raises(ValueError):
        _embed_node(m, bad, lambda e: np.array([e]), lambda r: np.array([r]))


def test_embed_structure_batched_matches_single():
    store = toy_store()
    m = store.tensors()
    rng = np.random.default_rng(3)
    for tag in ALL_STRUCTURES:
        n_a, n_r = structure_slots(tag)
        anchors = rng.integers(0, store.n_entities, size=(5, n_a))
        relations = rng.integers(0, store.n_relations, size=(5, n_r))
        batched = embed_structure(m, tag, anchors, relations)
        assert len(batched) == (2 if tag in ("2u", "up") else 1)
        for cone in batched:
            av, pv = ad.values_of(cone.axis), ad.values_of(cone.aperture)
            assert av.shape == (5, store.d)
            assert np.all(av >= -PI) and np.all(av < PI)
            assert np.all(pv >= 0.0) and np.all(pv <= TWO_PI + 1e-12)
        # row 2 of the batch == the same query embedded alone
        ast = ground(STRUCTURE_TEMPLATES[tag], anchors[2], relations[2])
        single = embed_query(m, ast)
        for bc, sc in zip(batched, single):
            assert np.allclose(ad.values_of(bc.axis)[2], ad.values_of(sc.axis)[0], atol=0)
            assert np.allclose(
                ad.values_of(bc.aperture)[2], ad.values_of(sc.aperture)[0], atol=0
            )


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def _chord_l1(a, b):
    return abs(math.cos(a) - math.cos(b)) + abs(math.sin(a) - math.sin(b))


def test_distance_zero_on_upper_boundary_outside_part():
    cone = ConeBatch(np.array([[0.0]]), np.array([[1.0]]))
    point = np.array([[0.5]])  # exactly the upper boundary angle
    assert cone_entity_distance(cone, point, lam=0.0)[0] == 0.0


def test_distance_nonnegative_and_broadcasts():
    rng = np.random.default_rng(11)
    cone = ConeBatch(rng.uniform(-PI, PI, size=(4, 1, 3)), rng.uniform(0, TWO_PI, size=(4, 1, 3)))
    points = rng.uniform(-PI, PI, size=(4, 7, 3))
    dist = cone_entity_distance(cone, points, lam=0.4)
    assert dist.shape == (4, 7)
    assert np.all(dist >= 0.0)


def test_distance_decreases_approaching_the_cone():
    # sweep from the complement toward the boundary along one dimension,
    # staying within the region where the chord L1 metric is monotone
    cone = ConeBatch(np.array([[0.0]]), np.array([[1.0]]))
    sweep = np.linspace(1.8, 0.5, 60).reshape(-1, 1)
    dist = cone_entity_distance(cone, sweep, lam=0.5)
    assert np.all(np.diff(dist) <= 1e-12)


def test_chord_l1_metric_peaks_before_the_antipode():
    # known property of the L1 metric over (cos, sin) coordinates: the
    # distance to a point peaks at 3*pi/4 angular gap, not at pi, so global
    # monotonicity over the whole complement cannot hold
    singleton = ConeBatch(np.array([[0.0]]), np.array([[0.0]]))
    d_peak = cone_entity_distance(singleton, np.array([[3 * PI / 4]]), lam=0.7)[0]
    d_antipode = cone_entity_distance(singleton, np.array([[PI]]), lam=0.7)[0]
    assert d_peak > d_antipode
    assert abs(d_peak - _chord_l1(0.0, 3 * PI / 4)) < 1e-12


def test_dnf_distance_minimum_semantics():
    rng = np.random.default_rng(12)
    points = rng.uniform(-PI, PI, size=(3, 4))
    a = ConeBatch(rng.uniform(-PI, PI, size=(3, 4)), rng.uniform(0, TWO_PI, size=(3, 4)))
    b = ConeBatch(rng.uniform(-PI, PI, size=(3, 4)), rng.uniform(0, TWO_PI, size=(3, 4)))
    da = cone_entity_distance(a, points, lam=0.2)
    dd = dnf_entity_distance([a], points, lam=0.2)
    assert np.array_equal(da, dd)
    assert np.array_equal(dnf_entity_distance([a, a], points, lam=0.2), da)
    both = dnf_entity_distance([a, b], points, lam=0.2)
    assert np.all(both <= da + 1e-15)
    with pytest.raises(ValueError):
        dnf_entity_distance([], points, lam=0.2)


# The three layouts the program feeds the distance: training positives
# ((b, d) vs (b, d)), training negatives ((b, 1, d) vs (b, n, d)) and
# evaluation ranking ((chunk, 1, d) vs (n_entities, d)).
LAYOUTS = {
    "positives": ((16, 8), (16, 8)),
    "negatives": ((16, 1, 8), (16, 5, 8)),
    "ranking": ((6, 1, 8), (37, 8)),
}


def _random_distance_inputs(rng, cone_shape, entity_shape):
    return (rng.uniform(-PI, PI, size=cone_shape), rng.uniform(0.0, TWO_PI, size=cone_shape),
            rng.uniform(-PI, PI, size=entity_shape))


def _distance_grads(distance, axis, aperture, entity, weights, lam):
    tape = ad.Tape()
    leaves = [tape.leaf(x) for x in (axis, aperture, entity)]
    out = distance(ConeBatch(leaves[0], leaves[1]), leaves[2], lam)
    tape.backward(ad.total(ad.multiply(out, weights)))
    return [leaf.grad for leaf in leaves]


def _assert_grads_close(got, want):
    """Each gradient within 1e-12 of the reference, relative to its largest entry."""
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_fused_distance_forward_equals_composed_reference(layout):
    rng = np.random.default_rng(21)
    axis, aperture, entity = _random_distance_inputs(rng, *LAYOUTS[layout])
    fused = cone_entity_distance(ConeBatch(axis, aperture), entity, 0.3)
    reference = composed_cone_entity_distance(ConeBatch(axis, aperture), entity, 0.3)
    assert fused.shape == reference.shape
    assert np.array_equal(fused, reference)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_fused_distance_gradients_match_composed_reference(layout):
    rng = np.random.default_rng(22)
    inputs = _random_distance_inputs(rng, *LAYOUTS[layout])
    cone_shape, entity_shape = LAYOUTS[layout]
    weights = rng.normal(size=np.broadcast_shapes(cone_shape, entity_shape)[:-1])
    _assert_grads_close(_distance_grads(cone_entity_distance, *inputs, weights, 0.3),
                        _distance_grads(composed_cone_entity_distance, *inputs, weights, 0.3))


def _kink_case(name):
    """(axis, aperture, entity) of shape (2, 2) placing one kink of the
    distance exactly at the evaluation point."""
    rng = np.random.default_rng(23)
    axis = rng.uniform(-PI, PI, size=(2, 2))
    aperture = rng.uniform(0.2, 2.0, size=(2, 2))
    entity = rng.uniform(-PI, PI, size=(2, 2))
    if name == "aperture_zero":
        aperture[:, 0] = 0.0
    elif name == "aperture_full":
        aperture[:, 1] = TWO_PI
    elif name == "entity_on_boundary":
        entity[:, 0] = axis[:, 0] + aperture[:, 0] * 0.5
    elif name == "upper_lower_tie":
        # mirrored dimensions: L1 to upper and to lower sum the same terms
        axis[:] = 0.0
        aperture[:, 1] = aperture[:, 0]
        entity[:, 0] = 0.3
        entity[:, 1] = -0.3
    elif name == "axis_upper_to_axis_tie":
        # L1(axis, e) and L1(upper, axis) sum the same two terms
        axis[:] = 0.0
        aperture[:, 0], aperture[:, 1] = 1.0, 0.6
        entity[:, 0] = aperture[:, 1] * 0.5
        entity[:, 1] = aperture[:, 0] * 0.5
    return axis, aperture, entity


KINKS = ["aperture_zero", "aperture_full", "entity_on_boundary", "upper_lower_tie",
         "axis_upper_to_axis_tie"]


@pytest.mark.parametrize("kink", KINKS)
def test_fused_distance_subgradients_at_kinks(kink):
    axis, aperture, entity = _kink_case(kink)
    lam = 0.7
    upper, lower = axis + aperture * 0.5, axis - aperture * 0.5

    def l1(a, b):
        return np.sum(np.abs(np.cos(a) - np.cos(b)) + np.abs(np.sin(a) - np.sin(b)), axis=-1)

    if kink == "upper_lower_tie":
        assert np.array_equal(l1(upper, entity), l1(lower, entity))
    if kink == "axis_upper_to_axis_tie":
        assert np.array_equal(l1(axis, entity), l1(upper, axis))
    dist = cone_entity_distance(ConeBatch(axis, aperture), entity, lam)
    assert np.array_equal(dist, composed_cone_entity_distance(ConeBatch(axis, aperture),
                                                              entity, lam))

    weights = np.ones(dist.shape)
    _assert_grads_close(
        _distance_grads(cone_entity_distance, axis, aperture, entity, weights, lam),
        _distance_grads(composed_cone_entity_distance, axis, aperture, entity, weights, lam))

    def f(a, p, e):
        return ad.total(cone_entity_distance(ConeBatch(a, p), e, lam))

    assert ad.grad_check(f, [axis, aperture, entity], subgradient=True) < 1e-4


@pytest.mark.parametrize("tile_rows", [3, 1])
@pytest.mark.parametrize("kink", KINKS)
def test_fused_distance_subgradients_at_kinks_over_tiles(monkeypatch, kink, tile_rows):
    # the negatives layout: (2, 1, 2) cones against (2, 7, 2) entity rows in
    # tiles of 3, 3 and 1 rows (a matmul sums each tile's rows) or of one
    # row each; rows 0, 3 and 6 sit on the kink and the others are random
    axis, aperture, kinked = _kink_case(kink)
    rng = np.random.default_rng(26)
    entity = rng.uniform(-PI, PI, size=(2, 7, 2))
    entity[:, ::3] = kinked[:, None, :]
    axis, aperture = axis[:, None, :], aperture[:, None, :]
    monkeypatch.setattr(model, "_TILE_BYTES", tile_rows * 2 * 2 * 8)
    lam = 0.7
    dist = cone_entity_distance(ConeBatch(axis, aperture), entity, lam)
    assert np.array_equal(dist, composed_cone_entity_distance(ConeBatch(axis, aperture),
                                                              entity, lam))

    weights = rng.normal(size=dist.shape)
    _assert_grads_close(
        _distance_grads(cone_entity_distance, axis, aperture, entity, weights, lam),
        _distance_grads(composed_cone_entity_distance, axis, aperture, entity, weights, lam))

    def f(a, p, e):
        return ad.total(cone_entity_distance(ConeBatch(a, p), e, lam))

    assert ad.grad_check(f, [axis, aperture, entity], subgradient=True) < 1e-4


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("n_entities", [13, 3, 1])
def test_tiled_distance_equals_single_block(monkeypatch, layout, n_entities):
    # 5 entity rows per tile: 13 leaves a partial tile, 3 and 1 fit in one
    rng = np.random.default_rng(24)
    chunk, d = 3, 4
    cone_shape, entity_shape = {
        "positives": ((n_entities, d), (n_entities, d)),
        "negatives": ((chunk, 1, d), (chunk, n_entities, d)),
        "ranking": ((chunk, 1, d), (n_entities, d)),
    }[layout]
    axis, aperture, entity = _random_distance_inputs(rng, cone_shape, entity_shape)
    weights = rng.normal(size=np.broadcast_shapes(cone_shape, entity_shape)[:-1])
    outer = chunk if layout != "positives" else 1

    def run():
        dist = cone_entity_distance(ConeBatch(axis, aperture), entity, 0.4)
        return dist, _distance_grads(cone_entity_distance, axis, aperture, entity, weights, 0.4)

    monkeypatch.setattr(model, "_TILE_BYTES", 1 << 40)
    whole, whole_grads = run()
    monkeypatch.setattr(model, "_TILE_BYTES", 5 * outer * d * 8)
    tiled, tiled_grads = run()
    assert np.array_equal(tiled, whole)
    assert np.array_equal(tiled, composed_cone_entity_distance(
        ConeBatch(axis, aperture), entity, 0.4))
    _assert_grads_close(tiled_grads, whole_grads)
    _assert_grads_close(tiled_grads, _distance_grads(
        composed_cone_entity_distance, axis, aperture, entity, weights, 0.4))


@pytest.mark.parametrize("tiles, nan", [("one", False), ("several", False), ("several", True)])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_far_tiles_skip_the_axis_chord_bit_for_bit(monkeypatch, layout, tiles, nan):
    # cones of apertures below 0.4 against random entities, which are far
    # from them; with several tiles, the first tile's entities sit inside a
    # cone (so it takes its axis chords) and, with nan, one entity of the
    # last tile is NaN (so it takes them too)
    rng = np.random.default_rng(29)
    cone_shape, entity_shape = LAYOUTS[layout]
    axis = rng.uniform(-PI, PI, size=cone_shape)
    aperture = rng.uniform(0.0, 0.4, size=cone_shape)
    entity = rng.uniform(-PI, PI, size=entity_shape)
    full = np.broadcast_shapes(cone_shape, entity_shape)
    rows, outer, d = full[-2], math.prod(full[:-2]), full[-1]
    tile = rows if tiles == "one" else {"positives": 4, "negatives": 2, "ranking": 8}[layout]
    monkeypatch.setattr(model, "_TILE_BYTES", tile * outer * d * 8)
    n_tiles = -(-rows // tile)
    if tiles == "several":
        inside = axis + rng.uniform(-0.5, 0.5, size=cone_shape) * aperture
        entity[..., :tile, :] = inside[0] if layout == "ranking" else inside[..., :tile, :]
    if nan:
        entity[..., -1, 0] = np.nan
    weights = rng.normal(size=full[:-1])
    calls = count_chords(monkeypatch)

    def run():
        calls[0] = 0
        dist = cone_entity_distance(ConeBatch(axis, aperture), entity, 0.3)
        chords = calls[0]
        return chords, [dist] + _distance_grads(cone_entity_distance, axis, aperture, entity,
                                                weights, 0.3)

    chords, pruned = run()
    monkeypatch.setattr(model, "_FAR", math.inf)
    all_chords, unpruned = run()
    assert all_chords == 1 + 3 * n_tiles
    skipped = {"one": 1, "several": n_tiles - 1 - nan}[tiles]
    assert all_chords - chords == skipped > 0
    for got, want in zip(pruned, unpruned):
        assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(pruned[0]).any() == nan


@settings(max_examples=100, deadline=None)
@given(d=st.one_of(st.integers(1, 64), st.just(800)), seed=st.integers(0, 2**32 - 1))
def test_far_test_proves_the_axis_chord_loses(d, seed):
    # every pair the kernel would skip the axis chord for (p_u > _FAR p_ua)
    # has a computed p_a above p_ua.  Per cone, the entities are: random; on
    # the arc from the axis to the upper boundary; and at axis - s *
    # aperture / 2, beyond the axis, for the 9 values of s nearest to where
    # the computed p_a crosses p_ua, so p_u is near 2 p_ua where the arc is
    # short.  A bare factor 2 fails there.
    rng = np.random.default_rng(seed)
    n = max(4, 4096 // d)
    axis = rng.uniform(-PI, PI, size=(n, 1, d))
    scale = rng.choice([1e-6, 0.3, TWO_PI], size=(n, 1, 1))
    aperture = np.select([rng.random((n, 1, d)) < p for p in (0.05, 0.1, 0.15)],
                         [0.0, TWO_PI, 1e-300], rng.random((n, 1, d)) * scale)
    half = aperture * 0.5
    cu, su, _, _, ca, sa = model._cone_trig(axis, aperture)
    p_ua = model._chord_l1(cu, su, ca, sa, np.empty(axis.shape), np.empty(axis.shape))

    def chords(entity):  # p_u and p_a
        ce, se = np.cos(entity), np.sin(entity)
        buf, tmp = np.empty(entity.shape), np.empty(entity.shape)
        return (model._chord_l1(cu, su, ce, se, buf, tmp),
                model._chord_l1(ca, sa, ce, se, buf, tmp))

    lo, hi = np.full((n, 1, 1), 0.5), np.full((n, 1, 1), 2.0)
    for _ in range(60):  # bisect each cone's s for p_a = p_ua
        mid = (lo + hi) * 0.5
        below = (chords(axis - mid * half)[1] <= p_ua)[..., None]
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    s = lo + np.arange(-4, 5)[:, None] * np.spacing(lo)
    entity = np.concatenate((rng.uniform(-PI, PI, size=(n, 4, d)),
                             axis + rng.random((n, 4, d)) * half, axis - s * half), axis=1)
    p_u, p_a = chords(entity)
    far = p_u > p_ua * model._FAR
    assert np.all(p_a[far] > np.broadcast_to(p_ua, p_a.shape)[far])


def test_distance_table_peak_memory_stays_below_one_dense_array():
    rng = np.random.default_rng(25)
    chunk, n_entities, d = 64, 5000, 16
    axis, aperture, entity = _random_distance_inputs(rng, (chunk, 1, d), (n_entities, d))
    dense_bytes = chunk * n_entities * d * 8
    tracemalloc.start()
    try:
        table = cone_entity_distance(ConeBatch(axis, aperture), entity, 0.02)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (chunk, n_entities)
    assert peak < dense_bytes


def _capture_vjp(monkeypatch):
    """Make ``ad.fused`` also append each VJP it records to the returned list."""
    vjps = []
    fused = ad.fused

    def recording(out, inputs, vjp):
        vjps.append(vjp)
        return fused(out, inputs, vjp)

    monkeypatch.setattr(ad, "fused", recording)
    return vjps


def test_distance_backward_peak_memory_stays_near_one_dense_array(monkeypatch):
    # the negatives layout over 32 tiles: beside the (b, n, d) entity gradient
    # it returns, the VJP may hold (b, n) weights and a few tiles, but no
    # second (b, n, d) array such as a full sign or selection
    rng = np.random.default_rng(27)
    b, n, d = 16, 512, 128
    axis, aperture, entity = _random_distance_inputs(rng, (b, 1, d), (b, n, d))
    vjps = _capture_vjp(monkeypatch)
    tape = ad.Tape()
    leaves = [tape.leaf(x) for x in (axis, aperture, entity)]
    dist = cone_entity_distance(ConeBatch(leaves[0], leaves[1]), leaves[2], 0.3)
    g = rng.normal(size=ad.values_of(dist).shape)
    dense_bytes = b * n * d * 8
    assert dense_bytes // model._TILE_BYTES == 32
    tracemalloc.start()
    try:
        grads = vjps[0](g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grads[2].shape == (b, n, d)
    assert peak < dense_bytes + 12 * model._TILE_BYTES


def _distance_and_grads(shape_pair, seed):
    rng = np.random.default_rng(seed)
    axis, aperture, entity = _random_distance_inputs(rng, *shape_pair)
    dist = cone_entity_distance(ConeBatch(axis, aperture), entity, 0.3)
    weights = rng.normal(size=dist.shape)
    return [dist] + _distance_grads(cone_entity_distance, axis, aperture, entity, weights, 0.3)


def test_distance_scratch_is_private_to_each_thread():
    # four threads (more than this suite assumes cores) run forward and
    # backward at different shapes at once, so each one's tiles would
    # overwrite another's if the scratch were shared
    shapes = [((16, 1, 64), (16, 96, 64)), ((16, 1, 64), (16, 40, 64)),
              ((64, 64), (64, 64)), ((8, 1, 32), (300, 32))]
    serial = [_distance_and_grads(pair, seed) for seed, pair in enumerate(shapes)]
    results = [[] for _ in shapes]

    def work(i):
        for _ in range(5):
            results[i].append(_distance_and_grads(shapes[i], i))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(shapes))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, got in zip(serial, results):
        assert len(got) == 5
        for run in got:
            assert all(np.array_equal(a, b) for a, b in zip(run, want))


def test_distance_scratch_pool_is_bounded():
    # in a fresh thread, whose workspace starts empty; a taped forward takes
    # two tile buffers and the VJP three, and bare angles' entity gradient is
    # returned, so it is not pooled
    rng = np.random.default_rng(28)
    pools = []

    def work():
        for rows in range(1, 40):
            axis, aperture, entity = _random_distance_inputs(rng, (3, 1, 4), (3, rows, 4))
            _distance_grads(cone_entity_distance, axis, aperture, entity,
                            np.ones((3, rows)), 0.3)
        pools.append(dict(model._workspace_cache.pool))

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    (pool,) = pools
    assert sorted(pool) == ["tile0", "tile1", "vjp0", "vjp1", "vjp2"]
    assert all(buf.nbytes <= model._TILE_BYTES for buf in pool.values())


def _seeded_distance_grads(disjuncts, bare, seed):
    """Cone and entity gradients of ``cone_entity_distance`` (one disjunct)
    or ``dnf_entity_distance`` from (4, 1, 6) cones to bare (4, 5, 6) angles
    or to ``entity_points`` of a (4, 5) id array, random weights on the
    output."""
    rng = np.random.default_rng(seed)
    tape = ad.Tape()
    cones = [ConeBatch(tape.leaf(rng.uniform(-PI, PI, size=(4, 1, 6))),
                       tape.leaf(rng.uniform(0.0, TWO_PI, size=(4, 1, 6))))
             for _ in range(disjuncts)]
    if bare:
        table = entity = tape.leaf(rng.uniform(-PI, PI, size=(4, 5, 6)))
    else:  # the gradient is scattered into the table
        m = ParameterStore(12, 2, 6, seed=seed).tensors(tape)
        table, entity = m.entity_axis, entity_points(m, rng.integers(0, 12, size=(4, 5)))
    if disjuncts == 1:
        out = cone_entity_distance(cones[0], entity, 0.3)
    else:
        out = dnf_entity_distance(cones, entity, 0.3)
    tape.backward(ad.total(ad.multiply(out, rng.normal(size=(4, 5)))))
    return [x.grad for c in cones for x in c] + [table.grad]


@pytest.mark.parametrize("disjuncts", [1, 2])
@pytest.mark.parametrize("bare", [True, False])
def test_distance_gradients_survive_the_next_call(disjuncts, bare):
    first = _seeded_distance_grads(disjuncts, bare, 0)
    kept = [g.copy() for g in first]
    second = _seeded_distance_grads(disjuncts, bare, 1)
    assert not np.array_equal(first[-1], second[-1])
    for g, copy in zip(first, kept):
        assert np.array_equal(g, copy)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_loss_at_margin_is_two_log_two():
    val = margin_loss(np.array([20.0]), np.array([[20.0, 20.0, 20.0]]), margin=20.0)
    assert abs(val - 2.0 * math.log(2.0)) < 1e-12


def test_loss_vanishes_for_perfect_separation():
    val = margin_loss(np.array([0.0]), np.array([[1e6]]), margin=20.0)
    assert 0.0 < val < 1e-8


def test_loss_keeps_its_slope_far_beyond_the_margin():
    # an untrained store's distances at d = 800 are about 1,200: the loss
    # there is about d_pos - margin, with gradient about 1, not a floor
    tape = ad.Tape()
    pos, neg = tape.leaf([1200.0]), tape.leaf([[1200.0, 1500.0]])
    loss = margin_loss(pos, neg, margin=20.0)
    tape.backward(loss)
    assert loss.values == 1180.0
    assert pos.grad[0] == 1.0 and np.array_equal(neg.grad, np.zeros((1, 2)))


def test_loss_requires_negatives():
    with pytest.raises(ValueError):
        margin_loss(np.array([1.0]), np.zeros((1, 0)), margin=20.0)


def test_loss_gradients_flow_to_all_parameter_groups():
    store = toy_store()
    tape = ad.Tape()
    m = store.tensors(tape)
    anchors = np.array([[0, 1], [2, 3]])
    relations = np.array([[0, 1], [1, 2]])
    disjuncts = embed_structure(m, "2in", anchors, relations)
    pos = entity_points(m, np.array([4, 5]))
    neg = entity_points(m, np.array([[6, 7, 8], [9, 10, 11]]))
    pos_dist = dnf_entity_distance(disjuncts, pos, lam=0.5)
    axis = ad.values_of(disjuncts[0].axis)
    neg_dist = dnf_entity_distance(
        [ConeBatch(ad.reshape(c.axis, (2, 1, store.d)), ad.reshape(c.aperture, (2, 1, store.d)))
         for c in disjuncts],
        neg,
        lam=0.5,
    )
    loss = margin_loss(pos_dist, neg_dist, margin=2.0)
    tape.backward(loss)
    grads = {name: m_tensor.grad for name, m_tensor in (
        ("entity_axis", m.entity_axis),
        ("relation_axis", m.relation_axis),
        ("relation_aperture", m.relation_aperture),
        ("attn_w1", m.attn_w1),
        ("ds_out_w2", m.ds_out_w2),
    )}
    for name, g in grads.items():
        assert g is not None, f"no gradient reached {name}"
        assert np.all(np.isfinite(g))
    assert np.any(grads["entity_axis"] != 0.0)
    assert np.any(grads["relation_axis"] != 0.0)
    assert axis.shape == (2, store.d)


@pytest.mark.parametrize("tag", ALL_STRUCTURES)
def test_batch_loss_equals_public_composition_bit_for_bit(tag):
    # batch_loss takes each distinct entity row's trig and each disjunct's
    # cone trig once for positives and negatives; the loss and every
    # gradient must equal entity_points then dnf_entity_distance, twice, and
    # the gathered-angle composition with one op per disjunct, bit for bit.
    # 12 entities for 6 positives and 6 x 9 negatives repeat ids within and
    # across both, and positive 0 is also among every row's negatives.
    store = toy_store(n_entities=12, d=5, seed=7)
    rng = np.random.default_rng(41)
    store.arrays["entity_axis"] += rng.integers(-2, 3, size=(12, 1)) * TWO_PI
    n_a, n_r = structure_slots(tag)
    anchors = rng.integers(12, size=(6, n_a))
    relations = rng.integers(4, size=(6, n_r))
    positives = rng.integers(12, size=6)
    negatives = rng.integers(12, size=(6, 9))
    negatives[:, 0] = positives[0]
    batch = (store, tag, anchors, relations, positives, negatives)
    got = batch_loss_and_grads(*batch, lam=0.3)
    public = composed_loss_and_grads(*batch, 0.3, entity_points, dnf_entity_distance)
    first = composed_loss_and_grads(*batch, 0.3, lambda m, ids: reference_entity_points(m, ids)[0],
                                    reference_dnf_entity_distance)
    for want in (public, first):
        assert got[0] == want[0]
        assert got[1].keys() == want[1].keys()
        for name, g in got[1].items():
            assert np.array_equal(g, want[1][name]), name
    assert np.any(got[1]["entity_axis"] != 0.0)


def test_eval_path_and_train_path_agree_bitwise():
    store = toy_store()
    anchors = np.array([[0, 1, 2], [3, 4, 5]])
    relations = np.array([[0, 1, 2], [1, 2, 3]])
    points = np.array([7, 8])

    def run(m):
        disjuncts = embed_structure(m, "3i", anchors, relations)
        e = entity_points(m, points)
        return ad.values_of(dnf_entity_distance(disjuncts, e, lam=0.3))

    assert np.array_equal(run(store.tensors()), run(store.tensors(ad.Tape())))


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------


def test_param_count_desk_example():
    # 10 entities, 2 relations, d=4: 40 entity angles and 16 relation angles
    parts = param_breakdown(10, 2, 4)
    assert parts["entity_angles"] + parts["relation_angles"] == 56
    store = ParameterStore(10, 2, 4)
    assert sum(store.arrays[name].size
               for name in ("entity_axis", "relation_axis", "relation_aperture")) == 56


def test_param_count_formula_matches_allocation():
    store = toy_store(n_entities=7, n_relations=3, d=4)
    parts = param_breakdown(7, 3, 4)
    assert sum(a.size for a in store.arrays.values()) == parts["total"]
    assert store.arrays["margin"].size == parts["margin_scalar"]


def test_net_param_count_closed_form():
    for d in (1, 4, 32, 800):
        assert param_breakdown(1, 1, d)["intersection_net"] == 11 * d * d + 7 * d


def test_param_breakdown_components_sum():
    parts = param_breakdown(100, 9, 16)
    assert parts["total"] == (
        parts["entity_angles"] + parts["relation_angles"]
        + parts["intersection_net"] + parts["margin_scalar"]
    )
    assert parts["entity_angles"] == 1600
    assert parts["relation_angles"] == 288


def test_param_count_full_scale_audit():
    # arithmetic-only reproduction of the published full-scale total
    assert param_breakdown(36556, 22, 800)["total"] == 36_325_601


def test_param_breakdown_rejects_non_positive_sizes():
    for sizes in [(-5, 2, 4), (10, 0, 4), (10, 2, 0)]:
        with pytest.raises(ValueError, match="must be positive") as exc:
            param_breakdown(*sizes)
        with pytest.raises(ValueError) as store_exc:
            ParameterStore(*sizes)
        assert str(exc.value) == str(store_exc.value)


def test_store_rejects_bad_configuration():
    with pytest.raises(ValueError):
        ParameterStore(10, 2, 4, rotation_mode="spiral")
    with pytest.raises(ValueError):
        ParameterStore(0, 2, 4)


def test_store_seeding_is_deterministic():
    a = toy_store(seed=42)
    b = toy_store(seed=42)
    c = toy_store(seed=43)
    for name in a.arrays:
        assert np.array_equal(a.arrays[name], b.arrays[name])
    assert not np.array_equal(a.arrays["entity_axis"], c.arrays["entity_axis"])
