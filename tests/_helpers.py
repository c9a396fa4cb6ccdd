"""Shared random generators and small oracles used across test modules."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from conequery.cones import (
    PI,
    TWO_PI,
    Cone,
    Multicone,
    Rotation,
    canonicalize,
    cone_subset,
    mc_contains,
    rotate,
    wrap_angle,
)
from conequery import autodiff as ad
from conequery import conditions, queries
from conequery.evaluation import StructureMetrics
from conequery.model import ConeBatch, cone_entity_distance, embed_structure, margin_loss


def random_cone(rng: np.random.Generator) -> Cone:
    """Random raw cone; mostly proper, with occasional degenerate classes."""
    roll = rng.random()
    start = rng.uniform(-2.0 * TWO_PI, 2.0 * TWO_PI)
    if roll < 0.05:
        return Cone(start, start - rng.uniform(0.1, 1.0))  # empty
    if roll < 0.10:
        return Cone(start, start)  # singleton
    if roll < 0.15:
        return Cone(start, start + TWO_PI + rng.uniform(0.0, 2.0))  # full
    return Cone(start, start + rng.uniform(0.01, TWO_PI - 0.01))


def random_proper_cone(rng: np.random.Generator, max_aperture: float = TWO_PI - 0.01) -> Cone:
    start = rng.uniform(-PI, PI)
    return Cone(start, start + rng.uniform(0.01, max_aperture))


def random_multicone(rng: np.random.Generator, max_members: int = 3) -> Multicone:
    roll = rng.random()
    if roll < 0.04:
        return canonicalize([])
    if roll < 0.08:
        return canonicalize([Cone(0.0, TWO_PI)])
    k = int(rng.integers(1, max_members + 1))
    return canonicalize([random_cone(rng) for _ in range(k)])


def probe_angles(rng: np.random.Generator, m_list, n: int = 32, margin: float = 1e-7):
    """Random angles that stay `margin` away from every boundary in m_list.

    Membership of canonical forms is only meaningful away from boundaries,
    where the shared angle tolerance could flip the answer.
    """
    bounds = []
    for m in m_list:
        for c in m.cones:
            bounds.append(c.lower % TWO_PI)
            bounds.append(c.upper % TWO_PI)
    out = []
    while len(out) < n:
        t = rng.uniform(-PI, PI)
        if all(
            min(abs((t - b) % TWO_PI), TWO_PI - abs((t - b) % TWO_PI)) > margin
            for b in bounds
        ):
            out.append(t)
    return out


def random_same_family_rotation(rng: np.random.Generator) -> Rotation:
    """Rotation from one of the two pure families (no aperture clamp surprises)."""
    if rng.random() < 0.5:
        return Rotation(rng.uniform(-PI, PI), 1.0, rng.uniform(-0.3, 0.3))
    return Rotation(rng.uniform(-PI, PI), rng.uniform(0.2, 1.5), 0.0)


def angle_dist(a: float, b: float) -> float:
    """Shortest angular distance between two directions."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def region_equal_by_sampling(rng, a: Multicone, b: Multicone, n: int = 64) -> bool:
    """Slow membership-sampling check that two multicones denote one region."""
    for t in probe_angles(rng, [a, b], n):
        if mc_contains(a, t) != mc_contains(b, t):
            return False
    return True


def frange(a: float, b: float, n: int):
    step = (b - a) / n
    return [a + i * step for i in range(n + 1)]


def dist_to_turn_multiple(x: float) -> float:
    """Distance from x to the nearest integer multiple of 2*pi."""
    k = round(x / TWO_PI)
    return abs(x - k * TWO_PI)


# ---------------------------------------------------------------------------
# Constructive draws of predicate-holding rotation tuples, with the matching
# cone oracle.  Each draw returns a case whose `check` verifies the claimed
# subset/fixed-point relation on one unsaturated cone.
# ---------------------------------------------------------------------------


@dataclass
class HoldingCase:
    name: str
    report: conditions.ConditionReport
    max_width: float  # cone apertures below this keep every image unclamped
    check: Callable[[Cone], bool]


def draw_holding_containment_additive(rng: np.random.Generator) -> HoldingCase:
    theta_r = rng.uniform(-PI, PI)
    delta_r = rng.uniform(0.0, 0.5)
    extra = rng.uniform(0.0, 0.5)
    delta_s = delta_r + extra
    theta_s = theta_r + rng.uniform(-0.99, 0.99) * 0.5 * extra
    r = Rotation(theta_r, 1.0, delta_r)
    s = Rotation(theta_s, 1.0, delta_s)
    return HoldingCase(
        "containment_additive",
        conditions.containment_additive(r, s),
        TWO_PI - 1.2,
        lambda c: cone_subset(rotate(r, c), rotate(s, c)),
    )


def draw_holding_containment_multiplicative(rng: np.random.Generator) -> HoldingCase:
    theta = rng.uniform(-PI, PI)
    gamma_r = rng.uniform(0.1, 1.4)
    gamma_s = gamma_r + rng.uniform(0.0, 0.5)
    delta_r = rng.uniform(0.0, 0.3)
    delta_s = delta_r + rng.uniform(0.0, 0.3)
    r = Rotation(theta, gamma_r, delta_r)
    s = Rotation(theta, gamma_s, delta_s)
    return HoldingCase(
        "containment_multiplicative",
        conditions.containment_multiplicative(r, s),
        (TWO_PI - 0.7) / 1.9,
        lambda c: cone_subset(rotate(r, c), rotate(s, c)),
    )


def draw_holding_composition_additive(rng: np.random.Generator) -> HoldingCase:
    t1, t2 = rng.uniform(-PI, PI, size=2)
    d1, d2 = rng.uniform(0.0, 0.3, size=2)
    spare = rng.uniform(0.001, 0.3)
    jitter = rng.uniform(-0.99, 0.99) * spare
    r1 = Rotation(t1, 1.0, d1)
    r2 = Rotation(t2, 1.0, d2)
    r3 = Rotation(wrap_angle(t1 + t2) + jitter, 1.0, d1 + d2 + 2.0 * spare)
    return HoldingCase(
        "composition_additive",
        conditions.composition_additive(r1, r2, r3),
        TWO_PI - 1.4,
        lambda c: cone_subset(rotate(r2, rotate(r1, c)), rotate(r3, c)),
    )


def draw_holding_composition_multiplicative(rng: np.random.Generator) -> HoldingCase:
    k = int(rng.integers(-1, 2))
    spare = rng.uniform(0.0, 0.15)
    jitter = rng.uniform(-0.5, 0.5) * spare
    theta = k * TWO_PI + jitter
    g1, g2 = rng.uniform(0.1, 1.2, size=2)
    g3 = g1 * g2 + rng.uniform(0.001, 0.5)
    d1, d2 = rng.uniform(0.0, 0.2, size=2)
    d3 = g2 * d1 + d2 + 2.0 * abs(jitter) + rng.uniform(0.001, 0.2)
    r1 = Rotation(theta, g1, d1)
    r2 = Rotation(theta, g2, d2)
    r3 = Rotation(theta, g3, d3)
    return HoldingCase(
        "composition_multiplicative",
        conditions.composition_multiplicative(r1, r2, r3),
        2.4,
        lambda c: cone_subset(rotate(r2, rotate(r1, c)), rotate(r3, c)),
    )


def draw_holding_transitivity(rng: np.random.Generator) -> HoldingCase:
    gamma = 1.0 if rng.random() < 0.3 else float(rng.uniform(0.05, 1.0))
    theta = int(rng.integers(-1, 2)) * TWO_PI
    r = Rotation(theta, gamma, 0.0)
    return HoldingCase(
        "transitivity",
        conditions.transitivity(r),
        5.0,
        lambda c: cone_subset(rotate(r, rotate(r, c)), rotate(r, c)),
    )


def draw_holding_symmetry(rng: np.random.Generator) -> HoldingCase:
    gamma = 1.0 + rng.uniform(0.0, 1.0)
    delta = rng.uniform(0.0, 0.5)
    window = 0.5 * (gamma + 1.0) * delta
    k = int(rng.integers(-2, 3))
    two_theta = k * TWO_PI + rng.uniform(-0.99, 0.99) * window
    r = Rotation(0.5 * two_theta, gamma, delta)
    return HoldingCase(
        "symmetry",
        conditions.symmetry(r),
        (TWO_PI - 1.1) / 4.0,
        lambda c: cone_subset(c, rotate(r, rotate(r, c))),
    )


CONDITION_DRAWS = (
    draw_holding_containment_additive,
    draw_holding_containment_multiplicative,
    draw_holding_composition_additive,
    draw_holding_composition_multiplicative,
    draw_holding_transitivity,
    draw_holding_symmetry,
)


def oracle_violates(rng: np.random.Generator, case: HoldingCase, n_cones: int) -> bool:
    """True if any random unsaturated cone breaks the case's claimed relation."""
    for _ in range(n_cones):
        start = rng.uniform(-PI, PI)
        width = rng.uniform(0.0, case.max_width)
        if not case.check(Cone(start, start + width)):
            return True
    return False


# ---------------------------------------------------------------------------
# knowledge-graph helpers for query tests
# ---------------------------------------------------------------------------

def random_kg(rng: np.random.Generator, n_entities: int = 50,
              n_relations: int = 5, n_triples: int = 300):
    """A random dense-ish toy knowledge graph for oracle tests."""
    from conequery.queries import KnowledgeGraph

    triples = set()
    while len(triples) < n_triples:
        h = int(rng.integers(n_entities))
        r = int(rng.integers(n_relations))
        t = int(rng.integers(n_entities))
        triples.add((h, r, t))
    return KnowledgeGraph(triples, n_entities, n_relations)


def naive_answers(tag: str, a, r, triples, n_entities: int) -> set:
    """Independent per-structure answerer: straight-line set comprehensions
    over the raw triple set, written without the AST machinery."""
    T = {(int(h), int(rr), int(t)) for h, rr, t in triples}
    E = range(n_entities)

    def edge(h, rel, t):
        return (h, rel, t) in T

    if tag == "1p":
        return {y for y in E if edge(a[0], r[0], y)}
    if tag == "2p":
        return {y for x in E if edge(a[0], r[0], x)
                for y in E if edge(x, r[1], y)}
    if tag == "3p":
        return {y for x1 in E if edge(a[0], r[0], x1)
                for x2 in E if edge(x1, r[1], x2)
                for y in E if edge(x2, r[2], y)}
    if tag == "2i":
        return {y for y in E if edge(a[0], r[0], y) and edge(a[1], r[1], y)}
    if tag == "3i":
        return {y for y in E if edge(a[0], r[0], y) and edge(a[1], r[1], y)
                and edge(a[2], r[2], y)}
    if tag == "pi":
        return {y for y in E
                if any(edge(a[0], r[0], x) and edge(x, r[1], y) for x in E)
                and edge(a[1], r[2], y)}
    if tag == "ip":
        return {y for y in E
                if any(edge(a[0], r[0], x) and edge(a[1], r[1], x)
                       and edge(x, r[2], y) for x in E)}
    if tag == "2u":
        return {y for y in E if edge(a[0], r[0], y) or edge(a[1], r[1], y)}
    if tag == "up":
        return {y for y in E
                if any((edge(a[0], r[0], x) or edge(a[1], r[1], x))
                       and edge(x, r[2], y) for x in E)}
    if tag == "2in":
        return {y for y in E if edge(a[0], r[0], y) and not edge(a[1], r[1], y)}
    if tag == "3in":
        return {y for y in E if edge(a[0], r[0], y) and edge(a[1], r[1], y)
                and not edge(a[2], r[2], y)}
    if tag == "inp":
        return {y for y in E
                if any(edge(a[0], r[0], x) and not edge(a[1], r[1], x)
                       and edge(x, r[2], y) for x in E)}
    if tag == "pin":
        return {y for y in E
                if any(edge(a[0], r[0], x) and edge(x, r[1], y) for x in E)
                and not edge(a[1], r[2], y)}
    if tag == "pni":
        return {y for y in E
                if not any(edge(a[0], r[0], x) and edge(x, r[1], y) for x in E)
                and edge(a[1], r[2], y)}
    raise ValueError(f"unknown structure {tag!r}")


def naive_filtered_rank(distances, answer, known):
    """Sort-based re-ranker: candidates are the answer plus every entity not
    in ``known``; equal-distance competitors sort ahead of the answer
    (pessimistic).  Independent of the counting implementation."""
    known = set(known)
    candidates = [e for e in range(len(distances)) if e == answer or e not in known]
    order = sorted(candidates, key=lambda e: (distances[e], 0 if e != answer else 1))
    return order.index(answer) + 1


# ---------------------------------------------------------------------------
# the cone-entity distance composed from autodiff primitives, one tape node
# per elementary operation: the reference for the fused op in model.py
# ---------------------------------------------------------------------------

def _point_l1(theta_a, theta_b):
    """L1 distance between unit-circle points given angle arrays, summed over
    the trailing dimension axis (i.e. over all 2d real coordinates)."""
    dcos = ad.absval(ad.subtract(ad.cos(theta_a), ad.cos(theta_b)))
    dsin = ad.absval(ad.subtract(ad.sin(theta_a), ad.sin(theta_b)))
    return ad.total(ad.add(dcos, dsin), axis=-1)


def composed_cone_entity_distance(cone, entity_angles, lam: float):
    """outside + lam * inside, written out formula by formula:
    outside = min(L1 to the upper boundary, L1 to the lower boundary),
    inside = min(L1 to the axis, L1 between upper boundary and axis)."""
    half = ad.multiply(cone.aperture, 0.5)
    upper = ad.add(cone.axis, half)
    lower = ad.subtract(cone.axis, half)
    outside = ad.minimum(
        _point_l1(upper, entity_angles), _point_l1(lower, entity_angles)
    )
    inside = ad.minimum(
        _point_l1(cone.axis, entity_angles), _point_l1(upper, cone.axis)
    )
    return ad.add(outside, ad.multiply(inside, float(lam)))


# ---------------------------------------------------------------------------
# the intersection with each network run once per input cone: the reference
# for the stacked model.intersect_cones
# ---------------------------------------------------------------------------

def per_input_intersect_cones(m, cones):
    """Attention axis and DeepSets-scaled minimum aperture, as in
    ``model.intersect_cones``, but with the boundary features and both input
    networks applied to each cone separately and their outputs stacked."""
    from conequery.model import ConeBatch

    def mlp(x, w1, b1, w2, b2):
        hidden = ad.relu(ad.add(ad.matmul(x, w1), b1))
        return ad.add(ad.matmul(hidden, w2), b2)

    feats = []
    for c in cones:
        half = ad.multiply(c.aperture, 0.5)
        feats.append(ad.concat((ad.subtract(c.axis, half), ad.add(c.axis, half)), axis=-1))
    scores = ad.stack([mlp(f, m.attn_w1, m.attn_b1, m.attn_w2, m.attn_b2) for f in feats])
    attn = ad.softmax(scores, axis=0)
    axes = ad.stack([c.axis for c in cones])
    x = ad.total(ad.multiply(attn, ad.cos(axes)), axis=0)
    y = ad.total(ad.multiply(attn, ad.sin(axes)), axis=0)
    axis = ad.wrap(ad.atan2(y, x))
    pooled = ad.mean(ad.stack(
        [mlp(f, m.ds_in_w1, m.ds_in_b1, m.ds_in_w2, m.ds_in_b2) for f in feats]), axis=0)
    factor = ad.sigmoid(mlp(pooled, m.ds_out_w1, m.ds_out_b1, m.ds_out_w2, m.ds_out_b2))
    min_aperture = cones[0].aperture
    for c in cones[1:]:
        min_aperture = ad.minimum(min_aperture, c.aperture)
    return ConeBatch(axis, ad.multiply(min_aperture, factor))


# ---------------------------------------------------------------------------
# the symbolic answerer that builds every negation's complement: the
# reference for queries.answer_symbolic
# ---------------------------------------------------------------------------

def complement_answers(node, graph) -> frozenset:
    """Bottom-up set evaluation in which each Negation is the complement of
    its child within range(n_entities) and an Intersection intersects all of
    its children's sets, negated or not."""
    from conequery.queries import Intersection, Negation, Nominal, Projection, Union

    if isinstance(node, Nominal):
        if not (0 <= node.entity < graph.n_entities):
            raise ValueError(f"unknown entity id {node.entity}")
        return frozenset((node.entity,))
    if isinstance(node, Projection):
        if not (0 <= node.relation < graph.n_relations):
            raise ValueError(f"unknown relation id {node.relation}")
        out: set[int] = set()
        for e in complement_answers(node.child, graph):
            out.update(graph.successors(e, node.relation))
        return frozenset(out)
    if isinstance(node, Intersection):
        parts = [complement_answers(c, graph) for c in node.children]
        return frozenset.intersection(*parts)
    if isinstance(node, Union):
        return frozenset().union(*(complement_answers(c, graph) for c in node.children))
    if isinstance(node, Negation):
        return frozenset(range(graph.n_entities)) - complement_answers(node.child, graph)
    raise ValueError(f"unknown AST node: {node!r}")


# ---------------------------------------------------------------------------
# reference for the compiled sampling walks of queries.sample_instance
# ---------------------------------------------------------------------------

def recursive_walk(rng, node, target, graph, anchors, relations) -> bool:
    """Ground ``node``'s slots so that ``target`` answers it, by recursion
    over the tree in the compiled walk's rng order: a projection draws one
    incoming edge of its target, a negated intersection child is grounded at
    a random reachable entity, and every union branch at the target."""
    from conequery.queries import Intersection, Negation, Nominal, Projection, Union

    def choice(seq):
        return seq[int(rng.integers(len(seq)))]

    if isinstance(node, Nominal):
        anchors[node.entity] = target
        return True
    if isinstance(node, Projection):
        edges = graph.incoming(target)
        if not edges:
            return False
        head, rel = choice(edges)
        relations[node.relation] = rel
        return recursive_walk(rng, node.child, head, graph, anchors, relations)
    if isinstance(node, Intersection):
        for child in node.children:
            if isinstance(child, Negation):
                if not graph.reachable:
                    return False
                at = int(choice(graph.reachable))
                if not recursive_walk(rng, child.child, at, graph, anchors, relations):
                    return False
            elif not recursive_walk(rng, child, target, graph, anchors, relations):
                return False
        return True
    if isinstance(node, Union):
        return all(recursive_walk(rng, c, target, graph, anchors, relations)
                   for c in node.children)
    raise ValueError(f"cannot sample structure node {node!r}")


# ---------------------------------------------------------------------------
# query files that the JSONL reader must reject
# ---------------------------------------------------------------------------

def _record(tag, anchors, relations, **changes):
    record = {"structure": tag, "anchors": anchors, "relations": relations,
              "easy": [5], "hard": []}
    record.update(changes)
    return json.dumps({k: v for k, v in record.items() if v is not None})


def _slots_message(tag):
    n_anchors, n_relations = queries.structure_slots(tag)
    return f"{tag} needs {n_anchors} anchors and {n_relations} relations"


#: Query files whose last record the reader must reject, each with the start
#: of its message after "path:line: ".  A 2i with one anchor, a 1p with two,
#: and a 1p file mixing one and two anchors do not fill their structure's
#: slots; the others miss a key, are not JSON or not an object, or hold an id
#: that is not an integer.
MALFORMED_QUERY_FILES = {
    "2i_one_anchor": ([_record("2i", [3], [0, 1])], _slots_message("2i")),
    "1p_two_anchors": ([_record("1p", [3, 4], [0])], _slots_message("1p")),
    "1p_mixed_lengths": ([_record("1p", [3], [0]), _record("1p", [3, 4], [0])],
                         _slots_message("1p")),
    "missing_hard": ([_record("1p", [3], [0]), _record("1p", [3], [0], hard=None)],
                     "record misses key 'hard'"),
    "not_an_object": (["[1,2]"], "expected a JSON object"),
    "not_json": ([_record("1p", [3], [0]), '{"structure": "1p",'], "not JSON"),
    "string_id": ([_record("1p", ["x"], [0])], "anchors must be a list of integer ids"),
    "float_id": ([_record("1p", [3], [0], easy=[5.5])], "easy must be a list of integer ids"),
}


#: Id maps whose last line ``read_id_map`` must reject, each with the start
#: of its message after "path:line: ".  A repeated id would otherwise drop the
#: first name silently.
MALFORMED_ID_MAPS = {
    "no_tab": (["0\ta", "1 b"], "expected id<TAB>name"),
    "string_id": (["0\ta", "x\tb"], "id 'x' is not an integer"),
    "repeated_id": (["0\ta", "1\tb", "1\tc"], "repeats id 1"),
}


def _write_malformed(path, lines, message) -> str:
    path.write_text("\n".join(lines) + "\n")
    return f"{path}:{len(lines)}: {message}"


def write_malformed_query_file(path, case) -> str:
    """Write one MALFORMED_QUERY_FILES case; return the reader's message prefix."""
    return _write_malformed(path, *MALFORMED_QUERY_FILES[case])


def write_malformed_id_map(path, case) -> str:
    """Write one MALFORMED_ID_MAPS case; return the reader's message prefix."""
    return _write_malformed(path, *MALFORMED_ID_MAPS[case])


# ---------------------------------------------------------------------------
# the per-structure rollup as first written
# ---------------------------------------------------------------------------

def reference_structure_rollup(results) -> StructureMetrics:
    """One structure's metrics with an ``np.mean`` per query and Hits@k."""
    def per_query(fn) -> float:
        return float(np.mean([fn(res) for res in results]))

    return StructureMetrics(
        n_queries=len(results),
        n_answers=sum(len(res.ranks) for res in results),
        mrr=per_query(lambda res: res.query_mrr),
        hits1=per_query(lambda res: np.mean([r <= 1 for r in res.ranks])),
        hits3=per_query(lambda res: np.mean([r <= 3 for r in res.ranks])),
        hits10=per_query(lambda res: np.mean([r <= 10 for r in res.ranks])),
    )


# ---------------------------------------------------------------------------
# the training-step front end as first written
# ---------------------------------------------------------------------------

def reference_wrap_angle(t):
    """The angle wrap by float ``%``, for Python floats and arrays alike."""
    w = (t + PI) % TWO_PI - PI
    if isinstance(w, float):
        return w - TWO_PI if w >= PI else w
    return np.where(w >= PI, w - TWO_PI, w)


def reference_negatives(instance, k, rng, n_entities):
    """``sample_negatives`` by ``rng.choice`` over the complement array, which
    np.unique and np.setdiff1d build."""
    known = np.unique(np.array(instance.easy + instance.hard, dtype=np.int64))
    complement = np.setdiff1d(np.arange(n_entities, dtype=np.int64), known,
                              assume_unique=True)
    if complement.size == 0:
        raise ValueError("every entity answers this query; no negatives exist")
    return rng.choice(complement, size=k, replace=complement.size < k)


def reference_assemble_batch(groups, tags, rng, cfg, n_entities):
    """One ``train()`` batch, instance by instance: the structure, the batch
    rows, then per row its positive and its negatives, in that rng order."""
    tag = tags[int(rng.integers(len(tags)))]
    pool = groups[tag]
    batch = [pool[int(i)] for i in rng.integers(len(pool), size=cfg.b)]
    anchors = np.array([q.anchors for q in batch], dtype=np.int64)
    rels = np.array([q.relations for q in batch], dtype=np.int64)
    positives = np.empty(len(batch), dtype=np.int64)
    negatives = np.empty((len(batch), cfg.n), dtype=np.int64)
    for i, q in enumerate(batch):
        answers = q.easy if q.easy else q.hard
        positives[i] = answers[int(rng.integers(len(answers)))]
        negatives[i] = reference_negatives(q, cfg.n, rng, n_entities)
    return tag, anchors, rels, positives, negatives


def reference_adam_step(store, grads, m, v, t, lr):
    """Adam with fresh arrays per operation; rebinds ``m`` and ``v``'s entries."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    bias1 = 1.0 - beta1 ** t
    bias2 = 1.0 - beta2 ** t
    for name in store.trainable_names():
        g = grads[name]
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
        store.arrays[name] -= lr * (m[name] / bias1) / (np.sqrt(v[name] / bias2) + eps)


# ---------------------------------------------------------------------------
# entity points and the DNF distance as first written: gathered, wrapped
# angles on the tape, one distance op per disjunct
# ---------------------------------------------------------------------------

def reference_entity_points(m, ids):
    """The wrapped (..., d) angles of entity rows ``ids`` by gather then wrap
    (tape tensors when ``m``'s are), and their cos and sin."""
    angles = ad.wrap(ad.gather(m.entity_axis, np.asarray(ids, dtype=np.int64)))
    values = ad.values_of(angles)
    return angles, np.cos(values), np.sin(values)


def reference_dnf_entity_distance(disjuncts, angles, lam):
    """One ``cone_entity_distance`` op per disjunct, chained by ``ad.minimum``."""
    dist = cone_entity_distance(disjuncts[0], angles, lam)
    for cone in disjuncts[1:]:
        dist = ad.minimum(dist, cone_entity_distance(cone, angles, lam))
    return dist


def composed_loss_and_grads(store, tag, anchors, relations, positives, negatives, lam,
                            points, distance):
    """``batch_loss``'s loss and gradients through ``points(m, ids)`` and
    ``distance(disjuncts, entity, lam)``, once for the positives and once for
    the negatives against the disjuncts widened to (batch, 1, d)."""
    size = len(positives)
    tape = ad.Tape()
    m = store.tensors(tape)
    disjuncts = embed_structure(m, tag, anchors, relations)
    pos_dist = distance(disjuncts, points(m, positives), lam)
    wide = [ConeBatch(ad.reshape(c.axis, (size, 1, store.d)),
                      ad.reshape(c.aperture, (size, 1, store.d))) for c in disjuncts]
    neg_dist = distance(wide, points(m, negatives), lam)
    loss = margin_loss(pos_dist, neg_dist, store.margin)
    tape.backward(loss)
    grads = {}
    for name in store.trainable_names():
        g = getattr(m, name).grad
        grads[name] = g if g is not None else np.zeros_like(store.arrays[name])
    return float(ad.values_of(loss)), grads
