"""Tests for tree-form query ASTs, DNF, the symbolic answerer, and datasets."""

import json

import numpy as np
import pytest

import conequery.queries as queries
from conequery.queries import (
    ALL_STRUCTURES,
    EVAL_ONLY_STRUCTURES,
    STRUCTURE_TEMPLATES,
    TRAIN_STRUCTURES,
    DatasetBundle,
    Intersection,
    KnowledgeGraph,
    Negation,
    Nominal,
    Projection,
    QueryInstance,
    Union,
    answer_symbolic,
    dnf_disjuncts,
    generate_dataset,
    ground,
    random_split,
    read_id_map,
    read_queries_jsonl,
    read_triples_tsv,
    sample_instance,
    structure_slots,
    to_dnf,
    validate_ast,
    write_id_map,
    write_queries_jsonl,
    write_triples_tsv,
)

from _helpers import (
    MALFORMED_ID_MAPS,
    MALFORMED_QUERY_FILES,
    complement_answers,
    naive_answers,
    random_kg,
    recursive_walk,
    write_malformed_id_map,
    write_malformed_query_file,
)


# ---------------------------------------------------------------------------
# templates and grounding
# ---------------------------------------------------------------------------

EXPECTED_SLOTS = {
    "1p": (1, 1), "2p": (1, 2), "3p": (1, 3),
    "2i": (2, 2), "3i": (3, 3),
    "pi": (2, 3), "ip": (2, 3),
    "2u": (2, 2), "up": (2, 3),
    "2in": (2, 2), "3in": (3, 3), "inp": (2, 3),
    "pin": (2, 3), "pni": (2, 3),
}


def test_structure_inventory():
    assert set(ALL_STRUCTURES) == set(STRUCTURE_TEMPLATES)
    assert len(ALL_STRUCTURES) == 14
    assert set(TRAIN_STRUCTURES) | set(EVAL_ONLY_STRUCTURES) == set(ALL_STRUCTURES)
    assert set(TRAIN_STRUCTURES) & set(EVAL_ONLY_STRUCTURES) == set()
    assert len(TRAIN_STRUCTURES) == 10


@pytest.mark.parametrize("tag", ALL_STRUCTURES)
def test_slot_counts(tag):
    assert structure_slots(tag) == EXPECTED_SLOTS[tag]


def test_ground_substitutes_ids():
    ast = ground(STRUCTURE_TEMPLATES["2p"], [7], [3, 5])
    assert ast == Projection(5, Projection(3, Nominal(7)))


def test_ground_pni_shape():
    ast = ground(STRUCTURE_TEMPLATES["pni"], [1, 2], [10, 11, 12])
    assert isinstance(ast, Intersection)
    neg, pos = ast.children
    assert neg == Negation(Projection(11, Projection(10, Nominal(1))))
    assert pos == Projection(12, Nominal(2))


def test_validate_rejects_malformed():
    with pytest.raises(ValueError):
        validate_ast(Intersection((Nominal(0),)))
    with pytest.raises(ValueError):
        validate_ast(Negation(Nominal(0)))
    validate_ast(Negation(Nominal(0)), allow_root_negation=True)
    with pytest.raises(ValueError):
        validate_ast(Projection("r", Nominal(0)))
    for tag in ALL_STRUCTURES:
        validate_ast(STRUCTURE_TEMPLATES[tag])


# ---------------------------------------------------------------------------
# DNF transform
# ---------------------------------------------------------------------------


def test_dnf_2u_already_normal():
    ast = ground(STRUCTURE_TEMPLATES["2u"], [0, 1], [0, 1])
    assert to_dnf(ast) == ast


def test_dnf_up_pushes_union_to_root():
    ast = ground(STRUCTURE_TEMPLATES["up"], [0, 1], [0, 1, 2])
    out = to_dnf(ast)
    assert out == Union((
        Projection(2, Projection(0, Nominal(0))),
        Projection(2, Projection(1, Nominal(1))),
    ))


def test_dnf_union_free_is_identity():
    for tag in ALL_STRUCTURES:
        if tag in ("2u", "up"):
            continue
        ast = ground(STRUCTURE_TEMPLATES[tag],
                     range(structure_slots(tag)[0]),
                     range(structure_slots(tag)[1]))
        assert to_dnf(ast) == ast


def test_dnf_intersection_of_unions_distributes():
    ast = Intersection((
        Union((Nominal(0), Nominal(1))),
        Union((Nominal(2), Nominal(3))),
    ))
    out = to_dnf(ast)
    assert isinstance(out, Union)
    assert len(out.children) == 4
    assert out.children[0] == Intersection((Nominal(0), Nominal(2)))


def test_dnf_negated_union_de_morgan():
    ast = Intersection((
        Nominal(9),
        Negation(Union((Nominal(0), Nominal(1)))),
    ))
    out = to_dnf(ast)
    assert out == Intersection((
        Nominal(9),
        Negation(Nominal(0)),
        Negation(Nominal(1)),
    ))


def test_dnf_idempotent():
    for tag in ALL_STRUCTURES:
        ast = ground(STRUCTURE_TEMPLATES[tag],
                     range(structure_slots(tag)[0]),
                     range(structure_slots(tag)[1]))
        once = to_dnf(ast)
        assert to_dnf(once) == once


def test_dnf_preserves_answers_on_random_queries():
    rng = np.random.default_rng(11)
    graph = random_kg(rng, n_entities=40, n_relations=4, n_triples=260)
    checked = 0
    for _ in range(120):
        tag = ALL_STRUCTURES[int(rng.integers(len(ALL_STRUCTURES)))]
        n_a, n_r = structure_slots(tag)
        anchors = [int(rng.integers(graph.n_entities)) for _ in range(n_a)]
        rels = [int(rng.integers(graph.n_relations)) for _ in range(n_r)]
        ast = ground(STRUCTURE_TEMPLATES[tag], anchors, rels)
        assert answer_symbolic(to_dnf(ast), graph) == answer_symbolic(ast, graph)
        checked += 1
    assert checked == 120


# ---------------------------------------------------------------------------
# symbolic answering
# ---------------------------------------------------------------------------


def test_projection_forward_and_reverse_reading():
    # A tiny sports graph: 0 plays for 1, 1 won 2.  The concept "those who
    # play for team 1" reads the playsFor edge in reverse: heads pointing
    # into entity 1.
    graph = KnowledgeGraph([(0, 0, 1), (1, 1, 2)], n_entities=3, n_relations=2)
    assert {h for (h, r) in graph.incoming(1) if r == 0} == {0}
    # Forward reading used by the answerer: from {0} along playsFor.
    assert answer_symbolic(Projection(0, Nominal(0)), graph) == {1}
    # Chain: team of 0 that won something.
    two_hop = Projection(1, Projection(0, Nominal(0)))
    assert answer_symbolic(two_hop, graph) == {2}


def test_negation_of_nominal_is_everything_else():
    graph = KnowledgeGraph([(0, 0, 1)], n_entities=5, n_relations=1)
    ast = Intersection((Negation(Nominal(3)), Negation(Nominal(0))))
    assert answer_symbolic(ast, graph) == {1, 2, 4}


def test_empty_projection():
    graph = KnowledgeGraph([(0, 0, 1)], n_entities=3, n_relations=2)
    assert answer_symbolic(Projection(1, Nominal(0)), graph) == frozenset()


def test_answer_rejects_unknown_ids():
    graph = KnowledgeGraph([(0, 0, 1)], n_entities=2, n_relations=1)
    with pytest.raises(ValueError):
        answer_symbolic(Nominal(9), graph)
    with pytest.raises(ValueError):
        answer_symbolic(Projection(4, Nominal(0)), graph)


def test_graph_rejects_out_of_range_triples():
    with pytest.raises(ValueError):
        KnowledgeGraph([(0, 0, 9)], n_entities=3, n_relations=1)
    with pytest.raises(ValueError):
        KnowledgeGraph([(0, 5, 1)], n_entities=3, n_relations=1)


@pytest.mark.parametrize("tag", ALL_STRUCTURES)
def test_agreement_with_independent_oracle(tag):
    """answer_symbolic vs a hand-coded per-structure set comprehension."""
    rng = np.random.default_rng(hash(tag) % (2**32))
    graph = random_kg(rng, n_entities=50, n_relations=5, n_triples=420)
    n_a, n_r = structure_slots(tag)
    for trial in range(25):
        if trial < 15:
            inst = sample_instance(rng, tag, graph)
            if inst is None:
                continue
            anchors, rels = inst.anchors, inst.relations
        else:  # arbitrary ids, answers may be empty
            anchors = tuple(int(rng.integers(graph.n_entities)) for _ in range(n_a))
            rels = tuple(int(rng.integers(graph.n_relations)) for _ in range(n_r))
        ast = ground(STRUCTURE_TEMPLATES[tag], anchors, rels)
        expect = naive_answers(tag, anchors, rels, graph.triples, graph.n_entities)
        assert answer_symbolic(ast, graph) == expect


def _all_negated(node):
    """Every intersection in the tree with each child wrapped in a negation."""
    if isinstance(node, Intersection):
        return Intersection(tuple(Negation(_all_negated(c)) for c in node.children))
    if isinstance(node, Projection):
        return Projection(node.relation, _all_negated(node.child))
    if isinstance(node, Negation):
        return Negation(_all_negated(node.child))
    if isinstance(node, Union):
        return Union(tuple(_all_negated(c) for c in node.children))
    return node


@pytest.mark.parametrize("tag", ALL_STRUCTURES)
def test_answers_equal_complement_reference(tag):
    """answer_symbolic subtracts negated branches; the reference complements
    them.  Both must agree, also where every child of an intersection is
    negated and the complement cannot be avoided."""
    rng = np.random.default_rng(sum(map(ord, tag)))
    graph = random_kg(rng, n_entities=30, n_relations=3, n_triples=150)
    n_a, n_r = structure_slots(tag)
    nonempty = 0
    for trial in range(60):
        inst = sample_instance(rng, tag, graph) if trial % 2 else None
        if inst is not None:
            anchors, rels = inst.anchors, inst.relations
        else:
            anchors = tuple(int(rng.integers(graph.n_entities)) for _ in range(n_a))
            rels = tuple(int(rng.integers(graph.n_relations)) for _ in range(n_r))
        ast = ground(STRUCTURE_TEMPLATES[tag], anchors, rels)
        for node in (ast, _all_negated(ast), to_dnf(ast)):
            got = answer_symbolic(node, graph)
            assert got == complement_answers(node, graph)
            nonempty += bool(got)
        # a compiled template answers from the slot ids, as sampling does
        for template in (STRUCTURE_TEMPLATES[tag], _all_negated(STRUCTURE_TEMPLATES[tag])):
            got = queries._compile(template)(anchors, rels, graph)
            assert got == complement_answers(ground(template, anchors, rels), graph)
    assert nonempty > 0


def test_answer_errors_follow_child_order():
    graph = KnowledgeGraph([(0, 0, 1)], n_entities=2, n_relations=1)
    ast = Intersection((Negation(Nominal(5)), Nominal(7)))
    for answerer in (answer_symbolic, complement_answers):
        with pytest.raises(ValueError, match="unknown entity id 5"):
            answerer(ast, graph)
    with pytest.raises(ValueError, match="unknown entity id 3"):
        answer_symbolic(Projection(0, Nominal(3)), graph)


def test_monotone_in_graph_for_negation_free():
    rng = np.random.default_rng(23)
    base = random_kg(rng, n_entities=40, n_relations=4, n_triples=200)
    extra = random_kg(rng, n_entities=40, n_relations=4, n_triples=80)
    bigger = KnowledgeGraph(list(base.triples) + list(extra.triples), 40, 4)
    free_of_negation = [t for t in ALL_STRUCTURES if "n" not in t or t == "1p"]
    assert "2in" not in free_of_negation
    for _ in range(60):
        tag = free_of_negation[int(rng.integers(len(free_of_negation)))]
        n_a, n_r = structure_slots(tag)
        anchors = [int(rng.integers(40)) for _ in range(n_a)]
        rels = [int(rng.integers(4)) for _ in range(n_r)]
        ast = ground(STRUCTURE_TEMPLATES[tag], anchors, rels)
        assert answer_symbolic(ast, base) <= answer_symbolic(ast, bigger)


# ---------------------------------------------------------------------------
# instance sampling and dataset generation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tag", ALL_STRUCTURES)
def test_sampled_instances_have_answers(tag):
    rng = np.random.default_rng(5)
    graph = random_kg(rng, n_entities=60, n_relations=5, n_triples=500)
    hits = 0
    for _ in range(10):
        inst = sample_instance(rng, tag, graph)
        if inst is None:
            continue
        hits += 1
        assert inst.structure == tag
        assert inst.easy, "sampled instance must have answers on its graph"
        assert inst.hard == ()
        assert answer_symbolic(inst.ast(), graph) == set(inst.easy)
    assert hits >= 8, f"sampler failed too often for {tag}"


def test_sampled_hard_answers_need_heldout_edges():
    rng = np.random.default_rng(6)
    small = random_kg(rng, n_entities=60, n_relations=5, n_triples=400)
    extra = random_kg(rng, n_entities=60, n_relations=5, n_triples=200)
    full = KnowledgeGraph(list(small.triples) + list(extra.triples), 60, 5)
    found = 0
    for tag in ("1p", "2p", "2i"):
        for _ in range(20):
            inst = sample_instance(rng, tag, small, full)
            if inst is None:
                continue
            found += 1
            ast = inst.ast()
            on_small = answer_symbolic(ast, small)
            on_full = answer_symbolic(ast, full)
            assert set(inst.easy) == on_small
            assert set(inst.hard) == on_full - on_small
            assert inst.hard
            assert not (set(inst.easy) & set(inst.hard))
    assert found >= 30


def test_random_split_ratios_and_validation():
    triples = [(i % 20, i % 3, (i * 7) % 20) for i in range(100)]
    train, valid, test = random_split(triples, (0.8, 0.1, 0.1), seed=3)
    total = len(set(triples))
    assert len(train) + len(valid) + len(test) == total
    assert abs(len(train) - 0.8 * total) <= 1
    assert not (set(train) & set(valid))
    with pytest.raises(ValueError):
        random_split(triples, (0.5, 0.2, 0.2), seed=3)


def _toy_bundle(seed=0) -> DatasetBundle:
    rng = np.random.default_rng(77)
    graph = random_kg(rng, n_entities=80, n_relations=5, n_triples=900)
    train, valid, test = random_split(graph.triples, (0.8, 0.1, 0.1), seed=1)
    counts = {tag: 4 for tag in ALL_STRUCTURES}
    return generate_dataset(train, valid, test, 80, 5, counts, seed=seed)


def test_generate_dataset_splits_and_audit():
    bundle = _toy_bundle()
    assert {q.structure for q in bundle.train} <= set(TRAIN_STRUCTURES)
    for q in bundle.train:
        assert q.easy and not q.hard
    for q, graph_small, graph_full in (
        [(q, bundle.train_graph, bundle.valid_graph) for q in bundle.valid]
        + [(q, bundle.valid_graph, bundle.full_graph) for q in bundle.test]
    ):
        assert q.hard, "valid/test instances must have hard answers"
        ast = q.ast()
        assert set(q.easy) == answer_symbolic(ast, graph_small)
        assert set(q.easy) | set(q.hard) == answer_symbolic(ast, graph_full)


def test_generate_dataset_deterministic_bytes(tmp_path):
    a, b = _toy_bundle(seed=9), _toy_bundle(seed=9)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_queries_jsonl(pa, a.test)
    write_queries_jsonl(pb, b.test)
    assert pa.read_bytes() == pb.read_bytes()
    c = _toy_bundle(seed=10)
    pc = tmp_path / "c.jsonl"
    write_queries_jsonl(pc, c.test)
    assert pa.read_bytes() != pc.read_bytes()


def test_generate_dataset_same_with_complement_reference(monkeypatch):
    def reference(template):
        return lambda anchors, rels, graph: complement_answers(
            ground(template, anchors, rels), graph)

    for seed in (0, 1, 2, 4):
        with monkeypatch.context() as patch:
            fast = _toy_bundle(seed=seed)
            patch.setattr(queries, "_ANSWERERS", {
                tag: reference(t) for tag, t in STRUCTURE_TEMPLATES.items()})
            slow = _toy_bundle(seed=seed)
        for split in ("train", "valid", "test"):
            assert getattr(fast, split) == getattr(slow, split)
        assert fast.shortfalls == slow.shortfalls


def test_generate_dataset_same_with_recursive_walk_reference(monkeypatch):
    # the compiled walks draw from the rng in the recursive walk's order
    def reference(template):
        return lambda rng, target, graph, anchors, relations: recursive_walk(
            rng, template, target, graph, anchors, relations)

    for seed in (0, 1, 2, 4):
        with monkeypatch.context() as patch:
            fast = _toy_bundle(seed=seed)
            patch.setattr(queries, "_WALKERS", {
                tag: reference(t) for tag, t in STRUCTURE_TEMPLATES.items()})
            slow = _toy_bundle(seed=seed)
        for split in ("train", "valid", "test"):
            assert getattr(fast, split) == getattr(slow, split)
        assert fast.shortfalls == slow.shortfalls


# bounds of 2**31 + 1 and 3 * 2**30 reject about half and a quarter of words
_DRAW_BOUNDS = (1, 2, 3, 5, 7, 1000, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)


@pytest.mark.parametrize("block", [1, 7, None])
def test_draw_stream_equals_generator_integers(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(queries, "_BLOCK", block)
    draws = 3 * queries._BLOCK + 1000  # several refills at every block size
    stream = queries._DrawStream(np.random.default_rng(5))
    plain = np.random.default_rng(5)
    for k in range(draws):
        n = _DRAW_BOUNDS[k % len(_DRAW_BOUNDS)]
        got = stream.integers(n)
        assert type(got) is int
        assert got == plain.integers(n), (k, n)


@pytest.mark.parametrize("n", [0, -1, -(2**40)])
def test_draw_stream_rejects_bounds_below_one(n):
    stream = queries._DrawStream(np.random.default_rng(0))
    with pytest.raises(ValueError):
        np.random.default_rng(0).integers(n)
    with pytest.raises(ValueError):
        stream.integers(n)


def test_generate_dataset_same_with_plain_generator(monkeypatch):
    for seed in (0, 1, 2, 4):
        with monkeypatch.context() as patch:
            fast = _toy_bundle(seed=seed)
            patch.setattr(queries, "_DrawStream", lambda rng: rng)
            slow = _toy_bundle(seed=seed)
        for split in ("train", "valid", "test"):
            assert getattr(fast, split) == getattr(slow, split)
        assert fast.shortfalls == slow.shortfalls


def test_walk_rejects_negation_outside_an_intersection():
    rng = np.random.default_rng(0)
    graph = KnowledgeGraph([(0, 0, 1)], 2, 1)
    walk = queries._compile_walk(Union((Projection(0, Nominal(0)),
                                        Negation(Projection(0, Nominal(1))))))
    with pytest.raises(ValueError, match="cannot sample"):
        walk(rng, 1, graph, {}, {})


def test_generate_dataset_reports_shortfall_instead_of_failing():
    # A single-edge graph cannot host 3p chains or intersections.
    triples = [(0, 0, 1)]
    counts = {"3p": 5, "1p": 1}
    bundle = generate_dataset(triples, [], [], 2, 1, counts, seed=0)
    assert bundle.shortfalls["train"].get("3p") == 5
    assert "1p" not in bundle.shortfalls["train"]


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_queries_jsonl_round_trip_and_shape(tmp_path):
    path = tmp_path / "q.jsonl"
    insts = [
        QueryInstance("pi", (4, 2), (0, 1, 2), (3, 9), (5,)),
        QueryInstance("1p", (0,), (1,), (2,), ()),
    ]
    write_queries_jsonl(path, insts)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    assert list(rec.keys()) == ["structure", "anchors", "relations", "easy", "hard"]
    assert rec["structure"] == "pi" and rec["hard"] == [5]
    assert read_queries_jsonl(path) == insts


def test_queries_jsonl_rejects_unknown_structure(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"structure":"9z","anchors":[],"relations":[],"easy":[],"hard":[]}\n')
    with pytest.raises(ValueError):
        read_queries_jsonl(path)


@pytest.mark.parametrize("case", sorted(MALFORMED_QUERY_FILES))
def test_queries_jsonl_rejects_records_that_miss_their_slots(tmp_path, case):
    path = tmp_path / "bad.jsonl"
    message = write_malformed_query_file(path, case)
    with pytest.raises(ValueError) as exc:
        read_queries_jsonl(path)
    assert str(exc.value).startswith(message)


def test_triples_tsv_round_trip(tmp_path):
    path = tmp_path / "kg.tsv"
    ents = ["alice", "acme", "berlin"]
    rels = ["worksAt", "locatedIn"]
    triples = [(0, 0, 1), (1, 1, 2)]
    write_triples_tsv(path, triples, ents, rels)
    assert path.read_text() == "alice\tworksAt\tacme\nacme\tlocatedIn\tberlin\n"
    got, emap, rmap = read_triples_tsv(path)
    assert got == triples
    assert emap == {"alice": 0, "acme": 1, "berlin": 2}
    assert rmap == {"worksAt": 0, "locatedIn": 1}
    # strict mode with provided maps rejects unknown names
    path2 = tmp_path / "kg2.tsv"
    path2.write_text("alice\tworksAt\tunknown_corp\n")
    with pytest.raises(ValueError):
        read_triples_tsv(path2, entity_ids=emap, relation_ids=rmap)


def test_triples_tsv_rejects_bad_field_count(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("only\ttwo\n")
    with pytest.raises(ValueError):
        read_triples_tsv(path)


def test_id_map_round_trip(tmp_path):
    path = tmp_path / "entities.dict"
    write_id_map(path, ["a", "b", "c"])
    assert path.read_text() == "0\ta\n1\tb\n2\tc\n"
    assert read_id_map(path) == ["a", "b", "c"]
    path.write_text("0\ta\n2\tc\n")
    with pytest.raises(ValueError):
        read_id_map(path)


@pytest.mark.parametrize("case", sorted(MALFORMED_ID_MAPS))
def test_id_map_rejects_malformed_lines(tmp_path, case):
    path = tmp_path / "entities.dict"
    message = write_malformed_id_map(path, case)
    with pytest.raises(ValueError) as info:
        read_id_map(path)
    assert str(info.value).startswith(message)
