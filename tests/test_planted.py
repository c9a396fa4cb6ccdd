"""Tests for the planted-pattern knowledge graph builder."""

import pytest

from conequery.planted import (
    ADVISED_BY,
    ADVISES,
    COLLEAGUE,
    LOCATED_IN,
    MANAGES,
    RELATED,
    RELATION_NAMES,
    WORKS_AT,
    WORKS_IN,
    build_planted_kg,
)


@pytest.fixture(scope="module")
def kg():
    return build_planted_kg(seed=0)


def _by_relation(triples):
    out = {}
    for h, r, t in triples:
        out.setdefault(r, set()).add((h, t))
    return out


def test_shape(kg):
    assert kg.n_entities == 200
    assert kg.n_relations == 8
    assert kg.relation_names == list(RELATION_NAMES)
    assert len(kg.entity_names) == 200
    assert len(set(kg.entity_names)) == 200
    for h, r, t in kg.all_triples:
        assert 0 <= h < 200 and 0 <= t < 200 and 0 <= r < 8


def test_split_disjoint_and_nonempty(kg):
    train, valid, test = set(kg.train), set(kg.valid), set(kg.test)
    assert not (train & valid) and not (train & test) and not (valid & test)
    assert len(valid) >= 30
    assert len(test) >= 45
    assert len(train) >= 700


def test_colleague_is_symmetric_on_the_full_graph(kg):
    pairs = _by_relation(kg.all_triples)[COLLEAGUE]
    assert pairs, "colleague edges must exist"
    for a, b in pairs:
        assert (b, a) in pairs


def test_colleague_not_fully_transitive(kg):
    pairs = _by_relation(kg.all_triples)[COLLEAGUE]
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
    broken = sum(
        1
        for a, bs in adj.items()
        for b in bs
        for c in adj.get(b, ())
        if c != a and c not in bs
    )
    assert broken > 0, "subsampling must leave transitivity gaps"


def test_advises_advisedby_exact_inverse(kg):
    rels = _by_relation(kg.all_triples)
    fwd, bwd = rels[ADVISES], rels[ADVISED_BY]
    assert fwd and bwd
    assert {(b, a) for a, b in fwd} == bwd


def test_composition_exactly_closed(kg):
    rels = _by_relation(kg.all_triples)
    works_at, located_in, works_in = rels[WORKS_AT], rels[LOCATED_IN], rels[WORKS_IN]
    city_of = dict(located_in)
    composed = {(p, city_of[o]) for p, o in works_at}
    assert works_in == composed


def test_manages_strictly_asymmetric(kg):
    pairs = _by_relation(kg.all_triples)[MANAGES]
    assert pairs
    for a, b in pairs:
        assert (b, a) not in pairs
        assert a < b  # construction invariant


def test_related_has_no_reciprocal_pairs(kg):
    pairs = _by_relation(kg.all_triples)[RELATED]
    assert len(pairs) == 100
    for a, b in pairs:
        assert (b, a) not in pairs


def test_heldout_edges_are_inferable_from_train(kg):
    train = set(kg.train)
    train_rel = _by_relation(kg.train)
    works_at = dict(train_rel[WORKS_AT])
    city_of = dict(train_rel[LOCATED_IN])
    for h, r, t in kg.valid + kg.test:
        if r == COLLEAGUE:
            assert (t, COLLEAGUE, h) in train
        elif r == ADVISED_BY:
            assert (t, ADVISES, h) in train
        elif r == ADVISES:
            assert (t, ADVISED_BY, h) in train
        elif r == WORKS_IN:
            assert city_of[works_at[h]] == t
        else:
            raise AssertionError(f"non-inferable relation {r} in holdout")


def test_holdout_only_pattern_relations(kg):
    held_rels = {r for _, r, _ in kg.valid + kg.test}
    assert held_rels <= {COLLEAGUE, ADVISES, ADVISED_BY, WORKS_IN}
    assert MANAGES not in held_rels and RELATED not in held_rels


def test_deterministic_under_seed():
    a = build_planted_kg(seed=5)
    b = build_planted_kg(seed=5)
    c = build_planted_kg(seed=6)
    assert a.train == b.train and a.valid == b.valid and a.test == b.test
    assert a.train != c.train


def test_rejects_bad_team_size():
    with pytest.raises(ValueError):
        build_planted_kg(n_persons=141)


def test_patterns_metadata(kg):
    assert kg.patterns["symmetric"] == ("colleague",)
    assert kg.patterns["inverse"] == (("advises", "advisedBy"),)
    assert kg.patterns["composition"] == (("worksAt", "locatedIn", "worksIn"),)
    assert kg.patterns["asymmetric"] == ("manages",)
