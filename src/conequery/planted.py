"""A small knowledge graph with planted relation patterns.

Used by the end-to-end tests and the demo scripts: roughly 200 entities and 8
relations whose edges follow known logical patterns, so that a trained model
can be audited against ground truth.

Relations and their planted patterns:

    colleague   symmetric: every kept pair appears in both directions
    advises     forward half of an inverse pair
    advisedBy   exact inverse of advises
    worksAt     person -> org           (composition body, first hop)
    locatedIn   org -> city             (composition body, second hop)
    worksIn     person -> city, exactly the composition worksAt o locatedIn
    manages     asymmetric: never appears in both directions
    related     patternless noise (reciprocal pairs actively avoided)

The train/valid/test split is pattern-aware: held-out edges are only ones
that remain inferable from the training graph through a planted pattern (the
mirror of a kept colleague edge, the inverse of a kept advises edge, or the
composition of kept worksAt+locatedIn edges).  Plain random splitting would
hold out unguessable noise edges and make ranking quality unmeasurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PlantedKG", "RELATION_NAMES", "build_planted_kg"]

RELATION_NAMES = (
    "colleague",
    "advises",
    "advisedBy",
    "worksAt",
    "locatedIn",
    "worksIn",
    "manages",
    "related",
)

COLLEAGUE, ADVISES, ADVISED_BY, WORKS_AT, LOCATED_IN, WORKS_IN, MANAGES, RELATED = range(8)


@dataclass
class PlantedKG:
    n_entities: int
    n_relations: int
    entity_names: list[str]
    relation_names: list[str]
    train: list[tuple[int, int, int]]
    valid: list[tuple[int, int, int]]
    test: list[tuple[int, int, int]]
    #: planted ground truth, keyed by pattern kind, in relation names
    patterns: dict = field(default_factory=dict)

    @property
    def all_triples(self) -> list[tuple[int, int, int]]:
        return self.train + self.valid + self.test


#: Persons per colleague team, and the chance that two teammates are colleagues.
_TEAM_SIZE, _PAIR_KEEP = 5, 0.6
#: Shares of each pattern's held-out edges sent to valid and to test.
_VALID_FRAC, _TEST_FRAC = 0.12, 0.18


def _split_three(rng: np.random.Generator, items: list) -> tuple[list, list, list]:
    """Deterministically split items into (kept, valid, test)."""
    order = rng.permutation(len(items))
    n_valid = int(round(_VALID_FRAC * len(items)))
    n_test = int(round(_TEST_FRAC * len(items)))
    valid = [items[i] for i in order[:n_valid]]
    test = [items[i] for i in order[n_valid:n_valid + n_test]]
    kept = [items[i] for i in order[n_valid + n_test:]]
    return kept, valid, test


def build_planted_kg(seed: int = 0, n_persons: int = 140, n_orgs: int = 40,
                     n_cities: int = 20) -> PlantedKG:
    """Build the planted graph and its pattern-aware split.

    Persons occupy ids [0, n_persons), orgs the next n_orgs ids, cities the
    last n_cities.  Deterministic under ``seed``.
    """
    if n_persons % _TEAM_SIZE:
        raise ValueError(f"n_persons must be divisible by the team size {_TEAM_SIZE}")
    rng = np.random.default_rng(seed)
    persons = range(n_persons)
    orgs = range(n_persons, n_persons + n_orgs)
    cities = range(n_persons + n_orgs, n_persons + n_orgs + n_cities)
    n_entities = n_persons + n_orgs + n_cities

    train: list[tuple[int, int, int]] = []
    valid: list[tuple[int, int, int]] = []
    test: list[tuple[int, int, int]] = []

    # --- colleague: symmetric cliques, subsampled so the relation is
    # symmetric but not transitive ------------------------------------------
    sym_pairs: list[tuple[int, int]] = []
    for team_start in range(0, n_persons, _TEAM_SIZE):
        members = list(range(team_start, team_start + _TEAM_SIZE))
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if rng.random() < _PAIR_KEEP:
                    sym_pairs.append((a, b))
    kept, v_pairs, t_pairs = _split_three(rng, sym_pairs)
    for a, b in kept:
        train.append((a, COLLEAGUE, b))
        train.append((b, COLLEAGUE, a))
    # held-out pairs keep one direction in train; the mirror is inferable
    for pairs, bucket in ((v_pairs, valid), (t_pairs, test)):
        for a, b in pairs:
            if rng.random() < 0.5:
                a, b = b, a
            train.append((a, COLLEAGUE, b))
            bucket.append((b, COLLEAGUE, a))

    # --- advises / advisedBy: an exact inverse pair -------------------------
    advisors = rng.choice(n_persons, size=50, replace=False)
    inv_pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for a in advisors:
        for _ in range(int(rng.integers(1, 4))):
            b = int(rng.integers(n_persons))
            if b == a or (int(a), b) in seen:
                continue
            seen.add((int(a), b))
            inv_pairs.append((int(a), b))
    kept, v_pairs, t_pairs = _split_three(rng, inv_pairs)
    for a, b in kept:
        train.append((a, ADVISES, b))
        train.append((b, ADVISED_BY, a))
    # held-out pairs keep one side; the other side is inferable via inversion
    for pairs, bucket in ((v_pairs, valid), (t_pairs, test)):
        for a, b in pairs:
            if rng.random() < 0.5:
                train.append((a, ADVISES, b))
                bucket.append((b, ADVISED_BY, a))
            else:
                train.append((b, ADVISED_BY, a))
                bucket.append((a, ADVISES, b))

    # --- worksAt o locatedIn = worksIn: a composition triple ----------------
    org_of = {p: int(rng.choice(len(orgs))) + n_persons for p in persons}
    city_of = {o: int(rng.choice(len(cities))) + n_persons + n_orgs for o in orgs}
    for p in persons:
        train.append((p, WORKS_AT, org_of[p]))
    for o in orgs:
        train.append((o, LOCATED_IN, city_of[o]))
    composed = [(p, WORKS_IN, city_of[org_of[p]]) for p in persons]
    kept, v_edges, t_edges = _split_three(rng, composed)
    train.extend(kept)
    valid.extend(v_edges)
    test.extend(t_edges)

    # --- manages: asymmetric by construction (head id < tail id) ------------
    added = 0
    seen_m: set[tuple[int, int]] = set()
    while added < 60:
        a, b = int(rng.integers(n_persons)), int(rng.integers(n_persons))
        if a == b:
            continue
        lo, hi = min(a, b), max(a, b)
        if (lo, hi) in seen_m:
            continue
        seen_m.add((lo, hi))
        train.append((lo, MANAGES, hi))
        added += 1

    # --- related: noise, never reciprocal, never a self-loop ----------------
    added = 0
    seen_r: set[tuple[int, int]] = set()
    while added < 100:
        a, b = int(rng.integers(n_entities)), int(rng.integers(n_entities))
        if a == b or (a, b) in seen_r or (b, a) in seen_r:
            continue
        seen_r.add((a, b))
        train.append((a, RELATED, b))
        added += 1

    entity_names = (
        [f"person_{i:03d}" for i in persons]
        + [f"org_{i - n_persons:02d}" for i in orgs]
        + [f"city_{i - n_persons - n_orgs:02d}" for i in cities]
    )
    patterns = {
        "symmetric": ("colleague",),
        "inverse": (("advises", "advisedBy"),),
        "composition": (("worksAt", "locatedIn", "worksIn"),),
        "asymmetric": ("manages",),
        "noise": ("related",),
    }
    return PlantedKG(
        n_entities=n_entities,
        n_relations=len(RELATION_NAMES),
        entity_names=entity_names,
        relation_names=list(RELATION_NAMES),
        train=sorted(set(train)),
        valid=sorted(set(valid)),
        test=sorted(set(test)),
        patterns=patterns,
    )
