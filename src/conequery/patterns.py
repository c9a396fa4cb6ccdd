"""Statistical relation-pattern mining from raw triples.

Relations are labelled symmetric / inverse / contained / compositional /
transitive by direct counting over the triple store, with the standard
rule-mining body-coverage score: for a rule ``body => head``,

    coverage = |{body instances whose head also holds}| / |body instances|
    support  = |{body instances whose head also holds}|

A label is emitted when ``coverage >= min_coverage`` and
``support >= min_support``.  Asymmetry is deliberately not mined; it has no
coverage-style body/head reading (its evidence is the *absence* of mirrored
edges) and the subgroup taxonomy treats it as part of "Others".

The composition scan over relation triples is bounded by skipping any
``(r1, r2)`` whose join has fewer than ``min_support`` distinct pairs — the
rule's support can never reach ``min_support`` from a smaller body.

Scores use distinct entity pairs throughout: duplicate triples do not
inflate counts.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from conequery.conditions import (
    ARITY,
    COMPOSITION,
    CONTAINMENT,
    INVERSE,
    SYMMETRY,
    TRANSITIVITY,
)

# Kinds mined here, in canonical output order.  Transitivity is scored as
# composition with r1 == r2 == r3 but labelled separately and exclusively.
MINED_KINDS = (SYMMETRY, INVERSE, CONTAINMENT, COMPOSITION, TRANSITIVITY)


@dataclass(frozen=True)
class PatternLabel:
    """One mined rule: ``kind`` over ``relations`` with its counting scores.

    ``relations`` holds 1 id (symmetry, transitivity), 2 ids (inverse,
    containment: ``(r, s)`` reading "r implies s-pattern"), or 3 ids
    (composition: ``(r1, r2, r3)`` reading "r1 then r2 implies r3").
    """

    kind: str
    relations: tuple[int, ...]
    support: int
    coverage: float

    def __post_init__(self) -> None:
        if self.kind not in MINED_KINDS:
            raise ValueError(f"unknown pattern kind: {self.kind!r}")
        if len(self.relations) != ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} label needs {ARITY[self.kind]} relation ids, "
                f"got {self.relations!r}")
        if self.support < 0:
            raise ValueError("support must be non-negative")
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError("coverage must lie in [0, 1]")


def _pairs_by_relation(
    triples: Iterable[tuple[int, int, int]],
) -> dict[int, set[tuple[int, int]]]:
    pairs: dict[int, set[tuple[int, int]]] = defaultdict(set)
    for h, r, t in triples:
        pairs[r].add((h, t))
    return pairs


def _label_sort_key(label: PatternLabel) -> tuple:
    return (MINED_KINDS.index(label.kind), -label.coverage, label.relations)


def mine_patterns(
    triples: Sequence[tuple[int, int, int]],
    min_coverage: float = 0.2,
    min_support: int = 10,
) -> list[PatternLabel]:
    """Mine pattern labels from ``(head, relation, tail)`` triples.

    Scores (distinct-pair counts; ``pairs(r)`` is r's edge set):

    - symmetry(r)        = |{(a,b) in r : (b,a) in r}| / |r|
    - inverse(r, s)      = |{(a,b) in r : (b,a) in s}| / |r|,  r != s
    - containment(r, s)  = |r  intersect  s| / |r|,            r != s
    - composition(r1,r2,r3) = |{(a,c) : exists b, r1(a,b) and r2(b,c)
                                         and r3(a,c)}|
                              / |{(a,c) : exists b, r1(a,b) and r2(b,c)}|
    - transitivity(r)    = composition(r, r, r)

    Returns labels with ``coverage >= min_coverage`` and
    ``support >= min_support``, deterministically ordered by kind, then
    coverage (descending), then relation ids.  The scan is pure Python and
    runs in the calling thread.
    """
    if not triples:
        raise ValueError("mine_patterns requires a nonempty triple list")
    if not 0.0 <= min_coverage <= 1.0:
        raise ValueError("min_coverage must lie in [0, 1]")
    if min_support < 1:
        raise ValueError("min_support must be >= 1")

    pairs = _pairs_by_relation(triples)
    rel_ids = sorted(pairs)
    labels: list[PatternLabel] = []

    def consider(kind: str, relations: tuple[int, ...],
                 matched: int, body: int) -> None:
        if body == 0:
            return
        coverage = matched / body
        if matched >= min_support and coverage >= min_coverage:
            labels.append(PatternLabel(kind, relations, matched, coverage))

    for r in rel_ids:
        edges = pairs[r]
        mirrored = sum((b, a) in edges for a, b in edges)
        consider(SYMMETRY, (r,), mirrored, len(edges))
        for s in rel_ids:
            if s == r:
                continue
            consider(INVERSE, (r, s),
                     sum((b, a) in pairs[s] for a, b in edges), len(edges))
            consider(CONTAINMENT, (r, s), len(edges & pairs[s]), len(edges))

    # Composition / transitivity: join r1 with r2, then test every head r3.
    tails_by_head: dict[int, dict[int, list[int]]] = {
        r: defaultdict(list) for r in rel_ids}
    for r in rel_ids:
        for a, b in pairs[r]:
            tails_by_head[r][a].append(b)

    for r1 in rel_ids:
        for r2 in rel_ids:
            joined = {
                (a, c)
                for a, b in pairs[r1]
                for c in tails_by_head[r2].get(b, ())
            }
            if len(joined) < min_support:
                continue
            for r3 in rel_ids:
                matched = sum(pair in pairs[r3] for pair in joined)
                if r1 == r2 == r3:
                    consider(TRANSITIVITY, (r1,), matched, len(joined))
                else:
                    consider(COMPOSITION, (r1, r2, r3), matched, len(joined))

    labels.sort(key=_label_sort_key)
    return labels


def subgroup_relations(labels: Iterable[PatternLabel]) -> dict[str, set[int]]:
    """Map each mined kind to the set of relation ids it involves.

    Suitable for per-subgroup metric reporting: a query belongs to a
    subgroup when it mentions at least one of the subgroup's relations.
    """
    groups: dict[str, set[int]] = {}
    for label in labels:
        groups.setdefault(label.kind, set()).update(label.relations)
    return groups


_TSV_HEADER = "kind\trelations\tsupport\tcoverage"


def write_labels_tsv(labels: Sequence[PatternLabel], path: str | Path) -> None:
    """Write labels as TSV ``kind<TAB>relations<TAB>support<TAB>coverage``
    (relations comma-joined; coverage in round-trip ``repr`` precision)."""
    lines = [_TSV_HEADER]
    for label in labels:
        rels = ",".join(str(r) for r in label.relations)
        lines.append(f"{label.kind}\t{rels}\t{label.support}\t{label.coverage!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_labels_tsv(path: str | Path) -> list[PatternLabel]:
    """Parse a file written by :func:`write_labels_tsv` (exact round-trip)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != _TSV_HEADER:
        raise ValueError(f"{path}: missing labels TSV header")
    labels = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
        kind, rels, support, coverage = fields
        labels.append(PatternLabel(
            kind, tuple(int(r) for r in rels.split(",")),
            int(support), float(coverage)))
    return labels
