"""Statistical pattern mining: counting scores, thresholds, classification."""

import numpy as np
import pytest

from conequery.conditions import (
    COMPOSITION,
    CONTAINMENT,
    INVERSE,
    SYMMETRY,
    TRANSITIVITY,
)
from conequery.evaluation import RankedResult, subgroup_report
from conequery.patterns import (
    PatternLabel,
    mine_patterns,
    read_labels_tsv,
    subgroup_relations,
    write_labels_tsv,
)
from conequery.planted import RELATION_NAMES, build_planted_kg
from conequery.queries import QueryInstance


def by_kind(labels, kind):
    return {label.relations: label for label in labels if label.kind == kind}


class TestScores:
    def test_fully_mirrored_relation_scores_one(self):
        triples = [(a, 0, b) for a in range(5) for b in range(5) if a != b]
        labels = mine_patterns(triples, min_support=5)
        sym = by_kind(labels, SYMMETRY)
        assert sym[(0,)].coverage == 1.0
        assert sym[(0,)].support == 20

    def test_half_mirrored_relation(self):
        # 10 forward edges, 5 mirrored: symmetric pairs have coverage
        # (5 + 5) / 15 and the mirror-only reading counts them all.
        fwd = [(i, 0, i + 50) for i in range(10)]
        back = [(i + 50, 0, i) for i in range(5)]
        labels = mine_patterns(fwd + back, min_support=1, min_coverage=0.0)
        sym = by_kind(labels, SYMMETRY)
        assert sym[(0,)].coverage == pytest.approx(10 / 15)
        assert sym[(0,)].support == 10

    def test_inverse_score_directional(self):
        # r has 10 edges, s mirrors 4 of them plus noise of its own.
        r_edges = [(i, 0, i + 10) for i in range(10)]
        s_edges = [(i + 10, 1, i) for i in range(4)] + [(90, 1, 91)]
        labels = mine_patterns(r_edges + s_edges, min_support=1, min_coverage=0.0)
        inv = by_kind(labels, INVERSE)
        assert inv[(0, 1)].coverage == pytest.approx(0.4)
        assert inv[(0, 1)].support == 4
        assert inv[(1, 0)].coverage == pytest.approx(4 / 5)

    def test_containment_score(self):
        r_edges = [(i, 0, i + 10) for i in range(4)]
        s_edges = [(i, 1, i + 10) for i in range(8)]
        labels = mine_patterns(r_edges + s_edges, min_support=1, min_coverage=0.0)
        cont = by_kind(labels, CONTAINMENT)
        assert cont[(0, 1)].coverage == 1.0
        assert cont[(0, 1)].support == 4
        assert cont[(1, 0)].coverage == pytest.approx(0.5)

    def test_composition_score_exact(self):
        # a -r1-> b -r2-> c with r3 present for 3 of 4 chains.
        t = []
        for i in range(4):
            t += [(i, 0, i + 10), (i + 10, 1, i + 20)]
        t += [(i, 2, i + 20) for i in range(3)]
        labels = mine_patterns(t, min_support=1, min_coverage=0.0)
        comp = by_kind(labels, COMPOSITION)
        assert comp[(0, 1, 2)].coverage == pytest.approx(0.75)
        assert comp[(0, 1, 2)].support == 3

    def test_transitivity_is_selfcomposition_and_exclusive(self):
        # 0->1->2->3 chain closed transitively.
        t = [(0, 0, 1), (1, 0, 2), (2, 0, 3), (0, 0, 2), (1, 0, 3), (0, 0, 3)]
        labels = mine_patterns(t, min_support=1, min_coverage=0.0)
        trans = by_kind(labels, TRANSITIVITY)
        assert trans[(0,)].coverage == 1.0
        # The (r, r, r) triple is labelled transitivity, never composition.
        assert (0, 0, 0) not in by_kind(labels, COMPOSITION)

    def test_duplicate_triples_do_not_inflate(self):
        triples = [(0, 0, 1), (1, 0, 0)] * 7
        labels = mine_patterns(triples, min_support=1, min_coverage=0.0)
        assert by_kind(labels, SYMMETRY)[(0,)].support == 2

    def test_scores_in_unit_interval_random(self):
        rng = np.random.default_rng(3)
        triples = [tuple(map(int, (rng.integers(0, 40), rng.integers(0, 4),
                                   rng.integers(0, 40)))) for _ in range(600)]
        labels = mine_patterns(triples, min_support=1, min_coverage=0.0)
        assert labels and all(0.0 <= l.coverage <= 1.0 for l in labels)


class TestThresholdsAndDeterminism:
    def test_min_support_filters(self):
        triples = [(a, 0, b) for a in range(3) for b in range(3) if a != b]
        assert mine_patterns(triples, min_support=7) == []
        assert by_kind(mine_patterns(triples, min_support=6), SYMMETRY)

    def test_min_coverage_filters(self):
        fwd = [(i, 0, i + 50) for i in range(10)]
        back = [(i + 50, 0, i) for i in range(2)]
        labels = mine_patterns(fwd + back, min_support=1, min_coverage=0.5)
        assert (0,) not in by_kind(labels, SYMMETRY)

    def test_random_relation_scores_low(self):
        # Random 200-entity relations: all cross-relation scores far below
        # the default 0.2 coverage threshold with near certainty.
        rng = np.random.default_rng(11)
        triples = []
        for rel in range(3):
            heads = rng.choice(200, 80, replace=False)
            tails = rng.choice(200, 80)
            triples += [(int(h), rel, int(t)) for h, t in zip(heads, tails)]
        assert mine_patterns(triples, min_coverage=0.2, min_support=10) == []

    def test_deterministic_ordering_and_threads(self):
        kg = build_planted_kg(seed=0)
        serial = mine_patterns(kg.train)
        assert serial == mine_patterns(kg.train)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="nonempty"):
            mine_patterns([])
        with pytest.raises(ValueError, match="min_coverage"):
            mine_patterns([(0, 0, 1)], min_coverage=1.5)
        with pytest.raises(ValueError, match="min_support"):
            mine_patterns([(0, 0, 1)], min_support=0)

    def test_label_validation(self):
        with pytest.raises(ValueError, match="kind"):
            PatternLabel("sideways", (0,), 3, 0.5)
        with pytest.raises(ValueError, match="relation ids"):
            PatternLabel(SYMMETRY, (0, 1), 3, 0.5)
        with pytest.raises(ValueError, match="coverage"):
            PatternLabel(SYMMETRY, (0,), 3, 1.5)


@pytest.fixture(scope="module")
def labels():
    kg = build_planted_kg(seed=0)
    return mine_patterns(kg.train, min_coverage=0.2, min_support=10)


class TestPlantedRecovery:
    def test_symmetric_relation_found(self, labels):
        sym = by_kind(labels, SYMMETRY)
        assert (RELATION_NAMES.index("colleague"),) in sym

    def test_inverse_pair_found_both_directions(self, labels):
        inv = by_kind(labels, INVERSE)
        a = RELATION_NAMES.index("advises")
        b = RELATION_NAMES.index("advisedBy")
        assert (a, b) in inv and (b, a) in inv

    def test_composition_found(self, labels):
        comp = by_kind(labels, COMPOSITION)
        triple = (RELATION_NAMES.index("worksAt"),
                  RELATION_NAMES.index("locatedIn"),
                  RELATION_NAMES.index("worksIn"))
        assert triple in comp and comp[triple].coverage >= 0.5

    def test_asymmetric_relation_never_symmetric(self, labels):
        sym = by_kind(labels, SYMMETRY)
        assert (RELATION_NAMES.index("manages"),) not in sym
        assert (RELATION_NAMES.index("related"),) not in sym


class TestClassification:
    """Mined labels group queries through ``subgroup_relations`` and
    ``evaluation.subgroup_report``, the pipeline of ``conequery eval --labels``."""

    def result(self, *relations):
        return RankedResult(QueryInstance("1p", (0,), tuple(relations), (1,), ()), (1,), (1,))

    def test_multilabel_and_others(self):
        labels = [PatternLabel(SYMMETRY, (0,), 10, 1.0),
                  PatternLabel(INVERSE, (1, 2), 10, 0.9)]
        results = [self.result(0), self.result(0, 2), self.result(5)]
        report = subgroup_report(results, subgroup_relations(labels))
        assert {name: count for name, (_, count) in report.items()} == {
            SYMMETRY: 2, INVERSE: 1, "Others": 1}

    def test_shares_match_direct_count(self):
        labels = [PatternLabel(SYMMETRY, (0,), 10, 1.0)]
        results = [self.result(0), self.result(0), self.result(3), self.result(4)]
        report = subgroup_report(results, subgroup_relations(labels))
        shares = {name: count / len(results) for name, (_, count) in report.items()}
        assert shares == {SYMMETRY: 0.5, "Others": 0.5}

    def test_subgroup_relations_union(self):
        labels = [PatternLabel(INVERSE, (1, 2), 10, 0.9),
                  PatternLabel(INVERSE, (2, 3), 10, 0.9)]
        assert subgroup_relations(labels) == {INVERSE: {1, 2, 3}}

    def test_empty_assignments(self):
        labels = [PatternLabel(SYMMETRY, (0,), 10, 1.0)]
        assert subgroup_report([], subgroup_relations(labels)) == {}


class TestTsvRoundTrip:
    def test_round_trip(self, tmp_path):
        kg = build_planted_kg(seed=0)
        labels = mine_patterns(kg.train)
        path = tmp_path / "labels.tsv"
        write_labels_tsv(labels, path)
        assert read_labels_tsv(path) == labels

    def test_header_and_columns(self, tmp_path):
        path = tmp_path / "labels.tsv"
        write_labels_tsv([PatternLabel(COMPOSITION, (3, 4, 5), 98, 0.7)], path)
        header, row = path.read_text().splitlines()
        assert header.split("\t") == ["kind", "relations", "support", "coverage"]
        assert row.split("\t") == [COMPOSITION, "3,4,5", "98", "0.7"]

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("symmetry\t0\t10\t1.0\n")
        with pytest.raises(ValueError, match="header"):
            read_labels_tsv(path)

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("kind\trelations\tsupport\tcoverage\nsymmetry\t0\t10\n")
        with pytest.raises(ValueError, match="4 tab-separated"):
            read_labels_tsv(path)
