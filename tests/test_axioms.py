"""Axiom extraction from rotation parameters: per-dimension conditions,
threshold aggregation, candidate pruning, ontology serialization."""

import numpy as np
import pytest

from conequery import conditions
from conequery.axioms import (
    ExtractedAxiom,
    composition_candidates,
    emit_ontology,
    extract,
    extract_from_angles,
    format_axiom,
    parse_ontology,
    relation_rotation_angles,
)
from conequery.cones import Rotation, wrap_angle
from conequery.conditions import (
    ASYMMETRY,
    COMPOSITION,
    CONTAINMENT,
    INVERSE,
    SYMMETRY,
    TRANSITIVITY,
)
from conequery.model import ParameterStore
from conequery.patterns import PatternLabel


def kinds_of(axioms):
    return {(a.kind, a.relations) for a in axioms}


def random_params(rng, n_rel=4, d=6, spread=1.0, aperture=0.3):
    theta = rng.uniform(-np.pi, np.pi, (n_rel, d)) * spread
    delta = np.abs(rng.normal(0.0, aperture, (n_rel, d)))
    return theta, delta


class TestHandBuiltExamples:
    def test_half_turn_zero_aperture_is_symmetric(self):
        d = 8
        out = extract_from_angles(np.full((1, d), np.pi), np.zeros((1, d)),
                                  tol=0.1, frac_threshold=0.9)
        assert ("symmetry", (0,)) in kinds_of(out)
        sym = [a for a in out if a.kind == SYMMETRY][0]
        assert sym.fraction == 1.0 and sym.tolerance == 0.1
        assert ("asymmetry", (0,)) not in kinds_of(out)

    def test_additive_angle_sum_is_composition(self):
        rng = np.random.default_rng(1)
        theta, delta = random_params(rng, n_rel=3, d=10, aperture=0.02)
        theta[2] = theta[0] + theta[1]
        delta[2] = delta[0] + delta[1] + 0.01
        out = extract_from_angles(theta, delta, tol=0.05, frac_threshold=0.9)
        assert (COMPOSITION, (0, 1, 2)) in kinds_of(out)

    def test_opposite_angles_zero_aperture_are_inverse(self):
        rng = np.random.default_rng(2)
        theta, delta = random_params(rng, n_rel=2, d=10, aperture=0.0)
        theta[1] = -theta[0]
        out = extract_from_angles(theta, delta, tol=0.05, frac_threshold=1.0)
        assert (INVERSE, (0, 1)) in kinds_of(out)

    def test_wider_same_axis_relation_contains(self):
        rng = np.random.default_rng(3)
        theta, delta = random_params(rng, n_rel=2, d=10, aperture=0.1)
        theta[1] = theta[0]
        delta[1] = delta[0] + 0.2
        out = extract_from_angles(theta, delta, tol=1e-9, frac_threshold=1.0)
        assert (CONTAINMENT, (0, 1)) in kinds_of(out)
        assert (CONTAINMENT, (1, 0)) not in kinds_of(out)

    def test_identity_like_relation_is_transitive(self):
        theta = np.zeros((1, 6))
        delta = np.zeros((1, 6))
        out = extract_from_angles(theta, delta, tol=0.01, frac_threshold=1.0)
        assert (TRANSITIVITY, (0,)) in kinds_of(out)

    def test_scattered_axis_is_asymmetric(self):
        # Axis angles far from 0 and pi in every dimension, tiny apertures.
        theta = np.full((1, 8), 1.2)
        delta = np.full((1, 8), 0.05)
        out = extract_from_angles(theta, delta, tol=0.1, frac_threshold=0.9)
        assert (ASYMMETRY, (0,)) in kinds_of(out)
        assert (SYMMETRY, (0,)) not in kinds_of(out)

    def test_seam_wrapping_angles_count_as_close(self):
        # Axis shifts just across the +/-pi seam: relative turn ~0.04.
        theta = np.array([[np.pi - 0.02] * 6, [-np.pi + 0.02] * 6])
        delta = np.array([[0.05] * 6, [0.3] * 6])
        out = extract_from_angles(theta, delta, tol=0.01, frac_threshold=1.0)
        assert (CONTAINMENT, (0, 1)) in kinds_of(out)


class TestConditionsAgreement:
    """The vectorized margins must match the scalar predicate module on the
    relative rotation, dimension by dimension."""

    def test_symmetry_and_asymmetry_match_scalar(self):
        rng = np.random.default_rng(10)
        theta, delta = random_params(rng, n_rel=3, d=5)
        tol = 0.2
        out = extract_from_angles(theta, delta, tol=tol, frac_threshold=1e-9)
        frac = {(a.kind, a.relations): a.fraction for a in out}
        for r in range(3):
            reps = [conditions.symmetry(Rotation(theta[r, j], 1.0, delta[r, j]), tol)
                    for j in range(5)]
            expected_sym = np.mean([rep.holds for rep in reps])
            expected_asym = 1.0 - expected_sym
            # At a near-zero threshold both qualify, so exclusivity keeps
            # only the larger side; its fraction must match the scalar count.
            if expected_sym > expected_asym:
                assert frac[(SYMMETRY, (r,))] == pytest.approx(expected_sym)
                assert (ASYMMETRY, (r,)) not in frac
            elif expected_asym > expected_sym:
                assert frac[(ASYMMETRY, (r,))] == pytest.approx(expected_asym)
                assert (SYMMETRY, (r,)) not in frac

    def test_containment_matches_scalar_on_relative_rotation(self):
        rng = np.random.default_rng(11)
        theta, delta = random_params(rng, n_rel=3, d=7)
        tol = 0.3
        out = extract_from_angles(theta, delta, tol=tol, frac_threshold=1e-9)
        frac = {(a.kind, a.relations): a.fraction for a in out}
        for r in range(3):
            for s in range(3):
                if r == s:
                    continue
                holds = [
                    conditions.containment_additive(
                        Rotation(0.0, 1.0, delta[r, j]),
                        Rotation(wrap_angle(theta[s, j] - theta[r, j]), 1.0,
                                 delta[s, j]),
                        tol).holds
                    for j in range(7)
                ]
                expected = np.mean(holds)
                got = frac.get((CONTAINMENT, (r, s)), 0.0)
                assert got == pytest.approx(expected)

    def test_composition_and_transitivity_match_scalar(self):
        rng = np.random.default_rng(12)
        theta, delta = random_params(rng, n_rel=3, d=6, aperture=0.6)
        tol = 0.5
        out = extract_from_angles(theta, delta, tol=tol, frac_threshold=1e-9,
                                  proximity_top_n=3)
        frac = {(a.kind, a.relations): a.fraction for a in out}
        for trip in composition_candidates(theta, proximity_top_n=3):
            r1, r2, r3 = trip
            holds = [
                conditions.composition_additive(
                    Rotation(theta[r1, j], 1.0, delta[r1, j]),
                    Rotation(theta[r2, j], 1.0, delta[r2, j]),
                    Rotation(theta[r3, j], 1.0, delta[r3, j]), tol).holds
                for j in range(6)
            ]
            assert frac.get((COMPOSITION, trip), 0.0) == pytest.approx(np.mean(holds))
        for r in range(3):
            holds = [
                conditions.transitivity(
                    Rotation(theta[r, j], 1.0, delta[r, j]), tol).holds
                for j in range(6)
            ]
            assert frac.get((TRANSITIVITY, (r,)), 0.0) == pytest.approx(np.mean(holds))

    def test_inverse_matches_exact_boundary_rotor_check(self):
        rng = np.random.default_rng(13)
        theta, delta = random_params(rng, n_rel=4, d=6, aperture=0.05)
        theta[1] = -theta[0] + rng.normal(0, 0.02, 6)
        tol = 0.1
        out = extract_from_angles(theta, delta, tol=tol, frac_threshold=1e-9)
        frac = {(a.kind, a.relations): a.fraction for a in out}
        for r in range(4):
            for s in range(r + 1, 4):
                ok = conditions.exact_inverse(
                    theta[r] + delta[r] / 2, theta[r] - delta[r] / 2,
                    theta[s] + delta[s] / 2, theta[s] - delta[s] / 2, tol=tol)
                expected = float(np.mean(ok))
                assert frac.get((INVERSE, (r, s)), 0.0) == pytest.approx(expected)


class TestInvariants:
    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(20)
        theta, delta = random_params(rng, n_rel=4, d=4, aperture=0.8)
        loose = kinds_of(extract_from_angles(theta, delta, tol=0.4,
                                             frac_threshold=0.5))
        tight = kinds_of(extract_from_angles(theta, delta, tol=0.4,
                                             frac_threshold=0.75))
        assert tight <= loose

    def test_monotone_in_tolerance_window_kinds(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            theta, delta = random_params(rng, n_rel=3, d=4, aperture=0.6)
            loose = kinds_of(extract_from_angles(theta, delta, tol=0.5,
                                                 frac_threshold=0.7))
            tight = kinds_of(extract_from_angles(theta, delta, tol=0.2,
                                                 frac_threshold=0.7))
            loose_window = {ka for ka in loose if ka[0] != ASYMMETRY}
            tight_window = {ka for ka in tight if ka[0] != ASYMMETRY}
            assert tight_window <= loose_window
            # The negation kind is monotone in the opposite direction.
            loose_asym = {ka for ka in loose if ka[0] == ASYMMETRY}
            tight_asym = {ka for ka in tight if ka[0] == ASYMMETRY}
            assert loose_asym <= tight_asym

    def test_sym_asym_never_both(self):
        rng = np.random.default_rng(22)
        for trial in range(30):
            theta, delta = random_params(rng, n_rel=3, d=4, aperture=0.5)
            for frac in (0.3, 0.5, 0.8):
                out = extract_from_angles(theta, delta, tol=0.3,
                                          frac_threshold=frac)
                tags = kinds_of(out)
                for r in range(3):
                    assert not ((SYMMETRY, (r,)) in tags
                                and (ASYMMETRY, (r,)) in tags)

    def test_deterministic_and_sorted(self):
        rng = np.random.default_rng(23)
        theta, delta = random_params(rng, n_rel=4, d=6)
        a = extract_from_angles(theta, delta, tol=0.3, frac_threshold=0.5)
        b = extract_from_angles(theta, delta, tol=0.3, frac_threshold=0.5)
        assert a == b
        fractions = [ax.fraction for ax in a]
        assert fractions == sorted(fractions, reverse=True)

    def test_emitted_only_at_threshold(self):
        rng = np.random.default_rng(24)
        theta, delta = random_params(rng, n_rel=3, d=5)
        out = extract_from_angles(theta, delta, tol=0.2, frac_threshold=0.6)
        assert all(a.fraction >= 0.6 for a in out)

    def test_validation_errors(self):
        theta = np.zeros((2, 3))
        with pytest.raises(ValueError, match="share a shape"):
            extract_from_angles(theta, np.zeros((2, 4)))
        with pytest.raises(ValueError, match="tol"):
            extract_from_angles(theta, np.zeros((2, 3)), tol=-0.1)
        with pytest.raises(ValueError, match="frac_threshold"):
            extract_from_angles(theta, np.zeros((2, 3)), frac_threshold=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            extract_from_angles(theta, np.full((2, 3), -0.1))

    def test_axiom_validation(self):
        with pytest.raises(ValueError, match="kind"):
            ExtractedAxiom("weird", (0,), 1.0, 0.1)
        with pytest.raises(ValueError, match="relation ids"):
            ExtractedAxiom(INVERSE, (0,), 1.0, 0.1)
        with pytest.raises(ValueError, match="fraction"):
            ExtractedAxiom(SYMMETRY, (0,), 1.5, 0.1)


class TestCandidatePruning:
    def test_mined_patterns_add_triples(self):
        theta = np.zeros((4, 3))
        label = PatternLabel(COMPOSITION, (3, 2, 1), 12, 0.9)
        cands = composition_candidates(theta, patterns=[label],
                                       proximity_top_n=0)
        assert cands == [(3, 2, 1)]

    def test_proximity_finds_additive_triple(self):
        rng = np.random.default_rng(30)
        theta = rng.uniform(-2, 2, (5, 8))
        theta[4] = theta[1] + theta[2]
        cands = composition_candidates(theta, proximity_top_n=1)
        assert (1, 2, 4) in cands

    def test_self_triples_excluded(self):
        theta = np.zeros((3, 4))
        for trip in composition_candidates(theta, proximity_top_n=3):
            assert not (trip[0] == trip[1] == trip[2])

    def test_out_of_range_pattern_ignored(self):
        theta = np.zeros((2, 3))
        label = PatternLabel(COMPOSITION, (0, 1, 7), 12, 0.9)
        assert composition_candidates(theta, patterns=[label],
                                      proximity_top_n=0) == []


class TestStoreExtraction:
    def test_reads_store_like_the_model(self):
        store = ParameterStore(n_entities=5, n_relations=2, d=4, seed=0)
        store.arrays["relation_axis"][0] = np.pi  # wraps to the seam
        store.arrays["relation_aperture"][0] = -0.05  # model reads |.|
        theta, delta = relation_rotation_angles(store)
        assert np.all(delta >= 0.0)
        assert np.all(np.abs(theta) <= np.pi)
        out = extract(store, tol=0.2, frac_threshold=0.9)
        assert (SYMMETRY, (0,)) in kinds_of(out)


    def test_axis_just_below_the_seam_wraps_to_minus_pi(self):
        # The principal range is [-pi, pi): the float below -pi must not
        # come back as +pi.
        store = ParameterStore(n_entities=5, n_relations=2, d=4, seed=0)
        store.arrays["relation_axis"][0] = np.nextafter(-np.pi, -np.inf)
        theta, _ = relation_rotation_angles(store)
        assert np.all(theta[0] == -np.pi)
        assert np.all((theta >= -np.pi) & (theta < np.pi))


    def test_reads_raw_angles_like_wrap_and_abs(self):
        # raw angles just below -pi, at +-pi and beyond +-2 pi, wrapped by
        # the model's relation_rotation as by wrap_angle, bit for bit
        store = ParameterStore(n_entities=5, n_relations=3, d=8, seed=1)
        edges = [np.nextafter(-np.pi, -np.inf), -np.pi, np.pi, 2 * np.pi + 0.3,
                 -2 * np.pi - 0.3, 7.5, -13.0, 0.0]
        store.arrays["relation_axis"][0] = edges
        store.arrays["relation_aperture"][0] = [-x for x in edges]
        theta, delta = relation_rotation_angles(store)
        assert np.array_equal(theta, wrap_angle(store.arrays["relation_axis"]))
        assert np.array_equal(delta, np.abs(store.arrays["relation_aperture"]))


class TestOntologyFile:
    NAMES = ["colleague", "advises", "advisedBy", "worksAt"]

    def sample(self):
        return [
            ExtractedAxiom(SYMMETRY, (0,), 1.0, 0.15),
            ExtractedAxiom(INVERSE, (1, 2), 0.9375, 0.15),
            ExtractedAxiom(COMPOSITION, (1, 2, 3), 0.84375, 0.15),
            ExtractedAxiom(CONTAINMENT, (1, 3), 0.8125, 0.15),
            ExtractedAxiom(TRANSITIVITY, (3,), 0.8125, 0.15),
            ExtractedAxiom(ASYMMETRY, (3,), 0.90625, 0.15),
        ]

    def test_round_trip_with_names(self, tmp_path):
        path = tmp_path / "onto.txt"
        emit_ontology(self.sample(), path, self.NAMES)
        assert parse_ontology(path, self.NAMES) == self.sample()

    def test_round_trip_default_names(self, tmp_path):
        path = tmp_path / "onto.txt"
        emit_ontology(self.sample(), path)
        assert parse_ontology(path) == self.sample()

    def test_functional_syntax(self):
        line = format_axiom(ExtractedAxiom(COMPOSITION, (1, 2, 3), 0.75, 0.1),
                            self.NAMES)
        assert line == "SubRoleOf(advises_advisedBy worksAt)  # fraction=0.75 tol=0.1"
        line = format_axiom(ExtractedAxiom(SYMMETRY, (0,), 1.0, 0.1), self.NAMES)
        assert line.startswith("Symmetric(colleague)")
        line = format_axiom(ExtractedAxiom(INVERSE, (1, 2), 1.0, 0.1), self.NAMES)
        assert line.startswith("InverseRoles(advises advisedBy)")

    def test_empty_list_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.txt"
        emit_ontology([], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("#")
        assert parse_ontology(path) == []

    def test_underscore_names_rejected(self):
        with pytest.raises(ValueError, match="underscore"):
            format_axiom(ExtractedAxiom(SYMMETRY, (0,), 1.0, 0.1), ["bad_name"])

    def test_parse_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("Nonsense line\n")
        with pytest.raises(ValueError, match="unparseable"):
            parse_ontology(path)
        path.write_text("Banana(a b)  # fraction=1.0 tol=0.1\n")
        with pytest.raises(ValueError, match="unknown axiom form"):
            parse_ontology(path)
        path.write_text("Symmetric(mystery)  # fraction=1.0 tol=0.1\n")
        with pytest.raises(ValueError, match="unknown relation"):
            parse_ontology(path, ["other"])
