"""Ontology axiom extraction from trained rotation parameters.

Each relation owns ``d`` independent plane rotations ``R(theta_j, 1,
delta_j)`` (axis shift ``theta``, width-preserving, aperture offset
``delta >= 0``).  An axiom form holds *in one dimension* when the matching
rotation-parameter predicate holds there within a tolerance; the axiom is
emitted when the fraction of satisfying dimensions reaches a threshold.
This thresholded-fraction aggregation (and both knobs) is the central
extraction choice and is exposed on the CLI.

Per-dimension conditions are the margins of :mod:`conequery.conditions`
(radians; a dimension counts as satisfying when ``margin >= -tol``):

- ``Symmetric(r)``         ``symmetry_margin``
- ``Asymmetric(r)``        strict violation of the symmetry window,
  ``margin < -tol`` (the scalar predicate's negation, exactly)
- ``SubRoleOf(r s)``       ``containment_margin``
- ``SubRoleOf(r1_r2 r3)``  ``composition_margin``
- ``Transitive(r)``        ``transitivity_margin``
- ``InverseRoles(r s)``    ``inverse_margin`` on the boundary rotors
  ``theta +/- delta/2``

All of them act on angles modulo full turns, so two axis shifts just across
the +/-pi seam count as close.

Monotonicity: for every kind except ``Asymmetric``, lowering the tolerance
or raising the fraction threshold never adds an axiom.  ``Asymmetric`` is a
negation — its dimension set is the strict complement of ``Symmetric``'s —
so its tolerance monotonicity necessarily runs the other way (RAISING the
tolerance never adds an ``Asymmetric`` axiom); a flat both-directions rule
cannot coexist with negation semantics and the exact-boundary symmetry case
(``theta = pi``, ``delta = 0``), which must read as symmetric, not
ambiguous.  Raising the fraction threshold never adds axioms of any kind.

Candidate pruning: symmetry, asymmetry, transitivity (|R| each), inverse and
containment (|R|^2 pairs) are scanned exhaustively; composition triples are
restricted to mined-pattern triples plus, for every ordered relation pair,
the top-N third relations by mean axis-congruence distance — the full
O(|R|^3) scan is infeasible at scale.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from conequery.cones import turn_distance
from conequery.conditions import (
    ARITY,
    ASYMMETRY,
    COMPOSITION,
    CONTAINMENT,
    INVERSE,
    PATTERN_KINDS,
    SYMMETRY,
    TRANSITIVITY,
    composition_margin,
    containment_margin,
    inverse_margin,
    symmetry_margin,
    transitivity_margin,
)
from conequery.model import ParameterStore, relation_rotation
from conequery.patterns import PatternLabel

@dataclass(frozen=True)
class ExtractedAxiom:
    """One emitted axiom with its dimension-satisfaction evidence."""

    kind: str
    relations: tuple[int, ...]
    fraction: float
    tolerance: float

    def __post_init__(self) -> None:
        if self.kind not in ARITY:
            raise ValueError(f"unknown axiom kind: {self.kind!r}")
        if len(self.relations) != ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} axiom needs {ARITY[self.kind]} relation ids, "
                f"got {self.relations!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        if self.tolerance < 0.0:
            raise ValueError("tolerance must be non-negative")


def relation_rotation_angles(store: ParameterStore) -> tuple[np.ndarray, np.ndarray]:
    """Every relation's rotation as the model applies it
    (``model.relation_rotation``): axis shifts wrapped to the principal
    range, apertures through ``abs``."""
    return relation_rotation(store.tensors(None), np.arange(store.n_relations))


def composition_candidates(
    theta: np.ndarray,
    patterns: Iterable[PatternLabel] | None = None,
    proximity_top_n: int = 2,
) -> list[tuple[int, int, int]]:
    """Ordered relation triples worth testing for ``r1 o r2 <= r3``.

    Union of (a) triples carried by mined composition patterns and (b) for
    every ordered pair ``(r1, r2)``, the ``proximity_top_n`` relations whose
    axis vector best matches ``theta_1 + theta_2`` by mean turn distance.
    ``r1 == r2 == r3`` triples are excluded (that is transitivity's scan).
    """
    n_rel = theta.shape[0]
    cands: set[tuple[int, int, int]] = set()
    for label in patterns or ():
        if label.kind == COMPOSITION:
            r1, r2, r3 = label.relations
            if max(r1, r2, r3) < n_rel and not r1 == r2 == r3:
                cands.add((r1, r2, r3))
    if proximity_top_n > 0:
        for r1 in range(n_rel):
            for r2 in range(n_rel):
                residual = turn_distance(theta[None, r1] + theta[None, r2] - theta)
                order = np.argsort(residual.mean(axis=1), kind="stable")
                for r3 in order[:proximity_top_n]:
                    if not r1 == r2 == int(r3):
                        cands.add((r1, r2, int(r3)))
    return sorted(cands)


def extract(
    store: ParameterStore,
    tol: float = 0.1,
    frac_threshold: float = 0.9,
    patterns: Sequence[PatternLabel] | None = None,
    proximity_top_n: int = 2,
) -> list[ExtractedAxiom]:
    """Extract every axiom whose per-dimension condition holds within
    ``tol`` in at least ``frac_threshold`` of the embedding dimensions.

    Deterministic per parameter store; results sorted by fraction
    (descending), then kind, then relation ids.  ``Symmetric(r)`` and
    ``Asymmetric(r)`` are never both emitted: their dimension sets are
    complements, so both can reach the threshold only when
    ``frac_threshold <= 0.5``, where the larger fraction wins and an exact
    split drops both.
    """
    theta, delta = relation_rotation_angles(store)
    return extract_from_angles(theta, delta, tol=tol,
                               frac_threshold=frac_threshold,
                               patterns=patterns,
                               proximity_top_n=proximity_top_n)


def extract_from_angles(
    theta: np.ndarray,
    delta: np.ndarray,
    tol: float = 0.1,
    frac_threshold: float = 0.9,
    patterns: Sequence[PatternLabel] | None = None,
    proximity_top_n: int = 2,
) -> list[ExtractedAxiom]:
    """Core of :func:`extract` on raw ``(n_relations, d)`` angle arrays."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    delta = np.atleast_2d(np.asarray(delta, dtype=float))
    if theta.shape != delta.shape:
        raise ValueError("axis and aperture arrays must share a shape")
    if tol < 0.0:
        raise ValueError("tol must be non-negative")
    if not 0.0 < frac_threshold <= 1.0:
        raise ValueError("frac_threshold must lie in (0, 1]")
    if np.any(delta < 0.0):
        raise ValueError("apertures must be non-negative")
    n_rel = theta.shape[0]

    axioms: list[ExtractedAxiom] = []

    def consider(kind: str, relations: tuple[int, ...], fraction: float) -> None:
        if fraction >= frac_threshold:
            axioms.append(ExtractedAxiom(kind, relations, fraction, tol))

    def fractions(margin: np.ndarray):
        """Along the last axis, the share of dimensions whose margin reaches -tol."""
        return np.mean(margin >= -tol, axis=-1).tolist()

    f_syms = fractions(symmetry_margin(theta, delta))
    f_trans = fractions(transitivity_margin(theta, delta))
    upper = theta + 0.5 * delta
    lower = theta - 0.5 * delta
    for r in range(n_rel):
        # Complementary dimension sets: within the window vs strictly out.
        f_sym = f_syms[r]
        f_asym = 1.0 - f_sym
        if f_sym >= frac_threshold and f_asym >= frac_threshold:
            # Possible only at frac_threshold <= 0.5; larger side wins,
            # an exact split is evidence for neither.
            if f_sym > f_asym:
                consider(SYMMETRY, (r,), f_sym)
            elif f_asym > f_sym:
                consider(ASYMMETRY, (r,), f_asym)
        else:
            consider(SYMMETRY, (r,), f_sym)
            consider(ASYMMETRY, (r,), f_asym)
        consider(TRANSITIVITY, (r,), f_trans[r])
        f_contain = fractions(containment_margin(theta[r], delta[r], theta, delta))
        f_inverse = fractions(inverse_margin(upper[r], lower[r], upper, lower))
        for s in range(n_rel):
            if s != r:
                consider(CONTAINMENT, (r, s), f_contain[s])
            if s > r:
                consider(INVERSE, (r, s), f_inverse[s])

    for r1, r2, r3 in composition_candidates(theta, patterns, proximity_top_n):
        margin = composition_margin(theta[r1], delta[r1], theta[r2], delta[r2],
                                    theta[r3], delta[r3])
        consider(COMPOSITION, (r1, r2, r3), fractions(margin))

    axioms.sort(key=lambda a: (-a.fraction, PATTERN_KINDS.index(a.kind), a.relations))
    return axioms


# ---------------------------------------------------------------------------
# Ontology text serialization.
# ---------------------------------------------------------------------------

_FORM_NAMES = {SYMMETRY: "Symmetric", ASYMMETRY: "Asymmetric",
               TRANSITIVITY: "Transitive", INVERSE: "InverseRoles"}
_NAMES_TO_KIND = {v: k for k, v in _FORM_NAMES.items()}

ONTOLOGY_HEADER = "# ontology axioms extracted from rotation parameters"

_LINE_RE = re.compile(
    r"^(?P<form>\w+)\((?P<args>[^()]*)\)"
    r"\s*#\s*fraction=(?P<fraction>\S+)\s+tol=(?P<tol>\S+)\s*$")


def _default_names(n: int) -> list[str]:
    return [f"rel{i}" for i in range(n)]


def format_axiom(axiom: ExtractedAxiom, relation_names: Sequence[str]) -> str:
    """Render one axiom in functional syntax with evidence as a trailing
    comment, e.g. ``Symmetric(teamMate)  # fraction=1.0 tol=0.1`` or the
    chain form ``SubRoleOf(playsFor_teamWon athleteWon)``."""
    names = [relation_names[r] for r in axiom.relations]
    for name in names:
        if not re.fullmatch(r"[^\W_]\w*", name, re.UNICODE) or "_" in name:
            raise ValueError(
                f"relation name {name!r} cannot appear in ontology syntax "
                "(must be alphanumeric without underscores)")
    if axiom.kind in _FORM_NAMES:
        body = f"{_FORM_NAMES[axiom.kind]}({' '.join(names)})"
    elif axiom.kind == CONTAINMENT:
        body = f"SubRoleOf({names[0]} {names[1]})"
    else:
        body = f"SubRoleOf({names[0]}_{names[1]} {names[2]})"
    return f"{body}  # fraction={axiom.fraction!r} tol={axiom.tolerance!r}"


def emit_ontology(
    axioms: Sequence[ExtractedAxiom],
    path: str | Path,
    relation_names: Sequence[str] | None = None,
) -> None:
    """Write one axiom per line after a header comment; an empty axiom list
    yields just the header.  ``relation_names`` defaults to ``rel<i>``."""
    if relation_names is None:
        top = max((max(a.relations) for a in axioms), default=-1)
        relation_names = _default_names(top + 1)
    lines = [ONTOLOGY_HEADER]
    lines.extend(format_axiom(a, relation_names) for a in axioms)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_ontology(
    path: str | Path,
    relation_names: Sequence[str] | None = None,
) -> list[ExtractedAxiom]:
    """Parse a file written by :func:`emit_ontology` back into axioms.

    ``relation_names`` maps names to ids; by default names must follow the
    ``rel<i>`` scheme.  Round-trips exactly: fractions and tolerances are
    serialized with full precision.
    """
    text = Path(path).read_text(encoding="utf-8")
    if relation_names is not None:
        to_id = {name: i for i, name in enumerate(relation_names)}
    else:
        to_id = None

    def resolve(name: str, lineno: int) -> int:
        if to_id is not None:
            if name not in to_id:
                raise ValueError(f"{path}:{lineno}: unknown relation {name!r}")
            return to_id[name]
        m = re.fullmatch(r"rel(\d+)", name)
        if not m:
            raise ValueError(
                f"{path}:{lineno}: relation {name!r} needs a name table")
        return int(m.group(1))

    axioms: list[ExtractedAxiom] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise ValueError(f"{path}:{lineno}: unparseable axiom line: {line!r}")
        form, args = m.group("form"), m.group("args").split()
        fraction, tol = float(m.group("fraction")), float(m.group("tol"))
        if form in _NAMES_TO_KIND:
            kind = _NAMES_TO_KIND[form]
            names = args
        elif form == "SubRoleOf":
            if len(args) != 2:
                raise ValueError(f"{path}:{lineno}: SubRoleOf needs 2 arguments")
            if "_" in args[0]:
                kind = COMPOSITION
                names = args[0].split("_") + [args[1]]
            else:
                kind = CONTAINMENT
                names = args
        else:
            raise ValueError(f"{path}:{lineno}: unknown axiom form {form!r}")
        if len(names) != ARITY[kind]:
            raise ValueError(f"{path}:{lineno}: {form} arity mismatch")
        ids = tuple(resolve(n, lineno) for n in names)
        axioms.append(ExtractedAxiom(kind, ids, fraction, tol))
    return axioms
