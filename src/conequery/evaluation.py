"""Filtered ranking metrics over trained cone embeddings.

Ranks every held-out (query, answer) pair against all entities with the
known answers filtered out, pessimistic on ties, then reports MRR and
Hits@k per query structure, macro averages, and pattern-subgroup rollups.
``evaluate_instances`` ranks from a float32 distance table and rescores in
float64 only what its proven rounding bound leaves open, so its ranks equal
``rank_instance``'s over the float64 table exactly (see its docstring).

Aggregation convention: reciprocal ranks are averaged per query first (over
that query's scored answers) and then across queries, so a query with many
answers weighs the same as a query with one.  The flat ``mrr`` helper, by
contrast, averages whatever rank list it is given.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .model import (
    ConeBatch,
    ParameterStore,
    dnf_distance_table32,
    dnf_entity_distance,
    embed_structure,
    entity_points,
    entity_table32,
    table32_error_bound,
)
from .queries import ALL_STRUCTURES, QueryInstance

__all__ = [
    "NEGATION_STRUCTURES",
    "RankedResult",
    "StructureMetrics",
    "EvalReport",
    "mrr",
    "filtered_rank",
    "rank_instance",
    "evaluate_instances",
    "expected_random_mrr",
    "expected_random_mrr_for",
    "subgroup_report",
    "format_eval_table",
    "write_report_tsv",
    "write_report_json",
]

#: Structures whose queries contain a negated branch; the headline "AVG"
#: macro-average excludes them (they get their own average instead).
NEGATION_STRUCTURES = ("2in", "3in", "inp", "pin", "pni")


# ---------------------------------------------------------------------------
# ranks and the flat MRR helper
# ---------------------------------------------------------------------------

def mrr(ranks) -> float:
    """Mean reciprocal rank of a flat rank list."""
    ranks = list(ranks)
    if not ranks:
        raise ValueError("mrr needs at least one rank")
    total = 0.0
    for r in ranks:
        if int(r) != r or r < 1:
            raise ValueError(f"ranks are positive integers, got {r!r}")
        total += 1.0 / float(r)
    return total / len(ranks)


def filtered_rank(distances, answer: int, known_answers) -> int:
    """Pessimistic filtered rank of ``answer`` within a distance table.

    1 + the number of entities that are neither the answer itself nor in
    ``known_answers`` whose distance is <= the answer's distance (equal
    distance counts against the answer).
    """
    d = np.asarray(distances, dtype=np.float64)
    mask = np.ones(d.shape[0], dtype=bool)
    known = np.asarray(sorted(known_answers), dtype=np.int64)
    if known.size:
        mask[known] = False
    mask[answer] = False
    return 1 + int(np.count_nonzero(d[mask] <= d[answer]))


@dataclass(frozen=True)
class RankedResult:
    """Filtered ranks of one query's scored answers."""

    query: QueryInstance
    answers: tuple[int, ...]
    ranks: tuple[int, ...]

    @property
    def reciprocals(self) -> tuple[float, ...]:
        return tuple(1.0 / r for r in self.ranks)

    @property
    def query_mrr(self) -> float:
        return sum(self.reciprocals) / len(self.ranks)


def rank_instance(instance: QueryInstance, distances) -> RankedResult:
    """Rank an instance's hard answers (falling back to easy answers for
    training-split instances, which have no hard ones)."""
    targets = instance.hard if instance.hard else instance.easy
    if not targets:
        raise ValueError("instance has no answers to rank")
    known = set(instance.easy) | set(instance.hard)
    ranks = tuple(filtered_rank(distances, a, known) for a in targets)
    return RankedResult(query=instance, answers=tuple(targets), ranks=ranks)


# ---------------------------------------------------------------------------
# model-based evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureMetrics:
    """Per-structure rollup; per-query averaging (see module docstring)."""

    n_queries: int
    n_answers: int
    mrr: float
    hits1: float
    hits3: float
    hits10: float


@dataclass(frozen=True)
class EvalReport:
    results: list[RankedResult]
    per_structure: dict[str, StructureMetrics]
    average_mrr: float
    negation_average_mrr: float | None


def _structure_rollup(results: list[RankedResult]) -> StructureMetrics:
    """Metrics of one structure's results: each query's MRR and Hits@k
    (its hit count over its answer count), each averaged by one ``np.mean``
    over the queries."""
    mrr: list[float] = []
    hits: dict[int, list[float]] = {1: [], 3: [], 10: []}
    for res in results:
        mrr.append(res.query_mrr)
        for k, per_query in hits.items():
            per_query.append(sum(r <= k for r in res.ranks) / len(res.ranks))
    return StructureMetrics(len(results), sum(len(res.ranks) for res in results),
                            float(np.mean(mrr)), *(float(np.mean(h)) for h in hits.values()))


def _validate_vocabulary(store: ParameterStore, instances) -> None:
    for q in instances:
        ids = list(q.anchors) + list(q.easy) + list(q.hard)
        if ids and (min(ids) < 0 or max(ids) >= store.n_entities):
            raise ValueError(
                f"entity id out of range for this checkpoint "
                f"(n_entities={store.n_entities}): {q}"
            )
        if q.relations and (min(q.relations) < 0
                            or max(q.relations) >= store.n_relations):
            raise ValueError(
                f"relation id out of range for this checkpoint "
                f"(n_relations={store.n_relations}): {q}"
            )


#: Most (answer, entity) comparisons made at once: 16 MB of float32 rows.
_COMPARE_BLOCK = 1 << 22

#: Most bytes in one (pairs, d) float64 array of a float64 rescore call.
_RESCORE_BYTES = 1 << 20


def _rescore(m, disjuncts, rows, ids, lam: float) -> np.ndarray:
    """Float64 distances from chunk query ``rows[k]`` (rows of the (chunk,
    d) ``disjuncts``) to entity ``ids[k]``, by paired ``dnf_entity_distance``
    calls over blocks of at most ``_RESCORE_BYTES`` per (pairs, d) array."""
    step = max(1, _RESCORE_BYTES // (8 * m.d))
    out = np.empty(len(ids))
    for lo in range(0, len(ids), step):
        span = slice(lo, lo + step)
        cones = [ConeBatch(c.axis[rows[span]], c.aperture[rows[span]]) for c in disjuncts]
        out[span] = dnf_entity_distance(cones, entity_points(m, ids[span]), lam)
    return out


def _settled_ranks(m, disjuncts, chunk, table, lam: float, bound) -> list[RankedResult]:
    """``rank_instance`` ranks of a chunk from its float32 ``table`` (which
    this overwrites), settling in float64 only what rounding could change.

    By the bound |D32 - D64| <= c0 + c1 D32, an entity whose D32 is at most
    ``lo`` has D64 <= the answer's, and one above ``hi`` has D64 above it;
    the band between, and the answer itself, are rescored in float64.
    """
    c0, c1 = bound
    targets = [q.hard if q.hard else q.easy for q in chunk]
    known = [set(q.easy) | set(q.hard) for q in chunk]
    first = np.cumsum([0] + [len(t) for t in targets])
    rows = np.repeat(np.arange(len(chunk)), np.diff(first))
    answers = np.fromiter(chain.from_iterable(targets), np.int64, first[-1])
    near = table[rows, answers].astype(np.float64)
    lo = (near * (1.0 - c1) - 2.0 * c0) / (1.0 + c1)
    hi = (near * (1.0 + c1) + 2.0 * c0) / (1.0 - c1)
    table[np.repeat(np.arange(len(chunk)), [len(k) for k in known]),
          np.fromiter(chain.from_iterable(known), np.int64)] = np.inf  # filtered out
    below = np.empty(len(answers), dtype=np.int64)
    band_pair, band_ids = [], []
    block = max(1, _COMPARE_BLOCK // table.shape[1])
    for start in range(0, len(answers), block):
        span = slice(start, start + block)
        dist = table[rows[span]]
        below[span] = np.count_nonzero(dist <= lo[span, None], axis=1)
        pair, ids = np.nonzero((dist > lo[span, None]) & (dist <= hi[span, None]))
        band_pair.append(pair + start)
        band_ids.append(ids)
    band_pair = np.concatenate(band_pair)
    exact = _rescore(m, disjuncts, np.concatenate((rows, rows[band_pair])),
                     np.concatenate((answers, *band_ids)), lam)
    at, beside = exact[:len(answers)], exact[len(answers):]
    ranks = (1 + below + np.bincount(band_pair[beside <= at[band_pair]],
                                     minlength=len(answers))).tolist()
    return [RankedResult(query=q, answers=tuple(t), ranks=tuple(ranks[first[i]:first[i + 1]]))
            for i, (q, t) in enumerate(zip(chunk, targets))]


def evaluate_instances(store: ParameterStore, instances, *, lam: float,
                       threads: int = 1, chunk_size: int = 128) -> EvalReport:
    """Score every instance against all entities and roll up the metrics.

    Queries are independent, so chunks may be scored in parallel threads
    against the immutable parameter snapshot; the reduction is per-query,
    which keeps the report deterministic for any thread count.  ``threads``
    is a cap: no more threads than chunks, and no pool for one chunk.

    The ranks are ``rank_instance``'s over the float64 ``dnf_entity_distance``
    table, exactly, though that table is never built.  Each chunk gets a
    float32 table (``dnf_distance_table32``), whose entries D32 are within
    c0 + c1 D32 of the float64 ones D64 (``table32_error_bound``).  For an
    answer with float32 distance a, an entity with D32 <= lo = (a (1 - c1)
    - 2 c0) / (1 + c1) has D64 <= a - c0 - c1 a <= the answer's D64, so it
    counts; one with D32 > hi = (a (1 + c1) + 2 c0) / (1 - c1) has D64 above
    the answer's, so it does not.  The answer and the entities between lo and
    hi are rescored in float64 by paired ``dnf_entity_distance`` calls over
    blocks of a fixed byte budget (``_RESCORE_BYTES``), and the pessimistic
    ``<=`` rule is applied to those values.
    They equal the full table's entries bit for bit, because the kernel's
    arithmetic per (query, entity) entry does not depend on the other rows.
    """
    if threads < 1:
        raise ValueError("threads must be a positive integer")
    if chunk_size < 1:
        raise ValueError("chunk_size must be a positive integer")
    instances = [q for q in instances if q.easy or q.hard]
    if not instances:
        raise ValueError("nothing to evaluate")
    _validate_vocabulary(store, instances)
    bound = table32_error_bound(store.d, lam)
    m = store.tensors(None)
    cos32, sin32 = entity_table32(m)  # (n_entities, d) each

    def score_chunk(tag: str, chunk: list[QueryInstance]) -> list[RankedResult]:
        anchors = np.array([q.anchors for q in chunk], dtype=np.int64)
        relations = np.array([q.relations for q in chunk], dtype=np.int64)
        disjuncts = embed_structure(m, tag, anchors, relations)
        table = dnf_distance_table32(disjuncts, cos32, sin32, lam)  # (chunk, n_entities)
        return _settled_ranks(m, disjuncts, chunk, table, lam, bound)

    by_tag: dict[str, list[QueryInstance]] = {}
    for q in instances:
        by_tag.setdefault(q.structure, []).append(q)

    jobs = [
        (tag, by_tag[tag][lo:lo + chunk_size])
        for tag in ALL_STRUCTURES if tag in by_tag
        for lo in range(0, len(by_tag[tag]), chunk_size)
    ]
    workers = min(threads, len(jobs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunk_results = list(pool.map(lambda job: score_chunk(*job), jobs))
    else:
        chunk_results = [score_chunk(*job) for job in jobs]

    grouped: dict[str, list[RankedResult]] = {}  # jobs run in structure order
    for (tag, _), chunk in zip(jobs, chunk_results):
        grouped.setdefault(tag, []).extend(chunk)
    results = list(chain.from_iterable(grouped.values()))
    per_structure = {tag: _structure_rollup(group) for tag, group in grouped.items()}
    plain = [tag for tag in per_structure if tag not in NEGATION_STRUCTURES]
    negated = [tag for tag in per_structure if tag in NEGATION_STRUCTURES]
    average = float(np.mean([per_structure[t].mrr for t in plain])) if plain else float("nan")
    neg_average = float(np.mean([per_structure[t].mrr for t in negated])) if negated else None
    return EvalReport(results=results, per_structure=per_structure,
                      average_mrr=average, negation_average_mrr=neg_average)


# ---------------------------------------------------------------------------
# analytic random baseline
# ---------------------------------------------------------------------------

def expected_random_mrr(n_candidates: int) -> float:
    """E[1/rank] when the answer's rank is uniform on 1..n_candidates, i.e.
    H(n)/n with H the harmonic number."""
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    return float(np.sum(1.0 / np.arange(1, n_candidates + 1)) / n_candidates)


def expected_random_mrr_for(instances, n_entities: int) -> float:
    """Exact random baseline for a dataset: per query the answer competes
    against the unfiltered entities only, so the candidate count is
    n_entities - |easy ∪ hard| + 1; averaged per query then across queries
    (same convention as ``evaluate_instances``)."""
    per_query = []
    for q in instances:
        known = len(set(q.easy) | set(q.hard))
        per_query.append(expected_random_mrr(n_entities - known + 1))
    if not per_query:
        raise ValueError("no instances")
    return float(np.mean(per_query))


# ---------------------------------------------------------------------------
# pattern subgroups
# ---------------------------------------------------------------------------

def subgroup_report(results, subgroup_relations: dict[str, set[int]]) -> dict[str, tuple[float, int]]:
    """Average MRR per relation-pattern subgroup.

    A query belongs to every subgroup that shares at least one relation with
    it (multi-label), and to "Others" only when none matches.  Returns
    subgroup -> (average of per-query MRR, query count); subgroups with no
    member queries are omitted, "Others" appears whenever nonempty.
    """
    buckets: dict[str, list[float]] = {}
    for res in results:
        rels = set(res.query.relations)
        hit = False
        for name, members in subgroup_relations.items():
            if rels & set(members):
                buckets.setdefault(name, []).append(res.query_mrr)
                hit = True
        if not hit:
            buckets.setdefault("Others", []).append(res.query_mrr)
    return {
        name: (float(np.mean(vals)), len(vals))
        for name, vals in sorted(buckets.items())
    }


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def _report_rows(report: EvalReport) -> list[dict[str, object]]:
    rows: list[dict[str, object]] = []
    for tag, metrics in report.per_structure.items():
        rows.append({
            "structure": tag,
            "queries": metrics.n_queries,
            "answers": metrics.n_answers,
            "mrr": metrics.mrr,
            "hits1": metrics.hits1,
            "hits3": metrics.hits3,
            "hits10": metrics.hits10,
        })
    rows.append({"structure": "AVG", "queries": "", "answers": "",
                 "mrr": report.average_mrr, "hits1": "", "hits3": "", "hits10": ""})
    if report.negation_average_mrr is not None:
        rows.append({"structure": "AVG-NEG", "queries": "", "answers": "",
                     "mrr": report.negation_average_mrr,
                     "hits1": "", "hits3": "", "hits10": ""})
    return rows


_COLUMNS = ("structure", "queries", "answers", "mrr", "hits1", "hits3", "hits10")


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def format_eval_table(report: EvalReport) -> str:
    """Human-readable aligned table of the per-structure metrics."""
    grid = [list(_COLUMNS)] + [
        [_cell(row[col]) for col in _COLUMNS] for row in _report_rows(report)
    ]
    widths = [max(len(line[i]) for line in grid) for i in range(len(_COLUMNS))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in grid
    )


def write_report_tsv(path: str, report: EvalReport) -> None:
    lines = ["\t".join(_COLUMNS)]
    for row in _report_rows(report):
        lines.append("\t".join(_cell(row[col]) for col in _COLUMNS))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report_json(path: str, report: EvalReport) -> None:
    payload = {
        "per_structure": {
            tag: {
                "queries": metrics.n_queries,
                "answers": metrics.n_answers,
                "mrr": metrics.mrr,
                "hits1": metrics.hits1,
                "hits3": metrics.hits3,
                "hits10": metrics.hits10,
            }
            for tag, metrics in report.per_structure.items()
        },
        "average_mrr": report.average_mrr,
        "negation_average_mrr": report.negation_average_mrr,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
