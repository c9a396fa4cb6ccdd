"""Filtered ranking metrics over trained cone embeddings.

Ranks every held-out (query, answer) pair against all entities with the
known answers filtered out, pessimistic on ties, then reports MRR and
Hits@k per query structure, macro averages, and pattern-subgroup rollups.
``evaluate_instances`` ranks on float32 distances and rescores in float64
only the pairs rounding could order wrongly, so its ranks equal
``rank_instance``'s over the float64 table exactly (see its docstring).

Aggregation convention: reciprocal ranks are averaged per query first (over
that query's scored answers) and then across queries, so a query with many
answers weighs the same as a query with one.  The flat ``mrr`` helper, by
contrast, averages whatever rank list it is given.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import model
from .cones import wrap_angle
from .model import (
    ConeBatch,
    ParameterStore,
    _as_points,
    _chord_l1,
    _cone_trig,
    _dnf_distance,
    _tiled_distance,
    embed_structure,
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


@dataclass(frozen=True, slots=True)
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

@dataclass(frozen=True, slots=True)
class StructureMetrics:
    """Per-structure rollup; per-query averaging (see module docstring).
    The fields are the report's columns after ``structure``, in order."""

    n_queries: int
    n_answers: int
    mrr: float
    hits1: float
    hits3: float
    hits10: float


@dataclass(frozen=True)
class EvalReport:
    """Ranked results and rollups.  ``open_pairs`` counts the (answer,
    entity) pairs the float32 bracket left open, ``rescored_pairs`` those
    rescored in float64, the answers' own rescore excluded (see
    ``evaluate_instances``)."""

    results: list[RankedResult]
    per_structure: dict[str, StructureMetrics]
    average_mrr: float
    negation_average_mrr: float | None
    open_pairs: int
    rescored_pairs: int


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


#: Most queries of one structure scored together: the rows of a chunk's
#: (chunk, |E|) tables.
_CHUNK = 128


def _block(row_bytes: int) -> int:
    """Rows per ranking block: as many ``row_bytes``-byte rows as fit in the
    distance kernel's ``model._TILE_BYTES``, and at least one."""
    return max(1, model._TILE_BYTES // row_bytes)


def _entity_table32(m) -> tuple[np.ndarray, np.ndarray]:
    """Every entity's cos and sin, taken in float64 as by ``entity_points``
    and rounded once to float32: the entity side of ``_outside_tables32``."""
    angles = wrap_angle(m.entity_axis)
    return np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)


class _Outside32(NamedTuple):
    """One disjunct cone's float32 ranking parts (see ``_outside_tables32``)."""

    table: np.ndarray  # (batch, n_entities): the outside term O of each entry
    p_ua: np.ndarray  # (batch,): the chord from the upper boundary to the axis
    axis_cos: np.ndarray  # (batch, d)
    axis_sin: np.ndarray  # (batch, d)


def _outside_tables32(trigs, cos32, sin32) -> list[_Outside32]:
    """Per (batch, d) disjunct cone, given by its float64 ``_cone_trig`` in
    ``trigs``, the outside term O of its float32 distance to every entity of
    ``_entity_table32``, as a (batch, n_entities) table, and the parts
    ``_staged_distance32`` adds the inside term from.  The cone trig is
    rounded once to float32, and the table runs the float64 kernel's tile
    arithmetic in float32, two chords per entry instead of three."""
    parts = []
    for trig in trigs:
        cu, su, cl, sl, ca, sa = (x.astype(np.float32) for x in trig)
        table = _tiled_distance([x[:, None, :] for x in (cu, su, cl, sl)],
                                cos32[None], sin32[None], None)
        p_ua = _chord_l1(cu, su, ca, sa, np.empty_like(cu), np.empty_like(cu))
        parts.append(_Outside32(table, p_ua, ca, sa))
    return parts


def _staged_distance32(parts, rows, ids, cos32, sin32, lam: float):
    """The float32 DNF distance D32 from row ``rows[k]`` of ``parts`` to
    entity ``ids[k]`` of ``_entity_table32``.

    Per disjunct, O is read from its table and lam * min(p_a, p_ua) added,
    with p_a one paired axis chord over the gathered float32 rows: the
    kernel's float32 arithmetic for that entry.  The disjuncts' min is taken
    as ``dnf_entity_distance`` takes it.  The pairs run in ``_block``s of
    gathered (pairs, d) rows, so the memory a call takes does not grow with
    the number of pairs.
    """
    lam = float(lam)
    step = _block(cos32.itemsize * cos32.shape[1])
    dist = np.empty(len(ids), np.float32)
    for lo in range(0, len(ids), step):
        rows_b, ids_b = rows[lo:lo + step], ids[lo:lo + step]
        ce, se = cos32[ids_b], sin32[ids_b]
        buf, tmp = np.empty_like(ce), np.empty_like(ce)
        best = None
        for part in parts:
            p_a = _chord_l1(part.axis_cos[rows_b], part.axis_sin[rows_b], ce, se, buf, tmp)
            p_ua = part.p_ua[rows_b]
            out = part.table[rows_b, ids_b] + np.where(p_a <= p_ua, p_a, p_ua) * lam
            # ad.minimum's choice, NaN included, so NaN entries match the float64 table's
            best = out if best is None else np.where(best <= out, best, out)
        dist[lo:lo + step] = best
    return dist


#: Unit roundoff of float32.
_U32 = 2.0 ** -24


def _table32_error_bound(d: int, lam: float) -> tuple[float, float]:
    """(c0, c1) with |D32 - D64| <= c0 + c1 * D32 for every computed D32 of
    ``_staged_distance32`` and the float64 ``dnf_entity_distance`` D64 of
    the same (query, entity): c0 = 8 d u (1 + lam), c1 = 2 (d + 4) u, with
    u = 2^-24 and finite lam >= 0, for any summation order of the row sums.  It
    bounds computed D32 values only: the ends of ``_outside_tables32``'s
    bracket are not distances, and a ranker that decides an entity from
    them compares the D32 they bracket.

    Both tables start from the same float64 trig values x, |x| <= 1; the
    float32 one rounds each once, |fl32(x) - x| <= u.  Write g_n = n u / (1 -
    n u) (Higham, *Accuracy and Stability of Numerical Algorithms*, §4.2) and
    g'_n for float64's u' = 2^-53.

    1. One chord L1 (p_u, p_l, p_a or p_ua) sums 2d terms |a - b| >= 0.
       Rounding the inputs moves its exact value S by at most 2d * 2u = 4du.
       In float32 each term is rounded once by the subtraction, once by the
       pair add and at most d - 1 times by the row sum, in whatever order,
       so the computed C32 is within g_{d+1} C^ of the exact sum C^ over
       the rounded inputs.
    2. A min of terms keeps both the relative and the absolute bound.
    3. D32 = fl(O + fl(fl32(lam) * I)) adds one rounding to the outside
       term and three to the inside term, so |D32 - D^| <= g_{d+4} D^, with
       D^ = O^ + lam I^ the exact distance over rounded inputs and |D^ - D*|
       <= 4du (1 + lam) for D* the exact one over the float64 inputs.  The
       float64 kernel is the same arithmetic on D*'s inputs:
       |D64 - D*| <= g'_{d+3} D*.
    4. Together |D32 - D64| <= G D* + A with G = g_{d+4} + g'_{d+3} and
       A = 4du (1 + lam)(1 + g_{d+4}); with D* <= (D32 + A) / (1 - G) this
       is A / (1 - G) + G / (1 - G) D32.  For (d + 4) u <= 1/100 these are
       below 1.03 * 4du (1 + lam) and 1.03 (d + 4) u, so c0 and c1 hold
       with about 2x to spare, which also covers the float64 rounding of
       thresholds built from them.
    5. If every disjunct's entry keeps |x' - x| <= c0 + c1 x', so does their
       min, because t -> t -/+ (c0 + c1 t) is increasing.
    """
    lam = float(lam)
    if not 0.0 <= lam < math.inf:
        raise ValueError("lambda must be non-negative and finite")
    if (d + 4) * _U32 > 0.01:
        raise ValueError(f"d={d} is too large for the float32 distance table's bound")
    return 8 * d * _U32 * (1.0 + lam), 2 * (d + 4) * _U32


def _rescore(m, disjuncts, trigs, rows, ids, lam: float) -> np.ndarray:
    """Float64 distances from chunk query ``rows[k]`` (rows of the (chunk,
    d) ``disjuncts``, whose ``_cone_trig`` are ``trigs``) to entity
    ``ids[k]``.  Paired fused-distance calls over ``_block``s of (pairs, d)
    float64 rows gather the cone and trig rows and the cos and sin of their
    entities' wrapped rows (the values of ``entity_points``)."""
    step = _block(8 * m.d)
    out = np.empty(len(ids))
    for lo in range(0, len(ids), step):
        span = slice(lo, lo + step)
        at = rows[span]
        cones = [ConeBatch(c.axis[at], c.aperture[at]) for c in disjuncts]
        out[span] = _dnf_distance(cones, [[x[at] for x in trig] for trig in trigs],
                                  _as_points(wrap_angle(m.entity_axis[ids[span]])), lam)
    return out


def _settled_ranks(m, disjuncts, chunk, cos32, sin32, lam: float, bound):
    """``rank_instance`` ranks of a chunk, and its open and rescored pair
    counts, settling each (answer, entity) pair at the cheapest of the three
    stages that can (see ``evaluate_instances``)."""
    c0, c1 = bound
    trigs = [_cone_trig(c.axis, c.aperture) for c in disjuncts]  # for stages 1 and 3
    parts = _outside_tables32(trigs, cos32, sin32)
    targets = [q.hard if q.hard else q.easy for q in chunk]
    known = [set(q.easy) | set(q.hard) for q in chunk]
    first = np.cumsum([0] + [len(t) for t in targets])
    rows = np.repeat(np.arange(len(chunk)), np.diff(first))
    answers = np.fromiter(chain.from_iterable(targets), np.int64, first[-1])
    near = _staged_distance32(parts, rows, answers, cos32, sin32, lam).astype(np.float64)
    lo = (near * (1.0 - c1) - 2.0 * c0) / (1.0 + c1)
    hi = (near * (1.0 + c1) + 2.0 * c0) / (1.0 - c1)
    known_at = (np.repeat(np.arange(len(chunk)), [len(k) for k in known]),
                np.fromiter(chain.from_iterable(known), np.int64))
    low = high = None  # the DNF min of each end of the bracket
    for part in parts:
        part.table[known_at] = np.inf  # filtered out
        top = part.table + (part.p_ua * lam)[:, None]
        low = part.table if low is None else np.minimum(low, part.table)
        high = top if high is None else np.minimum(high, top, out=high)
    # stage 1: counted when the bracket's top is <= lo, not when its bottom is > hi
    below = np.empty(len(answers), dtype=np.int64)
    open_pair, open_ids = [], []
    block = _block(low.itemsize * low.shape[1])
    for start in range(0, len(answers), block):
        span = slice(start, start + block)
        settled = high[rows[span]] <= lo[span, None]
        below[span] = np.count_nonzero(settled, axis=1)
        settled |= low[rows[span]] > hi[span, None]
        pair, ids = np.nonzero(~settled)  # NaN ends stay open
        open_pair.append(pair + start)
        open_ids.append(ids)
    open_pair, open_ids = np.concatenate(open_pair), np.concatenate(open_ids)
    # stage 2: the same rule on the D32 of the open pairs
    dist = _staged_distance32(parts, rows[open_pair], open_ids, cos32, sin32, lam)
    below += np.bincount(open_pair[dist <= lo[open_pair]], minlength=len(answers))
    band = (dist > lo[open_pair]) & (dist <= hi[open_pair])
    band_pair = open_pair[band]
    # stage 3: the answers and the band in float64
    exact = _rescore(m, disjuncts, trigs, np.concatenate((rows, rows[band_pair])),
                     np.concatenate((answers, open_ids[band])), lam)
    at, beside = exact[:len(answers)], exact[len(answers):]
    ranks = (1 + below + np.bincount(band_pair[beside <= at[band_pair]],
                                     minlength=len(answers))).tolist()
    results = [RankedResult(query=q, answers=tuple(t), ranks=tuple(ranks[first[i]:first[i + 1]]))
               for i, (q, t) in enumerate(zip(chunk, targets))]
    return results, len(open_pair), len(band_pair)


def evaluate_instances(store: ParameterStore, instances, *, lam: float,
                       threads: int = 1) -> EvalReport:
    """Score every instance against all entities and roll up the metrics.

    Each structure's queries are scored in chunks of at most ``_CHUNK``.
    Queries are independent, so chunks may be scored in parallel threads
    against the immutable parameter snapshot; the reduction is per-query,
    which keeps the report deterministic for any thread count.  ``threads``
    is a cap: no more threads than chunks, and no pool for one chunk.

    The ranks are ``rank_instance``'s over the float64 ``dnf_entity_distance``
    table, exactly, though that table is never built.  A computed float32
    distance D32 is within c0 + c1 D32 of the float64 one D64
    (``_table32_error_bound``).  For an answer with D32 a, an entity with D32
    <= lo = (a (1 - c1) - 2 c0) / (1 + c1) has D64 <= a - c0 - c1 a <= the
    answer's D64, so it counts; one with D32 > hi = (a (1 + c1) + 2 c0) / (1
    - c1) has D64 above the answer's, so it does not.  Each (answer, entity)
    pair is settled by the first of three stages that can:

    1. Every pair: a float32 (chunk, |E|) table per disjunct holds only the
       outside term O (``_outside_tables32``, two chords of three).  The
       inside term adds at most fl32(lam p_ua) per query row, and rounding is
       monotone, so D32 lies between min_k O_k and min_k fl32(O_k + fl32(lam
       p_ua_k)).  A top end <= lo counts the entity, a bottom end > hi does
       not; every other pair is open.
    2. The answers and the open pairs: D32 itself (``_staged_distance32``),
       the axis chord computed over gathered float32 rows.  D32 <= lo
       counts, D32 > hi does not; the pairs between go on.
    3. The answers and what stage 2 left: float64 distances by paired fused
       calls, on the chunk's float64 cone trig that stage 1 rounds (taken
       once), and the pessimistic ``<=`` rule applied to them.
       They equal the full table's entries bit for bit, because the kernel's
       arithmetic per (query, entity) entry does not depend on the other
       rows.

    Each entity so gets the rule it would get from a full float32 table,
    applied to a D32 that is computed or bracketed, so no bound beyond
    ``_table32_error_bound`` is needed.  Each stage walks its pairs in
    ``_block``s, sized by the distance kernel's tile.  The report counts the
    pairs stage 1 left open and the pairs stage 3 rescored, answers
    excluded.
    """
    if threads < 1:
        raise ValueError("threads must be a positive integer")
    instances = [q for q in instances if q.easy or q.hard]
    if not instances:
        raise ValueError("nothing to evaluate")
    _validate_vocabulary(store, instances)
    lam = float(lam)
    bound = _table32_error_bound(store.d, lam)  # rejects a negative or non-finite lam
    m = store.tensors(None)
    cos32, sin32 = _entity_table32(m)  # (n_entities, d) each

    def score_chunk(tag: str, chunk: list[QueryInstance]):
        anchors = np.array([q.anchors for q in chunk], dtype=np.int64)
        relations = np.array([q.relations for q in chunk], dtype=np.int64)
        disjuncts = embed_structure(m, tag, anchors, relations)
        return _settled_ranks(m, disjuncts, chunk, cos32, sin32, lam, bound)

    by_tag: dict[str, list[QueryInstance]] = {}
    for q in instances:
        by_tag.setdefault(q.structure, []).append(q)

    jobs = [
        (tag, by_tag[tag][lo:lo + _CHUNK])
        for tag in ALL_STRUCTURES if tag in by_tag
        for lo in range(0, len(by_tag[tag]), _CHUNK)
    ]
    workers = min(threads, len(jobs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunk_results = list(pool.map(lambda job: score_chunk(*job), jobs))
    else:
        chunk_results = [score_chunk(*job) for job in jobs]

    grouped: dict[str, list[RankedResult]] = {}  # jobs run in structure order
    for (tag, _), (chunk, _, _) in zip(jobs, chunk_results):
        grouped.setdefault(tag, []).extend(chunk)
    results = list(chain.from_iterable(grouped.values()))
    per_structure = {tag: _structure_rollup(group) for tag, group in grouped.items()}
    plain = [tag for tag in per_structure if tag not in NEGATION_STRUCTURES]
    negated = [tag for tag in per_structure if tag in NEGATION_STRUCTURES]
    average = float(np.mean([per_structure[t].mrr for t in plain])) if plain else float("nan")
    neg_average = float(np.mean([per_structure[t].mrr for t in negated])) if negated else None
    return EvalReport(results=results, per_structure=per_structure,
                      average_mrr=average, negation_average_mrr=neg_average,
                      open_pairs=sum(n for _, n, _ in chunk_results),
                      rescored_pairs=sum(n for _, _, n in chunk_results))


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

_COLUMNS = ("structure", "queries", "answers", "mrr", "hits1", "hits3", "hits10")


def _report_rows(report: EvalReport) -> list[dict[str, object]]:
    """One row per structure, keyed by ``_COLUMNS``, then the macro averages
    (blank but for ``mrr``)."""
    rows = [dict(zip(_COLUMNS, (tag, *astuple(metrics))))
            for tag, metrics in report.per_structure.items()]
    for name, value in (("AVG", report.average_mrr),
                        ("AVG-NEG", report.negation_average_mrr)):
        if value is not None:
            rows.append({**dict.fromkeys(_COLUMNS, ""), "structure": name, "mrr": value})
    return rows


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


def write_report_json(path: str, report: EvalReport, seconds: float | None = None) -> None:
    """The report's rollups and pair counts as JSON; with ``seconds``, the
    wall time it took and its queries per second too."""
    answers = sum(metrics.n_answers for metrics in report.per_structure.values())
    per_structure = _report_rows(report)[:len(report.per_structure)]  # averages follow
    payload = {
        "per_structure": {row.pop("structure"): row for row in per_structure},
        "average_mrr": report.average_mrr,
        "negation_average_mrr": report.negation_average_mrr,
        "open_pairs": report.open_pairs,
        "rescored_pairs": report.rescored_pairs,
        "open_pairs_per_answer": report.open_pairs / answers,
        "rescored_pairs_per_answer": report.rescored_pairs / answers,
    }
    if seconds is not None:
        payload["seconds"] = seconds
        payload["queries_per_s"] = len(report.results) / seconds
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
