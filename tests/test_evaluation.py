"""Tests for filtered ranking, MRR/Hits rollups, baselines, and reports."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from _helpers import naive_filtered_rank, reference_structure_rollup
import conequery.evaluation as evaluation
import conequery.model as model
from conequery.evaluation import (
    NEGATION_STRUCTURES,
    RankedResult,
    _rescore,
    _structure_rollup,
    evaluate_instances,
    expected_random_mrr,
    expected_random_mrr_for,
    filtered_rank,
    format_eval_table,
    mrr,
    rank_instance,
    subgroup_report,
    write_report_json,
    write_report_tsv,
)
from conequery.model import (
    ConeBatch,
    ParameterStore,
    dnf_entity_distance,
    embed_structure,
    entity_points,
    entity_table32,
    outside_tables32,
    staged_distance32,
)
from conequery.planted import build_planted_kg
from conequery.queries import ALL_STRUCTURES, KnowledgeGraph, QueryInstance, generate_dataset


@pytest.fixture(scope="module")
def toy_eval_set():
    kg = build_planted_kg(seed=2)
    counts = {tag: 6 for tag in ("1p", "2p", "2i", "2u", "2in", "pni")}
    bundle = generate_dataset(kg.train, kg.valid, kg.test, kg.n_entities,
                              kg.n_relations, counts=counts, seed=4)
    assert bundle.test, "toy evaluation needs test instances"
    return kg, bundle


# ---------------------------------------------------------------------------
# flat mrr helper
# ---------------------------------------------------------------------------

def test_mrr_flat_examples():
    assert math.isclose(mrr([1, 2, 4]), 0.5833333333333334, abs_tol=1e-12)
    assert mrr([1, 1, 1]) == 1.0
    assert math.isclose(mrr([4]), 0.25)


def test_mrr_rejects_bad_input():
    with pytest.raises(ValueError):
        mrr([])
    with pytest.raises(ValueError):
        mrr([0])
    with pytest.raises(ValueError):
        mrr([1.5])


def test_mrr_worse_duplicate_never_raises():
    rng = np.random.default_rng(0)
    for _ in range(200):
        ranks = rng.integers(1, 50, size=rng.integers(1, 10)).tolist()
        worse = max(ranks) + int(rng.integers(1, 10))
        assert mrr(ranks + [worse]) <= mrr(ranks) + 1e-12


# ---------------------------------------------------------------------------
# filtered ranks
# ---------------------------------------------------------------------------

def test_filtered_rank_basic():
    d = np.array([0.3, 0.1, 0.5, 0.2, 0.4])
    # answer 2 is worst among all -> rank 5 unfiltered
    assert filtered_rank(d, 2, {2}) == 5
    # filtering out two better entities improves it
    assert filtered_rank(d, 2, {2, 1, 3}) == 3


def test_filtered_rank_pessimistic_on_ties():
    d = np.array([0.2, 0.2, 0.2, 0.9])
    # competitors 1 and 2 tie with the answer and count against it
    assert filtered_rank(d, 0, {0}) == 3


def test_filtered_rank_matches_naive_reranker():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(3, 40))
        d = rng.random(n)
        if rng.random() < 0.3:  # force ties sometimes
            d = np.round(d, 1)
        known = set(rng.integers(0, n, size=rng.integers(1, max(2, n // 3))).tolist())
        answer = int(rng.integers(n))
        known.add(answer)
        assert filtered_rank(d, answer, known) == naive_filtered_rank(d, answer, known)


def test_filtering_more_never_worsens_rank():
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = int(rng.integers(4, 30))
        d = rng.random(n)
        answer = int(rng.integers(n))
        known = {answer}
        extra = set(known) | {int(rng.integers(n))}
        assert filtered_rank(d, answer, extra) <= filtered_rank(d, answer, known)


def test_rank_instance_prefers_hard_answers():
    d = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    inst = QueryInstance("1p", (4,), (0,), easy=(0,), hard=(2,))
    res = rank_instance(inst, d)
    assert res.answers == (2,)
    # entity 1 beats the hard answer; easy answer 0 is filtered out
    assert res.ranks == (2,)
    assert math.isclose(res.query_mrr, 0.5)


def test_rank_instance_falls_back_to_easy():
    d = np.array([0.0, 0.1, 0.2])
    inst = QueryInstance("1p", (2,), (0,), easy=(1,), hard=())
    assert rank_instance(inst, d).answers == (1,)
    with pytest.raises(ValueError):
        rank_instance(QueryInstance("1p", (0,), (0,), (), ()), d)


def test_oracle_distances_give_perfect_mrr():
    inst = QueryInstance("2i", (0, 1), (0, 1), easy=(3, 4), hard=(5,))
    d = np.ones(8)
    d[[3, 4, 5]] = 0.0
    res = rank_instance(inst, d)
    assert res.ranks == (1,)
    assert res.query_mrr == 1.0


# ---------------------------------------------------------------------------
# model-based evaluation
# ---------------------------------------------------------------------------

def test_evaluate_report_shape(toy_eval_set):
    kg, bundle = toy_eval_set
    store = ParameterStore(kg.n_entities, kg.n_relations, 16, seed=0)
    report = evaluate_instances(store, bundle.test, lam=0.02)
    tags = {q.structure for q in bundle.test}
    assert set(report.per_structure) == tags
    for tag, metrics in report.per_structure.items():
        assert 0.0 < metrics.mrr <= 1.0
        assert 0.0 <= metrics.hits1 <= metrics.hits10 <= 1.0
        assert metrics.n_queries > 0
    plain = [t for t in tags if t not in NEGATION_STRUCTURES]
    expect_avg = float(np.mean([report.per_structure[t].mrr for t in plain]))
    assert math.isclose(report.average_mrr, expect_avg, abs_tol=1e-12)
    negated = [t for t in tags if t in NEGATION_STRUCTURES]
    if negated:
        assert report.negation_average_mrr is not None


def test_evaluate_threads_deterministic(toy_eval_set, monkeypatch):
    kg, bundle = toy_eval_set
    store = ParameterStore(kg.n_entities, kg.n_relations, 16, seed=1)
    monkeypatch.setattr(evaluation, "_CHUNK", 3)
    a = evaluate_instances(store, bundle.test, lam=0.02, threads=1)
    b = evaluate_instances(store, bundle.test, lam=0.02, threads=4)
    assert a.per_structure == b.per_structure
    assert a.average_mrr == b.average_mrr


def test_one_chunk_opens_no_thread_pool(toy_eval_set, monkeypatch):
    # threads is a cap: one chunk of work is scored on the calling thread
    kg, bundle = toy_eval_set
    store = ParameterStore(kg.n_entities, kg.n_relations, 16, seed=1)
    serial = evaluate_instances(store, bundle.test, lam=0.02, threads=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was opened for one chunk")

    monkeypatch.setattr(evaluation, "ThreadPoolExecutor", no_pool)
    one_chunk = evaluate_instances(store, [q for q in bundle.test if q.structure == "1p"],
                                   lam=0.02, threads=4)
    assert one_chunk.results and one_chunk.results == [
        res for res in serial.results if res.query.structure == "1p"]
    with pytest.raises(AssertionError, match="thread pool"):  # several chunks still fan out
        evaluate_instances(store, bundle.test, lam=0.02, threads=4)


def test_structure_rollup_equals_the_reference_on_random_ranks():
    # many queries (numpy sums more than eight terms pairwise), each with one
    # to seven answers whose ranks sit on and around the Hits@k cut-offs
    rng = np.random.default_rng(12)
    query = QueryInstance("1p", (0,), (0,), (1,), ())
    for n_queries in (1, 7, 50):
        results = []
        for _ in range(n_queries):
            ranks = tuple(int(r) for r in rng.choice([1, 2, 3, 4, 10, 11, 250],
                                                     size=rng.integers(1, 8)))
            results.append(RankedResult(query, tuple(range(len(ranks))), ranks))
        assert _structure_rollup(results) == reference_structure_rollup(results)


def test_evaluate_rollup_equals_the_per_structure_rescan(every_structure_set, monkeypatch):
    kg, instances = every_structure_set
    store = ParameterStore(kg.n_entities, kg.n_relations, 16, seed=2)
    monkeypatch.setattr(evaluation, "_CHUNK", 3)
    report = evaluate_instances(store, instances, lam=0.02)
    by_structure = [q for tag in ALL_STRUCTURES for q in instances if q.structure == tag]
    assert [res.query for res in report.results] == by_structure
    assert report.per_structure == {
        tag: reference_structure_rollup([res for res in report.results
                                         if res.query.structure == tag])
        for tag in ALL_STRUCTURES
    }
    assert list(report.per_structure) == list(ALL_STRUCTURES)


def test_evaluate_random_embeddings_near_analytic_baseline(toy_eval_set):
    kg, bundle = toy_eval_set
    test_1p = [q for q in bundle.test if q.structure == "1p"]
    baselines, observed = [], []
    for seed in range(6):  # average over fresh random embeddings
        store = ParameterStore(kg.n_entities, kg.n_relations, 16, seed=seed + 10)
        report = evaluate_instances(store, test_1p, lam=0.02)
        observed.append(report.per_structure["1p"].mrr)
    analytic = expected_random_mrr_for(test_1p, kg.n_entities)
    assert abs(float(np.mean(observed)) - analytic) < 0.05


def test_evaluate_vocabulary_mismatch(toy_eval_set):
    kg, bundle = toy_eval_set
    small = ParameterStore(5, 2, 8, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        evaluate_instances(small, bundle.test, lam=0.02)
    with pytest.raises(ValueError, match="evaluate"):
        evaluate_instances(small, [], lam=0.02)


# ---------------------------------------------------------------------------
# exact ranks from the float32 table
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def every_structure_set():
    kg = build_planted_kg(seed=2)
    bundle = generate_dataset(kg.train, kg.valid, kg.test, kg.n_entities, kg.n_relations,
                              counts={tag: 4 for tag in ALL_STRUCTURES}, seed=5)
    assert {q.structure for q in bundle.test} == set(ALL_STRUCTURES)
    return kg, bundle.test


def _store_with(kg, rows: str) -> ParameterStore:
    """A random d=16 store; "twins" makes each odd entity row a copy of the
    even row before it (exact ties), "near-twins" a copy moved by about
    1e-7 rad, which float64 separates and float32 mostly does not; "wide"
    gives every relation an aperture of about 3 rad, so the float32 bracket
    leaves most pairs open."""
    store = ParameterStore(kg.n_entities, kg.n_relations, 16, seed=3)
    table = store.arrays["entity_axis"]
    if rows == "twins":
        table[1::2] = table[0::2]
    elif rows == "near-twins":
        table[1::2] = table[0::2] + 1e-7 * np.random.default_rng(8).normal(size=table[1::2].shape)
    elif rows == "wide":
        store.arrays["relation_aperture"][:] = np.random.default_rng(8).uniform(
            2.9, 3.1, size=store.arrays["relation_aperture"].shape)
    return store


def _wide(disjuncts):
    return [ConeBatch(c.axis[:, None, :], c.aperture[:, None, :]) for c in disjuncts]


def _ranks_over(instances, m, lam, table_of):
    """rank_instance ranks per instance over each structure's table."""
    ranks = {}
    for tag in ALL_STRUCTURES:
        group = [q for q in instances if q.structure == tag]
        disjuncts = embed_structure(m, tag, [q.anchors for q in group],
                                    [q.relations for q in group])
        table = table_of(disjuncts)
        ranks.update((q, rank_instance(q, table[i]).ranks) for i, q in enumerate(group))
    return [ranks[q] for q in instances]


def _staged_table32(m, disjuncts, lam):
    """The float32 D32 of every (query, entity) pair, as ``evaluate_instances``
    computes it when a pair is not settled by its bracket."""
    cos32, sin32 = entity_table32(m)
    parts = outside_tables32(disjuncts, cos32, sin32)
    rows, ids = np.indices((len(disjuncts[0].axis), len(cos32))).reshape(2, -1)
    return staged_distance32(parts, rows, ids, cos32, sin32, lam).reshape(-1, len(cos32))


@pytest.mark.parametrize("rows, lam", [  # the paper's lambda = 0.02 keeps the bare name
    pytest.param(rows, lam, id=rows if lam == 0.02 else f"{rows}-lam{lam:g}")
    for rows in ("random", "twins", "near-twins", "wide") for lam in (0.0, 0.02, 1.0)])
def test_evaluate_ranks_equal_float64_table_ranks(every_structure_set, monkeypatch, rows, lam):
    kg, instances = every_structure_set
    store = _store_with(kg, rows)
    m = store.tensors(None)
    points = entity_points(m, np.arange(kg.n_entities))
    want = _ranks_over(instances, m, lam,
                       lambda disjuncts: dnf_entity_distance(_wide(disjuncts), points, lam))
    for chunk in (3, 128):
        monkeypatch.setattr(evaluation, "_CHUNK", chunk)
        reports = [evaluate_instances(store, instances, lam=lam, threads=threads)
                   for threads in (1, 2)]
        for report in reports:
            by_query = {res.query: res.ranks for res in report.results}
            assert [by_query[q] for q in instances] == want
        assert reports[0].open_pairs == reports[1].open_pairs
        assert reports[0].rescored_pairs == reports[1].rescored_pairs
    if rows == "near-twins":  # the float64 recheck is what makes them equal
        float32_only = _ranks_over(instances, m, lam,
                                   lambda disjuncts: _staged_table32(m, disjuncts, lam))
        assert float32_only != want


def test_wide_apertures_leave_most_pairs_open(every_structure_set):
    # the store the exact-rank test runs "wide" on: there the bracket
    # decides little and the staged float32 distances do the ranking
    kg, instances = every_structure_set
    report = evaluate_instances(_store_with(kg, "wide"), instances, lam=1.0)
    answers = sum(len(res.answers) for res in report.results)
    assert report.open_pairs > 0.5 * answers * kg.n_entities
    assert report.rescored_pairs < 0.01 * report.open_pairs  # float32 settles the rest


@pytest.mark.parametrize("tile_bytes", [1 << 18, 3 * 16 * 8 * 4])
def test_paired_rescore_equals_the_full_float64_table(monkeypatch, every_structure_set,
                                                      tile_bytes):
    # the full table's entries, in tiles of every entity row or of a few rows,
    # against one paired call over every (query, entity) pair in shuffled order
    monkeypatch.setattr(model, "_TILE_BYTES", tile_bytes)
    kg, instances = every_structure_set
    m = _store_with(kg, "random").tensors(None)
    points = entity_points(m, np.arange(kg.n_entities))
    rng = np.random.default_rng(9)
    for tag in ALL_STRUCTURES:
        group = [q for q in instances if q.structure == tag]
        disjuncts = embed_structure(m, tag, [q.anchors for q in group],
                                    [q.relations for q in group])
        table = dnf_entity_distance(_wide(disjuncts), points, 0.02)
        order = rng.permutation(table.size)
        rows, ids = np.unravel_index(order, table.shape)
        assert np.array_equal(_rescore(m, disjuncts, rows, ids, 0.02), table[rows, ids]), tag


def test_wide_band_rescore_memory_stays_bounded():
    # every entity sits at one angle, so each answer's rounding band holds
    # all 3000 entities: 96,000 (query, entity) pairs to rescore in float64.
    # Rescored in one paired call, they held about 86 MiB at once.
    n_entities, d = 3000, 8
    store = ParameterStore(n_entities, 1, d, seed=5)
    store.arrays["entity_axis"][:] = store.arrays["entity_axis"][0]
    instances = [QueryInstance("1p", (i,), (0,), easy=(), hard=(i + 1,)) for i in range(32)]
    tracemalloc.start()
    try:
        report = evaluate_instances(store, instances, lam=0.02)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    m = store.tensors(None)
    disjuncts = embed_structure(m, "1p", [q.anchors for q in instances],
                                [q.relations for q in instances])
    table = dnf_entity_distance(_wide(disjuncts), entity_points(m, np.arange(n_entities)), 0.02)
    assert [res.ranks for res in report.results] == [
        rank_instance(q, table[i]).ranks for i, q in enumerate(instances)]
    assert report.results[0].ranks == (n_entities,)  # every tie counts against the answer
    # one angle: the bracket settles no entity, and each is rescored in float64
    assert report.open_pairs == report.rescored_pairs == len(instances) * (n_entities - 1)


# ---------------------------------------------------------------------------
# analytic baseline
# ---------------------------------------------------------------------------

def test_expected_random_mrr_formula():
    assert expected_random_mrr(1) == 1.0
    assert math.isclose(expected_random_mrr(2), 0.75)
    assert math.isclose(expected_random_mrr(3), (1 + 0.5 + 1 / 3) / 3)
    with pytest.raises(ValueError):
        expected_random_mrr(0)


def test_expected_random_mrr_for_counts_filtering():
    inst = QueryInstance("1p", (0,), (0,), easy=(1, 2), hard=(3,))
    # 10 entities, 3 known answers -> 8 candidates including the answer
    assert math.isclose(expected_random_mrr_for([inst], 10), expected_random_mrr(8))


def test_random_rank_simulation_matches_formula():
    rng = np.random.default_rng(0)
    m = 17
    sim = np.mean([1.0 / (rng.integers(m) + 1) for _ in range(200_000)])
    assert abs(sim - expected_random_mrr(m)) < 0.002


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

def _result(tag, relations, rank):
    inst = QueryInstance(tag, (0,) * 3, tuple(relations), easy=(), hard=(1,))
    d = np.ones(10)
    d[1] = 0.0 if rank == 1 else 2.0  # rank 1 or worst
    return rank_instance(inst, d)


def test_subgroup_multilabel_and_others():
    results = [
        _result("1p", (0,), 1),       # symmetric group
        _result("2p", (0, 1), 1),     # symmetric AND inverse
        _result("1p", (5,), 1),       # others
    ]
    groups = subgroup_report(results, {"symmetry": {0}, "inversion": {1}})
    assert groups["symmetry"][1] == 2
    assert groups["inversion"][1] == 1
    assert groups["Others"][1] == 1


def test_subgroup_averages_match_direct_count():
    results = [_result("1p", (0,), 1), _result("1p", (0,), 10)]
    groups = subgroup_report(results, {"symmetry": {0}})
    ranks = [res.ranks[0] for res in results]
    assert math.isclose(groups["symmetry"][0], mrr(ranks))
    assert "Others" not in groups


def test_subgroup_all_others():
    results = [_result("1p", (3,), 1)]
    groups = subgroup_report(results, {"symmetry": {0}})
    assert set(groups) == {"Others"}


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

def test_report_writers(toy_eval_set, tmp_path):
    kg, bundle = toy_eval_set
    store = ParameterStore(kg.n_entities, kg.n_relations, 16, seed=0)
    report = evaluate_instances(store, bundle.test, lam=0.02)

    tsv = tmp_path / "report.tsv"
    write_report_tsv(str(tsv), report)
    lines = tsv.read_text().strip().split("\n")
    header = lines[0].split("\t")
    assert header[0] == "structure" and "mrr" in header
    body = [line.split("\t") for line in lines[1:]]
    tags = [row[0] for row in body]
    assert "AVG" in tags
    avg_row = body[tags.index("AVG")]
    assert math.isclose(float(avg_row[header.index("mrr")]), report.average_mrr,
                        abs_tol=1e-6)

    js = tmp_path / "report.json"
    write_report_json(str(js), report)
    payload = json.loads(js.read_text())
    assert math.isclose(payload["average_mrr"], report.average_mrr)
    assert payload["per_structure"] == {
        tag: {"queries": m.n_queries, "answers": m.n_answers, "mrr": m.mrr,
              "hits1": m.hits1, "hits3": m.hits3, "hits10": m.hits10}
        for tag, m in report.per_structure.items()}
    assert (payload["open_pairs"], payload["rescored_pairs"]) == (report.open_pairs,
                                                                  report.rescored_pairs)
    answers = sum(len(res.answers) for res in report.results)
    assert payload["open_pairs_per_answer"] == report.open_pairs / answers
    assert payload["rescored_pairs_per_answer"] == report.rescored_pairs / answers
    assert "seconds" not in payload
    write_report_json(str(js), report, seconds=0.5)
    payload = json.loads(js.read_text())
    assert payload["seconds"] == 0.5
    assert payload["queries_per_s"] == len(report.results) / 0.5

    table = format_eval_table(report)
    assert "structure" in table and "AVG" in table
