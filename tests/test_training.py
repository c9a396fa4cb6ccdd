"""Tests for the training loop: config, negatives, Adam, checkpoints,
determinism, descent, and the full-loss gradient audit."""

import dataclasses
import gc
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conequery import model, training
from conequery.model import ParameterStore
from conequery.planted import build_planted_kg
from conequery.queries import (
    TRAIN_STRUCTURES,
    KnowledgeGraph,
    QueryInstance,
    generate_dataset,
    one_hop_instances,
)
from conequery.training import (
    PROFILES,
    TrainState,
    TrainingConfig,
    TrainingDiverged,
    adam_step,
    batch_loss_and_grads,
    gradient_check_model,
    init_state,
    load_checkpoint,
    multi_seed,
    parse_config_file,
    resolve_config,
    sample_negatives,
    save_checkpoint,
    seed_spread,
    train,
)

from _helpers import (
    reference_adam_step,
    reference_assemble_batch,
    reference_negatives,
    rewrite_checkpoint,
)

TOY = dict(d=8, b=8, n=4, gamma=6.0, lr=5e-3, lam=0.02)


@pytest.fixture(scope="module")
def tiny_dataset():
    kg = build_planted_kg(seed=3)
    graph = KnowledgeGraph(kg.train, kg.n_entities, kg.n_relations)
    return one_hop_instances(graph), kg


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_defaults_match_reference_hyperparameters():
    cfg = TrainingConfig()
    assert (cfg.d, cfg.b, cfg.n) == (800, 512, 128)
    assert cfg.gamma == 20.0 and cfg.lr == 1e-4 and cfg.lam == 0.02


def test_toy_profile():
    cfg = resolve_config(profile="toy")
    assert (cfg.d, cfg.b, cfg.n) == (32, 64, 16)
    assert cfg.lr == 1e-4  # untouched by the profile


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.toml"
    path.write_text(
        "# toy run\nd = 16\nb=4\nn = 2   # inline comment\n"
        "gamma = 3.5\nlr = 1e-2\nlambda = 0.1\nseed = 9\nsteps = 77\n"
    )
    overrides = parse_config_file(str(path))
    assert overrides == {"d": 16, "b": 4, "n": 2, "gamma": 3.5, "lr": 0.01,
                         "lam": 0.1, "seed": 9, "steps": 77}


@pytest.mark.parametrize("line", ["mystery = 3", "d 16", "d = sixteen"])
def test_config_file_rejects_bad_lines(tmp_path, line):
    path = tmp_path / "bad.toml"
    path.write_text(line + "\n")
    with pytest.raises(ValueError):
        parse_config_file(str(path))


def test_precedence_cli_over_file_over_profile(tmp_path):
    path = tmp_path / "c.toml"
    path.write_text("d = 100\nlr = 1e-3\n")
    cfg = resolve_config(profile="toy",
                         file_overrides=parse_config_file(str(path)),
                         cli_overrides={"d": 12, "steps": None})
    assert cfg.d == 12          # CLI wins
    assert cfg.lr == 1e-3       # file beats profile/default
    assert cfg.b == 64          # profile fills the rest
    assert cfg.steps == 2000    # None means "flag not given"


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        resolve_config(profile="huge")


@pytest.mark.parametrize("field,value", [
    ("d", 0), ("b", -1), ("n", 0), ("steps", 0), ("gamma", 0.0),
    ("lr", -1e-4), ("lam", -0.1), ("seed", -1), ("rotation_mode", "affine"),
])
def test_config_validation(field, value):
    with pytest.raises(ValueError):
        TrainingConfig(**{field: value})


# ---------------------------------------------------------------------------
# negative sampling
# ---------------------------------------------------------------------------

def _instance(easy=(1, 2, 3), hard=()):
    return QueryInstance("1p", (0,), (0,), tuple(easy), tuple(hard))


def test_negatives_avoid_answers():
    rng = np.random.default_rng(0)
    for _ in range(50):
        negs = sample_negatives(_instance(), 4, rng, 10)
        assert negs.shape == (4,)
        assert not set(negs.tolist()) & {1, 2, 3}
        assert len(set(negs.tolist())) == 4  # without replacement here


def test_negatives_with_replacement_when_short():
    rng = np.random.default_rng(1)
    negs = sample_negatives(_instance(easy=(0, 1, 2, 3, 4, 5, 6, 7)), 5, rng, 10)
    assert set(negs.tolist()) <= {8, 9}
    assert negs.shape == (5,)


def test_negatives_deterministic():
    a = sample_negatives(_instance(), 6, np.random.default_rng(7), 30)
    b = sample_negatives(_instance(), 6, np.random.default_rng(7), 30)
    assert np.array_equal(a, b)


def test_negatives_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_negatives(_instance(), 0, rng, 10)
    with pytest.raises(ValueError):
        sample_negatives(_instance(easy=(0, 1, 2)), 2, rng, 3)
    for bad in ((-1,), (10,)):
        with pytest.raises(ValueError, match="out of range"):
            sample_negatives(_instance(easy=bad), 2, rng, 10)


def test_negatives_match_setdiff1d_reference_draw_for_draw():
    picker = np.random.default_rng(5)
    cases = [(_instance(easy=(1, 1, 2), hard=(2, 3, 3)), 4, 10),  # duplicate ids
             (_instance(easy=(0, 1, 2, 3, 4, 5, 6), hard=(7, 7)), 5, 10),  # replace=True
             (_instance(easy=(), hard=(4,)), 3, 5)]
    for _ in range(40):
        n = int(picker.integers(2, 60))
        ids = picker.integers(0, n, size=int(picker.integers(1, n)))
        cut = int(picker.integers(len(ids) + 1))
        cases.append((_instance(easy=ids[:cut].tolist(), hard=ids[cut:].tolist()),
                      int(picker.integers(1, 2 * n)), n))
    for seed, (q, k, n) in enumerate(cases):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_negatives(q, k, rng, n)
        want = reference_negatives(q, k, ref_rng, n)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    everyone = _instance(easy=(0, 1), hard=(2, 1))
    for sampler in (sample_negatives, reference_negatives):
        with pytest.raises(ValueError, match="every entity"):
            sampler(everyone, 1, np.random.default_rng(0), 3)


@st.composite
def _draw_cases(draw):
    """A pool of instances over a small or a wide entity set, and n: the
    choice runs with replacement, Floyd's algorithm or the tail shuffle."""
    wide = draw(st.booleans())
    n_entities = draw(st.integers(10_001, 10_300) if wide else st.integers(2, 40))
    n = draw(st.integers(1, 260) if wide else st.integers(1, 50))
    instances = []
    for i in range(draw(st.integers(1, 5))):
        ids = draw(st.lists(st.integers(0, n_entities - 1), min_size=1,
                            max_size=min(n_entities - 1, 12)))
        cut = draw(st.sampled_from([0, 1, len(ids)]))  # one easy answer, or none
        instances.append(QueryInstance("1p", (i,), (0,), tuple(ids[:cut]), tuple(ids[cut:])))
    return instances, n_entities, n, draw(st.integers(1, 8))


@settings(max_examples=300, deadline=None)
@given(case=_draw_cases(), seed=st.integers(0, 2**32 - 1), cached_half=st.booleans())
def test_batched_draw_replays_the_per_row_calls(case, seed, cached_half):
    instances, n_entities, n, b = case
    pool = training._StructurePool(instances, n_entities)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    if cached_half:  # PCG64 then holds the unused 32-bit half of a 64-bit draw
        rng.integers(7, dtype=np.uint32)
        ref.integers(7, dtype=np.uint32)
    rows, ranks, picks = pool._draw_ranks(rng, b, n)

    want_rows = ref.integers(len(instances), size=b)
    assert np.array_equal(rows, want_rows)
    for i, j in enumerate(want_rows.tolist()):
        q = instances[j]
        size = n_entities - len(set(q.easy + q.hard))
        assert ranks[i] == ref.integers(len(q.easy or q.hard))
        assert np.array_equal(picks[i], ref.choice(size, size=n, replace=size < n))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_choice_switch_constants_match_numpy():
    # Floyd's algorithm and the tail shuffle draw different bounds, so a
    # choice taken in the wrong regime leaves another generator state
    cases = [(training._TAIL_SIZE, training._TAIL_SIZE // training._TAIL_RATIO + 1),
             (training._TAIL_SIZE + 1, (training._TAIL_SIZE + 1) // training._TAIL_RATIO),
             (training._TAIL_SIZE + 1, (training._TAIL_SIZE + 1) // training._TAIL_RATIO + 1)]
    for n_entities, n in cases:
        pool = training._StructurePool([QueryInstance("1p", (0,), (0,), (0,), ())],
                                       n_entities + 1)
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        _, _, picks = pool._draw_ranks(rng, 1, n)  # its row and positive draw nothing
        assert np.array_equal(picks[0], ref.choice(n_entities, size=n, replace=False))
        assert rng.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adam_first_step_moves_by_lr():
    store = ParameterStore(3, 2, 4, seed=0)
    before = {n: a.copy() for n, a in store.arrays.items()}
    grads = {n: np.ones_like(store.arrays[n]) for n in store.trainable_names()}
    m = {n: np.zeros_like(g) for n, g in grads.items()}
    v = {n: np.zeros_like(g) for n, g in grads.items()}
    adam_step(store, grads, m, v, 1, lr=0.1)
    for name in store.trainable_names():
        step = before[name] - store.arrays[name]
        # bias-corrected first step is lr * g/(|g| + eps') to high accuracy
        assert np.allclose(step, 0.1, atol=1e-6)
    assert np.array_equal(store.arrays["margin"], before["margin"])


def test_adam_requires_positive_step_count():
    store = ParameterStore(2, 1, 2, seed=0)
    zeros = {n: np.zeros_like(store.arrays[n]) for n in store.trainable_names()}
    with pytest.raises(ValueError):
        adam_step(store, zeros, dict(zeros), dict(zeros), 0, lr=0.1)


def test_adam_step_in_place_matches_reference(tmp_path):
    cfg = TrainingConfig(**dict(TOY, seed=0))
    state, ref = init_state(cfg, 30, 4), init_state(cfg, 30, 4)
    moments = {n: (state.adam_m[n], state.adam_v[n]) for n in state.adam_m}
    rng = np.random.default_rng(9)
    for t in range(1, 6):
        grads = {n: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=a.shape)
                 for n, a in state.adam_m.items()}
        grads["entity_axis"][:5] = 0.0
        kept = {n: g.copy() for n, g in grads.items()}
        adam_step(state.store, grads, state.adam_m, state.adam_v, t, lr=0.05)
        reference_adam_step(ref.store, grads, ref.adam_m, ref.adam_v, t, lr=0.05)
        for name in state.store.arrays:
            assert np.array_equal(state.store.arrays[name], ref.store.arrays[name]), name
        for name, (m, v) in moments.items():
            assert state.adam_m[name] is m and state.adam_v[name] is v
            assert np.array_equal(m, ref.adam_m[name]) and np.array_equal(v, ref.adam_v[name])
            assert np.array_equal(grads[name], kept[name])
    state.step = 5
    path = str(tmp_path / "adam.ckpt")
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    for name in state.adam_m:
        assert np.array_equal(loaded.adam_m[name], ref.adam_m[name])
        assert np.array_equal(loaded.adam_v[name], ref.adam_v[name])


# ---------------------------------------------------------------------------
# loss/grads and sharding
# ---------------------------------------------------------------------------

def _tiny_batch(store, rng, instances, b=6, n_neg=3):
    pool = [q for q in instances if q.structure == "1p"]
    batch = [pool[int(i)] for i in rng.integers(len(pool), size=b)]
    anchors = np.array([q.anchors for q in batch])
    rels = np.array([q.relations for q in batch])
    pos = np.array([q.easy[0] for q in batch])
    neg = np.stack([sample_negatives(q, n_neg, rng, store.n_entities) for q in batch])
    return anchors, rels, pos, neg


def test_sharded_grads_match_single_shard(tiny_dataset):
    instances, kg = tiny_dataset
    store = ParameterStore(kg.n_entities, kg.n_relations, 8, seed=0, margin=6.0)
    rng = np.random.default_rng(0)
    args = _tiny_batch(store, rng, instances)
    loss1, grads1 = batch_loss_and_grads(store, "1p", *args, lam=0.02, threads=1)
    loss2, grads2 = batch_loss_and_grads(store, "1p", *args, lam=0.02, threads=3)
    loss3, grads3 = batch_loss_and_grads(store, "1p", *args, lam=0.02, threads=3)
    assert math.isclose(loss1, loss2, rel_tol=1e-12)
    for name in grads1:
        assert np.allclose(grads1[name], grads2[name], atol=1e-12)
        # identical shard plan joined in index order => bitwise-stable
        assert np.array_equal(grads2[name], grads3[name])


def test_single_step_descends(tiny_dataset):
    instances, kg = tiny_dataset
    store = ParameterStore(kg.n_entities, kg.n_relations, 8, seed=1, margin=6.0)
    rng = np.random.default_rng(3)
    args = _tiny_batch(store, rng, instances, b=1, n_neg=4)
    before, grads = batch_loss_and_grads(store, "1p", *args, lam=0.02)
    for name in store.trainable_names():  # plain small gradient step
        store.arrays[name] -= 1e-3 * grads[name]
    after, _ = batch_loss_and_grads(store, "1p", *args, lam=0.02)
    assert after < before


def test_gradient_reaches_every_parameter_group(tiny_dataset):
    _, kg = tiny_dataset
    graph = KnowledgeGraph(kg.train, kg.n_entities, kg.n_relations)
    bundle = generate_dataset(kg.train, kg.valid, kg.test, kg.n_entities,
                              kg.n_relations,
                              counts={tag: 6 for tag in TRAIN_STRUCTURES}, seed=0)
    store = ParameterStore(kg.n_entities, kg.n_relations, 8, seed=0, margin=6.0)
    rng = np.random.default_rng(0)
    touched = {name: False for name in store.trainable_names()}
    by_tag = {}
    for q in bundle.train:
        by_tag.setdefault(q.structure, []).append(q)
    for tag, pool in sorted(by_tag.items()):
        batch = pool[:4]
        anchors = np.array([q.anchors for q in batch])
        rels = np.array([q.relations for q in batch])
        pos = np.array([q.easy[0] for q in batch])
        neg = np.stack([sample_negatives(q, 3, rng, kg.n_entities) for q in batch])
        _, grads = batch_loss_and_grads(store, tag, anchors, rels, pos, neg, lam=0.02)
        for name, g in grads.items():
            if np.any(g != 0.0):
                touched[name] = True
    assert all(touched.values()), [n for n, ok in touched.items() if not ok]


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def _loop_cfg(**overrides):
    base = dict(TOY, steps=40, seed=0, checkpoint_every=20, eval_every=1000)
    base.update(overrides)
    return TrainingConfig(**base)


def test_train_runs_and_logs(tiny_dataset, tmp_path, monkeypatch):
    instances, kg = tiny_dataset
    cfg = _loop_cfg()
    monkeypatch.setattr(training, "_LOG_EVERY", 10)
    state, log = train(instances, kg.n_entities, kg.n_relations, cfg, out_dir=str(tmp_path))
    assert state.step == 40
    assert os.path.exists(tmp_path / "last.ckpt")
    steps = [rec["step"] for rec in log if rec["event"] == "train"]
    assert steps[0] == 1 and steps[-1] == 40
    assert all(math.isfinite(rec["loss"]) for rec in log if rec["event"] == "train")


def test_train_holds_one_step_of_memory(tiny_dataset):
    # With the cyclic collector off, a run keeps only what reference counting
    # cannot free: each step's graph must go when the step returns.
    instances, kg = tiny_dataset

    def peak(steps):
        cfg = _loop_cfg(d=32, b=64, n=16, steps=steps)
        state = init_state(cfg, kg.n_entities, kg.n_relations)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            train(instances, kg.n_entities, kg.n_relations, cfg, state=state)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()

    assert peak(20) < 3 * peak(1)


def test_train_loss_decreases(tiny_dataset, monkeypatch):
    instances, kg = tiny_dataset
    cfg = TrainingConfig(**dict(TOY, b=32, lr=2e-2, steps=150, seed=0))
    monkeypatch.setattr(training, "_LOG_EVERY", 1)
    state, log = train(instances, kg.n_entities, kg.n_relations, cfg)
    losses = [rec["loss"] for rec in log if rec["event"] == "train"]
    head = float(np.mean(losses[:10]))
    tail = float(np.mean(losses[-10:]))
    assert tail < 0.7 * head, (head, tail)


def test_same_seed_same_curve(tiny_dataset, monkeypatch):
    instances, kg = tiny_dataset
    cfg = _loop_cfg(steps=25)
    monkeypatch.setattr(training, "_LOG_EVERY", 1)
    _, log_a = train(instances, kg.n_entities, kg.n_relations, cfg)
    _, log_b = train(instances, kg.n_entities, kg.n_relations, cfg)
    assert [r["loss"] for r in log_a] == [r["loss"] for r in log_b]
    cfg2 = dataclasses.replace(cfg, seed=1)
    _, log_c = train(instances, kg.n_entities, kg.n_relations, cfg2)
    assert [r["loss"] for r in log_a] != [r["loss"] for r in log_c]


def test_nan_loss_aborts_with_diagnostic(tiny_dataset):
    instances, kg = tiny_dataset
    cfg = _loop_cfg(steps=1)
    state = init_state(cfg, kg.n_entities, kg.n_relations)
    state.store.arrays["entity_axis"][:] = np.nan
    with pytest.raises(TrainingDiverged, match="step 1"):
        train(instances, kg.n_entities, kg.n_relations, cfg, state=state)


def test_train_drops_its_workspace(tiny_dataset):
    instances, kg = tiny_dataset
    cfg = _loop_cfg(steps=3)
    model._workspace("left over", (4,))
    train(instances, kg.n_entities, kg.n_relations, cfg)
    assert not vars(model._workspace_cache).get("pool")
    state = init_state(cfg, kg.n_entities, kg.n_relations)
    state.store.arrays["entity_axis"][:] = np.nan
    model._workspace("left over", (4,))
    with pytest.raises(TrainingDiverged):
        train(instances, kg.n_entities, kg.n_relations, cfg, state=state)
    assert not vars(model._workspace_cache).get("pool")


def test_train_events_report_memory(tiny_dataset, monkeypatch):
    pytest.importorskip("resource")
    instances, kg = tiny_dataset
    monkeypatch.setattr(training, "_LOG_EVERY", 2)
    _, log = train(instances, kg.n_entities, kg.n_relations, _loop_cfg(steps=4))
    events = [e for e in log if e["event"] == "train"]
    assert [e["step"] for e in events] == [1, 2, 4]
    assert all(e["peak_rss_mb"] > 0 and e["minor_faults"] >= 0 for e in events)
    assert events[0]["minor_faults"] <= events[-1]["minor_faults"]


def _batch(tiny_dataset, seed):
    instances, kg = tiny_dataset
    pool = training._StructurePool(instances, kg.n_entities)
    return pool.draw(np.random.default_rng(seed), 16, 8)


def test_batch_gradients_survive_the_next_step(tiny_dataset):
    _, kg = tiny_dataset
    store = ParameterStore(kg.n_entities, kg.n_relations, 8, seed=2)
    model._drop_workspace()
    _, first = batch_loss_and_grads(store, "1p", *_batch(tiny_dataset, 0), lam=0.5)
    kept = {name: g.copy() for name, g in first.items()}
    before = dict(model._workspace_cache.pool)
    _, second = batch_loss_and_grads(store, "1p", *_batch(tiny_dataset, 1), lam=0.5)
    pool = model._workspace_cache.pool
    # the second step ran in the first one's buffers ...
    assert {"cos1", "sin1", "ent_grad", "vjp0"} <= before.keys() == pool.keys()
    assert all(pool[key] is buf for key, buf in before.items())
    # ... and left its gradients alone
    assert not np.array_equal(first["entity_axis"], second["entity_axis"])
    for name, g in first.items():
        assert np.array_equal(g, kept[name]), name


def test_train_rejects_empty():
    cfg = _loop_cfg()
    with pytest.raises(ValueError):
        train([], 10, 2, cfg)
    no_answers = [QueryInstance("1p", (0,), (0,), (), ())]
    with pytest.raises(ValueError):
        train(no_answers, 10, 2, cfg)


_BAD_ANSWER_SETS = [
    pytest.param(QueryInstance("1p", (0,), (1,), (3, 40), ()), "answer id 40 out of range",
                 id="above_range"),
    pytest.param(QueryInstance("1p", (0,), (1,), (), (-1,)), "answer id -1 out of range",
                 id="negative"),
    pytest.param(QueryInstance("1p", (0,), (1,), tuple(range(30)), tuple(range(20, 40))),
                 "every entity answers", id="every_entity"),
]


@pytest.mark.parametrize("bad, message", _BAD_ANSWER_SETS)
def test_train_rejects_bad_answer_sets_before_any_step(monkeypatch, bad, message):
    # The bad instance is one of 401, so the single step would most likely
    # not draw it: only a check made up front can raise.
    good = [QueryInstance("1p", (i % 40,), (i % 3,), (i % 37 + 1,), ()) for i in range(400)]
    calls = []
    monkeypatch.setattr(training, "batch_loss_and_grads",
                        lambda *args, **kwargs: calls.append(args))
    cfg = _loop_cfg(steps=1)
    state = init_state(cfg, 40, 3)
    with pytest.raises(ValueError, match=message):
        train(good + [bad], 40, 3, cfg, state=state)
    assert not calls and state.step == 0


def _short_complement_instances():
    # 12 entities and n = 4: complements of 1 to 3 entities draw with
    # replacement, the rest without.
    rng = np.random.default_rng(2)
    out = []
    for i in range(30):
        known = rng.permutation(12)[:int(rng.integers(1, 12))]
        cut = int(rng.integers(len(known) + 1))
        out.append(QueryInstance("1p", (i % 12,), (i % 2,), tuple(known[:cut].tolist()),
                                 tuple(known[cut:].tolist())))
    return out, 12, 2


def _repeated_id_instances():
    # ids repeat inside easy, inside hard and across the two; some
    # instances have only hard answers.
    rng = np.random.default_rng(3)
    out = []
    for i in range(40):
        ids = rng.integers(0, 25, size=int(rng.integers(2, 12))).tolist()
        easy = ids[:len(ids) // 2] if i % 3 else []
        out.append(QueryInstance("1p", (i % 25,), (i % 3,), tuple(easy), tuple(ids)))
    return out, 25, 3


def _wide_instances():
    # More than 10000 entities: numpy's choice takes Floyd's algorithm for
    # n <= |E| / 50 and a tail shuffle above that.
    rng = np.random.default_rng(4)
    n_entities = 12_000
    out = [QueryInstance("1p", (i,), (i % 2,),
                         tuple(rng.integers(0, n_entities, size=int(rng.integers(1, 40))).tolist()),
                         ()) for i in range(50)]
    return out, n_entities, 2


def _mixed_instances():
    kg = build_planted_kg(seed=3)
    bundle = generate_dataset(kg.train, kg.valid, kg.test, kg.n_entities, kg.n_relations,
                              counts={"1p": 20, "2p": 10, "2i": 10, "2in": 10, "pin": 10},
                              seed=0)
    return bundle.train, kg.n_entities, kg.n_relations


@pytest.mark.parametrize("case, n", [("one_hop", 4), ("mixed", 6), ("short_complement", 4),
                                     ("repeated_ids", 5), ("wide", 16), ("wide", 300)])
def test_train_draws_match_instance_by_instance_assembly(tiny_dataset, monkeypatch, case, n):
    if case == "one_hop":
        instances, kg = tiny_dataset
        n_entities, n_relations = kg.n_entities, kg.n_relations
    else:
        instances, n_entities, n_relations = {
            "mixed": _mixed_instances, "short_complement": _short_complement_instances,
            "repeated_ids": _repeated_id_instances, "wide": _wide_instances}[case]()
    cfg = _loop_cfg(d=4, b=8, n=n, steps=6)
    seen = []
    real = training.batch_loss_and_grads

    def record(store, tag, *arrays, **kwargs):
        seen.append((tag, *(np.array(a) for a in arrays)))
        return real(store, tag, *arrays, **kwargs)

    monkeypatch.setattr(training, "batch_loss_and_grads", record)
    state, _ = train(instances, n_entities, n_relations, cfg)

    groups = {}
    for q in instances:
        if q.easy or q.hard:
            groups.setdefault(q.structure, []).append(q)
    tags = sorted(groups)
    ref = init_state(cfg, n_entities, n_relations)
    while ref.step < cfg.steps:
        tag, *arrays = reference_assemble_batch(groups, tags, ref.rng, cfg, n_entities)
        assert seen[ref.step][0] == tag
        for got, want in zip(seen[ref.step][1:], arrays):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        _, grads = real(ref.store, tag, *arrays, lam=cfg.lam)
        ref.step += 1
        reference_adam_step(ref.store, grads, ref.adam_m, ref.adam_v, ref.step, cfg.lr)
    assert len(seen) == cfg.steps
    assert state.rng.bit_generator.state == ref.rng.bit_generator.state
    for name in state.store.arrays:
        assert np.array_equal(state.store.arrays[name], ref.store.arrays[name]), name
    for name in state.adam_m:
        assert np.array_equal(state.adam_m[name], ref.adam_m[name]), name
        assert np.array_equal(state.adam_v[name], ref.adam_v[name]), name


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_identical(tiny_dataset, tmp_path):
    instances, kg = tiny_dataset
    cfg = _loop_cfg(steps=10)
    state, _ = train(instances, kg.n_entities, kg.n_relations, cfg,
                     entity_names=kg.entity_names, relation_names=kg.relation_names)
    path = str(tmp_path / "state.ckpt")
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert loaded.step == state.step
    assert loaded.config == state.config
    assert loaded.running_loss == state.running_loss
    assert loaded.per_structure == state.per_structure
    assert loaded.rng.bit_generator.state == state.rng.bit_generator.state
    assert loaded.entity_names == kg.entity_names
    assert loaded.relation_names == kg.relation_names
    for name, arr in state.store.arrays.items():
        assert np.array_equal(loaded.store.arrays[name], arr)
    for name in state.adam_m:
        assert np.array_equal(loaded.adam_m[name], state.adam_m[name])
        assert np.array_equal(loaded.adam_v[name], state.adam_v[name])


def test_resume_equals_uninterrupted(tiny_dataset, tmp_path):
    instances, kg = tiny_dataset
    full_cfg = _loop_cfg(steps=30)
    straight, _ = train(instances, kg.n_entities, kg.n_relations, full_cfg)

    half_cfg = _loop_cfg(steps=15)
    halfway, _ = train(instances, kg.n_entities, kg.n_relations, half_cfg)
    path = str(tmp_path / "half.ckpt")
    save_checkpoint(path, halfway)
    resumed_state = load_checkpoint(path)
    resumed_state.config = full_cfg
    resumed, _ = train(instances, kg.n_entities, kg.n_relations, full_cfg,
                       state=resumed_state)
    for name, arr in straight.store.arrays.items():
        assert np.array_equal(resumed.store.arrays[name], arr), name
    assert resumed.rng.bit_generator.state == straight.rng.bit_generator.state


def test_resume_from_checkpoint_with_deterministic_key(tiny_dataset, tmp_path):
    # Older checkpoints carry a "deterministic" config key, from when shards
    # could join in completion order; loading ignores it.
    instances, kg = tiny_dataset
    full_cfg = _loop_cfg(steps=30)
    straight, _ = train(instances, kg.n_entities, kg.n_relations, full_cfg)

    halfway, _ = train(instances, kg.n_entities, kg.n_relations, _loop_cfg(steps=15))
    path = str(tmp_path / "old.ckpt")
    save_checkpoint(path, halfway)
    rewrite_checkpoint(path, path,
                       lambda meta, arrays: meta["config"].update(deterministic=False))

    loaded = load_checkpoint(path)
    assert loaded.config == halfway.config
    assert loaded.rng.bit_generator.state == halfway.rng.bit_generator.state
    for name, arr in halfway.store.arrays.items():
        assert np.array_equal(loaded.store.arrays[name], arr), name
    loaded.config = full_cfg
    resumed, _ = train(instances, kg.n_entities, kg.n_relations, full_cfg, state=loaded)
    for name, arr in straight.store.arrays.items():
        assert np.array_equal(resumed.store.arrays[name], arr), name


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, a=np.zeros(3))
    with pytest.raises(ValueError, match="metadata"):
        load_checkpoint(str(path))


# ---------------------------------------------------------------------------
# multi-seed spread
# ---------------------------------------------------------------------------

def test_seed_spread_formula():
    mean, std = seed_spread([0.4, 0.6])
    assert math.isclose(mean, 0.5, abs_tol=1e-12)
    assert math.isclose(std, 0.14142135623730953, abs_tol=1e-12)
    assert seed_spread([0.3, 0.3, 0.3])[1] == 0.0


def test_multi_seed_reports_spread(tiny_dataset):
    instances, kg = tiny_dataset
    test_queries = [q for q in instances[:20]]
    cfg = TrainingConfig(**dict(TOY, steps=15, seed=0))
    report = multi_seed(instances, test_queries, kg.n_entities, kg.n_relations,
                        cfg, n_seeds=2)
    assert len(report.per_seed) == 2
    assert "AVG" in report.metrics and "1p" in report.metrics
    mean, std = report.metrics["1p"]
    assert 0.0 < mean <= 1.0 and std >= 0.0
    with pytest.raises(ValueError):
        multi_seed(instances, test_queries, kg.n_entities, kg.n_relations,
                   cfg, n_seeds=1)


# ---------------------------------------------------------------------------
# full-loss gradient audit
# ---------------------------------------------------------------------------

def test_gradient_check_small_sample(monkeypatch):
    monkeypatch.setattr(training, "_AUDIT_GRAPH", (12, 3, 60))
    err = gradient_check_model(n_instances=3, d=4, seed=0)
    assert err < 1e-4, err
