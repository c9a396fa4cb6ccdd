"""Spans around calls into the library, and the traced decompositions.

The traced training loop and eval loop replay ``training.train`` (threads=1)
and ``evaluation.evaluate_instances`` (threads=1) call for call, through the
same public functions, with a span around each call.  The pipeline checks
that the replay reaches bit-identical parameters and ranks, so the per-layer
numbers describe the program that the untraced run measures.

A span's layer is the part of its name before the first dot (``model``,
``training``, ...).  Names outside the package's modules (``setup``,
``train.step``, ``eval.chunk``) are the benchmark's own roots; a root's time
not covered by child spans is the replayed glue code (batch assembly, id
arrays).  Cyclic garbage collections become ``autodiff.gc`` spans under
whatever span was open, because freeing step tapes is almost all of what the
collector does here.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

from conequery import autodiff as ad
from conequery.evaluation import rank_instance
from conequery.model import (
    ConeBatch,
    dnf_entity_distance,
    embed_structure,
    entity_points,
    margin_loss,
)
from conequery.queries import ALL_STRUCTURES
from conequery.training import adam_step, init_state, sample_negatives

_clock = time.perf_counter


class NullTracer:
    """Calls straight through; lets set-up code run traced or untraced."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def open(self, name: str) -> int:
        return -1

    def close(self, idx: int) -> None:
        pass


class Tracer:
    """In-memory span store.  Spans live in parallel lists of floats and ints
    so recording allocates no GC-tracked objects inside traced steps."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.group: list[int] = []
        self.group_id = -1
        self.gen2_collections = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.start.append(_clock())
        self.end.append(math.nan)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.group.append(self.group_id)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.name[idx]!r} closed out of order")

    def call(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.open("autodiff.gc")
        else:
            self.close(self._stack[-1])
            if info.get("generation") == 2:
                self.gen2_collections += 1

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    # -- aggregation --------------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.asarray(self.end) - np.asarray(self.start)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover."""
        dur = self.durations()
        own = dur.copy()
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= dur[idx]
        return own

    def by_name(self) -> dict[str, list[float]]:
        """name -> [span count, summed self seconds, summed wall seconds]."""
        out: dict[str, list[float]] = {}
        for name, own, dur in zip(self.name, self.self_times(), self.durations()):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += float(own)
            row[2] += float(dur)
        return out

    def coverage(self, root: str) -> tuple[float, float]:
        """Share of the ``root`` spans' wall time that their child spans
        cover: over all of them, and for the least-covered one."""
        dur = self.durations()
        covered = {i: 0.0 for i, n in enumerate(self.name) if n == root}
        for i, p in enumerate(self.parent):
            if p in covered:
                covered[p] += dur[i]
        overall = sum(covered.values()) / sum(dur[i] for i in covered)
        return float(overall), float(min(c / dur[i] for i, c in covered.items()))

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "group": g}
                for n, s, e, p, g in zip(self.name, self.start, self.end,
                                         self.parent, self.group)]


# ---------------------------------------------------------------------------
# training step: batch_loss_and_grads (one shard) and the train() loop
# ---------------------------------------------------------------------------


def loss_and_grads(t, store, tag, anchors, relations, positives, negatives, lam):
    """The single-shard body of ``training.batch_loss_and_grads``; returns the
    tape too, so the caller can measure what it retains."""
    size = positives.shape[0]
    tape = ad.Tape()
    m = t.call("model.tensors", store.tensors, tape)
    disjuncts = t.call("model.embed_structure", embed_structure, m, tag, anchors, relations)
    span = t.open("model.distance")
    pos_dist = dnf_entity_distance(disjuncts, entity_points(m, positives), lam)
    t.close(span)
    span = t.open("model.distance")
    wide = [ConeBatch(ad.reshape(c.axis, (size, 1, store.d)),
                      ad.reshape(c.aperture, (size, 1, store.d)))
            for c in disjuncts]
    neg_dist = dnf_entity_distance(wide, entity_points(m, negatives), lam)
    t.close(span)
    loss = t.call("model.margin_loss", margin_loss, pos_dist, neg_dist, store.margin)
    t.call("autodiff.backward", tape.backward, loss)
    grads = {}
    for name in store.trainable_names():
        g = getattr(m, name).grad
        grads[name] = g if g is not None else np.zeros_like(store.arrays[name])
    return float(ad.values_of(loss)), grads, tape


def assemble_batch(t, groups, tags, rng, cfg, n_entities):
    """``train()``'s batch draw, in its rng order."""
    tag = tags[int(rng.integers(len(tags)))]
    pool = groups[tag]
    batch = [pool[int(i)] for i in rng.integers(len(pool), size=cfg.b)]
    anchors = np.array([q.anchors for q in batch], dtype=np.int64)
    rels = np.array([q.relations for q in batch], dtype=np.int64)
    positives = np.empty(len(batch), dtype=np.int64)
    negatives = np.empty((len(batch), cfg.n), dtype=np.int64)
    for i, q in enumerate(batch):
        answers = q.easy if q.easy else q.hard
        positives[i] = answers[int(rng.integers(len(answers)))]
        negatives[i] = t.call("training.sample_negatives", sample_negatives,
                              q, cfg.n, rng, n_entities)
    return tag, anchors, rels, positives, negatives


def group_by_structure(instances) -> tuple[dict, list[str]]:
    """Answerable instances by structure, and the sorted structure tags."""
    groups: dict = {}
    for q in instances:
        if q.easy or q.hard:
            groups.setdefault(q.structure, []).append(q)
    return groups, sorted(groups)


def traced_train(t: Tracer, instances, n_entities, n_relations, cfg):
    """Replay ``train(instances, ..., cfg)`` step by step under spans.

    Returns the final state, per-step structure tags, per-step losses, and
    per-step tape node counts and bytes (values plus gradients)."""
    groups, tags = group_by_structure(instances)
    state = init_state(cfg, n_entities, n_relations)
    step_tags, losses, nodes, nbytes = [], [], [], []
    while state.step < cfg.steps:
        t.group_id = state.step
        root = t.open("train.step")
        tag, anchors, rels, positives, negatives = assemble_batch(
            t, groups, tags, state.rng, cfg, n_entities)
        loss, grads, tape = loss_and_grads(t, state.store, tag, anchors, rels,
                                           positives, negatives, cfg.lam)
        state.step += 1
        t.call("training.adam_step", adam_step, state.store, grads, state.adam_m,
               state.adam_v, state.step, cfg.lr)
        t.close(root)
        # Measured outside the step span: the benchmark's own bookkeeping.
        step_tags.append(tag)
        losses.append(loss)
        nodes.append(len(tape._nodes))
        nbytes.append(sum(n.values.nbytes + (n.grad.nbytes if n.grad is not None else 0)
                          for n in tape._nodes))
        # train() drops its tape when the step returns; holding it into the
        # next step would let it survive a young-generation collection.
        del tape
    t.group_id = -1
    return state, step_tags, losses, nodes, nbytes


# ---------------------------------------------------------------------------
# evaluation: evaluate_instances' chunk loop
# ---------------------------------------------------------------------------


def eval_chunks(instances, chunk_size: int = 128):
    """``evaluate_instances``' job list: per structure, in ALL_STRUCTURES
    order, consecutive chunks of at most ``chunk_size`` queries."""
    by_tag, _ = group_by_structure(instances)
    return [(tag, by_tag[tag][lo:lo + chunk_size])
            for tag in ALL_STRUCTURES if tag in by_tag
            for lo in range(0, len(by_tag[tag]), chunk_size)]


def chunk_table(t, store, m, entity_angles, tag, chunk, lam):
    """One chunk's (len(chunk), n_entities) distance table."""
    anchors = np.array([q.anchors for q in chunk], dtype=np.int64)
    relations = np.array([q.relations for q in chunk], dtype=np.int64)
    disjuncts = t.call("evaluation.embed", embed_structure, m, tag, anchors, relations)
    span = t.open("evaluation.distance_table")
    wide = [ConeBatch(c.axis.reshape(len(chunk), 1, store.d),
                      c.aperture.reshape(len(chunk), 1, store.d))
            for c in disjuncts]
    table = dnf_entity_distance(wide, entity_angles, lam)
    t.close(span)
    return table


def traced_eval(t: Tracer, store, instances, lam):
    """Replay ``evaluate_instances``' scoring; returns every RankedResult in
    report order."""
    m = store.tensors(None)
    entity_angles = ad.wrap(store.arrays["entity_axis"])
    results = []
    for gid, (tag, chunk) in enumerate(eval_chunks(instances)):
        t.group_id = gid
        root = t.open("eval.chunk")
        table = chunk_table(t, store, m, entity_angles, tag, chunk, lam)
        span = t.open("evaluation.rank")
        results.extend(rank_instance(q, table[i]) for i, q in enumerate(chunk))
        t.close(span)
        t.close(root)
    t.group_id = -1
    return results
