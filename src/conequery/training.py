"""Negative-sampling training: batching, Adam, checkpointing, seeding.

Each batch holds instances of a single query structure, so they share one
slot template and embed as a matrix batch; the structure itself is drawn
uniformly at random per step, which mixes structures across batches without
any per-structure schedule.  Training minimises the margin loss of the
answer cones against uniformly sampled negative entities.  ``train()`` turns
each structure's instances into arrays once, and draws a batch in two rng
calls that yield the same numbers, and leave the same generator state, as
drawing each instance's positive and sampling its negatives on its own.
"""

from __future__ import annotations

import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import chain

import numpy as np

from . import autodiff as ad
from .model import ROTATION_MODES, ModelParams, ParameterStore, _drop_workspace, batch_loss
from .queries import ALL_STRUCTURES, KnowledgeGraph, QueryInstance, sample_instance

try:
    import resource
except ImportError:  # not on every platform; train() then logs no memory fields
    resource = None

__all__ = [
    "PROFILES",
    "TrainingConfig",
    "TrainingDiverged",
    "TrainState",
    "MultiSeedReport",
    "parse_config_file",
    "resolve_config",
    "sample_negatives",
    "adam_step",
    "init_state",
    "batch_loss_and_grads",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "multi_seed",
    "gradient_check_model",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

#: Named bundles of config defaults; "toy" is the desk-scale profile.
PROFILES: dict[str, dict[str, object]] = {
    "toy": {"d": 32, "b": 64, "n": 16},
}

# config-file key -> (dataclass field, parser).  "lambda" maps to "lam"
# because of the Python keyword.
_CONFIG_FILE_KEYS: dict[str, tuple[str, type]] = {
    "d": ("d", int),
    "b": ("b", int),
    "n": ("n", int),
    "gamma": ("gamma", float),
    "lr": ("lr", float),
    "lambda": ("lam", float),
    "seed": ("seed", int),
    "steps": ("steps", int),
}


@dataclass(frozen=True)
class TrainingConfig:
    """The hyperparameter surface.

    ``d`` embedding dimensions, ``b`` batch size, ``n`` negatives per
    instance, ``gamma`` loss margin, ``lr`` Adam step size, ``lam`` weight of
    the inside-cone distance term.  The remaining knobs control the loop
    itself and are CLI-only.
    """

    d: int = 800
    b: int = 512
    n: int = 128
    gamma: float = 20.0
    lr: float = 1e-4
    lam: float = 0.02
    seed: int = 0
    steps: int = 2000
    rotation_mode: str = "additive"
    checkpoint_every: int = 1000
    eval_every: int = 1000
    patience: int = 5
    threads: int = 1

    def __post_init__(self) -> None:
        for name in ("d", "b", "n", "steps", "checkpoint_every", "eval_every",
                     "patience", "threads"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.gamma <= 0.0:
            raise ValueError("gamma (margin) must be positive")
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")
        if self.lam < 0.0:
            raise ValueError("lambda must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.rotation_mode not in ROTATION_MODES:
            raise ValueError(f"rotation_mode must be one of {ROTATION_MODES}")


def parse_config_file(path: str) -> dict[str, object]:
    """Read a key=value config file into a dict of TrainingConfig overrides.

    Recognised keys: d, b, n, gamma, lr, lambda, seed, steps.  Blank lines
    and #-comments (full-line or trailing) are ignored.
    """
    overrides: dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_FILE_KEYS:
                known = ", ".join(sorted(_CONFIG_FILE_KEYS))
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r} (known: {known})")
            name, cast = _CONFIG_FILE_KEYS[key]
            try:
                overrides[name] = cast(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad {key} value {value!r}") from exc
    return overrides


def resolve_config(*, profile: str | None = None,
                   file_overrides: dict[str, object] | None = None,
                   cli_overrides: dict[str, object] | None = None) -> TrainingConfig:
    """Merge config sources; precedence: CLI flag > file > profile > default.

    ``cli_overrides`` entries whose value is None count as "flag not given".
    """
    merged: dict[str, object] = {}
    if profile is not None:
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r} (known: {sorted(PROFILES)})")
        merged.update(PROFILES[profile])
    merged.update(file_overrides or {})
    merged.update({k: v for k, v in (cli_overrides or {}).items() if v is not None})
    return TrainingConfig(**merged)


# ---------------------------------------------------------------------------
# negative sampling
# ---------------------------------------------------------------------------

def _complement_ids(keys: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Members of given ranks in the complement of a set of integers.

    For the set's members sorted and distinct, u_0 < u_1 < ..., ``keys`` is
    u_k - k, the count of non-members below u_k; the non-member of rank p is
    then p + #{k : u_k - k <= p}.
    """
    return ranks + np.searchsorted(keys, ranks, "right")


def _distinct(ids: np.ndarray) -> np.ndarray:
    """``ids`` sorted without repeats; np.unique would import numpy.ma, which
    costs about 1 MB of resident memory."""
    ids = np.sort(ids)
    keep = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def sample_negatives(instance: QueryInstance, k: int, rng: np.random.Generator,
                     n_entities: int) -> np.ndarray:
    """k entities drawn uniformly from those that do not answer the query.

    Draws without replacement while the complement is large enough, with
    replacement otherwise; the rng draws are those of ``rng.choice`` over the
    sorted complement.  Raises when every entity is an answer or an answer
    id lies outside [0, n_entities).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    known = _distinct(np.array(instance.easy + instance.hard, dtype=np.int64))
    if known.size and (known[0] < 0 or known[-1] >= n_entities):
        raise ValueError(f"answer id out of range for {n_entities} entities")
    size = n_entities - known.size
    if size == 0:
        raise ValueError("every entity answers this query; no negatives exist")
    picks = rng.choice(size, size=k, replace=size < k)
    return _complement_ids(known - np.arange(known.size), picks)


def _describe(q: QueryInstance) -> str:
    return f"the {q.structure} query on anchors {q.anchors} and relations {q.relations}"


#: numpy's ``Generator.choice(size, n, replace=False)`` runs Floyd's
#: algorithm unless size > _TAIL_SIZE and n > size // _TAIL_RATIO, where it
#: shuffles the tail of an ``arange(size)`` instead (numpy/random/_generator.pyx).
_TAIL_SIZE, _TAIL_RATIO = 10000, 50


def _swap_tail(size: int, n: int, swaps) -> list[int]:
    """The last n entries of ``arange(size)`` after the tail shuffle's swaps
    (position size-1-t with ``swaps[t]``), kept as a dict of moved entries."""
    moved: dict[int, int] = {}
    for i, j in zip(range(size - 1, size - 1 - n, -1), swaps):
        moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
    return [moved.get(k, k) for k in range(size - n, size)]


class _StructurePool:
    """One structure's usable instances as arrays, built once per ``train()``.

    Instance j's entity e becomes j * n_entities + e, so every instance's
    known answers form one sorted set, and one ``_complement_ids`` call maps
    the negatives' ranks for a whole batch.
    """

    def __init__(self, instances, n_entities: int):
        self.anchors = np.array([q.anchors for q in instances], dtype=np.int64)
        self.relations = np.array([q.relations for q in instances], dtype=np.int64)
        answers = [q.easy if q.easy else q.hard for q in instances]
        self.answer_counts = np.array([len(a) for a in answers], dtype=np.int64)
        self.answer_starts = np.cumsum(self.answer_counts) - self.answer_counts
        self.answers = np.fromiter(chain.from_iterable(answers), np.int64,
                                   count=int(self.answer_counts.sum()))

        lengths = np.array([len(q.easy) + len(q.hard) for q in instances], dtype=np.int64)
        known = np.fromiter(chain.from_iterable(chain(q.easy, q.hard) for q in instances),
                            np.int64, count=int(lengths.sum()))
        outside = np.flatnonzero((known < 0) | (known >= n_entities))
        if outside.size:
            q = instances[int(np.searchsorted(np.cumsum(lengths), outside[0], "right"))]
            raise ValueError(f"answer id {known[outside[0]]} out of range for {n_entities} "
                             f"entities in {_describe(q)}")
        self.shift = np.arange(len(instances), dtype=np.int64) * n_entities
        known = _distinct(np.repeat(self.shift, lengths) + known)
        starts = np.searchsorted(known, self.shift)
        #: Non-answer count per instance.
        self.sizes = n_entities - np.diff(starts, append=known.size)
        empty = np.flatnonzero(self.sizes == 0)
        if empty.size:
            raise ValueError(f"every entity answers {_describe(instances[empty[0]])}; "
                             "no negatives exist")
        self.keys = known - np.arange(known.size)
        #: Count of non-answers of the instances before each one.
        self.rank_offsets = self.shift - starts

    def draw(self, rng: np.random.Generator, b: int, n: int):
        """Anchors, relations, positives and negatives of a b-instance batch,
        from the draws of ``_draw_ranks``."""
        rows, ranks, picks = self._draw_ranks(rng, b, n)
        positives = self.answers[self.answer_starts[rows] + ranks]
        picks += self.rank_offsets[rows, None]
        negatives = _complement_ids(self.keys, picks) - self.shift[rows, None]
        return self.anchors[rows], self.relations[rows], positives, negatives

    def _draw_ranks(self, rng: np.random.Generator, b: int, n: int):
        """The batch rows, each row's positive's index among its answers and
        its negatives' ranks in its complement, as the per-instance calls
        draw them: ``rng.integers(len(pool), size=b)``, then per row
        ``rng.integers(count)`` and ``sample_negatives``' ``rng.choice(size,
        n, replace=size < n)``.

        Both make Lemire bounded draws on one 32-bit stream (a bound of 1
        draws nothing), so after the rows one ``rng.integers`` over every
        row's bounds, in row order, yields the same numbers and leaves the
        same generator state.  The choice's draws then become ranks over all
        rows at once: n draws with replacement; or Floyd's algorithm (bounds
        size-n+1 .. size) and a Fisher-Yates shuffle (bounds n .. 2); or, for
        large complements, the swaps of a tail shuffle (bounds size, size-1,
        ...).
        """
        rows = rng.integers(len(self.answer_counts), size=b)
        sizes = self.sizes[rows]
        t = np.arange(n)
        replace = sizes < n
        tail = ~replace & (sizes > _TAIL_SIZE) & (sizes // _TAIL_RATIO < n)
        floyd = ~(replace | tail)
        # row i's bounds: its positive's, then its choice's; 1 draws nothing
        bounds = np.ones((b, 2 * n), dtype=np.int64)
        bounds[:, 0] = self.answer_counts[rows]
        bounds[:, 1:n + 1] = np.where(replace[:, None], sizes[:, None],
                                      sizes[:, None] - np.where(tail[:, None], t, n - 1 - t))
        bounds[floyd, n + 1:] = n - t[:-1]
        drawn = rng.integers(0, bounds)

        picks = drawn[:, 1:n + 1].copy()  # with replacement, the draws themselves
        if floyd.any():
            picks[floyd] = self._floyd(drawn[floyd], sizes[floyd], n)
        for i in np.flatnonzero(tail).tolist():
            picks[i] = _swap_tail(int(sizes[i]), n, drawn[i, 1:n + 1].tolist())
        return rows, drawn[:, 0], picks

    @staticmethod
    def _floyd(drawn, sizes, n: int) -> np.ndarray:
        """Floyd's picks from each row's draws (columns 1 .. n), then the
        shuffle's swaps (columns n+1 ..), as (rows, n) ranks.  Pick t is its
        draw unless an earlier pick took that value, and then size-n+t."""
        count, width = sizes.size, int(sizes.max())
        # each row's values live in its own stretch of one flat occupancy mask
        base = np.arange(count, dtype=np.int64) * width
        taken = np.zeros(count * width, dtype=bool)
        # position-major and C-ordered, so the flat view below sees every swap
        picks = (drawn[:, 1:n + 1] + base[:, None]).T.copy()
        last = base + sizes - n  # pick t's fallback is last + t
        for t in range(n):
            at = picks[t]
            np.copyto(at, last + t, where=taken[at])
            taken[at] = True
        picks -= base[None]
        flat = picks.reshape(-1)
        # Fisher-Yates: position i = n-1 .. 1 swaps with its draw, row by row
        lanes = np.arange(count, dtype=np.int64)
        here = np.arange(n - 1, 0, -1)[:, None] * count + lanes
        there = drawn[:, n + 1:].T * count + lanes
        for dst, src in zip(np.hstack((here, there)), np.hstack((there, here))):
            flat[dst] = flat[src]
        return picks.T


# ---------------------------------------------------------------------------
# optimizer and train state
# ---------------------------------------------------------------------------

def _zero_moments(store: ParameterStore) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(store.arrays[name]) for name in store.trainable_names()}


def adam_step(store: ParameterStore, grads: dict[str, np.ndarray],
              m: dict[str, np.ndarray], v: dict[str, np.ndarray], t: int,
              lr: float) -> None:
    """One in-place Adam update; ``t`` is the 1-based step count.

    ``m`` and ``v`` are updated in place, so they keep their array objects.
    Each line below runs its formula's operations in the formula's order,
    so the floats are those of the formula.  Its two scratch buffers are
    sized to the largest parameter and shared by all, so an update allocates
    two arrays however many parameters there are.
    """
    if t < 1:
        raise ValueError("Adam step count is 1-based")
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    bias1 = 1.0 - beta1 ** t
    bias2 = 1.0 - beta2 ** t
    names = store.trainable_names()
    size = max(store.arrays[name].size for name in names)
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    for name in names:
        g, m_, v_ = grads[name], m[name], v[name]
        a = scratch_a[:g.size].reshape(g.shape)
        b = scratch_b[:g.size].reshape(g.shape)
        # m = beta1 * m + (1 - beta1) * g
        np.multiply(m_, beta1, out=m_)
        np.add(m_, np.multiply(g, 1.0 - beta1, out=a), out=m_)
        # v = beta2 * v + (1 - beta2) * g * g
        np.multiply(np.multiply(g, 1.0 - beta2, out=a), g, out=a)
        np.multiply(v_, beta2, out=v_)
        np.add(v_, a, out=v_)
        # param -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
        np.multiply(np.divide(m_, bias1, out=a), lr, out=a)
        np.add(np.sqrt(np.divide(v_, bias2, out=b), out=b), eps, out=b)
        np.subtract(store.arrays[name], np.divide(a, b, out=a), out=store.arrays[name])


@dataclass
class TrainState:
    """Everything needed to continue (or evaluate) a run: parameters, Adam
    moments, step counter, the batching rng, and running loss summaries."""

    store: ParameterStore
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    step: int
    rng: np.random.Generator
    running_loss: float
    per_structure: dict[str, float]
    config: TrainingConfig
    entity_names: list[str] | None = None
    relation_names: list[str] | None = None


def init_state(cfg: TrainingConfig, n_entities: int, n_relations: int, *,
               entity_names: list[str] | None = None,
               relation_names: list[str] | None = None) -> TrainState:
    store = ParameterStore(n_entities, n_relations, cfg.d, seed=cfg.seed,
                           rotation_mode=cfg.rotation_mode, margin=cfg.gamma)
    return TrainState(
        store=store,
        adam_m=_zero_moments(store),
        adam_v=_zero_moments(store),
        step=0,
        # separate stream from the parameter-init draw of the same seed
        rng=np.random.default_rng([cfg.seed, 1]),
        running_loss=float("nan"),
        per_structure={},
        config=cfg,
        entity_names=list(entity_names) if entity_names is not None else None,
        relation_names=list(relation_names) if relation_names is not None else None,
    )


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------

def _shard_bounds(size: int, shards: int) -> list[tuple[int, int]]:
    shards = max(1, min(shards, size))
    base, extra = divmod(size, shards)
    bounds, lo = [], 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def batch_loss_and_grads(store: ParameterStore, tag: str, anchors, relations,
                         positives, negatives, *, lam: float,
                         threads: int = 1) -> tuple[float, dict[str, np.ndarray]]:
    """Mean margin loss of one single-structure batch plus its gradients.

    ``anchors`` is (batch, anchor slots), ``relations`` (batch, relation
    slots), ``positives`` (batch,), ``negatives`` (batch, k).  With
    ``threads`` > 1 the batch splits into contiguous shards whose gradients
    are weight-summed in shard order, so the result is bit-identical at any
    fixed thread count.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    relations = np.asarray(relations, dtype=np.int64)
    positives = np.asarray(positives, dtype=np.int64)
    negatives = np.asarray(negatives, dtype=np.int64)
    size = positives.shape[0]
    if size == 0:
        raise ValueError("empty batch")

    def run_shard(lo: int, hi: int) -> tuple[float, dict[str, np.ndarray]]:
        tape = ad.Tape()
        m = store.tensors(tape)
        loss = batch_loss(m, tag, anchors[lo:hi], relations[lo:hi], positives[lo:hi],
                          negatives[lo:hi], lam, store.margin)
        tape.backward(loss)
        grads = {}
        for name in store.trainable_names():
            g = getattr(m, name).grad
            grads[name] = g if g is not None else np.zeros_like(store.arrays[name])
        return float(ad.values_of(loss)), grads

    bounds = _shard_bounds(size, threads)
    if len(bounds) == 1:
        return run_shard(0, size)

    total_loss = 0.0
    total_grads = _zero_moments(store)
    with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
        futures = [pool.submit(run_shard, lo, hi) for lo, hi in bounds]
        for fut, (lo, hi) in zip(futures, bounds):
            weight = (hi - lo) / size
            loss, grads = fut.result()
            total_loss += weight * loss
            for name, g in grads.items():
                total_grads[name] += weight * g
    return total_loss, total_grads


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

class TrainingDiverged(RuntimeError):
    """Raised when the loss goes non-finite mid-run."""


_EMA = 0.05  # weight of the newest batch in the running-loss averages
_LOG_EVERY = 50  # steps between "train" log events


def _memory_fields(start_faults: int) -> dict:
    """The process's peak RSS in MB and its minor page faults since
    ``start_faults``, from ``resource.getrusage``; empty without it."""
    if resource is None:
        return {}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    scale = 1 if sys.platform == "darwin" else 1024
    return {"peak_rss_mb": usage.ru_maxrss * scale / 2**20,
            "minor_faults": usage.ru_minflt - start_faults}


def train(instances, n_entities: int, n_relations: int, cfg: TrainingConfig, *,
          valid_instances=None, out_dir: str | None = None,
          state: TrainState | None = None,
          entity_names: list[str] | None = None,
          relation_names: list[str] | None = None) -> tuple[TrainState, list[dict]]:
    """Run the loop until ``cfg.steps`` (or early stopping) and return the
    final state plus a metrics log.

    Pass ``state`` to resume from a checkpoint.  With ``out_dir`` set, the
    newest state is written to ``last.ckpt`` every ``cfg.checkpoint_every``
    steps (and at the end); when ``valid_instances`` are given, validation
    MRR is computed every ``cfg.eval_every`` steps, the best state is kept in
    ``best.ckpt``, and the run stops after ``cfg.patience`` evaluations
    without improvement.  A ``"train"`` event is logged at the first and last
    steps and every ``_LOG_EVERY`` steps; it also carries the process's peak
    RSS and its minor page faults since the call began, where the platform
    has ``resource``.

    A step's large arrays live in this thread's model workspace, kept from
    one step to the next and freed when the call returns or raises.
    """
    start_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else 0
    usable = [q for q in instances if q.easy or q.hard]
    if not usable:
        raise ValueError("no trainable instances (all lack answers)")
    groups: dict[str, list[QueryInstance]] = {}
    for q in usable:
        groups.setdefault(q.structure, []).append(q)
    tags = sorted(groups)
    pools = {tag: _StructurePool(groups[tag], n_entities) for tag in tags}

    if state is None:
        state = init_state(cfg, n_entities, n_relations,
                           entity_names=entity_names, relation_names=relation_names)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    try:
        return _train_loop(state, pools, tags, cfg, valid_instances, out_dir, start_faults)
    finally:
        _drop_workspace()


def _train_loop(state: TrainState, pools, tags, cfg: TrainingConfig, valid_instances,
                out_dir, start_faults: int) -> tuple[TrainState, list[dict]]:
    log: list[dict] = []
    best_valid = -math.inf
    evals_since_best = 0
    rng = state.rng

    while state.step < cfg.steps:
        tag = tags[int(rng.integers(len(tags)))]
        anchors, rels, positives, negatives = pools[tag].draw(rng, cfg.b, cfg.n)
        loss, grads = batch_loss_and_grads(state.store, tag, anchors, rels, positives,
                                           negatives, lam=cfg.lam, threads=cfg.threads)
        if not math.isfinite(loss):
            raise TrainingDiverged(
                f"loss became {loss} at step {state.step + 1} on structure {tag!r};"
                " reduce lr or inspect the dataset"
            )
        state.step += 1
        adam_step(state.store, grads, state.adam_m, state.adam_v, state.step, cfg.lr)
        state.running_loss = (
            loss if math.isnan(state.running_loss)
            else (1.0 - _EMA) * state.running_loss + _EMA * loss
        )
        prev = state.per_structure.get(tag)
        state.per_structure[tag] = loss if prev is None else (1.0 - _EMA) * prev + _EMA * loss

        if state.step == 1 or state.step % _LOG_EVERY == 0 or state.step == cfg.steps:
            log.append({"event": "train", "step": state.step, "structure": tag,
                        "loss": loss, "running_loss": state.running_loss,
                        **_memory_fields(start_faults)})
        if out_dir and state.step % cfg.checkpoint_every == 0:
            save_checkpoint(os.path.join(out_dir, "last.ckpt"), state)

        if valid_instances and state.step % cfg.eval_every == 0:
            from .evaluation import evaluate_instances

            report = evaluate_instances(state.store, valid_instances, lam=cfg.lam,
                                        threads=cfg.threads)
            log.append({"event": "valid", "step": state.step,
                        "mrr": report.average_mrr})
            if report.average_mrr > best_valid:
                best_valid = report.average_mrr
                evals_since_best = 0
                if out_dir:
                    save_checkpoint(os.path.join(out_dir, "best.ckpt"), state)
            else:
                evals_since_best += 1
                if evals_since_best >= cfg.patience:
                    log.append({"event": "early_stop", "step": state.step,
                                "best_valid_mrr": best_valid})
                    break

    if out_dir:
        save_checkpoint(os.path.join(out_dir, "last.ckpt"), state)
    return state, log


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = "conequery-checkpoint"
CHECKPOINT_VERSION = 1

#: The metadata entries ``load_checkpoint`` reads after the magic and version.
_META_KEYS = ("n_entities", "n_relations", "d", "rotation_mode", "step", "running_loss",
              "per_structure", "config", "rng_state", "entity_names", "relation_names")


def save_checkpoint(path: str, state: TrainState) -> None:
    """Write the full train state; the write is atomic (tmp file + rename)."""
    meta = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "n_entities": state.store.n_entities,
        "n_relations": state.store.n_relations,
        "d": state.store.d,
        "rotation_mode": state.store.rotation_mode,
        "step": state.step,
        "running_loss": state.running_loss,
        "per_structure": state.per_structure,
        "config": asdict(state.config),
        "rng_state": state.rng.bit_generator.state,
        "entity_names": state.entity_names,
        "relation_names": state.relation_names,
    }
    payload: dict[str, np.ndarray] = {
        "__meta__": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    }
    for name, arr in state.store.arrays.items():
        payload["param." + name] = arr
    for name, arr in state.adam_m.items():
        payload["adam_m." + name] = arr
    for name, arr in state.adam_v.items():
        payload["adam_v." + name] = arr
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, **payload)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> TrainState:
    """Restore a checkpoint bit-identically (arrays, rng stream, counters)."""
    with np.load(path) as npz:
        if "__meta__" not in npz.files:
            raise ValueError(f"{path}: not a checkpoint (missing metadata entry)")
        meta = json.loads(npz["__meta__"].tobytes().decode("utf-8"))
        if meta.get("magic") != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} file")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"{path}: unsupported checkpoint version {meta.get('version')!r}"
            )
        missing = [key for key in _META_KEYS if key not in meta]
        if missing:
            raise ValueError(f"{path}: checkpoint metadata has no {missing[0]!r} entry")
        # Checkpoints written before shards always joined in order carry a
        # "deterministic" flag, which no longer changes anything.
        config = {k: v for k, v in meta["config"].items() if k != "deterministic"}
        unknown = sorted(config.keys() - {f.name for f in fields(TrainingConfig)})
        if unknown:
            raise ValueError(f"{path}: unknown training config key {unknown[0]!r}")
        cfg = TrainingConfig(**config)
        store = ParameterStore(meta["n_entities"], meta["n_relations"], meta["d"],
                               seed=0, rotation_mode=meta["rotation_mode"])
        expected = {"param." + name for name in store.arrays} | {
            moment + name for moment in ("adam_m.", "adam_v.") for name in store.trainable_names()}
        present = {key for key in npz.files if key.startswith(("param.", "adam_m.", "adam_v."))}
        if expected != present:
            raise ValueError(f"{path}: parameter or Adam arrays do not match this model layout")
        for name in store.arrays:
            loaded = npz["param." + name]
            if loaded.shape != store.arrays[name].shape:
                raise ValueError(f"{path}: bad shape for {name}: {loaded.shape}")
            store.arrays[name] = loaded.astype(np.float64, copy=False)
        adam_m = {n: npz["adam_m." + n].astype(np.float64, copy=False)
                  for n in store.trainable_names()}
        adam_v = {n: npz["adam_v." + n].astype(np.float64, copy=False)
                  for n in store.trainable_names()}
    rng = np.random.default_rng(0)
    rng.bit_generator.state = meta["rng_state"]
    return TrainState(
        store=store, adam_m=adam_m, adam_v=adam_v, step=int(meta["step"]),
        rng=rng, running_loss=float(meta["running_loss"]),
        per_structure=dict(meta["per_structure"]), config=cfg,
        entity_names=meta["entity_names"], relation_names=meta["relation_names"],
    )


# ---------------------------------------------------------------------------
# multi-seed spread
# ---------------------------------------------------------------------------

@dataclass
class MultiSeedReport:
    """Per-metric mean and sample standard deviation across seeds."""

    metrics: dict[str, tuple[float, float]]
    per_seed: list[dict[str, float]] = field(default_factory=list)


def seed_spread(values) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof=1) of a metric across seeds."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("no values")
    mean = float(np.mean(vals))
    std = float(np.std(vals, ddof=1)) if len(vals) >= 2 else 0.0
    return mean, std


def multi_seed(train_instances, test_instances, n_entities: int, n_relations: int,
               cfg: TrainingConfig, n_seeds: int, *,
               valid_instances=None) -> MultiSeedReport:
    """Train with seeds cfg.seed .. cfg.seed+n_seeds-1 and report the spread
    of test MRR per structure (plus the AVG row)."""
    if n_seeds < 2:
        raise ValueError("need at least two seeds to report a spread")
    from .evaluation import evaluate_instances

    rows: list[dict[str, float]] = []
    for i in range(n_seeds):
        cfg_i = replace(cfg, seed=cfg.seed + i)
        state, _ = train(train_instances, n_entities, n_relations, cfg_i,
                         valid_instances=valid_instances)
        report = evaluate_instances(state.store, test_instances, lam=cfg_i.lam,
                                    threads=cfg_i.threads)
        row = {tag: metrics.mrr for tag, metrics in report.per_structure.items()}
        row["AVG"] = report.average_mrr
        rows.append(row)
    names = sorted({name for row in rows for name in row})
    metrics = {name: seed_spread([row[name] for row in rows if name in row])
               for name in names}
    return MultiSeedReport(metrics=metrics, per_seed=rows)


# ---------------------------------------------------------------------------
# full-loss gradient audit
# ---------------------------------------------------------------------------

def _random_graph(rng: np.random.Generator, n_entities: int, n_relations: int,
                  n_triples: int) -> KnowledgeGraph:
    triples: set[tuple[int, int, int]] = set()
    while len(triples) < n_triples:
        triples.add((int(rng.integers(n_entities)), int(rng.integers(n_relations)),
                     int(rng.integers(n_entities))))
    return KnowledgeGraph(sorted(triples), n_entities, n_relations)


#: The gradient audit's random graph: entities, relations, triples.
_AUDIT_GRAPH = (30, 4, 150)


def gradient_check_model(n_instances: int = 20, d: int = 8, seed: int = 0) -> float:
    """Max relative error between analytic and finite-difference gradients of
    the complete loss, cycling through all query structures so projection,
    intersection, negation, union and DNF paths are all exercised.  The
    instances are sampled from a random ``_AUDIT_GRAPH``, and each is scored
    against 3 negatives at lam 0.02 and margin 2.

    Every parameter coordinate that can influence the loss is probed:
    embedding-table rows the instance never touches are skipped (their
    gradient is identically zero on both sides), kink coordinates are
    validated by subgradient containment, and coordinates below the
    finite-difference resolution (both readings under 1e-5, far beneath any
    gradient this loss produces) count as agreeing zeros (see
    ``autodiff.grad_check`` for why both are necessary).
    """
    if n_instances < 1:
        raise ValueError("the gradient check needs at least one instance")
    lam, margin = 0.02, 2.0
    rng = np.random.default_rng(seed)
    graph = _random_graph(rng, *_AUDIT_GRAPH)
    worst = 0.0
    checked = 0
    attempts = 0
    while checked < n_instances:
        tag = ALL_STRUCTURES[checked % len(ALL_STRUCTURES)]
        instance = sample_instance(rng, tag, graph)
        attempts += 1
        if instance is None:
            if attempts > 50 * n_instances:
                raise RuntimeError("could not sample enough toy instances")
            continue
        store = ParameterStore(graph.n_entities, graph.n_relations, d,
                               seed=seed + 101 + checked, margin=margin)
        names = store.trainable_names()
        answers = instance.easy if instance.easy else instance.hard
        pos = np.array([answers[int(rng.integers(len(answers)))]], dtype=np.int64)
        neg = sample_negatives(instance, 3, rng, graph.n_entities).reshape(1, -1)
        anchors = np.array([instance.anchors], dtype=np.int64)
        rels = np.array([instance.relations], dtype=np.int64)

        def f(*leaves):
            m = ModelParams(d=d, rotation_mode=store.rotation_mode,
                            **dict(zip(names, leaves)))
            return batch_loss(m, tag, anchors, rels, pos, neg, lam, margin)

        # Only entity rows the instance references can influence the loss.
        rows = np.unique(np.concatenate([anchors.ravel(), pos, neg.ravel()]))
        entity_coords = (rows[:, None] * d + np.arange(d)).ravel()
        coords = [entity_coords if name == "entity_axis" else None for name in names]
        worst = max(worst, ad.grad_check(f, [store.arrays[n] for n in names],
                                         coords=coords, subgradient=True, zero_floor=1e-5))
        checked += 1
    return worst
