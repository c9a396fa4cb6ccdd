"""One workload run, in its own process (started by perfbench/run.py).

Untraced (``--trace 0``): set up, warm up, then repeat rounds of
``evaluate_instances`` calls, fixed-length ``train()`` units and more set-ups
until ``--seconds`` is spent, and report medians.  Traced (``--trace 1``):
warm untraced units of each kind as the baseline, then the same units
replayed under spans (see tracing.py), reported per layer.  Both modes check
outputs; every check counts in ``attempted`` and ``failed``.  Run it as a
script: it puts the checkout's ``src/`` first on the import path.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if not (SRC / "conequery" / "__init__.py").is_file():
    sys.exit(f"perfbench: no library source at {SRC / 'conequery'}")
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

import conequery  # noqa: E402
from conequery import autodiff as ad  # noqa: E402
from conequery.axioms import extract  # noqa: E402
from conequery.evaluation import evaluate_instances, expected_random_mrr_for  # noqa: E402
from conequery.patterns import SYMMETRY, mine_patterns  # noqa: E402
from conequery.planted import COLLEAGUE, build_planted_kg  # noqa: E402
from conequery.queries import generate_dataset, one_hop_instances  # noqa: E402
from conequery.training import (  # noqa: E402
    TrainingConfig,
    TrainingDiverged,
    batch_loss_and_grads,
    init_state,
    load_checkpoint,
    save_checkpoint,
    train,
)
from run import PINNED_ENV  # noqa: E402
from tracing import (  # noqa: E402
    NullTracer,
    Tracer,
    assemble_batch,
    chunk_table,
    eval_chunks,
    group_by_structure,
    loss_and_grads,
    traced_eval,
    traced_train,
)

if not Path(conequery.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"perfbench: imported conequery from {conequery.__file__}, not {SRC}")

clock = time.perf_counter
NAIVE_RANK_CHUNKS = 2
EVAL_FLOOR_S = 1.0  # per round: eval calls (at least one) while they fit this
SETUP_FLOOR_S = 0.25  # per round: set-up calls (at least one) while they fit this
#: Units of the values printed beside the declared metrics.
EXTRA_UNITS = {"test_mrr_1p": "MRR", "random_mrr_1p": "MRR", "axioms_emitted": "count",
               "pattern_labels": "count", "checkpoint_bytes": "bytes",
               "least_covered_step_share": "share", "least_covered_eval_chunk_share": "share"}


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


class Checks:
    """Correctness checks; each row counts attempted and failed operations."""

    def __init__(self) -> None:
        self.rows: list[dict] = []

    def add(self, name: str, attempted: int, failed: int, detail: str = "") -> None:
        """Record a check; repeated names accumulate into one row."""
        row = next((r for r in self.rows if r["check"] == name), None)
        if row is None:
            row = {"check": name, "attempted": 0, "failed": 0, "detail": ""}
            self.rows.append(row)
        row["attempted"] += int(attempted)
        row["failed"] += int(failed)
        row["detail"] = "; ".join(x for x in (row["detail"], detail) if x)

    @property
    def attempted(self) -> int:
        return sum(r["attempted"] for r in self.rows)

    @property
    def failed(self) -> int:
        return sum(r["failed"] for r in self.rows)


def peak_rss_bytes() -> int:
    """The process high-water mark (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 prints instead of returning
        blas_id = "unknown"
    meminfo = Path("/proc/meminfo")
    lines = meminfo.read_text().splitlines() if meminfo.is_file() else []
    mem_kib = next((int(line.split()[1]) for line in lines if line.startswith("MemTotal:")), 0)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "thread_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "program_threads": 1,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "mem_total_mb": round(mem_kib / 1024),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# set-up: KG build, query generation, parameter init
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    kg: object
    train_instances: list
    eval_instances: list
    cfg: TrainingConfig


def setup(spec: dict, seed: int, t) -> Inputs:
    kg = t.call("planted.build_planted_kg", build_planted_kg, seed, **spec["kg"])
    bundle = t.call("queries.generate_dataset", generate_dataset, kg.train, kg.valid,
                    kg.test, kg.n_entities, kg.n_relations,
                    counts=spec["dataset_counts"], seed=seed)
    if spec["train_on"] == "one_hop":
        train_instances = t.call("queries.one_hop_instances", one_hop_instances,
                                 bundle.train_graph)
    else:
        train_instances = bundle.train
    wanted = spec["eval_structures"]
    eval_instances = [q for q in bundle.test if wanted is None or q.structure in wanted]
    cfg = TrainingConfig(**spec["config"], seed=seed, steps=spec["unit_steps"])
    t.call("training.init_state", init_state, cfg, kg.n_entities, kg.n_relations)
    return Inputs(kg, train_instances, eval_instances, cfg)


def sizes(inp: Inputs) -> dict:
    return {"entities": inp.kg.n_entities, "relations": inp.kg.n_relations,
            "train_triples": len(inp.kg.train),
            "train_instances": len(inp.train_instances),
            "eval_queries": len(inp.eval_instances),
            "eval_answers": sum(len(q.hard or q.easy) for q in inp.eval_instances),
            "d": inp.cfg.d, "b": inp.cfg.b, "n": inp.cfg.n,
            "steps_per_unit": inp.cfg.steps}


# ---------------------------------------------------------------------------
# measured units
# ---------------------------------------------------------------------------


def train_unit(inp: Inputs, checks: Checks):
    """One uninterrupted train() call from a fresh state; (state, seconds)."""
    cfg = inp.cfg
    state = init_state(cfg, inp.kg.n_entities, inp.kg.n_relations)
    start = clock()
    try:
        state, _ = train(inp.train_instances, inp.kg.n_entities, inp.kg.n_relations,
                         cfg, state=state)
        failed, detail = 0, ""
    except TrainingDiverged as exc:
        failed, detail = 1, str(exc)
    wall = clock() - start
    checks.add("training loss finite at every step", cfg.steps, failed, detail)
    return state, wall


def eval_unit(inp: Inputs, state):
    start = clock()
    report = evaluate_instances(state.store, inp.eval_instances, lam=inp.cfg.lam)
    return report, clock() - start


def repeat(unit, budget: float) -> tuple[list, list[float]]:
    """Run ``unit`` at least once, and again while the next run fits the
    budget, starting from a collected heap."""
    outs, walls = [], []
    gc.collect()
    start = clock()
    while True:
        out, wall = unit()
        outs.append(out)
        walls.append(wall)
        if clock() - start + wall > budget:
            return outs, walls


def same_state(a, b) -> list[str]:
    """Names of parameter or Adam arrays that differ between two states."""
    bad = [f"param.{k}" for k in a.store.arrays
           if not np.array_equal(a.store.arrays[k], b.store.arrays[k])]
    bad += [f"adam_m.{k}" for k in a.adam_m if not np.array_equal(a.adam_m[k], b.adam_m[k])]
    bad += [f"adam_v.{k}" for k in a.adam_v if not np.array_equal(a.adam_v[k], b.adam_v[k])]
    return bad


def n_state_arrays(state) -> int:
    return len(state.store.arrays) + len(state.adam_m) + len(state.adam_v)


# ---------------------------------------------------------------------------
# checks on outputs
# ---------------------------------------------------------------------------


def naive_ranks(q, row) -> tuple[int, ...]:
    """Filtered pessimistic ranks by sorting: filter the other known answers,
    order by distance with the answer placed after every equal distance."""
    known = set(q.easy) | set(q.hard)
    ranks = []
    for a in q.hard or q.easy:
        pool = [e for e in range(len(row)) if e == a or e not in known]
        order = sorted(pool, key=lambda e: (float(row[e]), e == a))
        ranks.append(order.index(a) + 1)
    return tuple(ranks)


def check_ranks_naively(inp: Inputs, state, report, seed: int, checks: Checks) -> None:
    """Re-rank a seeded sample of eval chunks by sorting and compare."""
    chunks = eval_chunks(inp.eval_instances)
    offsets = np.cumsum([0] + [len(c) for _, c in chunks])
    rng = np.random.default_rng([seed, 3])
    picked = rng.choice(len(chunks), size=min(NAIVE_RANK_CHUNKS, len(chunks)), replace=False)
    m = state.store.tensors(None)
    angles = ad.wrap(state.store.arrays["entity_axis"])
    attempted = failed = 0
    for ci in sorted(int(i) for i in picked):
        tag, chunk = chunks[ci]
        table = chunk_table(NullTracer(), state.store, m, angles, tag, chunk, inp.cfg.lam)
        for i, q in enumerate(chunk):
            got = report.results[offsets[ci] + i].ranks
            want = naive_ranks(q, table[i])
            attempted += len(want)
            failed += sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))
    checks.add("ranks match a naive sort-based re-ranker", attempted, failed)


def post(inp: Inputs, state, report, t, checks: Checks) -> dict:
    """Axioms, patterns and a checkpoint round trip; returns their counts."""
    finite = [k for k, v in state.store.arrays.items() if not np.isfinite(v).all()]
    checks.add("parameters finite after training", len(state.store.arrays), len(finite),
               ", ".join(finite))
    axioms = t.call("axioms.extract", extract, state.store, tol=0.15, frac_threshold=0.8)
    labels = t.call("patterns.mine_patterns", mine_patterns, inp.kg.train)
    found = any(lab.kind == SYMMETRY and lab.relations == (COLLEAGUE,) for lab in labels)
    checks.add("mine_patterns finds the planted colleague symmetry", 1, int(not found))

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        path = os.path.join(tmp, "state.ckpt")
        t.call("training.save_checkpoint", save_checkpoint, path, state)
        ckpt_bytes = os.path.getsize(path)
        loaded = t.call("training.load_checkpoint", load_checkpoint, path)
    bad = same_state(state, loaded)
    scalars_equal = (loaded.step == state.step
                     and loaded.rng.bit_generator.state == state.rng.bit_generator.state
                     and loaded.config == state.config
                     and (loaded.running_loss == state.running_loss
                          or (math.isnan(loaded.running_loss) and math.isnan(state.running_loss))))
    checks.add("checkpoint round trip restores every array bit-identically",
               n_state_arrays(state) + 1, len(bad) + int(not scalars_equal), ", ".join(bad))

    out = {"axioms_emitted": len(axioms), "pattern_labels": len(labels),
           "checkpoint_bytes": ckpt_bytes}
    mrr_1p = report.per_structure.get("1p")
    if mrr_1p is not None:
        test_1p = [q for q in inp.eval_instances if q.structure == "1p"]
        out["test_mrr_1p"] = mrr_1p.mrr
        out["random_mrr_1p"] = expected_random_mrr_for(test_1p, inp.kg.n_entities)
    return out


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------


def timed_setup(spec: dict, seed: int) -> tuple[Inputs, float]:
    start = clock()
    inp = setup(spec, seed, NullTracer())
    return inp, clock() - start


def ranks_of(report) -> list[tuple[int, ...]]:
    return [res.ranks for res in report.results]


def run_untraced(spec: dict, seed: int, seconds: int, checks: Checks) -> tuple[dict, dict, Inputs]:
    """Set up and warm up, then rounds of [eval calls, train() units, set-up
    calls] until the next round would overrun ``seconds``.  Interleaving
    makes every metric sample the whole run, so a slow spell on a shared
    machine hits them alike; training gets at least as much time per round as
    evaluation, so both medians average over similar stretches."""
    start = clock()
    gc.collect()
    inp, first_setup = timed_setup(spec, seed)
    setup_walls, train_walls, eval_walls = [first_setup], [], []
    # The first unit in a process pays for growing the heap; a long training
    # run pays that once, so it warms up and is not timed.
    gc.collect()
    state, _ = train_unit(inp, checks)
    report = None
    while True:
        round_start = clock()
        reports, walls = repeat(lambda: eval_unit(inp, state), EVAL_FLOOR_S)
        eval_walls += walls
        report = report or reports[0]
        checks.add("repeated evaluate_instances calls give identical ranks", len(reports),
                   sum(ranks_of(r) != ranks_of(report) for r in reports))

        trained = 0.0
        while trained < sum(walls):
            gc.collect()
            unit_state, wall = train_unit(inp, checks)
            train_walls.append(wall)
            trained += wall
            differs = bool(same_state(state, unit_state)) or (
                unit_state.running_loss != state.running_loss)
            checks.add("repeated train() units give bit-identical states", 1, int(differs))

        again, walls = repeat(lambda: timed_setup(spec, seed), SETUP_FLOOR_S)
        setup_walls += walls
        checks.add("set-up gives identical inputs for the seed", len(again),
                   sum((x.kg.train, x.train_instances, x.eval_instances)
                       != (inp.kg.train, inp.train_instances, inp.eval_instances)
                       for x in again))
        del again
        if clock() - start + (clock() - round_start) > seconds:
            break

    check_ranks_naively(inp, state, report, seed, checks)
    extra = post(inp, state, report, NullTracer(), checks)
    if spec["check_mrr_beats_random"]:
        checks.add("test 1p MRR beats the random-ranking baseline", 1,
                   int(not extra["test_mrr_1p"] > extra["random_mrr_1p"]))

    cfg = inp.cfg
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "train_samples_per_s": statistics.median(cfg.b * cfg.steps / w for w in train_walls),
        "eval_queries_per_s": statistics.median(len(inp.eval_instances) / w
                                                for w in eval_walls),
        "peak_rss_mb": peak_rss_bytes() / 2**20,
        "final_loss": state.running_loss,
    }
    extra.update(setup_walls_s=setup_walls, train_unit_walls_s=train_walls,
                 eval_unit_walls_s=eval_walls)
    return metrics, extra, inp


def fidelity_per_structure(inp: Inputs, seed: int, checks: Checks) -> None:
    """On one batch per structure, the decomposition's loss and gradients
    equal batch_loss_and_grads' exactly."""
    cfg = inp.cfg
    store = init_state(cfg, inp.kg.n_entities, inp.kg.n_relations).store
    groups, tags = group_by_structure(inp.train_instances)
    rng = np.random.default_rng([seed, 2])
    mismatched = []
    for tag in tags:
        draw = assemble_batch(NullTracer(), {tag: groups[tag]}, [tag], rng, cfg,
                              inp.kg.n_entities)
        want_loss, want = batch_loss_and_grads(store, *draw, lam=cfg.lam)
        got_loss, got, _ = loss_and_grads(NullTracer(), store, *draw, cfg.lam)
        if got_loss != want_loss or any(not np.array_equal(got[k], want[k]) for k in want):
            mismatched.append(tag)
    checks.add("traced step decomposition equals batch_loss_and_grads",
               len(tags), len(mismatched), ", ".join(mismatched))


def run_traced(spec: dict, seed: int, checks: Checks) -> tuple[dict, dict, Inputs, dict]:
    tr_setup, tr_train, tr_eval, tr_post = Tracer(), Tracer(), Tracer(), Tracer()
    gc.collect()
    root = tr_setup.open("setup")
    inp = setup(spec, seed, tr_setup)
    tr_setup.close(root)
    cfg = inp.cfg

    # The first unit in a process pays for fresh heap pages, so the overhead
    # baseline is a second, warm, untraced unit.
    gc.collect()
    ref_state, _ = train_unit(inp, checks)
    gc.collect()
    _, ref_train_wall = train_unit(inp, checks)
    fidelity_per_structure(inp, seed, checks)
    gc.collect()
    start = clock()
    with tr_train:
        state, step_tags, losses, nodes, nbytes = traced_train(
            tr_train, inp.train_instances, inp.kg.n_entities, inp.kg.n_relations, cfg)
    train_wall = clock() - start
    train_peak = peak_rss_bytes()
    bad = same_state(ref_state, state)
    checks.add("traced training replay reaches train()'s exact state",
               n_state_arrays(state), len(bad), ", ".join(bad))
    nonfinite = sum(not math.isfinite(x) for x in losses)
    checks.add("training loss finite at every step", len(losses), nonfinite)

    gc.collect()
    ref_report, _ = eval_unit(inp, ref_state)
    _, walls = repeat(lambda: eval_unit(inp, ref_state), EVAL_FLOOR_S)
    ref_eval_wall = statistics.median(walls)
    gc.collect()
    start = clock()
    with tr_eval:
        results = traced_eval(tr_eval, state.store, inp.eval_instances, cfg.lam)
    eval_wall = clock() - start
    differing = sum(a.ranks != b.ranks for a, b in zip(results, ref_report.results))
    differing += abs(len(results) - len(ref_report.results))
    checks.add("traced eval replay ranks equal evaluate_instances'",
               len(ref_report.results), differing)

    extra = post(inp, state, ref_report, tr_post, checks)

    steps = cfg.steps
    tr = tr_train.by_name()
    ev = tr_eval.by_name()
    st = tr_setup.by_name()
    po = tr_post.by_name()
    zero = [0, 0.0, 0.0]

    def per_step_ms(name):
        return 1000.0 * tr.get(name, zero)[1] / steps

    def eval_ms(name):
        return 1000.0 * ev.get(name, zero)[1]

    step_coverage, extra["least_covered_step_share"] = tr_train.coverage("train.step")
    eval_coverage, extra["least_covered_eval_chunk_share"] = tr_eval.coverage("eval.chunk")
    chunk_max = max(len(c) for _, c in eval_chunks(inp.eval_instances))
    tape_bytes = statistics.fmean(nbytes)
    metrics = {
        "planted.build_s": st["planted.build_planted_kg"][2],
        "queries.generate_dataset_s": st["queries.generate_dataset"][2],
        "queries.instances": len(inp.train_instances) + len(inp.eval_instances),
        "training.sample_negatives_ms": per_step_ms("training.sample_negatives"),
        "training.sample_negatives_calls": tr["training.sample_negatives"][0] / steps,
        "training.sample_negatives_share": (tr["training.sample_negatives"][2]
                                            / tr["train.step"][2]),
        "training.adam_step_ms": per_step_ms("training.adam_step"),
        "training.save_checkpoint_ms": 1000.0 * po["training.save_checkpoint"][2],
        "training.load_checkpoint_ms": 1000.0 * po["training.load_checkpoint"][2],
        "training.checkpoint_bytes": extra["checkpoint_bytes"],
        "model.tensors_ms": per_step_ms("model.tensors"),
        "model.embed_structure_ms": per_step_ms("model.embed_structure"),
        "model.distance_ms": per_step_ms("model.distance"),
        "model.margin_loss_ms": per_step_ms("model.margin_loss"),
        "autodiff.backward_ms": per_step_ms("autodiff.backward"),
        "autodiff.gc_ms": per_step_ms("autodiff.gc"),
        "autodiff.tape_nodes": statistics.fmean(nodes),
        "autodiff.tape_bytes": tape_bytes,
        "autodiff.gc_gen2_collections": tr_train.gen2_collections,
        "autodiff.train_peak_rss_mb": train_peak / 2**20,
        "autodiff.peak_rss_per_tape": train_peak / tape_bytes,
        "evaluation.embed_ms": eval_ms("evaluation.embed"),
        "evaluation.distance_table_ms": eval_ms("evaluation.distance_table"),
        "evaluation.distance_table_bytes": chunk_max * inp.kg.n_entities * cfg.d * 8,
        "evaluation.rank_ms": eval_ms("evaluation.rank"),
        "axioms.extract_ms": 1000.0 * po["axioms.extract"][2],
        "axioms.emitted": extra["axioms_emitted"],
        "patterns.mine_ms": 1000.0 * po["patterns.mine_patterns"][2],
        "patterns.labels": extra["pattern_labels"],
        "trace.step_coverage": step_coverage,
        "trace.eval_coverage": eval_coverage,
        "trace.train_overhead_share": train_wall / ref_train_wall - 1.0,
        "trace.eval_overhead_share": eval_wall / ref_eval_wall - 1.0,
    }

    own = tr_train.self_times()
    embed_by_tag: dict[str, list[float]] = {}
    for i, name in enumerate(tr_train.name):
        if name == "model.embed_structure":
            embed_by_tag.setdefault(step_tags[tr_train.group[i]], []).append(own[i])
    extra["model.embed_structure_ms_by_tag"] = {
        tag: 1000.0 * statistics.fmean(v) for tag, v in sorted(embed_by_tag.items())}
    extra["steps_by_tag"] = {tag: len(v) for tag, v in sorted(embed_by_tag.items())}
    extra["self_ms_by_layer"] = {
        "train_per_step": layer_totals(tr, 1000.0 / steps),
        "eval_per_call": layer_totals(ev, 1000.0),
    }
    extra["unit_walls_s"] = {"train_untraced": ref_train_wall, "train_traced": train_wall,
                             "eval_untraced": ref_eval_wall, "eval_traced": eval_wall}
    spans = {"setup": tr_setup.to_json(), "train": tr_train.to_json(),
             "eval": tr_eval.to_json(), "post": tr_post.to_json()}
    return metrics, extra, inp, spans


def layer_totals(by_name: dict, scale: float) -> dict[str, float]:
    """Self time per layer (span-name prefix), scaled."""
    out: dict[str, float] = {}
    for name, (_, own, _) in by_name.items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + own * scale
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one perfbench workload run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec = json.loads((HERE / "workloads.json").read_text())["workloads"][args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in declared["workloads"] if w["name"] == args.workload)
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    env = environment()
    checks = Checks()
    spans = None
    if args.trace:
        metrics, extra, inp, spans = run_traced(spec, args.seed, checks)
    else:
        metrics, extra, inp = run_untraced(spec, args.seed, args.seconds, checks)

    missing = sorted(set(units) - set(metrics))
    if missing:
        sys.exit(f"perfbench: metrics declared in BENCHMARK.json were not measured: {missing}")

    tag = f"[{args.workload} seed {args.seed} trace {args.trace}]"
    print(f"{tag} environment: " + json.dumps(env, sort_keys=True))
    print(f"{tag} sizes: " + json.dumps(sizes(inp)))
    for name, value in metrics.items():
        print(f"{tag} {name:36s} {value:.6g} {units.get(name, '')}")
    for name, value in extra.items():
        if isinstance(value, dict):
            print(f"{tag} {name:36s} {json.dumps(value)}")
        elif not isinstance(value, list):
            print(f"{tag} {name:36s} {value:.6g} {EXTRA_UNITS[name]}")
    if args.trace:
        share = metrics["training.sample_negatives_share"]
        print(f"{tag} sample_negatives share of step wall time {100 * share:.1f}% "
              "(ROADMAP figure: about 23% under cProfile at the seed commit)")
    for row in checks.rows:
        status = "ok" if row["failed"] == 0 else "FAILED"
        print(f"{tag} check {status:6s} {row['check']} "
              f"({row['failed']}/{row['attempted']} failed) {row['detail']}".rstrip())
    share = checks.failed / checks.attempted
    print(f"{tag} {'failed_ops_share':36s} {share:.6g} share "
          f"({checks.failed} of {checks.attempted} checked operations)")

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": why, "environment": env,
              "sizes": sizes(inp), "metrics": metrics, "extra": extra,
              "checks": checks.rows, "failed_ops_share": share}
    if spans is not None:
        record["spans"] = spans
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")
    print(f"{tag} full result: {out_path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
