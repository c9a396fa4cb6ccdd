"""Command-line pipeline around the library.

Subcommands: ``gen-queries`` (dataset files from triples or the built-in
planted toy KG), ``train`` / ``eval`` / ``multi-seed`` (embedding training
and ranking metrics), ``mine-patterns`` (statistical relation labels),
``extract-axioms`` (ontology from a checkpoint), ``grad-check`` (autodiff
vs finite differences on the full loss), ``param-count`` (parameter
arithmetic), and ``algebra`` (exact multicone canonicalizer, ``--dump``).

Conventions shared by every subcommand:

- results go to files and stdout, progress and diagnostics to stderr;
- no input file is ever modified; outputs land under ``--out``;
- a run manifest (command, resolved config, seed, input/output paths with
  sha256 content hashes, timestamps) is written atomically next to the
  outputs: ``manifest.json`` inside an output directory, or
  ``<file>.manifest.json`` beside a single output file;
- training config precedence is CLI flag > ``--config`` file > ``--profile``
  > built-in default;
- ``--threads N`` shards batch work; shards join in index order, so output
  is bit-identical at any fixed N (evaluation at any N at all).

Exit codes: 0 success; 1 failed run or failed check; 2 usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from conequery import __version__
from conequery.axioms import emit_ontology, extract
from conequery.cones import canonicalize, format_multicone, parse_cone_spec
from conequery.evaluation import (
    evaluate_instances,
    expected_random_mrr_for,
    format_eval_table,
    subgroup_report,
    write_report_json,
    write_report_tsv,
)
from conequery.model import ROTATION_MODES, param_breakdown
from conequery.patterns import (
    mine_patterns,
    read_labels_tsv,
    subgroup_relations,
    write_labels_tsv,
)
from conequery.planted import build_planted_kg
from conequery.queries import (
    ALL_STRUCTURES,
    KnowledgeGraph,
    generate_dataset,
    one_hop_instances,
    random_split,
    read_id_map,
    read_queries_jsonl,
    read_triples_tsv,
    write_id_map,
    write_queries_jsonl,
    write_triples_tsv,
)
from conequery.training import (
    PROFILES,
    TrainingConfig,
    gradient_check_model,
    load_checkpoint,
    multi_seed,
    parse_config_file,
    resolve_config,
    train,
)

log = logging.getLogger("conequery")

_CONFIG_FLAGS = tuple(f.name for f in fields(TrainingConfig))


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _hash_paths(paths: Sequence[str | Path]) -> dict[str, str]:
    return {str(p): _sha256(Path(p)) for p in paths}


def write_manifest(anchor: str | Path, *, command: str, config: dict,
                   seed: int | None, inputs: Sequence[str | Path],
                   outputs: Sequence[str | Path], started: str) -> Path:
    """Atomically write the run manifest next to ``anchor`` (an output file
    or directory) and return its path."""
    anchor = Path(anchor)
    if anchor.is_dir():
        path = anchor / "manifest.json"
    else:
        path = anchor.with_name(anchor.name + ".manifest.json")
    record = {
        "tool": f"conequery {__version__}",
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": _hash_paths(inputs),
        "outputs": _hash_paths(outputs),
        "started": started,
        "finished": _now(),
    }
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)
    return path


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ---------------------------------------------------------------------------
# Shared argument plumbing
# ---------------------------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("training config (CLI > --config file > --profile > default)")
    g.add_argument("--config", metavar="FILE", help="key=value config file")
    g.add_argument("--profile", choices=sorted(PROFILES), help="preset size profile")
    g.add_argument("--d", type=int, help="embedding dimensions per entity")
    g.add_argument("--b", type=int, help="batch size")
    g.add_argument("--n", type=int, help="negative samples per positive")
    g.add_argument("--gamma", type=float, help="ranking margin")
    g.add_argument("--lr", type=float, help="Adam learning rate")
    g.add_argument("--lam", type=float, help="inside-distance weight")
    g.add_argument("--steps", type=int, help="optimization steps")
    g.add_argument("--seed", type=int, help="RNG seed")
    g.add_argument("--rotation-mode", choices=ROTATION_MODES,
                   dest="rotation_mode", help="aperture update rule")
    g.add_argument("--checkpoint-every", type=int, dest="checkpoint_every")
    g.add_argument("--eval-every", type=int, dest="eval_every",
                   help="validation interval (needs valid split)")
    g.add_argument("--patience", type=int,
                   help="early-stop patience in validation rounds")
    g.add_argument("--threads", type=int, help="worker shards for batch math")


def _resolved_config(args: argparse.Namespace):
    file_overrides = parse_config_file(args.config) if args.config else None
    cli = {name: getattr(args, name) for name in _CONFIG_FLAGS}
    return resolve_config(profile=args.profile, file_overrides=file_overrides,
                          cli_overrides=cli)


def _read_data_dir(data: str | Path) -> dict:
    """Load a gen-queries output directory."""
    data = Path(data)
    stats = json.loads((data / "stats.json").read_text(encoding="utf-8"))
    out = {
        "n_entities": int(stats["n_entities"]),
        "n_relations": int(stats["n_relations"]),
        "stats": stats,
        "entity_names": read_id_map(data / "entities.tsv"),
        "relation_names": read_id_map(data / "relations.tsv"),
        "train": read_queries_jsonl(data / "train.jsonl"),
        "inputs": [data / "stats.json", data / "entities.tsv",
                   data / "relations.tsv", data / "train.jsonl"],
    }
    for split in ("valid", "test"):
        path = data / f"{split}.jsonl"
        if path.exists():
            out[split] = read_queries_jsonl(path)
            out["inputs"].append(path)
        else:
            out[split] = []
    return out


def _parse_counts(spec: str | None, default_count: int) -> dict[str, int]:
    counts = {tag: default_count for tag in ALL_STRUCTURES}
    if spec:
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"bad --counts item {item!r} (want tag=N)")
            tag, value = item.split("=", 1)
            if tag not in ALL_STRUCTURES:
                raise ValueError(f"unknown structure tag {tag!r}")
            counts[tag] = int(value)
    return {tag: n for tag, n in counts.items() if n > 0}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_queries(args: argparse.Namespace) -> int:
    started = _now()
    sources = sum(1 for given in (args.planted_seed is not None, args.triples,
                                  args.train or args.valid or args.test) if given)
    if sources > 1:
        raise ValueError("choose one input form: --planted-seed, --triples, "
                         "or --train/--valid/--test")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs: list[Path] = []

    if args.planted_seed is not None:
        kg = build_planted_kg(seed=args.planted_seed)
        splits = (kg.train, kg.valid, kg.test)
        entity_names, relation_names = kg.entity_names, kg.relation_names
        source = {"planted_seed": args.planted_seed}
    elif args.triples:
        triples, ents, rels = read_triples_tsv(args.triples)
        inputs.append(Path(args.triples))
        ratios = tuple(float(x) for x in args.split.split(","))
        if len(ratios) != 3:
            raise ValueError("--split needs three comma-separated ratios")
        splits = random_split(triples, ratios, args.seed)
        entity_names, relation_names = list(ents), list(rels)
        source = {"triples": str(args.triples), "split": list(ratios)}
    elif args.train:
        if not (args.valid and args.test):
            raise ValueError("--train needs --valid and --test as well")
        # Shared vocabulary in first-appearance order across the three files.
        ents: dict[str, int] = {}
        rels: dict[str, int] = {}
        splits = []
        for path in (args.train, args.valid, args.test):
            part, e_local, r_local = read_triples_tsv(path)
            e_names, r_names = list(e_local), list(r_local)
            for name in e_names:
                ents.setdefault(name, len(ents))
            for name in r_names:
                rels.setdefault(name, len(rels))
            splits.append([(ents[e_names[h]], rels[r_names[r]], ents[e_names[t]])
                           for h, r, t in part])
            inputs.append(Path(path))
        entity_names, relation_names = list(ents), list(rels)
        source = {"train": args.train, "valid": args.valid, "test": args.test}
    else:
        raise ValueError("need --planted-seed, --triples, or --train/--valid/--test")

    train_t, valid_t, test_t = splits
    n_entities, n_relations = len(entity_names), len(relation_names)
    counts = _parse_counts(args.counts, args.default_count)
    log.info("generating queries: %d entities, %d relations, counts=%s",
             n_entities, n_relations, counts)
    bundle = generate_dataset(train_t, valid_t, test_t, n_entities, n_relations,
                              counts=counts, seed=args.seed)
    train_queries = bundle.train
    if args.one_hop_train:
        train_queries = one_hop_instances(bundle.train_graph)
        log.info("exhaustive one-hop training set: %d instances", len(train_queries))
    for split, missing in bundle.shortfalls.items():
        for tag, lack in missing.items():
            log.warning("%s/%s: %d instances short", split, tag, lack)

    outputs = []
    for name, queries in (("train", train_queries), ("valid", bundle.valid),
                          ("test", bundle.test)):
        path = out_dir / f"{name}.jsonl"
        write_queries_jsonl(path, queries)
        outputs.append(path)
    for name, triples in (("train", train_t), ("valid", valid_t), ("test", test_t)):
        path = out_dir / f"{name}_triples.tsv"
        write_triples_tsv(path, triples, entity_names, relation_names)
        outputs.append(path)
    write_id_map(out_dir / "entities.tsv", entity_names)
    write_id_map(out_dir / "relations.tsv", relation_names)
    stats = {
        "n_entities": n_entities,
        "n_relations": n_relations,
        "seed": args.seed,
        "source": source,
        "counts": counts,
        "one_hop_train": bool(args.one_hop_train),
        "shortfalls": bundle.shortfalls,
        "sizes": {"train": len(train_queries), "valid": len(bundle.valid),
                  "test": len(bundle.test)},
    }
    stats_path = out_dir / "stats.json"
    stats_path.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
    outputs += [out_dir / "entities.tsv", out_dir / "relations.tsv", stats_path]
    write_manifest(out_dir, command="gen-queries",
                   config={"counts": counts, "source": source,
                           "one_hop_train": bool(args.one_hop_train)},
                   seed=args.seed, inputs=inputs, outputs=outputs, started=started)
    print(f"wrote dataset to {out_dir} "
          f"(train {len(train_queries)}, valid {len(bundle.valid)}, "
          f"test {len(bundle.test)} queries)")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    started = _now()
    cfg = _resolved_config(args)
    data = _read_data_dir(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    log.info("training: %d instances, d=%d, steps=%d, mode=%s, seed=%d",
             len(data["train"]), cfg.d, cfg.steps, cfg.rotation_mode, cfg.seed)
    t0 = time.perf_counter()
    state, events = train(
        data["train"], data["n_entities"], data["n_relations"], cfg,
        valid_instances=data["valid"] or None, out_dir=out_dir,
        entity_names=data["entity_names"], relation_names=data["relation_names"])
    elapsed = time.perf_counter() - t0
    log_path = out_dir / "log.jsonl"
    with open(log_path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    outputs = [out_dir / "last.ckpt", log_path]
    if (out_dir / "best.ckpt").exists():
        outputs.append(out_dir / "best.ckpt")
    write_manifest(out_dir, command="train", config=asdict(cfg),
                   seed=cfg.seed, inputs=data["inputs"], outputs=outputs,
                   started=started)
    print(f"trained {state.step} steps in {elapsed:.1f}s; "
          f"final running loss {state.running_loss:.4f}; "
          f"checkpoint {out_dir / 'last.ckpt'}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    started = _now()
    state = load_checkpoint(args.ckpt)
    instances = read_queries_jsonl(args.test)
    inputs = [Path(args.ckpt), Path(args.test)]
    t0 = time.perf_counter()
    report = evaluate_instances(state.store, instances,
                                lam=state.config.lam, threads=args.threads)
    seconds = time.perf_counter() - t0
    print(format_eval_table(report))
    baseline = expected_random_mrr_for(instances, state.store.n_entities)
    print(f"analytic random-ranking baseline MRR: {baseline:.4f}")

    if args.labels:
        labels = read_labels_tsv(args.labels)
        inputs.append(Path(args.labels))
        groups = subgroup_relations(labels)
        print("pattern subgroup MRR (queries touching >= 1 labelled relation):")
        for name, (mrr, count) in subgroup_report(report.results, groups).items():
            print(f"  {name:14s} {mrr:.4f}  ({count} queries)")

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        tsv, js = out_dir / "report.tsv", out_dir / "report.json"
        write_report_tsv(tsv, report)
        write_report_json(js, report, seconds)
        write_manifest(out_dir, command="eval",
                       config={"threads": args.threads, "lam": state.config.lam},
                       seed=None, inputs=inputs, outputs=[tsv, js],
                       started=started)
        log.info("wrote %s and %s", tsv, js)
    return 0


def cmd_mine_patterns(args: argparse.Namespace) -> int:
    started = _now()
    relation_ids = None
    inputs = [Path(args.triples)]
    if args.relation_map:
        names = read_id_map(args.relation_map)
        relation_ids = {name: i for i, name in enumerate(names)}
        inputs.append(Path(args.relation_map))
    triples, _, rels = read_triples_tsv(args.triples, None, relation_ids)
    names = list(rels)
    labels = mine_patterns(triples, min_coverage=args.min_coverage,
                           min_support=args.min_support)
    for label in labels:
        shown = "/".join(names[r] for r in label.relations)
        print(f"{label.kind:13s} {shown:40s} support={label.support:5d} "
              f"coverage={label.coverage:.3f}")
    if not labels:
        print("no patterns above thresholds")
    write_labels_tsv(labels, args.out)
    write_manifest(Path(args.out), command="mine-patterns",
                   config={"min_coverage": args.min_coverage,
                           "min_support": args.min_support},
                   seed=None, inputs=inputs, outputs=[Path(args.out)],
                   started=started)
    return 0


def cmd_extract_axioms(args: argparse.Namespace) -> int:
    started = _now()
    state = load_checkpoint(args.ckpt)
    inputs = [Path(args.ckpt)]
    patterns = None
    if args.patterns:
        patterns = read_labels_tsv(args.patterns)
        inputs.append(Path(args.patterns))
    axioms = extract(state.store, tol=args.tol, frac_threshold=args.frac,
                     patterns=patterns, proximity_top_n=args.top_n)
    names = state.relation_names or [f"rel{i}" for i in range(state.store.n_relations)]
    emit_ontology(axioms, args.out, names)
    print(Path(args.out).read_text(encoding="utf-8"), end="")
    log.info("%d axioms at tol=%g frac=%g", len(axioms), args.tol, args.frac)
    write_manifest(Path(args.out), command="extract-axioms",
                   config={"tol": args.tol, "frac": args.frac,
                           "top_n": args.top_n},
                   seed=None, inputs=inputs, outputs=[Path(args.out)],
                   started=started)
    return 0


def cmd_grad_check(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    worst = gradient_check_model(n_instances=args.samples, d=args.d,
                                 seed=args.seed)
    elapsed = time.perf_counter() - t0
    ok = worst < args.threshold
    print(f"max relative gradient error {worst:.3e} over {args.samples} "
          f"instances (threshold {args.threshold:g}); runtime {elapsed:.1f}s")
    if not ok:
        log.error("gradient check FAILED")
    return 0 if ok else 1


def cmd_param_count(args: argparse.Namespace) -> int:
    if args.ckpt:
        store = load_checkpoint(args.ckpt).store
        breakdown = param_breakdown(store.n_entities, store.n_relations, store.d)
    else:
        if args.entities is None or args.relations is None or args.d is None:
            raise ValueError("need --entities, --relations and --d (or --ckpt)")
        breakdown = param_breakdown(args.entities, args.relations, args.d)
    width = max(len(k) for k in breakdown)
    for key, value in breakdown.items():
        print(f"{key:<{width}}  {value:>12,}")
    return 0


def cmd_multi_seed(args: argparse.Namespace) -> int:
    started = _now()
    cfg = _resolved_config(args)
    data = _read_data_dir(args.data)
    if not data["test"]:
        raise ValueError(f"{args.data}: multi-seed needs a test split")
    log.info("multi-seed: %d seeds from %d, mode=%s",
             args.n_seeds, cfg.seed, cfg.rotation_mode)
    report = multi_seed(data["train"], data["test"], data["n_entities"],
                        data["n_relations"], cfg, args.n_seeds,
                        valid_instances=data["valid"] or None)
    rows = [f"{'structure':<10} {'mean MRR':>9} {'std':>8}"]
    for name, (mean, std) in report.metrics.items():
        rows.append(f"{name:<10} {mean:9.4f} {std:8.4f}")
    print("\n".join(rows))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("structure\tmean_mrr\tstd\n")
            for name, (mean, std) in report.metrics.items():
                fh.write(f"{name}\t{mean!r}\t{std!r}\n")
        write_manifest(out, command="multi-seed", config=asdict(cfg),
                       seed=cfg.seed, inputs=data["inputs"], outputs=[out],
                       started=started)
    return 0


def cmd_algebra(args: argparse.Namespace) -> int:
    cones = parse_cone_spec(args.dump)
    print(format_multicone(canonicalize(cones)))
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conequery",
        description="Cone-shaped query embeddings over knowledge graphs: "
                    "dataset generation, training, evaluation, pattern "
                    "mining, and ontology axiom extraction.")
    parser.add_argument("--version", action="version",
                        version=f"conequery {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging on stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-queries", help="generate query datasets from triples")
    src = p.add_argument_group("input (choose one form)")
    src.add_argument("--planted-seed", type=int, dest="planted_seed",
                     help="use the built-in planted-pattern toy KG")
    src.add_argument("--triples", help="single named-triples TSV, split randomly")
    src.add_argument("--split", default="0.8,0.1,0.1",
                     help="train,valid,test ratios for --triples")
    src.add_argument("--train", help="pre-split train triples TSV")
    src.add_argument("--valid", help="pre-split valid triples TSV")
    src.add_argument("--test", help="pre-split test triples TSV")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--counts", help="per-structure query counts, e.g. 1p=100,2i=50")
    p.add_argument("--default-count", type=int, default=50, dest="default_count",
                   help="count for structures not listed in --counts")
    p.add_argument("--one-hop-train", action="store_true", dest="one_hop_train",
                   help="replace sampled train queries with one instance per "
                        "(head, relation) edge of the train graph")
    p.set_defaults(func=cmd_gen_queries)

    p = sub.add_parser("train", help="train cone embeddings")
    p.add_argument("--data", required=True, help="gen-queries output directory")
    p.add_argument("--out", required=True, help="checkpoint/log directory")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank test queries with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--test", required=True, help="queries JSONL file")
    p.add_argument("--out", help="directory for report.tsv / report.json")
    p.add_argument("--labels", help="mined-pattern TSV for subgroup metrics")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mine-patterns", help="mine relation patterns from triples")
    p.add_argument("--triples", required=True, help="named triples TSV")
    p.add_argument("--relation-map", dest="relation_map",
                   help="id<TAB>name map pinning relation ids")
    p.add_argument("--out", required=True, help="labels TSV path")
    p.add_argument("--min-coverage", type=float, default=0.2, dest="min_coverage")
    p.add_argument("--min-support", type=int, default=10, dest="min_support")
    p.set_defaults(func=cmd_mine_patterns)

    p = sub.add_parser("extract-axioms",
                       help="emit ontology axioms from a trained checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="ontology text file")
    p.add_argument("--tol", type=float, default=0.1,
                   help="per-dimension angle tolerance (radians)")
    p.add_argument("--frac", type=float, default=0.9,
                   help="fraction of dimensions that must satisfy a condition")
    p.add_argument("--patterns", help="mined labels TSV for composition pruning")
    p.add_argument("--top-n", type=int, default=2, dest="top_n",
                   help="axis-proximity composition candidates per relation pair")
    p.set_defaults(func=cmd_extract_axioms)

    p = sub.add_parser("grad-check",
                       help="compare analytic and finite-difference gradients")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("param-count", help="parameter arithmetic audit")
    p.add_argument("--entities", type=int)
    p.add_argument("--relations", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--ckpt", help="count a checkpoint's shapes instead")
    p.set_defaults(func=cmd_param_count)

    p = sub.add_parser("multi-seed", help="seed-spread ablation harness")
    p.add_argument("--data", required=True, help="gen-queries output directory")
    p.add_argument("--n-seeds", type=int, default=3, dest="n_seeds")
    p.add_argument("--out", help="TSV path for the spread table")
    _add_config_flags(p)
    p.set_defaults(func=cmd_multi_seed)

    p = sub.add_parser("algebra", help="exact multicone canonicalizer")
    p.add_argument("--dump", required=True, metavar="SPEC",
                   help='cone list "alpha:beta;alpha:beta;..." (radians)')
    p.set_defaults(func=cmd_algebra)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
