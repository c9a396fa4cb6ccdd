"""Command-line interface: subcommand plumbing, manifests, idempotency."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conequery.axioms import parse_ontology
from conequery.cli import build_parser, main
from conequery.model import ROTATION_MODES, ParameterStore
from conequery.patterns import read_labels_tsv
from conequery.queries import read_id_map, read_queries_jsonl
from conequery.training import TrainingConfig, load_checkpoint

from _helpers import (
    MALFORMED_ID_MAPS,
    MALFORMED_QUERY_FILES,
    rewrite_checkpoint,
    write_malformed_id_map,
    write_malformed_query_file,
)

TRAIN_FLAGS = ["--profile", "toy", "--lr", "0.03", "--gamma", "20",
               "--lam", "0.02", "--steps", "25", "--seed", "0"]


def file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    rc = main(["gen-queries", "--planted-seed", "0", "--out", str(out),
               "--seed", "0", "--counts", "1p=25,2i=8,2u=8,2in=8",
               "--default-count", "0", "--one-hop-train"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def run_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    rc = main(["train", "--data", str(data_dir), "--out", str(out)] + TRAIN_FLAGS)
    assert rc == 0
    return out


class TestGenQueries:
    def test_writes_dataset_files(self, data_dir):
        for name in ("train.jsonl", "valid.jsonl", "test.jsonl",
                     "train_triples.tsv", "entities.tsv", "relations.tsv",
                     "stats.json", "manifest.json"):
            assert (data_dir / name).exists(), name

    def test_stats_contents(self, data_dir):
        stats = json.loads((data_dir / "stats.json").read_text())
        assert stats["n_entities"] == 200 and stats["n_relations"] == 8
        assert stats["one_hop_train"] is True
        assert stats["sizes"]["train"] == len(read_queries_jsonl(data_dir / "train.jsonl"))

    def test_manifest_records_outputs_with_hashes(self, data_dir):
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["command"] == "gen-queries"
        assert manifest["seed"] == 0
        recorded = manifest["outputs"]
        assert str(data_dir / "train.jsonl") in recorded
        for path, digest in recorded.items():
            assert file_hash(Path(path)) == digest

    def test_rerun_is_byte_identical(self, data_dir, tmp_path):
        again = tmp_path / "data2"
        rc = main(["gen-queries", "--planted-seed", "0", "--out", str(again),
                   "--seed", "0", "--counts", "1p=25,2i=8,2u=8,2in=8",
                   "--default-count", "0", "--one-hop-train"])
        assert rc == 0
        for name in ("train.jsonl", "valid.jsonl", "test.jsonl", "stats.json",
                     "train_triples.tsv", "entities.tsv", "relations.tsv"):
            assert (again / name).read_bytes() == (data_dir / name).read_bytes()

    def test_triples_file_with_split(self, data_dir, tmp_path):
        out = tmp_path / "fromtsv"
        rc = main(["gen-queries", "--triples", str(data_dir / "train_triples.tsv"),
                   "--split", "0.8,0.1,0.1", "--out", str(out), "--seed", "3",
                   "--counts", "1p=10", "--default-count", "0"])
        assert rc == 0
        assert read_queries_jsonl(out / "train.jsonl")

    def test_conflicting_sources_rejected(self, data_dir, tmp_path, capsys):
        rc = main(["gen-queries", "--planted-seed", "0", "--triples", "x.tsv",
                   "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_missing_source_rejected(self, tmp_path):
        assert main(["gen-queries", "--out", str(tmp_path / "x")]) == 1

    def test_pre_split_files_share_one_vocabulary(self, tmp_path):
        # names get ids in first-appearance order across train, valid, test:
        # "b" and "likes" recur and keep their ids, "d", "e" and "hates"
        # first appear in valid or test and take the next ids
        files = {"train": "a\tlikes\tb\nb\tknows\tc\nc\tlikes\ta\n",
                 "valid": "b\tlikes\td\n",
                 "test": "e\thates\tb\n"}
        paths = {}
        for split, text in files.items():
            paths[split] = tmp_path / f"{split}.tsv"
            paths[split].write_text(text)
        out = tmp_path / "presplit"
        rc = main(["gen-queries", "--train", str(paths["train"]),
                   "--valid", str(paths["valid"]), "--test", str(paths["test"]),
                   "--out", str(out), "--counts", "1p=2", "--default-count", "0"])
        assert rc == 0
        assert read_id_map(out / "entities.tsv") == ["a", "b", "c", "d", "e"]
        assert read_id_map(out / "relations.tsv") == ["likes", "knows", "hates"]
        for split, text in files.items():
            assert (out / f"{split}_triples.tsv").read_text() == text
        stats = json.loads((out / "stats.json").read_text())
        assert stats["n_entities"] == 5 and stats["n_relations"] == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {str(p) for p in paths.values()}

    def test_train_file_alone_rejected(self, tmp_path, caplog):
        path = tmp_path / "train.tsv"
        path.write_text("a\tlikes\tb\n")
        assert main(["gen-queries", "--train", str(path), "--out", str(tmp_path / "x")]) == 1
        assert "--train needs --valid and --test" in caplog.text

    def test_input_files_never_mutated(self, data_dir, tmp_path):
        src = data_dir / "train_triples.tsv"
        before = file_hash(src)
        main(["gen-queries", "--triples", str(src), "--out",
              str(tmp_path / "y"), "--counts", "1p=5", "--default-count", "0"])
        assert file_hash(src) == before


class TestTrainEval:
    def test_checkpoint_written_and_loadable(self, run_dir):
        state = load_checkpoint(run_dir / "last.ckpt")
        assert state.step == 25
        assert state.config.d == 32  # toy profile
        assert state.relation_names is not None

    def test_manifest_config_resolution(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        cfg = manifest["config"]
        assert cfg["d"] == 32 and cfg["b"] == 64 and cfg["n"] == 16
        assert cfg["lr"] == 0.03 and cfg["steps"] == 25

    def test_config_file_and_cli_precedence(self, data_dir, tmp_path):
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text("lr = 0.5\nsteps = 7\n")
        out = tmp_path / "run2"
        rc = main(["train", "--data", str(data_dir), "--out", str(out),
                   "--profile", "toy", "--config", str(cfg_file),
                   "--lr", "0.01", "--seed", "0"])
        assert rc == 0
        cfg = json.loads((out / "manifest.json").read_text())["config"]
        assert cfg["lr"] == 0.01   # CLI beats file
        assert cfg["steps"] == 7   # file beats default

    def test_train_log_events(self, run_dir):
        lines = (run_dir / "log.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert any(e["event"] == "train" for e in events)

    def test_eval_prints_table_and_baseline(self, run_dir, data_dir, capsys):
        rc = main(["eval", "--ckpt", str(run_dir / "last.ckpt"),
                   "--test", str(data_dir / "test.jsonl")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "structure" in out and "AVG" in out
        assert "random-ranking baseline" in out

    def test_eval_writes_reports_and_manifest(self, run_dir, data_dir, tmp_path):
        out = tmp_path / "evalout"
        rc = main(["eval", "--ckpt", str(run_dir / "last.ckpt"),
                   "--test", str(data_dir / "test.jsonl"), "--out", str(out)])
        assert rc == 0
        assert (out / "report.tsv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["seconds"] > 0 and report["queries_per_s"] > 0
        assert report["open_pairs"] >= report["rescored_pairs"] >= 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert str(run_dir / "last.ckpt") in manifest["inputs"]

    def test_eval_threads_match(self, run_dir, data_dir, capsys):
        args = ["eval", "--ckpt", str(run_dir / "last.ckpt"),
                "--test", str(data_dir / "test.jsonl")]
        main(args)
        serial = capsys.readouterr().out
        main(args + ["--threads", "4"])
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("case", sorted(MALFORMED_ID_MAPS))
    @pytest.mark.parametrize("name", ["entities.tsv", "relations.tsv"])
    def test_train_rejects_malformed_id_maps(self, data_dir, tmp_path, caplog, name, case):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        message = write_malformed_id_map(data / name, case)
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run")] + TRAIN_FLAGS)
        assert rc == 1
        assert any(r.getMessage().startswith(message) for r in caplog.records)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_QUERY_FILES))
    def test_eval_rejects_records_that_miss_their_slots(self, run_dir, tmp_path,
                                                        caplog, case):
        path = tmp_path / "bad.jsonl"
        message = write_malformed_query_file(path, case)
        rc = main(["eval", "--ckpt", str(run_dir / "last.ckpt"), "--test", str(path)])
        assert rc == 1
        assert any(r.getMessage().startswith(message) for r in caplog.records)

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_eval_rejects_nonpositive_threads(self, run_dir, data_dir, caplog, threads):
        rc = main(["eval", "--ckpt", str(run_dir / "last.ckpt"),
                   "--test", str(data_dir / "test.jsonl"), "--threads", threads])
        assert rc == 1
        assert "threads must be a positive integer" in caplog.text

    def test_missing_checkpoint_fails_cleanly(self, data_dir):
        rc = main(["eval", "--ckpt", "/nonexistent.ckpt",
                   "--test", str(data_dir / "test.jsonl")])
        assert rc == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda meta, arrays: meta["config"].update(batch=64),
         "unknown training config key 'batch'"),
        (lambda meta, arrays: meta.pop("n_entities"),
         "checkpoint metadata has no 'n_entities' entry"),
        (lambda meta, arrays: arrays.pop("adam_v.entity_axis"),
         "parameter or Adam arrays do not match this model layout"),
    ], ids=["unknown-config-key", "missing-entry", "missing-array"])
    def test_malformed_checkpoint_fails_cleanly(self, run_dir, data_dir, tmp_path, capsys,
                                                caplog, edit, message):
        path = tmp_path / "bad.ckpt"
        rewrite_checkpoint(run_dir / "last.ckpt", path, edit)
        with pytest.raises(ValueError) as exc:
            load_checkpoint(str(path))
        assert str(exc.value) == f"{path}: {message}"
        rc = main(["eval", "--ckpt", str(path), "--test", str(data_dir / "test.jsonl")])
        assert rc == 1
        assert capsys.readouterr().out == ""
        assert [r.getMessage() for r in caplog.records] == [f"{path}: {message}"]


@pytest.fixture(scope="module")
def labels_file(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "labels.tsv"
    rc = main(["mine-patterns", "--triples", str(data_dir / "train_triples.tsv"),
               "--relation-map", str(data_dir / "relations.tsv"),
               "--out", str(out)])
    assert rc == 0
    return out


class TestPatternAndAxiomCommands:
    def test_labels_parse_and_cover_planted(self, labels_file):
        labels = read_labels_tsv(labels_file)
        kinds = {label.kind for label in labels}
        assert {"symmetry", "inverse", "composition"} <= kinds

    def test_mine_manifest_next_to_file(self, labels_file):
        sidecar = labels_file.with_name(labels_file.name + ".manifest.json")
        manifest = json.loads(sidecar.read_text())
        assert manifest["command"] == "mine-patterns"

    @pytest.mark.parametrize("case", sorted(MALFORMED_ID_MAPS))
    def test_mine_rejects_malformed_relation_map(self, data_dir, tmp_path, caplog, case):
        path = tmp_path / "relations.tsv"
        message = write_malformed_id_map(path, case)
        rc = main(["mine-patterns", "--triples", str(data_dir / "train_triples.tsv"),
                   "--relation-map", str(path), "--out", str(tmp_path / "labels.tsv")])
        assert rc == 1
        assert any(r.getMessage().startswith(message) for r in caplog.records)

    def test_extract_axioms_round_trip(self, run_dir, labels_file, tmp_path, capsys):
        out = tmp_path / "onto.txt"
        rc = main(["extract-axioms", "--ckpt", str(run_dir / "last.ckpt"),
                   "--out", str(out), "--tol", "0.15", "--frac", "0.8",
                   "--patterns", str(labels_file)])
        assert rc == 0
        stdout = capsys.readouterr().out
        names = ["colleague", "advises", "advisedBy", "worksAt", "locatedIn",
                 "worksIn", "manages", "related"]
        axioms = parse_ontology(out, names)
        assert all(a.tolerance == 0.15 for a in axioms)
        assert stdout.strip().splitlines()[0].startswith("#")

    def test_eval_with_labels_prints_subgroups(self, run_dir, data_dir,
                                               labels_file, capsys):
        rc = main(["eval", "--ckpt", str(run_dir / "last.ckpt"),
                   "--test", str(data_dir / "test.jsonl"),
                   "--labels", str(labels_file)])
        assert rc == 0
        assert "subgroup" in capsys.readouterr().out


class TestSmallCommands:
    def test_param_count_full_scale(self, capsys):
        rc = main(["param-count", "--entities", "36556", "--relations", "22",
                   "--d", "800"])
        assert rc == 0
        assert "36,325,601" in capsys.readouterr().out

    def test_param_count_from_checkpoint(self, run_dir, capsys):
        rc = main(["param-count", "--ckpt", str(run_dir / "last.ckpt")])
        assert rc == 0
        assert "total" in capsys.readouterr().out

    def test_param_count_needs_arguments(self):
        assert main(["param-count"]) == 1

    @pytest.mark.parametrize("sizes", [("-5", "2", "4"), ("10", "2", "0")])
    def test_param_count_rejects_non_positive_sizes(self, sizes, capsys, caplog):
        entities, relations, d = sizes
        rc = main(["param-count", "--entities", entities, "--relations", relations,
                   "--d", d])
        assert rc == 1
        assert capsys.readouterr().out == ""
        assert "n_entities, n_relations, d must be positive" in caplog.text

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_grad_check_rejects_no_samples(self, samples, capsys, caplog):
        rc = main(["grad-check", "--samples", samples, "--d", "4"])
        assert rc == 1
        assert capsys.readouterr().out == ""
        assert "at least one instance" in caplog.text

    def test_grad_check_small(self, capsys):
        rc = main(["grad-check", "--samples", "2", "--d", "4"])
        assert rc == 0
        assert "max relative gradient error" in capsys.readouterr().out

    def test_algebra_dump_canonicalizes(self, capsys):
        rc = main(["algebra", "--dump", "0:1.5;1.4:2.0"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "MC[(0.000000000,2.000000000)]"

    def test_multi_seed_table(self, data_dir, tmp_path, capsys):
        out = tmp_path / "spread.tsv"
        rc = main(["multi-seed", "--data", str(data_dir), "--n-seeds", "2",
                   "--out", str(out), "--profile", "toy", "--lr", "0.03",
                   "--steps", "10", "--seed", "0"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "AVG" in stdout
        rows = out.read_text().splitlines()
        assert rows[0] == "structure\tmean_mrr\tstd"
        assert any(line.startswith("AVG\t") for line in rows)


class TestParserBehavior:
    def test_help_for_every_subcommand(self, capsys):
        parser = build_parser()
        for name in ("gen-queries", "train", "eval", "mine-patterns",
                     "extract-axioms", "grad-check", "param-count",
                     "multi-seed", "algebra"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([name, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "d", "--out", "o", "--deterministic"],
        ["multi-seed", "--data", "d", "--deterministic"],
        ["eval", "--ckpt", "c", "--test", "t", "--deterministic"],
        ["mine-patterns", "--triples", "t", "--out", "o", "--threads", "2"],
    ])
    def test_removed_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ROTATION_MODES + ("spiral", "Additive", ""))
    def test_rotation_mode_accepted_exactly_where_listed(self, mode, capsys):
        accepted = []
        for build in (lambda: TrainingConfig(rotation_mode=mode),
                      lambda: ParameterStore(3, 1, 2, rotation_mode=mode),
                      lambda: build_parser().parse_args(
                          ["train", "--data", "d", "--out", "o", "--rotation-mode", mode])):
            try:
                build()
                accepted.append(True)
            except (ValueError, SystemExit):
                accepted.append(False)
        assert accepted == [mode in ROTATION_MODES] * 3

    def test_console_script_installed(self):
        # the child does not inherit pytest's pythonpath, so it gets src too
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "conequery.cli", "--version"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert "conequery" in proc.stdout
