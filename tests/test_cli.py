import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rulex import cli
from rulex.core import load_corpus, parse_rule, read_vocab_file
from rulex.em import EMConfig, inference_rulesets
from rulex.extractor import ExtractorWeights, ground_rule
from rulex.generator import RuleGenerator


TINY_CONFIG = {
    "synth": {
        "relations": 4,
        "planted_rules": ["r0 <- r1"],
        "docs": 16,
        "entities_per_doc": [4, 5],
        "base_facts_per_doc": [2, 4],
        "chains_per_rule": [1, 2],
        "p_flip": 0.05,
        "jitter": 0.05,
        "p_hide": 0.5,
        "neg_ratio": 2,
        "split": [0.5, 0.25, 0.25],
        "seed": 11,
    },
    "em": {
        "n_rules": 6,
        "iterations": 2,
        "seed": 11,
        "fit": {"lr": 0.8, "epochs": 10, "l2": 1e-4},
        "convergence_eps": 0.0,
        "inference_mode": "top",
        "beam": 24,
    },
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


def read_tree(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir()) if p.is_file()}


class TestSynth:
    def test_writes_expected_files(self, tmp_path, config_file):
        out = tmp_path / "corpus"
        assert cli.main(["synth", "--config", str(config_file), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"config.json", "vocab.txt", "rules.txt", "train.jsonl", "dev.jsonl", "test.jsonl"}

    def test_identical_bytes_across_runs(self, tmp_path, config_file):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["synth", "--config", str(config_file), "--out", str(a)])
        cli.main(["synth", "--config", str(config_file), "--out", str(b)])
        assert read_tree(a) == read_tree(b)

    def test_missing_parent_fails(self, tmp_path, config_file, capsys):
        rc = cli.main(["synth", "--config", str(config_file), "--out", str(tmp_path / "no" / "corpus")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_config_echo_reproduces_run(self, tmp_path, config_file, capsys):
        a = tmp_path / "a"
        cli.main(["synth", "--config", str(config_file), "--out", str(a)])
        echo = capsys.readouterr().out
        echo_file = tmp_path / "echo.json"
        echo_file.write_text(echo)
        b = tmp_path / "b"
        cli.main(["synth", "--config", str(echo_file), "--out", str(b)])
        assert read_tree(a) == read_tree(b)

    def test_unknown_config_key_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({"synth": {**TINY_CONFIG["synth"], "doc": 7}}))
        assert cli.main(["synth", "--config", str(config), "--out", str(tmp_path / "c")]) == 1
        assert "error: unknown config key 'doc'" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path, config_file, capsys):
        cli.main(["synth", "--config", str(config_file), "--out", str(tmp_path / "c"), "--seed", "99"])
        echo = json.loads(capsys.readouterr().out)
        assert echo["synth"]["seed"] == 99

    def test_locked_directory_fails(self, tmp_path, config_file, capsys):
        out = tmp_path / "corpus"
        out.mkdir()
        (out / ".lock").touch()
        assert cli.main(["synth", "--config", str(config_file), "--out", str(out)]) == 1
        assert "locked" in capsys.readouterr().err

    def test_lock_of_a_live_process_holds(self, tmp_path, config_file, capsys):
        out = tmp_path / "corpus"
        out.mkdir()
        (out / ".lock").write_text(f"{os.getpid()}\n")
        assert cli.main(["synth", "--config", str(config_file), "--out", str(out)]) == 1
        assert "locked" in capsys.readouterr().err

    def test_stale_lock_of_a_dead_process_is_reclaimed(self, tmp_path, config_file):
        finished = subprocess.Popen([sys.executable, "-c", "pass"])
        finished.wait()
        out = tmp_path / "corpus"
        out.mkdir()
        (out / ".lock").write_text(f"{finished.pid}\n")
        assert cli.main(["synth", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "train.jsonl").exists()
        assert not (out / ".lock").exists()

    def test_lock_names_its_owner_while_held(self, tmp_path, config_file, monkeypatch):
        out = tmp_path / "corpus"
        seen = []
        gen_corpus = cli.datagen.gen_corpus

        def spy(config):
            seen.append((out / ".lock").read_text())
            return gen_corpus(config)

        monkeypatch.setattr(cli.datagen, "gen_corpus", spy)
        assert cli.main(["synth", "--config", str(config_file), "--out", str(out)]) == 0
        assert seen == [f"{os.getpid()}\n"]
        assert not (out / ".lock").exists()


@pytest.fixture
def corpus_dir(tmp_path, config_file):
    out = tmp_path / "corpus"
    assert cli.main(["synth", "--config", str(config_file), "--out", str(out)]) == 0
    return out


class TestTrain:
    def test_run_dir_contract_and_diagnostics_rows(self, tmp_path, config_file, corpus_dir):
        run = tmp_path / "run"
        assert cli.main(["train", "--corpus", str(corpus_dir), "--config", str(config_file),
                         "--out", str(run)]) == 0
        assert {p.name for p in run.iterdir()} == {"config.json", "generator.json", "extractor.json",
                                                   "diagnostics.csv"}
        lines = (run / "diagnostics.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,l_g,l_r,train_f1"
        assert len(lines) == 1 + TINY_CONFIG["em"]["iterations"]

    def test_unknown_config_key_is_an_error(self, tmp_path, corpus_dir, capsys):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({"em": {**TINY_CONFIG["em"], "fit": {"learning_rate": 9}}}))
        rc = cli.main(["train", "--corpus", str(corpus_dir), "--config", str(config), "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "error: unknown config key 'fit.learning_rate'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_seeded_rerun_identical(self, tmp_path, config_file, corpus_dir):
        a, b = tmp_path / "run_a", tmp_path / "run_b"
        cli.main(["train", "--corpus", str(corpus_dir), "--config", str(config_file), "--out", str(a)])
        cli.main(["train", "--corpus", str(corpus_dir), "--config", str(config_file), "--out", str(b)])
        assert read_tree(a) == read_tree(b)

    def test_corrupt_corpus_line_names_the_line(self, tmp_path, config_file, corpus_dir, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "vocab.txt").write_bytes((corpus_dir / "vocab.txt").read_bytes())
        lines = (corpus_dir / "train.jsonl").read_text().splitlines()
        lines[1] = '{"oops": true}'
        (broken / "train.jsonl").write_text("\n".join(lines) + "\n")
        rc = cli.main(["train", "--corpus", str(broken), "--config", str(config_file),
                       "--out", str(tmp_path / "run")])
        assert rc == 1
        assert ":2:" in capsys.readouterr().err


@pytest.fixture
def run_dir(tmp_path, config_file, corpus_dir):
    run = tmp_path / "run"
    assert cli.main(["train", "--corpus", str(corpus_dir), "--config", str(config_file),
                     "--out", str(run)]) == 0
    return run


class TestInfer:
    def test_cold_checkpoint_yields_empty_positives(self, tmp_path, config_file, corpus_dir):
        # A freshly initialized generator with zero weights scores everything
        # at exactly 0, which predicts negative.
        cold = tmp_path / "cold_run"
        cold.mkdir()
        vocab = read_vocab_file(corpus_dir / "vocab.txt")
        RuleGenerator(vocab).save(cold / "generator.json")
        ExtractorWeights().save(cold / "extractor.json", vocab)
        (cold / "config.json").write_text(json.dumps({"em": TINY_CONFIG["em"]}))
        out = tmp_path / "cold_preds.jsonl"
        assert cli.main(["infer", "--run", str(cold), "--documents", str(corpus_dir / "test.jsonl"),
                         "--out", str(out)]) == 0
        for line in out.read_text().splitlines():
            assert json.loads(line)["triples"] == []

    def test_explanation_paths_validate_against_grounding(self, tmp_path, run_dir, corpus_dir):
        out = tmp_path / "preds.jsonl"
        assert cli.main(["infer", "--run", str(run_dir), "--documents", str(corpus_dir / "test.jsonl"),
                         "--out", str(out)]) == 0
        vocab = read_vocab_file(corpus_dir / "vocab.txt")
        corpus = load_corpus(corpus_dir / "test.jsonl", vocab)
        explained = 0
        for line in out.read_text().splitlines():
            record = json.loads(line)
            doc = corpus.docs[record["doc_id"]]
            for entry in record.get("explanations", []):
                h, _, t = entry["triple"]
                for item in entry["rules"]:
                    rule, _ = parse_rule(item["rule"], vocab)
                    grounded = ground_rule(doc, rule, h, t)
                    assert grounded.value == pytest.approx(item["grounding"])
                    assert list(grounded.best_path) == item["path"]
                    explained += 1
        assert explained > 0

    def test_inferences_from_one_run_may_overlap(self, tmp_path, run_dir, corpus_dir):
        # A live command holding the run directory does not stop inference,
        # which only reads it; two inferences give the same predictions.
        (run_dir / ".lock").write_text(f"{os.getpid()}\n")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert cli.main(["infer", "--run", str(run_dir), "--documents",
                             str(corpus_dir / "test.jsonl"), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (run_dir / ".lock").read_text() == f"{os.getpid()}\n"

    def test_rerun_identical(self, tmp_path, run_dir, corpus_dir):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert cli.main(["infer", "--run", str(run_dir), "--documents",
                             str(corpus_dir / "test.jsonl"), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


    def test_sample_mode_explains_the_sampled_rule_sets(self, tmp_path, config_file, corpus_dir):
        run = tmp_path / "run"
        assert cli.main(["train", "--corpus", str(corpus_dir), "--config", str(config_file),
                         "--inference-mode", "sample", "--out", str(run)]) == 0
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert cli.main(["infer", "--run", str(run), "--documents", str(corpus_dir / "test.jsonl"),
                             "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        config = EMConfig.from_json(json.loads((run / "config.json").read_text())["em"])
        assert config.inference_mode == "sample"
        model = RuleGenerator.load(run / "generator.json")
        vocab = model.vocab
        rulesets = inference_rulesets(model, vocab, config, np.random.default_rng(config.seed))
        corpus = load_corpus(corpus_dir / "test.jsonl", vocab)
        explained = 0
        for line in a.read_text().splitlines():
            record = json.loads(line)
            doc = corpus.docs[record["doc_id"]]
            for entry in record.get("explanations", []):
                h, r_name, t = entry["triple"]
                for item in entry["rules"]:
                    rule, _ = parse_rule(item["rule"], vocab)
                    assert rule in rulesets[vocab.id_of(r_name)].counts()
                    assert list(ground_rule(doc, rule, h, t).best_path) == item["path"]
                    explained += 1
        assert explained > 0

class TestEval:
    def test_self_eval_is_perfect(self, tmp_path, run_dir, corpus_dir, capsys):
        # Evaluate the gold facts against themselves through the file formats.
        vocab = read_vocab_file(corpus_dir / "vocab.txt")
        corpus = load_corpus(corpus_dir / "test.jsonl", vocab)
        from rulex.metrics import PredictionSet, write_predictions

        predictions = PredictionSet(
            {doc_id: {triple: 1.0 for triple in doc.gold_facts} for doc_id, doc in corpus.docs.items()}
        )
        preds_path = tmp_path / "gold_as_preds.jsonl"
        write_predictions(preds_path, predictions, vocab)
        report_path = tmp_path / "report.json"
        rc = cli.main(["eval", "--predictions", str(preds_path), "--gold", str(corpus_dir / "test.jsonl"),
                       "--vocab", str(corpus_dir / "vocab.txt"), "--eval-rules", str(corpus_dir / "rules.txt"),
                       "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["f1"]["f1"] == 1.0
        assert report["logic"]["score"] == 1.0 or report["logic"]["vacuous"]

    def test_missing_file_fails(self, tmp_path, corpus_dir, capsys):
        rc = cli.main(["eval", "--predictions", str(tmp_path / "nope.jsonl"),
                       "--gold", str(corpus_dir / "test.jsonl"),
                       "--vocab", str(corpus_dir / "vocab.txt")])
        assert rc == 1

    def test_unknown_relation_name_fails(self, tmp_path, corpus_dir, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"doc_id": "d00008", "triples": [[0, "ghost_relation", 1, 0.5]]}\n')
        rc = cli.main(["eval", "--predictions", str(bad), "--gold", str(corpus_dir / "test.jsonl"),
                       "--vocab", str(corpus_dir / "vocab.txt")])
        assert rc == 1
        assert "ghost_relation" in capsys.readouterr().err


class TestOracle:
    def test_all_oracles_pass_with_report_lines(self, capsys):
        assert cli.main(["oracle", "--scope", "all", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4
        assert "/" in out  # case counts

    def test_single_scope(self, capsys):
        assert cli.main(["oracle", "--scope", "grounding"]) == 0
        assert "[PASS] grounding" in capsys.readouterr().out
