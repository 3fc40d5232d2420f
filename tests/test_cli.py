import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rulex
from rulex import cli
from rulex.core import load_corpus, parse_rule, read_vocab_file
from rulex.em import EMConfig, inference_rulesets
from rulex.extractor import ExtractorWeights, ground_rule
from rulex.generator import RuleGenerator

# The benchmark's output checks, read from perfbench/ without changing it.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402


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


# (command, override of its config section, the dotted key its error names)
MISTYPED = [
    ("train", {"n_rules": "5"}, "n_rules"),
    ("train", {"iterations": 2.5}, "iterations"),
    ("train", {"n_rules": True}, "n_rules"),
    ("train", {"fit": 5}, "fit"),
    ("train", {"fit": {"lr": "0.1"}}, "fit.lr"),
    ("synth", {"docs": "30"}, "docs"),
    ("synth", {"entities_per_doc": 5}, "entities_per_doc"),
]


def only_error_line(err):
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1
    return lines[0]


class TestConfigFile:
    @pytest.mark.parametrize(("command", "override", "key"), MISTYPED,
                             ids=[json.dumps(override) for _, override, _ in MISTYPED])
    def test_mistyped_value_fails_naming_its_key(self, tmp_path, request, capsys, command, override, key):
        section = "em" if command == "train" else "synth"
        config = tmp_path / "mistyped.json"
        config.write_text(json.dumps({**TINY_CONFIG, section: {**TINY_CONFIG[section], **override}}))
        args = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command == "train":
            args += ["--corpus", str(request.getfixturevalue("corpus_dir"))]
        capsys.readouterr()
        assert cli.main(args) == 1
        assert f"config key '{key}'" in only_error_line(capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["synth", "train"])
    @pytest.mark.parametrize("text", ["[1]", '{"synth": [1], "em": [1]}'])
    def test_config_that_is_not_an_object_is_an_error(self, tmp_path, capsys, command, text):
        config = tmp_path / "list.json"
        config.write_text(text)
        args = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command == "train":
            args += ["--corpus", str(tmp_path)]
        assert cli.main(args) == 1
        assert "list.json" in only_error_line(capsys.readouterr().err)


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

    def test_failed_iteration_is_one_error_line(self, tmp_path, corpus_dir, capsys):
        # A step this large makes the first descent diverge.
        config = tmp_path / "diverging.json"
        config.write_text(json.dumps({"em": {**TINY_CONFIG["em"], "fit": {**TINY_CONFIG["em"]["fit"], "lr": 1e300}}}))
        capsys.readouterr()
        rc = cli.main(["train", "--corpus", str(corpus_dir), "--config", str(config), "--out", str(tmp_path / "run")])
        assert rc == 1
        assert only_error_line(capsys.readouterr().err).startswith("error: EM iteration 1 failed")

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

    def test_tiny_positive_logit_with_probability_one_half_predicts_nothing(self, tmp_path, corpus_dir):
        # A logit of 1e-17 is positive, but its probability rounds to exactly
        # 0.5, outside the (0.5, 1] that a predicted triple must have.
        cold = tmp_path / "cold_run"
        cold.mkdir()
        vocab = read_vocab_file(corpus_dir / "vocab.txt")
        RuleGenerator(vocab).save(cold / "generator.json")
        weights = ExtractorWeights()
        weights.bias = {relation: 1e-17 for relation in range(vocab.size)}
        weights.save(cold / "extractor.json", vocab)
        (cold / "config.json").write_text(json.dumps({"em": TINY_CONFIG["em"]}))
        out = tmp_path / "cold_preds.jsonl"
        assert cli.main(["infer", "--run", str(cold), "--documents", str(corpus_dir / "test.jsonl"),
                         "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records and all(record["triples"] == [] for record in records)

    @pytest.mark.parametrize(("text", "named"), [("[]", "config.json"), ('{"em": []}', "config.json"),
                                                 ('{"em": {"n_rules": "5"}}', "'n_rules'")])
    def test_malformed_run_config_is_an_error(self, tmp_path, run_dir, corpus_dir, capsys, text, named):
        (run_dir / "config.json").write_text(text)
        rc = cli.main(["infer", "--run", str(run_dir), "--documents", str(corpus_dir / "test.jsonl"),
                       "--out", str(tmp_path / "preds.jsonl")])
        assert rc == 1
        assert named in only_error_line(capsys.readouterr().err)
        assert not (tmp_path / "preds.jsonl").exists()

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("[]", "not a JSON object"),
            ('{"rule_weight": {}}', "missing key 'bias'"),
            ('{"bias": {}, "rule_weight": []}', "'rule_weight' is not a JSON object"),
            ('{"bias": {"r0": NaN}, "rule_weight": {}}', "NaN is not a finite number"),
            ('{"bias": {"r0": "0.5"}, "rule_weight": {}}', '"0.5" is not a finite number'),
            ('{"bias": {}, "rule_weight": {"r0 <- r1": true}}', "true is not a finite number"),
        ],
    )
    def test_malformed_extractor_file_is_an_error(self, tmp_path, run_dir, corpus_dir, capsys, text, message):
        (run_dir / "extractor.json").write_text(text)
        rc = cli.main(["infer", "--run", str(run_dir), "--documents", str(corpus_dir / "test.jsonl"),
                       "--out", str(tmp_path / "preds.jsonl")])
        assert rc == 1
        error = only_error_line(capsys.readouterr().err)
        assert "extractor.json: " in error and message in error
        assert not (tmp_path / "preds.jsonl").exists()

    def test_malformed_generator_file_is_an_error(self, tmp_path, run_dir, corpus_dir, capsys):
        obj = json.loads((run_dir / "generator.json").read_text())
        values = np.frombuffer(base64.b64decode(obj["counts"]["values"]), dtype="<f8").copy()
        values[0] = np.nan
        obj["counts"]["values"] = base64.b64encode(values.tobytes()).decode()
        (run_dir / "generator.json").write_text(json.dumps(obj))
        rc = cli.main(["infer", "--run", str(run_dir), "--documents", str(corpus_dir / "test.jsonl"),
                       "--out", str(tmp_path / "preds.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "generator.json: counts.values" in err
        assert not (tmp_path / "preds.jsonl").exists()

    def test_output_meets_the_benchmark_contract(self, tmp_path, run_dir, corpus_dir):
        out = tmp_path / "preds.jsonl"
        assert cli.main(["infer", "--run", str(run_dir), "--documents", str(corpus_dir / "test.jsonl"),
                         "--out", str(out)]) == 0
        vocab = read_vocab_file(corpus_dir / "vocab.txt")
        corpus = load_corpus(corpus_dir / "test.jsonl", vocab)
        assert any(json.loads(line)["triples"] for line in out.read_text().splitlines())
        assert checks.check_predictions(out, corpus, vocab, rulex) == {}

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
