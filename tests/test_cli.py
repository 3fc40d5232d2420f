import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rulex
from rulex import cli
from rulex.core import load_corpus, parse_rule, read_vocab_file
from rulex.em import EMConfig, inference_rulesets, predict_document
from rulex.extractor import ExtractorWeights
from rulex.generator import RuleGenerator
from rulex.metrics import read_predictions

# The benchmark's output checks, read from perfbench/ without changing it.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
from test_extractor import enumerate_best_path  # noqa: E402


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


# (command, a config value of the wrong JSON type or out of bounds, the text its error must hold)
BAD_VALUES = [
    ("train", {"n_rules": "5"}, "config key 'n_rules'"),
    ("train", {"iterations": 2.5}, "config key 'iterations'"),
    ("train", {"n_rules": True}, "config key 'n_rules'"),
    ("train", {"fit": 5}, "config key 'fit'"),
    ("train", {"fit": {"lr": "0.1"}}, "config key 'fit.lr'"),
    ("synth", {"docs": "30"}, "config key 'docs'"),
    ("synth", {"entities_per_doc": 5}, "config key 'entities_per_doc'"),
    ("train", {"max_rule_len": 0}, "max_rule_len must be >= 1"),
    ("train", {"seed": -1}, "seed must be >= 0"),
    ("train", {"convergence_eps": -1.0}, "convergence_eps must be >= 0"),
    ("train", {"fit": {"lr": 0.0}}, "fit.lr must be > 0, got 0.0"),
    ("train", {"fit": {"epochs": -1}}, "fit.epochs must be >= 0, got -1"),
    ("train", {"fit": {"l2": -1.0}}, "fit.l2 must be >= 0, got -1.0"),
    ("synth", {"seed": -1}, "seed must be >= 0"),
    ("synth", {"max_rule_len": 0}, "max_rule_len must be >= 1"),
]


def only_error_line(err):
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1
    return lines[0]


class TestConfigFile:
    @pytest.mark.parametrize(("command", "override", "message"), BAD_VALUES,
                             ids=[f"{command}-{json.dumps(override)}" for command, override, _ in BAD_VALUES])
    def test_bad_value_fails_naming_its_key(self, tmp_path, request, capsys, command, override, message):
        section = "em" if command == "train" else "synth"
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({**TINY_CONFIG, section: {**TINY_CONFIG[section], **override}}))
        args = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command == "train":
            args += ["--corpus", str(request.getfixturevalue("corpus_dir"))]
        capsys.readouterr()
        assert cli.main(args) == 1
        assert message in only_error_line(capsys.readouterr().err)
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
                                                   "diagnostics.csv", "vocab.txt", "rules.txt"}
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
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["train", "--corpus", str(corpus_dir), "--config", str(config), "--out", str(tmp_path / "run")])
        assert rc == 1
        assert only_error_line(capsys.readouterr().err).startswith("error: EM iteration 1 failed")
        assert [str(w.message) for w in caught] == []  # step halving handles the overflow on purpose

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


def write_cold_run(run, vocab, weights):
    """A run directory of an untrained generator and the given weights, its files written as train writes them."""
    model = RuleGenerator(vocab)
    config = EMConfig.from_json(TINY_CONFIG["em"])
    model.save(run / "generator.json")
    weights.save(run / "extractor.json", vocab)
    (run / "config.json").write_text(json.dumps({"em": config.to_json()}))
    cli.write_run_rules(run, inference_rulesets(model, vocab, config, np.random.default_rng(config.seed)),
                        weights, vocab)


def rules_text_with(run, edit):
    """Rewrite the run's rules.txt through ``edit(lines) -> lines``."""
    lines = (run / "rules.txt").read_text(encoding="utf-8").splitlines()
    (run / "rules.txt").write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")


def one_ulp_off(line):
    """A rules.txt line whose bracketed weight is the next float above the written one."""
    at = line.rindex("[")
    return line[:at] + f"[{float(np.nextafter(float(line[at + 1 : -1]), np.inf))!r}]"


# (how a run directory is broken, the text its error line must hold)
BROKEN_RUNS = [
    (lambda run: (run / "rules.txt").unlink(), "rules.txt"),
    (lambda run: (run / "vocab.txt").unlink(), "vocab.txt"),
    (lambda run: rules_text_with(run, lambda lines: [lines[0], "r0 r1 [0.0]", *lines[1:]]),
     "rules.txt:2: missing '<-'"),
    (lambda run: rules_text_with(run, lambda lines: [*lines[:2], "r0 <- ghost [0.0]", *lines[2:]]),
     "rules.txt:3: unknown relation name: 'ghost'"),
    (lambda run: rules_text_with(run, lambda lines: [*lines, "r1 <- r0 & r0 & r0 & r0 [0.0]"]),
     "rules.txt:49: rule body length 4 outside [1, 3]"),
    (lambda run: rules_text_with(run, lambda lines: [line for line in lines if not line.startswith("r2 <-")]),
     "rules.txt: no rules for head relation 'r2'"),
    (lambda run: rules_text_with(run, lambda lines: [one_ulp_off(lines[0]), *lines[1:]]),
     "rules.txt:1: weight"),
    (lambda run: (run / "vocab.txt").write_text("r0\nr1\nr0\nr2\nr3\n", encoding="utf-8"),
     "vocab.txt:3: duplicate relation name: 'r0'"),
    (lambda run: (run / "vocab.txt").write_text("r0\nr1\nr2\nr3\n#self\n", encoding="utf-8"),
     "vocab.txt:5: relation name ''"),
    (lambda run: (run / "vocab.txt").write_text("r0\nr1\nx <- y\nr2\nr3\n", encoding="utf-8"),
     "vocab.txt:3: relation name 'x <- y'"),
]


class TestInfer:
    def test_cold_checkpoint_yields_empty_positives(self, tmp_path, config_file, corpus_dir):
        # A freshly initialized generator with zero weights scores everything
        # at exactly 0, which predicts negative.
        cold = tmp_path / "cold_run"
        cold.mkdir()
        vocab = read_vocab_file(corpus_dir / "vocab.txt")
        write_cold_run(cold, vocab, ExtractorWeights())
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
        weights = ExtractorWeights()
        weights.bias = {relation: 1e-17 for relation in range(vocab.size)}
        write_cold_run(cold, vocab, weights)
        out = tmp_path / "cold_preds.jsonl"
        assert cli.main(["infer", "--run", str(cold), "--documents", str(corpus_dir / "test.jsonl"),
                         "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records and all(record["triples"] == [] for record in records)

    @pytest.mark.parametrize(("text", "named"), [("[]", "config.json"), ('{"em": []}', "config.json"),
                                                 ('{"em": {"n_rules": "5"}}', "'n_rules'"),
                                                 ('{"em": {"n_rules": 8, "n_rules": 9}}',
                                                  'config.json: repeated key "n_rules"')])
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
            pytest.param(json.dumps({"bias": {"r0": 10**400}, "rule_weight": {}}), "is not a finite number",
                         id="huge-integer"),
            ('{"bias": {}, "rule_weight": {"r0 <- r1": 0.5, "r0 <-  r1": 0.25}}',
             "rule_weight keys 'r0 <- r1' and 'r0 <-  r1' name one rule"),
            ('{"bias": {"r0": 0.123, "r0": -1.0}, "rule_weight": {}}', 'repeated key "r0" in a JSON object'),
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

    @pytest.mark.parametrize(("broken", "named"), BROKEN_RUNS, ids=[named for _, named in BROKEN_RUNS])
    def test_malformed_rules_file_is_an_error(self, tmp_path, run_dir, corpus_dir, capsys, broken, named):
        broken(run_dir)
        capsys.readouterr()
        rc = cli.main(["infer", "--run", str(run_dir), "--documents", str(corpus_dir / "test.jsonl"),
                       "--out", str(tmp_path / "preds.jsonl")])
        assert rc == 1
        assert named in only_error_line(capsys.readouterr().err)
        assert not (tmp_path / "preds.jsonl").exists()

    def test_document_without_entities_gets_an_empty_record(self, tmp_path, run_dir, corpus_dir):
        first, second = (corpus_dir / "test.jsonl").read_text().splitlines()[:2]
        empty = json.dumps({"doc_id": "empty", "entities": [], "atoms": [], "facts": []})
        records = {}
        for name, lines in (("with", [first, empty, second]), ("without", [first, second])):
            docs, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}_preds.jsonl"
            docs.write_text("".join(line + "\n" for line in lines))
            assert cli.main(["infer", "--run", str(run_dir), "--documents", str(docs), "--out", str(out)]) == 0
            records[name] = out.read_text().splitlines()
        assert json.loads(records["with"][1]) == {"doc_id": "empty", "explanations": [], "triples": []}
        assert records["with"][::2] == records["without"]

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
                    value, path = enumerate_best_path(doc, rule, h, t)
                    assert value == item["grounding"]
                    assert list(path) == item["path"]
                    explained += 1
        assert explained > 0

    def test_witness_paths_do_not_depend_on_atom_order(self, tmp_path):
        # All confidences are equal, so 0-1-3 and 0-2-3 tie for "p <- q & q",
        # and 0-1-3-4 and 0-2-3-4 tie at the middle step for "p <- q & q & q".
        # Each tie breaks to the smallest entity id, whichever order the
        # document lists its atoms in.
        run = tmp_path / "run"
        run.mkdir()
        (run / "config.json").write_text(json.dumps({"em": {"n_rules": 3, "beam": 6}}))
        (run / "vocab.txt").write_text("p#self\nq#self\n")
        (run / "extractor.json").write_text(json.dumps(
            {"bias": {"p": 0.0, "q": 0.0}, "rule_weight": {"p <- q & q": 1.0, "p <- q & q & q": 1.0}}))
        (run / "rules.txt").write_text("p <- q & q [1.0]\np <- q & q & q [1.0]\nq <- p [0.0]\n")
        atoms = [[0, "q", 1, 0.5], [1, "q", 3, 0.5], [0, "q", 2, 0.5], [2, "q", 3, 0.5], [3, "q", 4, 0.5]]
        outputs = []
        for order in (atoms, atoms[::-1]):
            docs = tmp_path / "docs.jsonl"
            docs.write_text(json.dumps({"doc_id": "tie", "entities": [f"e{i}" for i in range(5)],
                                        "atoms": order, "facts": []}) + "\n")
            out = tmp_path / f"preds{len(outputs)}.jsonl"
            assert cli.main(["infer", "--run", str(run), "--documents", str(docs), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        (record,) = [json.loads(line) for line in outputs[0].decode().splitlines()]
        paths = {(tuple(entry["triple"]), item["rule"]): item["path"]
                 for entry in record["explanations"] for item in entry["rules"]}
        assert paths[(0, "p", 3), "p <- q & q"] == [0, 1, 3]
        assert paths[(0, "p", 4), "p <- q & q & q"] == [0, 1, 3, 4]

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
                    assert list(enumerate_best_path(doc, rule, h, t)[1]) == item["path"]
                    explained += 1
        assert explained > 0


class TestRunRules:
    """``train`` writes the inference rule sets to rules.txt, and ``infer`` scores with them alone."""

    def trained(self, tmp_path, config_file, corpus_dir, mode):
        run = tmp_path / f"run_{mode}"
        assert cli.main(["train", "--corpus", str(corpus_dir), "--config", str(config_file),
                         "--inference-mode", mode, "--out", str(run)]) == 0
        return run

    @pytest.mark.parametrize("mode", ["top", "sample"])
    def test_infer_without_the_generator_predicts_what_the_generator_does(self, tmp_path, config_file,
                                                                          corpus_dir, mode):
        run = self.trained(tmp_path, config_file, corpus_dir, mode)
        model = RuleGenerator.load(run / "generator.json")
        vocab = model.vocab
        weights = ExtractorWeights.load(run / "extractor.json", vocab)
        config = EMConfig.from_json(json.loads((run / "config.json").read_text())["em"])
        outs = [tmp_path / "with.jsonl", tmp_path / "without.jsonl"]
        assert cli.main(["infer", "--run", str(run), "--documents", str(corpus_dir / "test.jsonl"),
                         "--out", str(outs[0])]) == 0
        (run / "generator.json").unlink()
        assert cli.main(["infer", "--run", str(run), "--documents", str(corpus_dir / "test.jsonl"),
                         "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        corpus = load_corpus(corpus_dir / "test.jsonl", vocab)
        expected = {doc_id: predict_document(doc, vocab, model, weights, config) for doc_id, doc in corpus.docs.items()}
        assert read_predictions(outs[1], vocab).by_doc == expected
        assert any(expected.values())

    @pytest.mark.parametrize("mode", ["top", "sample"])
    def test_rules_file_reads_back_as_the_generators_rule_sets(self, tmp_path, config_file, corpus_dir, mode):
        run = self.trained(tmp_path, config_file, corpus_dir, mode)
        model = RuleGenerator.load(run / "generator.json")
        assert read_vocab_file(run / "vocab.txt") == model.vocab
        config = EMConfig.from_json(json.loads((run / "config.json").read_text())["em"])
        weights = ExtractorWeights.load(run / "extractor.json", model.vocab)
        expected = inference_rulesets(model, model.vocab, config, np.random.default_rng(config.seed))
        got = cli.read_run_rules(run / "rules.txt", weights, model.vocab, config.max_rule_len)
        assert list(got) == list(expected) == list(range(model.vocab.size))
        for head, ruleset in expected.items():
            assert got[head].rules == ruleset.rules
            assert got[head].counts() == ruleset.counts()
        lines = (run / "rules.txt").read_text(encoding="utf-8").splitlines()
        assert len(lines) == model.vocab.size * config.n_rules
        assert [parse_rule(line, model.vocab)[1] for line in lines] == [
            weights.get_rule_weight(head, rule) for head, ruleset in expected.items() for rule in ruleset
        ]

    def test_rules_file_is_an_eval_rules_file(self, tmp_path, run_dir, corpus_dir, capsys):
        preds = tmp_path / "preds.jsonl"
        assert cli.main(["infer", "--run", str(run_dir), "--documents", str(corpus_dir / "test.jsonl"),
                         "--out", str(preds)]) == 0
        report = tmp_path / "report.json"
        assert cli.main(["eval", "--predictions", str(preds), "--gold", str(corpus_dir / "test.jsonl"),
                         "--vocab", str(run_dir / "vocab.txt"), "--eval-rules", str(run_dir / "rules.txt"),
                         "--out", str(report)]) == 0
        assert "logic" in json.loads(report.read_text())


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

    def eval_error(self, tmp_path, corpus_dir, capsys, records):
        """The one error line of ``rulex eval`` on a predictions file of ``records``, which must fail."""
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(json.dumps(record) + "\n" for record in records))
        rc = cli.main(["eval", "--predictions", str(preds), "--gold", str(corpus_dir / "test.jsonl"),
                       "--vocab", str(corpus_dir / "vocab.txt"), "--train-facts", str(corpus_dir / "train.jsonl")])
        assert rc == 1
        return only_error_line(capsys.readouterr().err)

    @staticmethod
    def first_test_doc(corpus_dir):
        return json.loads((corpus_dir / "test.jsonl").read_text().splitlines()[0])["doc_id"]

    @pytest.mark.parametrize(("triple", "message"), [
        ([0, "r0", 1, "0.5"], "probability must be a number in [0, 1]"),
        ([0, "r0", 1, True], "probability must be a number in [0, 1]"),
        ([0, "r0", 1, 1.5], "probability must be a number in [0, 1]"),
        ([0, "r0", 1, 10**400], "probability must be a number in [0, 1]"),
        (["x", "r0", 1, 0.5], "entity ids must be integers >= 0"),
        ([0, "r0", -1, 0.5], "entity ids must be integers >= 0"),
    ], ids=["string-probability", "true-probability", "probability-above-1", "huge-integer-probability",
            "string-entity", "negative-entity"])
    def test_malformed_triple_names_its_line(self, tmp_path, corpus_dir, capsys, triple, message):
        record = {"doc_id": self.first_test_doc(corpus_dir), "triples": [[0, "r1", 1, 0.5], triple]}
        line = self.eval_error(tmp_path, corpus_dir, capsys, [record])
        assert "preds.jsonl:1:" in line and message in line

    def test_entity_outside_the_gold_document_names_it(self, tmp_path, corpus_dir, capsys):
        doc_id = self.first_test_doc(corpus_dir)
        line = self.eval_error(tmp_path, corpus_dir, capsys, [{"doc_id": doc_id, "triples": [[99, "r0", 0, 0.5]]}])
        assert f"doc {doc_id!r}" in line and "entity id out of range" in line

    def test_repeated_doc_id_names_its_line(self, tmp_path, corpus_dir, capsys):
        doc_id = self.first_test_doc(corpus_dir)
        records = [{"doc_id": doc_id, "triples": [[0, "r0", 1, 0.9]]}, {"doc_id": doc_id, "triples": []}]
        line = self.eval_error(tmp_path, corpus_dir, capsys, records)
        assert "preds.jsonl:2:" in line and "duplicate doc_id" in line


    def test_vocab_that_is_not_utf8_names_its_file_and_line(self, tmp_path, corpus_dir, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_bytes((corpus_dir / "vocab.txt").read_bytes() + b"r\xff\n")
        preds = tmp_path / "preds.jsonl"
        preds.write_text("")
        rc = cli.main(["eval", "--predictions", str(preds), "--gold", str(corpus_dir / "test.jsonl"),
                       "--vocab", str(vocab)])
        assert rc == 1
        lines = len((corpus_dir / "vocab.txt").read_bytes().splitlines())
        line = only_error_line(capsys.readouterr().err)
        assert line.startswith(f"error: {vocab}:{lines + 1}: ") and "can't decode byte 0xff" in line

    def test_repeated_key_in_a_record_names_its_line(self, tmp_path, corpus_dir, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"doc_id": self.first_test_doc(corpus_dir), "triples": []})[:-1]
                         + ', "triples": [[0, "r0", 1, 0.9]]}\n')
        rc = cli.main(["eval", "--predictions", str(preds), "--gold", str(corpus_dir / "test.jsonl"),
                       "--vocab", str(corpus_dir / "vocab.txt")])
        assert rc == 1
        line = only_error_line(capsys.readouterr().err)
        assert "preds.jsonl:1:" in line and 'repeated key "triples"' in line

    def test_doc_id_the_gold_lacks_names_both_files(self, tmp_path, corpus_dir, capsys):
        line = self.eval_error(tmp_path, corpus_dir, capsys, [{"doc_id": "not-a-gold-doc", "triples": []}])
        assert line == (f"error: {tmp_path / 'preds.jsonl'}: doc 'not-a-gold-doc' is not a document of the gold file "
                        f"{corpus_dir / 'test.jsonl'}")

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e400"])
    def test_eval_rule_weight_that_is_not_finite_names_its_line(self, tmp_path, corpus_dir, capsys, weight):
        preds, rules = tmp_path / "preds.jsonl", tmp_path / "rules.txt"
        preds.write_text("")
        rules.write_text(f"r0 <- r1 [0.5]\nr0 <- r1 [{weight}]\n")
        rc = cli.main(["eval", "--predictions", str(preds), "--gold", str(corpus_dir / "test.jsonl"),
                       "--vocab", str(corpus_dir / "vocab.txt"), "--eval-rules", str(rules)])
        assert rc == 1
        assert only_error_line(capsys.readouterr().err) == f"error: {rules}:2: rule weight '{weight}' is not finite"

    @pytest.mark.parametrize("doc_id", [5, ["a"], None], ids=["number", "list", "null"])
    def test_doc_id_that_is_not_a_string_names_its_line(self, tmp_path, corpus_dir, capsys, doc_id):
        line = self.eval_error(tmp_path, corpus_dir, capsys, [{"doc_id": doc_id, "triples": []}])
        assert "preds.jsonl:1:" in line and "doc_id must be a string" in line


# (a bad field of a document record, the text its error line must hold)
BAD_DOCUMENTS = [
    ({"doc_id": ["a"]}, "doc_id must be a string, got list"),
    ({"doc_id": 5}, "doc_id must be a string, got int"),
    ({"entities": "xyz"}, "entities must be a list of strings, got str"),
    ({"entities": ["x", 7, "y"]}, "entities must be a list of strings, got int at index 1"),
    ({"doc_id": "first"}, "duplicate doc_id 'first'"),
]
BAD_DOCUMENT_IDS = ["list-doc_id", "number-doc_id", "string-entities", "number-entity", "repeated-doc_id"]


class TestDocumentRecords:
    """A bad document record stops ``eval --gold`` and ``infer --documents`` with one error naming its line."""

    @staticmethod
    def documents(tmp_path, corpus_dir, fields):
        """A copy of the corpus' first test document as ``first``, then one record with ``fields`` changed."""
        record = {**json.loads((corpus_dir / "test.jsonl").read_text().splitlines()[0]), "doc_id": "first"}
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps({**record, "doc_id": "second", **fields}) + "\n")
        return path

    @pytest.mark.parametrize(("fields", "message"), BAD_DOCUMENTS, ids=BAD_DOCUMENT_IDS)
    def test_eval_gold(self, tmp_path, corpus_dir, capsys, fields, message):
        preds = tmp_path / "preds.jsonl"
        preds.write_text("")
        rc = cli.main(["eval", "--predictions", str(preds), "--gold", str(self.documents(tmp_path, corpus_dir, fields)),
                       "--vocab", str(corpus_dir / "vocab.txt")])
        assert rc == 1
        line = only_error_line(capsys.readouterr().err)
        assert "docs.jsonl:2:" in line and message in line

    @pytest.mark.parametrize(("fields", "message"), BAD_DOCUMENTS, ids=BAD_DOCUMENT_IDS)
    def test_infer_documents(self, tmp_path, run_dir, corpus_dir, capsys, fields, message):
        capsys.readouterr()
        rc = cli.main(["infer", "--run", str(run_dir), "--documents", str(self.documents(tmp_path, corpus_dir, fields)),
                       "--out", str(tmp_path / "preds.jsonl")])
        assert rc == 1
        line = only_error_line(capsys.readouterr().err)
        assert "docs.jsonl:2:" in line and message in line
        assert not (tmp_path / "preds.jsonl").exists()


    def test_repeated_key_names_its_line(self, tmp_path, run_dir, corpus_dir, capsys):
        path = self.documents(tmp_path, corpus_dir, {})
        first, second = path.read_text().splitlines()
        path.write_text(first + "\n" + '{"doc_id": "third", ' + second[1:] + "\n")
        capsys.readouterr()
        rc = cli.main(["infer", "--run", str(run_dir), "--documents", str(path), "--out", str(tmp_path / "preds.jsonl")])
        assert rc == 1
        line = only_error_line(capsys.readouterr().err)
        assert "docs.jsonl:2:" in line and 'repeated key "doc_id"' in line
        assert not (tmp_path / "preds.jsonl").exists()


class TestOracle:
    def test_all_oracles_pass_with_report_lines(self, capsys):
        assert cli.main(["oracle", "--scope", "all", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4
        assert "/" in out  # case counts

    def test_single_scope(self, capsys):
        assert cli.main(["oracle", "--scope", "grounding"]) == 0
        assert "[PASS] grounding" in capsys.readouterr().out
