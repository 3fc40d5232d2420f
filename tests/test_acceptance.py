"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The end-to-end criteria
share one benchmark replica per seed (synthesize, train, predict, score); the
extra seeds run in two worker processes to keep wall time reasonable.
"""

import itertools
import json
import multiprocessing
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from rulex import cli
from rulex.em import log_sigmoid_taylor
from rulex.oracles import gradient_oracle, grounding_oracle, normalization_oracle, posterior_oracle

from replica_support import QUALITY_FIXTURE, quality_mismatches, run_replica

FIXTURES = Path(__file__).parent / "fixtures" / "metrics"
N_SEEDS = 10


@contextmanager
def verdict(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"[criterion {number:2d}] PASS  {description}")


@pytest.fixture(scope="module")
def main_replica():
    start = time.monotonic()
    result = run_replica(0)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def replica_grid(main_replica):
    results = {0: main_replica[0]}
    with multiprocessing.get_context("fork").Pool(processes=2) as pool:
        for result in pool.map(run_replica, range(1, N_SEEDS)):
            results[result.seed] = result
    return results


def test_criterion_1_taylor_expansion_error_bound():
    with verdict(1, "log-sigmoid linearization within x^2/8 on [-1, 1]"):
        start = time.monotonic()
        xs = np.arange(-1.0, 1.0 + 1e-9, 1e-3)
        exact = -np.logaddexp(0.0, -xs)
        approx = np.array([log_sigmoid_taylor(float(x)) for x in xs])
        errors = np.abs(exact - approx)
        assert np.all(errors <= xs**2 / 8 + 1e-12)
        assert abs(log_sigmoid_taylor(0.0) - float(-np.logaddexp(0.0, 0.0))) <= 1e-15
        assert time.monotonic() - start < 1.0


def test_criterion_2_grounding_matches_exhaustive_enumeration():
    with verdict(2, "max-product DP equals path enumeration on 1000 random documents"):
        start = time.monotonic()
        report = grounding_oracle(cases=1000, seed=2024, max_entities=6)
        assert report.failures == 0, report.notes[:5]
        assert report.cases == 1000
        assert time.monotonic() - start < 5.0


def test_criterion_3_posterior_equals_independent_softmax():
    with verdict(3, "full-space posterior equals independent softmax, shift-invariant"):
        start = time.monotonic()
        report = posterior_oracle(seed=2024)
        assert report.failures == 0, report.notes[:5]
        assert time.monotonic() - start < 5.0


def test_criterion_4_generator_normalization():
    with verdict(4, "rule probabilities sum to 1 before and after refits"):
        start = time.monotonic()
        report = normalization_oracle(seed=2024, num_base=3, max_len=3)
        assert report.failures == 0, report.notes[:5]
        assert time.monotonic() - start < 5.0


def test_criterion_5_gradient_matches_finite_differences():
    with verdict(5, "analytic gradients match central differences on 100 cases"):
        start = time.monotonic()
        report = gradient_oracle(cases=100, seed=2024)
        assert report.failures == 0, report.notes[:5]
        assert time.monotonic() - start < 10.0


def test_criterion_6_end_to_end_gain(main_replica):
    with verdict(6, "trained engine beats the threshold baseline by >= 5 F1 and logic points"):
        result, elapsed = main_replica
        assert result.f1_gain_points >= 5.0, (result.engine_f1, result.baseline_f1)
        assert result.logic_gain_points >= 5.0, (result.engine_logic, result.baseline_logic)
        assert elapsed < 180.0


def test_criterion_7_rule_recovery_across_seeds(replica_grid):
    with verdict(7, "planted rules in generator top-5 (>= 2/3 rules) for >= 8/10 seeds"):
        passing = sum(1 for result in replica_grid.values() if result.recovered_rules >= 2)
        summary = {seed: result.recovered_rules for seed, result in sorted(replica_grid.items())}
        assert len(replica_grid) == N_SEEDS
        assert passing >= 8, summary


def test_replicas_learn_what_they_learned_when_recorded(replica_grid):
    """Criterion 7's replicas against ``fixtures/replica_quality.json``, without training again."""
    seeds, table = quality_mismatches(json.loads(QUALITY_FIXTURE.read_text(encoding="utf-8")), replica_grid)
    assert not seeds, f"seeds {seeds} differ from {QUALITY_FIXTURE.name}:\n{table}"


def test_criterion_8_em_diagnostics(main_replica):
    with verdict(8, "generator objective non-decreasing by iteration 3; every descent monotone"):
        result, _ = main_replica
        assert len(result.l_g_by_iteration) >= 3
        assert result.l_g_by_iteration[2] >= result.l_g_by_iteration[0] - 1e-6
        for losses in result.extractor_losses_by_iteration:
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestCriterion9MetricsFixtures:
    def run_eval(self, tmp_path, preds, gold, vocab, train_facts=None, rules=None):
        report = tmp_path / "report.json"
        argv = ["eval", "--predictions", str(FIXTURES / preds), "--gold", str(FIXTURES / gold),
                "--vocab", str(FIXTURES / vocab), "--out", str(report)]
        if train_facts:
            argv += ["--train-facts", str(FIXTURES / train_facts)]
        if rules:
            argv += ["--eval-rules", str(FIXTURES / rules)]
        assert cli.main(argv) == 0
        return json.loads(report.read_text())

    def test_criterion_9_fixture_metrics(self, tmp_path):
        with verdict(9, "hand-counted F1=4/7, logic=2/3, and filtered ign-F1 fixtures reproduce"):
            start = time.monotonic()
            report = self.run_eval(tmp_path, "f1_predictions.jsonl", "f1_gold.jsonl", "f1_vocab.txt")
            assert report["f1"]["precision"] == pytest.approx(2 / 3, abs=1e-12)
            assert report["f1"]["recall"] == pytest.approx(1 / 2, abs=1e-12)
            assert report["f1"]["f1"] == pytest.approx(4 / 7, abs=1e-12)

            report = self.run_eval(tmp_path, "logic_predictions.jsonl", "logic_gold.jsonl",
                                   "logic_vocab.txt", rules="logic_rules.txt")
            assert report["logic"]["bindings"] == 3
            assert report["logic"]["satisfied"] == 2
            assert report["logic"]["score"] == pytest.approx(2 / 3, abs=1e-12)
            assert report["f1"]["f1"] == 1.0

            report = self.run_eval(tmp_path, "ign_predictions.jsonl", "ign_gold.jsonl",
                                   "ign_vocab.txt", train_facts="ign_train.jsonl")
            assert report["f1"]["f1"] == 1.0
            assert report["ign_f1"]["precision"] == 1.0
            assert report["ign_f1"]["recall"] == 1.0
            assert report["ign_f1"]["f1"] == 1.0
            assert time.monotonic() - start < 1.0


DET_CONFIG = {
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
        "seed": 17,
    },
    "em": {
        "n_rules": 8,
        "iterations": 2,
        "seed": 17,
        "fit": {"lr": 0.8, "epochs": 10, "l2": 1e-4},
        "convergence_eps": 0.0,
        "inference_mode": "top",
        "beam": 32,
    },
}


def test_criterion_10_pipeline_determinism(tmp_path):
    with verdict(10, "synth + train + infer byte-identical across two seeded runs"):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(DET_CONFIG))
        trees = []
        for run in ("one", "two"):
            root = tmp_path / run
            root.mkdir()
            corpus = root / "corpus"
            run_dir = root / "run"
            preds = root / "predictions.jsonl"
            assert cli.main(["synth", "--config", str(config_path), "--out", str(corpus)]) == 0
            assert cli.main(["train", "--corpus", str(corpus), "--config", str(config_path),
                             "--out", str(run_dir)]) == 0
            assert cli.main(["infer", "--run", str(run_dir), "--documents", str(corpus / "test.jsonl"),
                             "--out", str(preds)]) == 0
            tree = {}
            for path in sorted(itertools.chain(corpus.iterdir(), run_dir.iterdir(), [preds])):
                if path.is_file():
                    tree[str(path.relative_to(root))] = path.read_bytes()
            trees.append(tree)
        assert trees[0].keys() == trees[1].keys()
        for name in trees[0]:
            assert trees[0][name] == trees[1][name], f"file differs between runs: {name}"
