"""Shared end-to-end replica runner for the acceptance suite.

One replica = synthesize the benchmark corpus, train the engine on its train
split, predict the test split, and score engine vs the confidence-threshold
baseline.  Everything derives from a single replica seed, so replicas can run
in worker processes without coordination.

Each replica's quality counts are recorded for seeds 0-9 in
``fixtures/replica_quality.json``, which the acceptance suite compares with
the replicas it trains.  To record them again:

    PYTHONPATH=src:tests python tests/replica_support.py
"""

import json
import multiprocessing
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rulex.datagen import SynthConfig, gen_corpus
from rulex.em import EMConfig, explain_document, inference_rulesets, inference_terms, run_em
from rulex.extractor import FitConfig
from rulex.metrics import PredictionSet, f1, gold_by_doc, logic_score, threshold_predictions

QUALITY_FIXTURE = Path(__file__).parent / "fixtures" / "replica_quality.json"
QUALITY_SEEDS = range(10)
L_G_RTOL = 1e-9  # CI's numpy may round the last bits differently

BENCH_RELATIONS = 10
BENCH_PLANTED = ["r0 <- r1", "r3 <- r4", "r6 <- r7 & r8"]
BENCH_DOCS = 300  # 200 train / 50 dev / 50 test
BENCH_N_RULES = 50
BENCH_ITERATIONS = 10


def bench_synth_config(seed: int) -> SynthConfig:
    return SynthConfig(
        relations=BENCH_RELATIONS,
        planted_rules=list(BENCH_PLANTED),
        docs=BENCH_DOCS,
        entities_per_doc=(4, 6),
        base_facts_per_doc=(2, 4),
        chains_per_rule=(1, 2),
        p_flip=0.05,
        jitter=0.05,
        p_hide=0.5,
        neg_ratio=3,
        split=(2 / 3, 1 / 6, 1 / 6),
        seed=seed,
    )


def bench_em_config(seed: int) -> EMConfig:
    return EMConfig(
        n_rules=BENCH_N_RULES,
        iterations=BENCH_ITERATIONS,
        seed=seed,
        fit=FitConfig(lr=0.8, epochs=35, l2=1e-4),
        convergence_eps=0.0,
        inference_mode="top",
        train_ruleset_mode="sample",
        beam=200,
    )


@dataclass
class ReplicaResult:
    seed: int
    baseline_f1: float
    engine_f1: float
    baseline_logic: float
    engine_logic: float
    recovered: list  # the planted rules in the generator's top 5, as text
    l_g_by_iteration: list = field(default_factory=list)
    extractor_losses_by_iteration: list = field(default_factory=list)
    # The integers behind the scores, ``quality_counts`` of the engine and
    # of the baseline: {"engine": {...}, "baseline": {...}}.
    counts: dict = field(default_factory=dict)

    @property
    def recovered_rules(self) -> int:
        return len(self.recovered)

    @property
    def f1_gain_points(self) -> float:
        return 100.0 * (self.engine_f1 - self.baseline_f1)

    @property
    def logic_gain_points(self) -> float:
        return 100.0 * (self.engine_logic - self.baseline_logic)


def quality_counts(predictions: PredictionSet, gold, planted) -> dict:
    """True/false positives, false negatives, and the logic score's bindings and satisfied ones."""
    tp = fp = fn = 0
    for doc_id, facts in gold.items():
        preds = predictions.by_doc.get(doc_id, {})
        hits = sum(1 for triple in preds if triple in facts)
        tp, fp, fn = tp + hits, fp + len(preds) - hits, fn + len(facts) - hits
    logic = logic_score(predictions, planted)
    return {"tp": tp, "fp": fp, "fn": fn, "bindings": logic.bindings, "satisfied": logic.satisfied}


def run_replica(seed: int) -> ReplicaResult:
    synth = gen_corpus(bench_synth_config(seed))
    train, test = synth.splits["train"], synth.splits["test"]

    baseline = threshold_predictions(test.docs)
    gold = gold_by_doc(test.docs)
    baseline_f1 = f1(baseline, gold).f1
    baseline_logic = logic_score(baseline, synth.planted).score

    config = bench_em_config(seed)
    trained = run_em(train, synth.vocab, config)

    # The scoring terms are built once, as ``rulex infer`` builds them;
    # ``predict_document`` would rebuild them for every document.
    predictions = PredictionSet()
    terms = inference_terms(inference_rulesets(trained.model, synth.vocab, config), trained.weights, synth.vocab)
    for doc_id, doc in test.docs.items():
        results = explain_document(doc, terms, top=0)
        predictions.by_doc[doc_id] = {query: result.probability for query, result in results.items()}
    engine_f1 = f1(predictions, gold).f1
    engine_logic = logic_score(predictions, synth.planted).score

    recovered = []
    for rule, text in zip(synth.planted, BENCH_PLANTED):
        top5 = {r.body for r in trained.model.top_rules(rule.head, 5, config.beam)}
        if rule.body in top5:
            recovered.append(text)

    return ReplicaResult(
        seed=seed,
        baseline_f1=baseline_f1,
        engine_f1=engine_f1,
        baseline_logic=baseline_logic,
        engine_logic=engine_logic,
        recovered=recovered,
        l_g_by_iteration=[d.l_g for d in trained.diagnostics],
        extractor_losses_by_iteration=[list(d.extractor_losses) for d in trained.diagnostics],
        counts={
            "engine": quality_counts(predictions, gold, synth.planted),
            "baseline": quality_counts(baseline, gold, synth.planted),
        },
    )


def quality_record(result: ReplicaResult) -> dict:
    """What ``fixtures/replica_quality.json`` holds for one replica."""
    return {"counts": result.counts, "recovered": result.recovered, "l_g": result.l_g_by_iteration}


def _quality_row(record: dict) -> str:
    engine, baseline = (record["counts"][side] for side in ("engine", "baseline"))
    cells = " ".join(f"{c['tp']:4d} {c['fp']:4d} {c['fn']:4d} {c['bindings']:4d} {c['satisfied']:4d}" for c in (engine, baseline))
    return f"{cells}  {len(record['recovered'])}  " + " ".join(f"{x:.15g}" for x in record["l_g"])


def quality_mismatches(recorded: dict, results: dict) -> tuple[list[int], str]:
    """The seeds whose replica differs from its record, and the per-seed table, recorded against now.

    Integers compare exactly and ``l_g`` to a relative ``L_G_RTOL``.
    """
    seeds = []
    lines = ["seed       engine tp fp fn bindings satisfied, baseline the same, recovered, l_g by iteration"]
    for seed in QUALITY_SEEDS:
        want, got = recorded["seeds"][str(seed)], quality_record(results[seed])
        same_l_g = len(want["l_g"]) == len(got["l_g"]) and np.allclose(got["l_g"], want["l_g"], rtol=L_G_RTOL, atol=0)
        if want["counts"] != got["counts"] or want["recovered"] != got["recovered"] or not same_l_g:
            seeds.append(seed)
        mark = "*" if seeds and seeds[-1] == seed else " "
        lines += [f"{seed:2d}{mark} recorded {_quality_row(want)}", f"    now      {_quality_row(got)}"]
    return seeds, "\n".join(lines)


def record_quality(path: Path = QUALITY_FIXTURE) -> None:
    """Train the replicas of ``QUALITY_SEEDS`` in two worker processes and write their records to ``path``."""
    with multiprocessing.get_context("fork").Pool(processes=2) as pool:
        results = pool.map(run_replica, QUALITY_SEEDS)
    recorded = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seeds": {str(result.seed): quality_record(result) for result in results},
    }
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record_quality()
