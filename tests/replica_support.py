"""Shared end-to-end replica runner for the acceptance suite.

One replica = synthesize the benchmark corpus, train the engine on its train
split, predict the test split, and score engine vs the confidence-threshold
baseline.  Everything derives from a single replica seed, so replicas can run
in worker processes without coordination.
"""

from dataclasses import dataclass, field

from rulex.datagen import SynthConfig, gen_corpus
from rulex.em import EMConfig, explain_document, inference_rulesets, inference_terms, run_em
from rulex.extractor import FitConfig
from rulex.metrics import PredictionSet, f1, gold_by_doc, logic_score, threshold_predictions

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
    recovered_rules: int
    l_g_by_iteration: list = field(default_factory=list)
    extractor_losses_by_iteration: list = field(default_factory=list)

    @property
    def f1_gain_points(self) -> float:
        return 100.0 * (self.engine_f1 - self.baseline_f1)

    @property
    def logic_gain_points(self) -> float:
        return 100.0 * (self.engine_logic - self.baseline_logic)


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

    recovered = 0
    for rule in synth.planted:
        top5 = {r.body for r in trained.model.top_rules(rule.head, 5, config.beam)}
        if rule.body in top5:
            recovered += 1

    return ReplicaResult(
        seed=seed,
        baseline_f1=baseline_f1,
        engine_f1=engine_f1,
        baseline_logic=baseline_logic,
        engine_logic=engine_logic,
        recovered_rules=recovered,
        l_g_by_iteration=[d.l_g for d in trained.diagnostics],
        extractor_losses_by_iteration=[list(d.extractor_losses) for d in trained.diagnostics],
    )
