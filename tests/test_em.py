import math

import numpy as np
import pytest

from rulex.core import Corpus, LabeledInstance, Rule, RuleSet, build_vocab, pad_bodies
from rulex.datagen import SynthConfig, gen_corpus
import rulex.em
from rulex.em import (
    Draws,
    EMConfig,
    GroundingCache,
    Posteriors,
    TrainingWeights,
    draw_all_rules,
    e_step,
    infer,
    inference_rulesets,
    log_sigmoid_taylor,
    m_step_extractor,
    m_step_generator,
    posterior_over_rules,
    predict_document,
    rule_score_H,
    run_em,
    _generator_log_likelihood,
    _softmax,
)
from rulex.extractor import (
    ExtractorWeights,
    FitConfig,
    _DesignMatrix,
    fit,
    fit_design,
    ground_body_value,
    ground_rule,
)
from rulex.generator import ENUM_LIMIT, RuleGenerator
from rulex.metrics import PredictionSet, f1, gold_by_doc
from rulex.oracles import enumerate_grounding

from conftest import make_doc, random_doc


def exact_log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


class TestConfig:
    def test_unknown_key_is_rejected_by_name(self):
        with pytest.raises(ValueError, match="'n_rule'"):
            EMConfig.from_json({"n_rule": 5})

    def test_unknown_fit_key_is_rejected_by_name(self):
        with pytest.raises(ValueError, match="learning_rate"):
            EMConfig.from_json({"fit": {"learning_rate": 9}})

    def test_json_round_trip(self):
        config = EMConfig(n_rules=7, fit=FitConfig(lr=0.3, epochs=2), beam=9)
        assert EMConfig.from_json(config.to_json()) == config


class TestTaylor:
    def test_exact_at_zero(self):
        assert abs(log_sigmoid_taylor(0.0) - exact_log_sigmoid(0.0)) <= 1e-15

    def test_quadratic_error_bound_on_unit_interval(self):
        xs = np.arange(-1.0, 1.0 + 1e-9, 1e-3)
        errors = np.abs(exact_log_sigmoid(xs) - np.array([log_sigmoid_taylor(x) for x in xs]))
        assert np.all(errors <= xs**2 / 8 + 1e-12)
        assert errors.max() <= 0.125

    def test_linear_term_antisymmetry(self, rng):
        for x in rng.normal(0, 2, size=20):
            total = log_sigmoid_taylor(x) + log_sigmoid_taylor(-x)
            assert total == pytest.approx(-2 * math.log(2), abs=1e-12)


class TestRuleScore:
    def setup_case(self, label):
        vocab = build_vocab(["a", "b"])
        model = RuleGenerator(vocab)
        doc = make_doc({(0, 1, 1): 0.8}, vocab.size, n_entities=2)
        rule = Rule(0, (1,))
        weights = ExtractorWeights()
        weights.bias[0] = 0.5
        weights.set_rule_weight(0, rule, 1.0)
        instance = LabeledInstance("d", 0, 0, 1, label)
        return instance, rule, model, weights, doc

    def test_positive_label_adds_extractor_term(self):
        instance, rule, model, weights, doc = self.setup_case(1)
        log_prior = model.log_prob(0, rule.body)
        # (1/2) * (0.5/50 + 1.0 * 0.8) = 0.405
        value = rule_score_H(instance, rule, model, weights, doc, n_rules=50)
        assert value == pytest.approx(log_prior + 0.405, abs=1e-12)

    def test_negative_label_flips_sign(self):
        instance, rule, model, weights, doc = self.setup_case(-1)
        log_prior = model.log_prob(0, rule.body)
        value = rule_score_H(instance, rule, model, weights, doc, n_rules=50)
        assert value == pytest.approx(log_prior - 0.405, abs=1e-12)

    def test_zero_weights_reduce_to_prior(self):
        instance, rule, model, _, doc = self.setup_case(1)
        value = rule_score_H(instance, rule, model, ExtractorWeights(), doc, n_rules=50)
        assert value == pytest.approx(model.log_prob(0, rule.body), abs=1e-12)

    def test_mismatched_head_rejected(self):
        instance, _, model, weights, doc = self.setup_case(1)
        with pytest.raises(ValueError):
            rule_score_H(instance, Rule(1, (0,)), model, weights, doc, n_rules=50)


class TestSoftmaxPosterior:
    def test_hand_computed_pair(self):
        weights = _softmax(np.array([0.0, math.log(3.0)]))
        assert weights[0] == pytest.approx(0.25, abs=1e-12)
        assert weights[1] == pytest.approx(0.75, abs=1e-12)

    def test_shift_invariance(self, rng):
        values = rng.normal(0, 3, size=12)
        base = _softmax(values)
        for shift in (-5.0, 0.0, 7.0):
            assert np.allclose(_softmax(values + shift), base, atol=1e-12)

    def test_uniform_when_equal(self):
        weights = _softmax(np.zeros(7))
        assert np.allclose(weights, 1 / 7, atol=1e-12)

    def test_full_space_posterior_matches_independent_softmax(self, rng):
        vocab = build_vocab(["a", "b"])
        model = RuleGenerator(vocab, max_len=2)
        doc = make_doc({(0, 1, 1): 0.6, (0, 2, 1): 0.3}, vocab.size, n_entities=2)
        relation = 0
        rules = [Rule(relation, body) for body, _ in
                 zip(*model.enumerate_rules(relation))]
        weights = ExtractorWeights()
        weights.bias[relation] = 0.4
        for rule in rules[::3]:
            weights.set_rule_weight(relation, rule, float(rng.normal()))
        instance = LabeledInstance("d", 0, relation, 1, 1)
        posterior = posterior_over_rules(instance, rules, model, weights, doc, n_rules=50)
        reference = [rule_score_H(instance, rule, model, weights, doc, 50) for rule in rules]
        peak = max(reference)
        exps = [math.exp(v - peak) for v in reference]
        z = math.fsum(exps)
        assert np.allclose(posterior.weights, np.array(exps) / z, atol=1e-12)
        assert posterior.weights.sum() == pytest.approx(1.0, abs=1e-9)


def row_slices(sizes):
    """The flat positions of each row of concatenated rows."""
    ends = np.cumsum(sizes).tolist()
    return [slice(start, end) for start, end in zip([0, *ends], ends)]


def one_instance(doc, instance):
    return Corpus({doc.doc_id: doc}, [instance])


def per_row_e_step(corpus, draws, model, weights, n_rules):
    """The E-step one instance at a time, with scalar lookups and the DP."""
    extractor = weights.to_extractor(model)
    h_rows, weight_rows = [], []
    for instance, row in zip(corpus.instances, row_slices(draws.sizes)):
        doc, relation = corpus.docs[instance.doc_id], instance.relation
        extract = np.zeros(row.stop - row.start)
        for j, i in enumerate(draws.support[row].tolist()):
            rule = model.rule_at(relation, i)
            w = extractor.get_rule_weight(relation, rule)
            if w != 0.0:
                extract[j] = w * ground_body_value(doc, rule.body, instance.head, instance.tail)
        h_values = draws.log_priors[row] + (instance.label / 2.0) * (extractor.get_bias(relation) / n_rules + extract)
        h_rows.append(h_values)
        weight_rows.append(_softmax(h_values))
    return np.concatenate(h_rows), np.concatenate(weight_rows)


class NoGather(GroundingCache):
    def ground(self, *args):
        raise AssertionError("grounded draws whose rules all weigh 0")


class TestEStep:
    def test_equal_quality_gives_uniform_weights(self, rng):
        # One relation pair, bodies of length 1 only: both rules equally
        # probable and unweighted, so the posterior is uniform once both
        # appear in the sample.
        vocab = build_vocab(["a"])
        model = RuleGenerator(vocab, max_len=1)
        doc = make_doc({}, vocab.size, n_entities=2)
        draws = draw_all_rules(model, [0], 64, rng)
        posteriors = e_step(one_instance(doc, LabeledInstance("d", 0, 0, 1, 1)), draws, model, TrainingWeights(),
                            64, GroundingCache())
        assert posteriors.sizes.tolist() == [2]
        assert np.allclose(posteriors.weights, 0.5, atol=1e-12)

    def test_multiplicities_sum_to_n(self, rng):
        vocab = build_vocab(["a", "b"])
        model = RuleGenerator(vocab)
        doc = make_doc({}, vocab.size, n_entities=2)
        draws = draw_all_rules(model, [1], 50, rng)
        posteriors = e_step(one_instance(doc, LabeledInstance("d", 0, 1, 1, 1)), draws, model, TrainingWeights(),
                            50, GroundingCache())
        assert int(draws.counts.sum()) == 50
        assert posteriors.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert posteriors.relations.tolist() == [1]
        assert np.array_equal(posteriors.indices, draws.support)

    def test_h_values_equal_rule_score_H_on_the_same_draws(self, rng):
        # e_step reads the training arrays and the draw's log-priors;
        # rule_score_H reads ExtractorWeights, log_prob and the DP.  The
        # log-priors come from different arithmetic, hence the tolerance.
        vocab = build_vocab(["a", "b"])
        model = RuleGenerator(vocab)
        doc = make_doc({(0, 1, 1): 0.9, (0, 2, 1): 0.5, (1, 1, 1): 0.7}, vocab.size, n_entities=2)
        bodies = [(1,), (1, 1), (2,), (3,)]  # (relation, body) order; (3,) stores an exact 0
        weights = TrainingWeights([0, 2], [0.75, -0.5], [0] * 4, model.rule_ids(bodies), [2.0, 0.25, -1.0, 0.0])
        reference = weights.to_extractor(model)
        draws = draw_all_rules(model, [0], 400, np.random.default_rng(2))
        for label in (1, -1):
            instance = LabeledInstance("d", 0, 0, 1, label)
            posteriors = e_step(one_instance(doc, instance), draws, model, weights, 400, GroundingCache())
            rules = [model.rule_at(0, i) for i in posteriors.indices.tolist()]
            assert {Rule(0, body) for body in bodies} < set(rules)
            want = [rule_score_H(instance, rule, model, reference, doc, 400) for rule in rules]
            assert np.allclose(posteriors.h_values, want, rtol=0.0, atol=1e-12)

    def test_batched_e_step_equals_a_per_row_reference_bit_for_bit(self):
        # Rows of many lengths above 8 (below 8 unique rules every sum order
        # agrees), several relations, both labels.  A third of the drawn keys
        # are stored, an eighth of those as exact zeros; the rest are drawn
        # but unstored.  The draws ground inside the E-step, or come with
        # their values; with every rule weight 0 they must not ground at all.
        result = tiny_synth(docs=12)
        train, vocab = result.splits["train"], result.vocab
        model = RuleGenerator(vocab)
        for relation in range(vocab.size):
            model.fit_weighted(relation, [(Rule(relation, (relation,)), 2.0)])
        relations = [instance.relation for instance in train.instances]
        assert len(set(relations)) > 2 and {instance.label for instance in train.instances} == {1, -1}
        draws = draw_all_rules(model, relations, 60, np.random.default_rng(8))
        assert draws.sizes.min() > 8 and len(np.unique(draws.sizes)) > 4
        size = len(model.body_table())
        codes = np.unique(np.repeat(relations, draws.sizes) * size + draws.support)[::3]
        rng = np.random.default_rng(9)
        w = np.where(np.arange(len(codes)) % 8 == 0, 0.0, rng.normal(size=len(codes)))
        bias_codes = -1 - np.unique(relations)
        weights = TrainingWeights.from_codes(np.concatenate([bias_codes, codes]),
                                             np.concatenate([rng.normal(size=len(bias_codes)), w]),
                                             model.body_table())
        cache = GroundingCache()
        grounded = draws._replace(values=rulex.em._ground_draws(cache, train, draws, model))
        assert np.any(grounded.values[np.isin(np.repeat(relations, draws.sizes) * size + draws.support,
                                              codes[w != 0.0])] > 0.0)
        zero_rules = TrainingWeights(weights.bias_rel, weights.bias_val, weights.rule_rel, weights.rule_id,
                                     np.zeros(len(weights.rule_val)))
        for given, trained, store in ((draws, weights, cache), (grounded, weights, NoGather()),
                                      (draws, zero_rules, NoGather()), (draws, TrainingWeights(), NoGather())):
            posteriors = e_step(train, given, model, trained, 60, store)
            h_values, posterior = per_row_e_step(train, given, model, trained, 60)
            assert np.array_equal(posteriors.h_values, h_values)
            assert np.array_equal(posteriors.weights, posterior)
            assert posteriors.relations.tolist() == relations
            assert np.array_equal(posteriors.sizes, draws.sizes)
            assert np.array_equal(posteriors.indices, draws.support)


class TestGroundingCache:
    def test_batched_gather_equals_dp_and_enumeration_exactly(self, rng):
        # Documents of 2..7 entities in one store exercise the padding; every
        # document also stores zero-confidence atoms, and every body length
        # is queried between the first and the last entity.
        num_relations = 5
        docs, entries = [], []
        for i in range(60):
            doc = random_doc(rng, num_relations, max_entities=7, density=0.3)
            atoms = dict(doc.atoms)
            for _ in range(3):
                h, t = (int(x) for x in rng.integers(0, doc.num_entities, size=2))
                atoms[(h, int(rng.integers(0, num_relations)), t)] = 0.0
            doc = make_doc(atoms, num_relations, n_entities=doc.num_entities, doc_id=f"d{i}")
            docs.append(doc)
            last = doc.num_entities - 1
            for length in (1, 2, 3):
                for _ in range(4):
                    body = tuple(int(r) for r in rng.integers(0, num_relations, size=length))
                    for h, t in ((0, last), (last, 0), (0, 0), (last, last)):
                        entries.append((doc, body, h, t))
        cache = GroundingCache()
        values = cache.ground(
            cache.rows([doc for doc, _, _, _ in entries]),
            pad_bodies([body for _, body, _, _ in entries], 3),
            np.array([h for _, _, h, _ in entries]),
            np.array([t for _, _, _, t in entries]),
        )
        assert len({doc.num_entities for doc in docs}) > 1
        assert any(value > 0.0 for value in values)
        for (doc, body, h, t), value in zip(entries, values):
            want, _ = enumerate_grounding(doc, Rule(0, body), h, t)
            assert value == want
            assert value == ground_body_value(doc, body, h, t)
            assert cache.value_body(doc, body, h, t) == want

    def test_documents_with_colliding_ids_keep_their_own_values(self):
        # Two corpora whose documents share doc_ids but not atoms, run through
        # one store, give what a fresh store gives each of them.
        corpora = [tiny_synth(seed=5), tiny_synth(seed=6)]
        assert set(corpora[0].splits["train"].docs) & set(corpora[1].splits["train"].docs)
        shared = GroundingCache()
        for result in corpora:
            train, vocab = result.splits["train"], result.vocab
            model = RuleGenerator(vocab)
            for relation in range(vocab.size):
                model.fit_weighted(relation, [(Rule(relation, (relation,)), 25.0)])
            runs = []
            for cache in (shared, GroundingCache()):
                m_result = m_step_extractor(train, model, TrainingWeights(), FitConfig(lr=1.0, epochs=10),
                                            np.random.default_rng(1), n_rules=8, mode="top", beam=32, cache=cache)
                weights = m_result.weights.to_extractor(model)
                config = EMConfig(n_rules=8, beam=32)
                predictions = [predict_document(doc, vocab, model, weights, config, cache=cache)
                               for doc in train.docs.values()]
                runs.append((dict(weights.rule_weight), predictions))
            assert runs[0] == runs[1]

    def test_sampled_m_step_past_enum_limit_equals_fit_on_the_same_draws(self):
        # Past ENUM_LIMIT the sampled M-step draws ancestrally and interns
        # the rules; it must equal ``fit`` on a batch of the same draws,
        # grounded by the DP, bit for bit.
        result = tiny_synth(relations=24, docs=8)
        train, vocab = result.splits["train"], result.vocab
        model = RuleGenerator(vocab)
        for relation in range(vocab.size):
            model.fit_weighted(relation, [(Rule(relation, (relation,)), 3.0)])
        assert model.enumerable_size() > ENUM_LIMIT
        config = FitConfig(lr=0.5, epochs=5)
        m_result = m_step_extractor(train, model, TrainingWeights(), config, np.random.default_rng(4), n_rules=6,
                                    mode="sample", beam=12)
        rng = np.random.default_rng(4)
        batch = []
        samples = m_result.samples
        for instance, row in zip(train.instances, row_slices(samples.sizes)):
            rules, counts, _ = model.sample_unique_rules(instance.relation, 6, rng)
            assert [rule.body for rule in rules] == [tuple(r for r in row if r >= 0)
                                                    for row in model.body_table()[samples.support[row]].tolist()]
            doc = train.docs[instance.doc_id]
            groundings = {rule: ground_body_value(doc, rule.body, instance.head, instance.tail) for rule in rules}
            expanded = [rule for rule, count in zip(rules, counts.tolist()) for _ in range(count)]
            batch.append((instance, RuleSet(expanded), groundings))
        reference = ExtractorWeights()
        fitted = fit(batch, reference, config)
        weights = m_result.weights.to_extractor(model)
        assert weights.rule_weight and weights.rule_weight == reference.rule_weight
        assert list(weights.rule_weight) == sorted(reference.rule_weight, key=lambda key: (key[0], key[1].body))
        assert weights.bias == reference.bias
        assert m_result.losses == fitted.losses

    def test_sparse_m_step_grounds_like_the_dp(self):
        # 24 base relations give 48 ids, past ENUM_LIMIT: the M-step grounds
        # interned rule ids through the store, as below the limit.
        result = tiny_synth(relations=24, docs=8)
        train, vocab = result.splits["train"], result.vocab
        model = RuleGenerator(vocab)
        assert model.enumerable_size() > ENUM_LIMIT
        config = FitConfig(lr=0.5, epochs=5)
        m_result = m_step_extractor(train, model, TrainingWeights(), config, np.random.default_rng(0), n_rules=6,
                                    mode="top", beam=12)
        weights = m_result.weights.to_extractor(model)
        batch = []
        for instance in train.instances:
            ruleset = model.top_rules(instance.relation, 6, 12)
            doc = train.docs[instance.doc_id]
            groundings = {rule: ground_body_value(doc, rule.body, instance.head, instance.tail)
                          for rule in ruleset.counts()}
            batch.append((instance, RuleSet(sorted(ruleset, key=lambda r: r.body)), groundings))
        reference = ExtractorWeights()
        fit(batch, reference, config)
        assert weights.rule_weight and weights.rule_weight == reference.rule_weight
        assert weights.bias == reference.bias


class TestMStepGenerator:
    def test_single_rule_posterior_increases_log_prob(self, rng):
        vocab = build_vocab(["a", "b"])
        model = RuleGenerator(vocab)
        doc = make_doc({}, vocab.size, n_entities=2)
        instance = LabeledInstance("d", 0, 0, 1, 1)
        rule = Rule(0, (1, 2))
        posterior = posterior_over_rules(instance, [rule], model, ExtractorWeights(), doc, 50)
        before = model.log_prob(0, rule.body)
        m_step_generator(posterior, model)
        assert model.log_prob(0, rule.body) > before

    def test_two_identical_posteriors_equal_one_with_doubled_weights(self, rng):
        vocab = build_vocab(["a", "b"])
        doc = make_doc({}, vocab.size, n_entities=2)
        instance = LabeledInstance("d", 0, 0, 1, 1)
        rules = [Rule(0, (1,)), Rule(0, (2, 3))]
        model_a = RuleGenerator(vocab)
        model_b = RuleGenerator(vocab)
        posterior = posterior_over_rules(instance, rules, model_a, ExtractorWeights(), doc, 50)
        m_step_generator(Posteriors(*(np.concatenate([field, field]) for field in posterior)), model_a)
        model_b.fit_weighted(0, [(rule, 2 * float(w)) for rule, w in zip(rules, posterior.weights)])
        for key in model_a.counts:
            assert np.allclose(model_a.counts[key], model_b.counts[key], atol=1e-12)

    def test_tiny_weights_perturb_distribution_by_tiny_amounts(self):
        vocab = build_vocab(["a", "b"])
        doc = make_doc({}, vocab.size, n_entities=2)
        instance = LabeledInstance("d", 0, 0, 1, 1)
        eps = 1e-6
        model = RuleGenerator(vocab)
        _, before = model.enumerate_rules(0)
        model.fit_weighted(0, [(Rule(0, (1,)), eps)])
        _, after = model.enumerate_rules(0)
        assert np.max(np.abs(after - before)) < 10 * eps

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            m_step_generator(Posteriors(*[np.zeros(0, dtype=np.intp)] * 5), RuleGenerator(build_vocab(["a"])))

    @pytest.mark.parametrize("relations", [4, 24])
    def test_refit_from_e_step_posteriors_equals_one_fit_per_head(self, relations):
        # 4 base relations draw enumeration indices; 24 are past ENUM_LIMIT
        # and intern ancestral draws.  Either way the posteriors carry rule
        # ids, and the counts equal fit_weighted on each head's summed
        # posterior weights, bit for bit.
        result = tiny_synth(relations=relations, docs=8)
        train, vocab = result.splits["train"], result.vocab
        model, reference = RuleGenerator(vocab), RuleGenerator(vocab)
        ids = model.rule_ids((relation,) for relation in range(vocab.size))
        weights = TrainingWeights(rule_rel=range(vocab.size), rule_id=ids, rule_val=[1.5] * vocab.size)
        draws = draw_all_rules(model, [inst.relation for inst in train.instances], 12, np.random.default_rng(5))
        posteriors = e_step(train, draws, model, weights, 12, GroundingCache())
        assert (model.enumerable_size() > ENUM_LIMIT) == (relations == 24)
        assert posteriors.indices.dtype == np.intp
        rows = [(relation, [model.rule_at(relation, i) for i in posteriors.indices[row].tolist()],
                 posteriors.weights[row])
                for relation, row in zip(posteriors.relations.tolist(), row_slices(posteriors.sizes))]
        table = model.body_table()
        assert [rule.body for _, rules, _ in rows for rule in rules] == [
            tuple(r for r in row if r >= 0) for row in table[posteriors.indices].tolist()]
        m_step_generator(posteriors, model)
        for head in sorted(set(posteriors.relations.tolist())):
            sums: dict[Rule, float] = {}
            for relation, rules, row_weights in rows:
                if relation == head:
                    for rule, weight in zip(rules, row_weights):
                        sums[rule] = sums.get(rule, 0.0) + float(weight)
            reference.fit_weighted(head, sorted(sums.items(), key=lambda kv: kv[0].body))
        assert list(model.counts) == list(reference.counts)
        for key, vec in reference.counts.items():
            assert np.array_equal(model.counts[key], vec)

    @pytest.mark.parametrize("relations", [4, 24])
    def test_batched_l_g_equals_one_log_prob_call_per_posterior(self, relations):
        result = tiny_synth(relations=relations, docs=8)
        train, vocab = result.splits["train"], result.vocab
        model = RuleGenerator(vocab)
        draws = draw_all_rules(model, [inst.relation for inst in train.instances], 40, np.random.default_rng(2))
        posteriors = e_step(train, draws, model, TrainingWeights(), 40, GroundingCache())
        m_step_generator(posteriors, model)
        rows = [(relation, posteriors.indices[row], posteriors.weights[row])
                for relation, row in zip(posteriors.relations.tolist(), row_slices(posteriors.sizes))]
        # Rows longer than 8 and of several lengths make several stacked
        # products that a pairwise sum would not match.
        assert len({len(ids) for _, ids, _ in rows}) > 1 and min(len(ids) for _, ids, _ in rows) > 8
        want = float(np.mean([40 * float(weights @ model.log_probs_by_index(relation, ids))
                              for relation, ids, weights in rows]))
        assert _generator_log_likelihood(posteriors, model, 40) == want
        if relations == 24:  # past the limit both equal the scalar log_prob
            assert want == float(np.mean([40 * float(weights @ np.array([model.log_prob(relation, body)
                                                                          for body in model.bodies_at(relation, ids)]))
                                          for relation, ids, weights in rows]))


def tiny_synth(seed=5, **overrides):
    params = dict(
        relations=4,
        planted_rules=["r0 <- r1"],
        docs=24,
        entities_per_doc=(4, 5),
        base_facts_per_doc=(2, 4),
        chains_per_rule=(1, 2),
        p_flip=0.0,
        jitter=0.0,
        p_hide=0.0,
        neg_ratio=2,
        split=(0.5, 0.25, 0.25),
        seed=seed,
    )
    params.update(overrides)
    return gen_corpus(SynthConfig(**params))


class TestMStepExtractor:
    def test_perfect_rules_on_clean_corpus_reach_full_training_f1(self, rng):
        # Noiseless corpus: every positive has a direct confidence-1 atom, so
        # the identity rule separates the data and training F1 hits 1.
        result = tiny_synth()
        train = result.splits["train"]
        model = RuleGenerator(result.vocab)
        for relation in range(result.vocab.size):
            model.fit_weighted(relation, [(Rule(relation, (relation,)), 25.0)])
        m_result = m_step_extractor(
            train, model, TrainingWeights(), FitConfig(lr=1.0, epochs=60), rng,
            n_rules=8, mode="top", beam=32,
        )
        assert m_result.train_f1 == pytest.approx(1.0)

    def test_zero_epochs_returns_weights_unchanged(self, rng):
        result = tiny_synth()
        train = result.splits["train"]
        model = RuleGenerator(result.vocab)
        weights = TrainingWeights([0], [0.125])
        m_result = m_step_extractor(train, model, weights, FitConfig(lr=1.0, epochs=0), rng,
                                    n_rules=4, mode="top", beam=16)
        assert m_result.weights.to_extractor(model).bias[0] == 0.125
        assert weights.bias_rel.tolist() == [0] and weights.bias_val.tolist() == [0.125]

    def test_deterministic_under_fixed_seed(self):
        result = tiny_synth()
        train = result.splits["train"]
        outputs = []
        for _ in range(2):
            model = RuleGenerator(result.vocab)
            m_result = m_step_extractor(train, model, TrainingWeights(), FitConfig(lr=0.5, epochs=5),
                                        np.random.default_rng(3), n_rules=8, mode="sample", beam=32)
            weights = m_result.weights.to_extractor(model)
            outputs.append((dict(weights.bias), dict(weights.rule_weight)))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("relations", [4, 24])
    def test_two_warm_sampled_steps_equal_two_fits_on_the_same_draws(self, relations, monkeypatch):
        # The second step starts from the first one's stored weights, exact
        # zeros included.  Each step must build the design that from_batch
        # builds on the same grounded draws, column for column (stored
        # biases by relation, stored rules in (relation, body) order, then
        # new keys by first appearance), and train the same weights bit for
        # bit.  24 base relations are past ENUM_LIMIT.
        result = tiny_synth(relations=relations, docs=8)
        train, vocab = result.splits["train"], result.vocab
        model = RuleGenerator(vocab)
        for relation in range(vocab.size):
            model.fit_weighted(relation, [(Rule(relation, (relation,)), 3.0)])
        assert (model.enumerable_size() > ENUM_LIMIT) == (relations == 24)
        designs = []
        monkeypatch.setattr(rulex.em, "fit_design",
                            lambda design, *args: designs.append(design) or fit_design(design, *args))
        config = FitConfig(lr=0.5, epochs=5)
        rng = np.random.default_rng(4)
        weights, reference = TrainingWeights(), ExtractorWeights()
        for step in range(2):
            m_result = m_step_extractor(train, model, weights, config, rng, n_rules=6, mode="sample", beam=12)
            batch = []
            samples = m_result.samples
            for instance, row in zip(train.instances, row_slices(samples.sizes)):
                rules = [model.rule_at(instance.relation, i) for i in samples.support[row].tolist()]
                expanded = [rule for rule, count in zip(rules, samples.counts[row].tolist()) for _ in range(count)]
                batch.append((instance, RuleSet(expanded), dict(zip(rules, samples.values[row].tolist()))))
            want = _DesignMatrix.from_batch(batch, reference)
            fitted = fit(batch, reference, config)
            got = designs[-1]
            assert len(got.keys) == len(want.keys) > len(weights.bias_val) + len(weights.rule_val)
            assert np.array_equal(got.rows, want.rows) and np.array_equal(got.cols, want.cols)
            assert np.array_equal(got.vals, want.vals)
            assert m_result.losses == fitted.losses
            weights = m_result.weights
            trained = weights.to_extractor(model)
            assert trained.bias == reference.bias
            assert trained.rule_weight == reference.rule_weight
            assert list(trained.rule_weight) == sorted(reference.rule_weight, key=lambda k: (k[0], k[1].body))
            if step == 0:
                assert np.any(weights.rule_val == 0.0) and np.any(weights.rule_val != 0.0)
        assert len(designs) == 2


class TestRunEm:
    def test_single_iteration_contract(self):
        result = tiny_synth()
        config = EMConfig(n_rules=8, iterations=1, seed=0, fit=FitConfig(lr=0.5, epochs=4),
                          convergence_eps=0.0, beam=32)
        out = run_em(result.splits["train"], result.vocab, config)
        assert len(out.diagnostics) == 1
        assert out.diagnostics[0].iteration == 1

    def test_diagnostics_per_completed_iteration(self):
        result = tiny_synth()
        config = EMConfig(n_rules=8, iterations=3, seed=0, fit=FitConfig(lr=0.5, epochs=4),
                          convergence_eps=0.0, beam=32)
        out = run_em(result.splits["train"], result.vocab, config)
        assert [d.iteration for d in out.diagnostics] == [1, 2, 3]

    def test_deterministic_diagnostics(self):
        result = tiny_synth()
        config = EMConfig(n_rules=8, iterations=2, seed=9, fit=FitConfig(lr=0.5, epochs=4),
                          convergence_eps=0.0, beam=32)
        a = run_em(result.splits["train"], result.vocab, config)
        b = run_em(result.splits["train"], result.vocab, config)
        for da, db in zip(a.diagnostics, b.diagnostics):
            assert (da.l_g, da.l_r, da.train_f1, da.extractor_losses) == (db.l_g, db.l_r, db.train_f1, db.extractor_losses)

    def test_beats_bias_only_baseline_on_dev(self):
        result = tiny_synth(seed=7, p_hide=0.5, p_flip=0.05, jitter=0.05)
        config = EMConfig(n_rules=16, iterations=4, seed=0, fit=FitConfig(lr=0.8, epochs=20),
                          convergence_eps=0.0, beam=64)
        out = run_em(result.splits["train"], result.vocab, config)
        dev = result.splits["dev"]
        predictions = PredictionSet()
        rulesets = inference_rulesets(out.model, result.vocab, config)
        for doc_id, doc in dev.docs.items():
            predictions.by_doc[doc_id] = predict_document(doc, result.vocab, out.model, out.weights,
                                                          config, rulesets=rulesets)
        engine = f1(predictions, gold_by_doc(dev.docs))
        # A bias-only extractor on sparse gold predicts nothing: F1 = 0.
        assert engine.f1 > 0.0

    def test_past_enum_limit_runs_deterministically(self):
        # 24 base relations give 48 ids: sampling is ancestral, rule ids are
        # interned, and log-priors come from the batched scorer.
        result = tiny_synth(relations=24, docs=3, split=(1.0, 0.0, 0.0))
        train, vocab = result.splits["train"], result.vocab
        assert RuleGenerator(vocab).enumerable_size() > ENUM_LIMIT
        config = EMConfig(n_rules=6, iterations=2, seed=3, fit=FitConfig(lr=0.5, epochs=4),
                          convergence_eps=0.0, beam=12)
        a, b = (run_em(train, vocab, config) for _ in range(2))
        assert a.weights.rule_weight and a.weights.rule_weight == b.weights.rule_weight
        assert a.weights.bias == b.weights.bias
        assert a.model.to_json() == b.model.to_json()
        rows = [[(d.l_g, d.l_r, d.train_f1, d.extractor_losses) for d in out.diagnostics] for out in (a, b)]
        assert len(rows[0]) == 2 and rows[0] == rows[1]
        assert all(math.isfinite(d.l_g) and math.isfinite(d.l_r) for d in a.diagnostics)

    def test_early_stop_still_calibrates_for_inference(self):
        # Training draws sampled rule sets; stopping early must still end
        # with the reset calibration against the top rules that inference
        # scores and explains.
        result = tiny_synth()
        train = result.splits["train"]
        config = EMConfig(n_rules=8, iterations=5, seed=0, fit=FitConfig(lr=0.5, epochs=4),
                          convergence_eps=1e9, beam=32)
        out = run_em(train, result.vocab, config)
        assert len(out.diagnostics) < config.iterations
        heads = {inst.relation for inst in train.instances}
        assert set(out.weights.bias) == heads
        assert {relation for relation, _ in out.weights.rule_weight} == heads
        for head in heads:
            stored = {rule for relation, rule in out.weights.rule_weight if relation == head}
            assert stored == set(out.model.top_rules(head, config.n_rules, config.beam).counts())

    def test_empty_corpus_rejected(self):
        result = tiny_synth()
        with pytest.raises(ValueError):
            run_em(Corpus(), result.vocab, EMConfig(iterations=1))

    def test_missing_document_rejected(self):
        result = tiny_synth()
        corpus = Corpus({}, [LabeledInstance("ghost", 0, 0, 1, 1)])
        with pytest.raises(ValueError, match="ghost"):
            run_em(corpus, result.vocab, EMConfig(iterations=1))


class TestInfer:
    def test_cold_models_predict_negative(self):
        vocab = build_vocab(["a", "b"])
        model = RuleGenerator(vocab)
        doc = make_doc({(0, 0, 1): 0.9}, vocab.size, n_entities=2)
        config = EMConfig(n_rules=8, beam=32)
        result = infer(doc, (0, 0, 1), model, ExtractorWeights(), config)
        assert result.label == -1
        assert result.probability == 0.5

    def test_zero_grounding_rules_filtered_from_contributions(self):
        vocab = build_vocab(["a", "b"])
        model = RuleGenerator(vocab)
        doc = make_doc({(0, 1, 1): 0.9}, vocab.size, n_entities=2)
        weights = ExtractorWeights()
        weights.set_rule_weight(0, Rule(0, (1,)), 2.0)
        weights.set_rule_weight(0, Rule(0, (2,)), 2.0)  # never grounds here
        config = EMConfig(n_rules=16, beam=64)
        result = infer(doc, (0, 0, 1), model, weights, config)
        assert all(c.grounding > 0 for c in result.contributions)
        bodies = [c.rule.body for c in result.contributions]
        assert (1,) in bodies and (2,) not in bodies

    def test_contributions_sorted_and_verified(self):
        vocab = build_vocab(["a", "b"])
        model = RuleGenerator(vocab)
        doc = make_doc({(0, 1, 1): 0.9, (0, 2, 1): 0.4}, vocab.size, n_entities=2)
        weights = ExtractorWeights()
        weights.set_rule_weight(0, Rule(0, (1,)), 1.0)
        weights.set_rule_weight(0, Rule(0, (2,)), 5.0)
        config = EMConfig(n_rules=16, beam=64)
        result = infer(doc, (0, 0, 1), model, weights, config)
        contributions = [c.contribution for c in result.contributions]
        assert contributions == sorted(contributions, reverse=True)
        for c in result.contributions:
            grounded = ground_rule(doc, c.rule, 0, 1)
            assert grounded.value == pytest.approx(c.grounding)
            assert grounded.best_path == c.best_path

    def test_top_mode_deterministic(self):
        vocab = build_vocab(["a", "b"])
        model = RuleGenerator(vocab)
        model.fit_weighted(0, [(Rule(0, (1,)), 4.0)])
        doc = make_doc({(0, 1, 1): 0.9}, vocab.size, n_entities=2)
        weights = ExtractorWeights()
        weights.set_rule_weight(0, Rule(0, (1,)), 1.5)
        config = EMConfig(n_rules=8, beam=32, inference_mode="top")
        a = infer(doc, (0, 0, 1), model, weights, config)
        b = infer(doc, (0, 0, 1), model, weights, config)
        assert a == b

    @pytest.mark.parametrize("mode", ["top", "sample"])
    def test_scores_as_predict_document_and_sums_to_the_logit(self, mode):
        result = tiny_synth(seed=7, p_hide=0.5, p_flip=0.05, jitter=0.05)
        config = EMConfig(n_rules=8, iterations=2, seed=0, fit=FitConfig(lr=0.8, epochs=10),
                          convergence_eps=0.0, beam=32, inference_mode=mode)
        out = run_em(result.splits["train"], result.vocab, config)
        rulesets = inference_rulesets(out.model, result.vocab, config)
        checked = 0
        for doc in result.splits["dev"].docs.values():
            predictions = predict_document(doc, result.vocab, out.model, out.weights, config)
            for query, probability in predictions.items():
                explained = infer(doc, query, out.model, out.weights, config)
                assert explained.label == 1 and explained.probability == probability
                order = list(rulesets[query[1]].counts())
                total = out.weights.get_bias(query[1])
                for c in sorted(explained.contributions, key=lambda c: order.index(c.rule)):
                    total += c.contribution
                assert total == explained.logit
                checked += 1
        assert checked > 0
