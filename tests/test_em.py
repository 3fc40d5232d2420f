import math
import re
import tracemalloc

import numpy as np
import pytest

from rulex.core import (CodeIndex, Corpus, LabeledInstance, Rule, RuleSet, build_vocab, close_inverses, distinct,
                        format_rule, pad_bodies)
from rulex.datagen import SynthConfig, gen_corpus
import rulex.core
import rulex.em
import rulex.extractor
from rulex.em import (
    Draws,
    EMConfig,
    GroundingCache,
    InferenceResult,
    Posteriors,
    RuleContribution,
    TrainingWeights,
    all_pairs_stack,
    draw_all_rules,
    e_step,
    explain,
    explain_document,
    infer,
    inference_rulesets,
    inference_terms,
    log_sigmoid_taylor,
    m_step_extractor,
    m_step_generator,
    posterior_over_rules,
    predict_document,
    rule_score_H,
    run_em,
    _softmax,
)
from rulex.extractor import (
    ExtractorWeights,
    FitConfig,
    _DesignMatrix,
    fit,
    fit_design,
    ground_body_value,
    ground_rule_all_pairs,
    prob,
)
from rulex.generator import ENUM_LIMIT, RuleGenerator
from rulex.metrics import PredictionSet, f1, gold_by_doc
from rulex.oracles import enumerate_grounding

from conftest import dense_counts, enumeration, make_doc, random_doc
from test_extractor import enumerate_best_path


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
        rules = [Rule(relation, body) for body in enumeration(model, relation)[0]]
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
        codes = [-1, -3, *(model.rule_ids(bodies) * vocab.size).tolist()]  # biases of 0 and 2, rules of 0
        weights = TrainingWeights(codes, [0.75, -0.5, 2.0, 0.25, -1.0, 0.0])
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
        drawn = np.repeat(relations, draws.sizes) + draws.support * vocab.size
        pairs = np.unique(np.column_stack([np.repeat(relations, draws.sizes), draws.support]), axis=0)[::3]
        codes = pairs[:, 0] + pairs[:, 1] * vocab.size  # a third of the drawn keys, by (relation, id)
        rng = np.random.default_rng(9)
        w = np.where(np.arange(len(codes)) % 8 == 0, 0.0, rng.normal(size=len(codes)))
        bias_codes = -1 - np.unique(relations)
        weights = TrainingWeights.from_design(np.concatenate([bias_codes, codes]),
                                              np.concatenate([rng.normal(size=len(bias_codes)), w]), model)
        cache = GroundingCache()
        grounded = draws._replace(values=rulex.em._ground_draws(cache, train, draws, model))
        assert np.any(grounded.values[np.isin(drawn, codes[w != 0.0])] > 0.0)
        zero_rules = TrainingWeights(weights.codes, np.where(weights.codes < 0, weights.values, 0.0))
        for given, trained, store in ((draws, weights, cache), (grounded, weights, NoGather()),
                                      (draws, zero_rules, NoGather()), (draws, TrainingWeights(), NoGather())):
            posteriors = e_step(train, given, model, trained, 60, store)
            h_values, posterior = per_row_e_step(train, given, model, trained, 60)
            assert np.array_equal(posteriors.h_values, h_values)
            assert np.array_equal(posteriors.weights, posterior)
            assert posteriors.relations.tolist() == relations
            assert np.array_equal(posteriors.sizes, draws.sizes)
            assert np.array_equal(posteriors.indices, draws.support)


def stored_codes(rng, count, span):
    """``count`` distinct weight-key codes: the biases of 3 relations, then rule codes in [0, span)."""
    return np.concatenate([[-1, -2, -3], rng.choice(span, count, replace=False)]).astype(np.intp)


# DENSE_SPAN values that send every lookup of ``core.CodeIndex`` and
# ``core.distinct`` to the sorted side, or to the table side.
SIDES = (0, 10**9)


class TestTrainingWeightsFind:
    @pytest.mark.parametrize("span,dense", [(3_000, True), (1_000_000, False)])
    def test_table_and_binary_search_agree_bit_for_bit(self, rng, span, dense, monkeypatch):
        codes = stored_codes(rng, 1_000, span)
        weights = TrainingWeights(rng.permutation(codes), rng.normal(size=len(codes)))
        keys = np.concatenate([
            rng.choice(codes, 500),  # stored
            rng.integers(-3, span, 500),  # mostly absent inside the span
            [-50, -4, span, span + 7, 2**40, -(2**40)],  # below and above the span
        ]).astype(np.intp)
        positions = weights.find(keys)
        assert (weights._index._table is not None) == dense and (weights._index._order is None) == dense
        found = positions >= 0
        assert np.array_equal(found, np.isin(keys, codes))
        assert np.array_equal(weights.codes[positions[found]], keys[found])
        assert np.all(positions[~found] == -1)
        for part in (keys, keys[:0], keys[-6:]):  # all keys, no keys, keys outside the span only
            sides = []
            for dense_span in SIDES:
                monkeypatch.setattr(rulex.core, "DENSE_SPAN", dense_span)
                index = CodeIndex(weights.codes, len(part))
                assert (index._table is not None) == (dense_span > 0)
                sides.append(index.find(part))
            assert np.array_equal(sides[0], sides[1]) and sides[0].dtype == sides[1].dtype == np.intp
            assert np.array_equal(sides[0], weights.find(part))

    def test_no_stored_codes_finds_nothing(self, rng, monkeypatch):
        keys = rng.integers(-5, 100, 40).astype(np.intp)
        for dense_span in SIDES:
            monkeypatch.setattr(rulex.core, "DENSE_SPAN", dense_span)
            weights = TrainingWeights()
            assert np.array_equal(weights.find(keys), np.full(len(keys), -1)) and weights.find(keys).dtype == np.intp
            assert TrainingWeights().find(keys[:0]).shape == (0,)

    @pytest.mark.parametrize("span", [50, 100, 10_000_000])
    def test_distinct_equals_np_unique(self, rng, span, monkeypatch):
        # Codes with repeats: a dense span numbers them through a table, a
        # sparse one through np.unique; either side may be forced.
        for count in (0, 1, 200):
            codes = rng.integers(-20, span, count).astype(np.intp)
            codes = np.concatenate([codes, codes[::3]])
            want = np.unique(codes, return_inverse=True)
            for dense_span in (*SIDES, 8):
                monkeypatch.setattr(rulex.core, "DENSE_SPAN", dense_span)
                got = distinct(codes)
                assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want))
                assert np.array_equal(got[0][got[1]], codes)


class TestGroundingCache:
    def test_batched_gather_equals_dp_and_enumeration_exactly(self, rng):
        # Documents of 2..7 entities in one store span several blocks; every
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

    def test_store_does_not_pad_to_the_largest_document(self, rng):
        # Twenty 4-entity documents and one of 200 entities, 20 relation ids.
        # Padded to the largest, the store would take 21 * 20 * 200**2 * 8
        # bytes (134 MB); by entity count it holds the documents' atoms once,
        # as much as their own arrays take.
        num_relations = 20
        docs, entries = [], []
        for i, (n, k) in enumerate([(4, 40)] * 20 + [(200, 20_000)]):
            cells = zip(*(rng.integers(0, size, k).tolist() for size in (n, num_relations, n)), rng.random(k).tolist())
            doc = make_doc({(h, r, t): c for h, r, t, c in cells}, num_relations, n_entities=n, doc_id=f"d{i}")
            docs.append(doc)
            for _ in range(30):
                body = tuple(rng.integers(0, num_relations, size=int(rng.integers(1, 4))).tolist())
                entries.append((doc, body, *rng.integers(0, n, size=2).tolist()))
        own = sum(doc.atom_array().nbytes for doc in docs)
        cache = GroundingCache()
        tracemalloc.start()
        try:
            values = cache.ground(
                cache.rows([doc for doc, _, _, _ in entries]),
                pad_bodies([body for _, body, _, _ in entries], 3),
                np.array([h for _, _, h, _ in entries]),
                np.array([t for _, _, _, t in entries]),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * own
        assert np.any(values[-30:] > 0.0)
        for (doc, body, h, t), value in zip(entries, values.tolist()):
            assert value == enumerate_grounding(doc, Rule(0, body), h, t)[0]

    @pytest.mark.parametrize("cells", [16, 1 << 18])
    def test_gather_equals_enumeration_in_any_chunk_size(self, rng, monkeypatch, cells):
        # A small GATHER_CELLS splits every length into several chunks.
        monkeypatch.setattr(rulex.extractor, "GATHER_CELLS", cells)
        entries = []
        for _ in range(10):
            doc = random_doc(rng, num_relations=5, max_entities=8, density=0.4)
            for length in (1, 2, 3):
                for _ in range(6):
                    body = tuple(rng.integers(0, 5, size=length).tolist())
                    entries.append((doc, body, *rng.integers(0, doc.num_entities, size=2).tolist()))
        cache = GroundingCache()
        values = cache.ground(
            cache.rows([doc for doc, _, _, _ in entries]),
            pad_bodies([body for _, body, _, _ in entries], 3),
            np.array([h for _, _, h, _ in entries]),
            np.array([t for _, _, _, t in entries]),
        )
        assert np.any(values > 0.0)
        for (doc, body, h, t), value in zip(entries, values.tolist()):
            assert value == enumerate_grounding(doc, Rule(0, body), h, t)[0]

    def test_documents_of_another_vocabulary_are_refused(self):
        # A refused document leaves the store as it was.
        cache = GroundingCache()
        cache.rows([make_doc({(0, 1, 1): 0.5}, 4, n_entities=2)])
        with pytest.raises(ValueError, match="share a relation vocabulary"):
            cache.rows([make_doc({(0, 1, 1): 0.5}, 6, n_entities=3)])
        rows = cache.rows([make_doc({(0, 1, 2): 0.25}, 4, n_entities=3)])
        assert cache.ground(rows, np.array([[1]]), np.array([0]), np.array([2])).tolist() == [0.25]

    def test_rows_leave_documents_uncached_with_their_values(self, rng):
        # Two calls, so the second one extends blocks the first one built.
        docs = [random_doc(rng, 4, max_entities=5) for _ in range(12)]
        cache = GroundingCache()
        rows = np.concatenate([cache.rows(docs[:5]), cache.rows(docs)])
        for doc, row in zip(docs[:5] + docs, rows):
            r, h, t = (idx.ravel() for idx in np.indices(doc.atom_array().shape))
            values = cache.ground(np.tile(row, (len(r), 1)), r[:, None], h, t)
            assert values.tobytes() == doc.atom_array()[r, h, t].tobytes()

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
                predictions = [predict_document(doc, vocab, model, weights, config)
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
        m_step_generator(posterior, model, 50)
        assert model.log_prob(0, rule.body) > before

    def test_two_identical_posteriors_equal_one_with_doubled_weights(self, rng):
        vocab = build_vocab(["a", "b"])
        doc = make_doc({}, vocab.size, n_entities=2)
        instance = LabeledInstance("d", 0, 0, 1, 1)
        rules = [Rule(0, (1,)), Rule(0, (2, 3))]
        model_a = RuleGenerator(vocab)
        model_b = RuleGenerator(vocab)
        posterior = posterior_over_rules(instance, rules, model_a, ExtractorWeights(), doc, 50)
        m_step_generator(Posteriors(*(np.concatenate([field, field]) for field in posterior)), model_a, 50)
        model_b.fit_weighted(0, [(rule, 2 * float(w)) for rule, w in zip(rules, posterior.weights)])
        counts_a, counts_b = dense_counts(model_a), dense_counts(model_b)
        for key in counts_a:
            assert np.allclose(counts_a[key], counts_b[key], atol=1e-12)

    def test_tiny_weights_perturb_distribution_by_tiny_amounts(self):
        vocab = build_vocab(["a", "b"])
        doc = make_doc({}, vocab.size, n_entities=2)
        instance = LabeledInstance("d", 0, 0, 1, 1)
        eps = 1e-6
        model = RuleGenerator(vocab)
        _, before = enumeration(model, 0)
        model.fit_weighted(0, [(Rule(0, (1,)), eps)])
        _, after = enumeration(model, 0)
        assert np.max(np.abs(after - before)) < 10 * eps

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            m_step_generator(Posteriors(*[np.zeros(0, dtype=np.intp)] * 5), RuleGenerator(build_vocab(["a"])), 4)

    def test_each_heads_sums_add_in_row_order_from_zero(self):
        # Rule x's weights in head 0 come in row order as 1.0, 1e16, 1.0,
        # 1.0, 1.0: one addition at a time from 0.0 leaves 1e16, while the
        # 1.0s summed first, or the rows taken in reverse, give 1e16 + 4.
        # Head 1's rows interleave with head 0's.
        vocab = build_vocab(["a", "b"])
        model, reference = RuleGenerator(vocab), RuleGenerator(vocab)
        x, y = model.rule_ids([(1, 2), (3,)]).tolist()
        rows = [(0, [x], [1.0]), (1, [x, y], [1e16, 1.0]), (0, [y, x], [0.5, 1e16]), (1, [x], [1.0]),
                (0, [x], [1.0]), (0, [x, y], [1.0, 2.0]), (1, [y], [3.0]), (0, [x], [1.0])]
        posteriors = Posteriors(np.array([relation for relation, _, _ in rows]),
                                np.array([len(ids) for _, ids, _ in rows]),
                                np.array([i for _, ids, _ in rows for i in ids], dtype=np.intp),
                                np.zeros(13), np.array([w for _, _, weights in rows for w in weights]))
        m_step_generator(posteriors, model, 4)
        for head in (0, 1):
            sums: dict[int, float] = {}
            for relation, ids, weights in rows:
                if relation == head:
                    for i, weight in zip(ids, weights):
                        sums[i] = sums.get(i, 0.0) + weight
            reference.fit_weighted(head, [(model.rule_at(head, i), sums[i]) for i in (x, y) if i in sums])
            if head == 0:
                assert sums[x] == 1e16 != 1e16 + 4.0 == math.fsum([1.0, 1e16, 1.0, 1.0, 1.0])
        counts, want = dense_counts(model), dense_counts(reference)
        assert list(counts) == list(want)
        for key, vec in want.items():
            assert np.array_equal(counts[key], vec), key
        assert counts[(0, ())][1] == 1e16

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
        weights = TrainingWeights(ids * vocab.size + np.arange(vocab.size), [1.5] * vocab.size)
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
        m_step_generator(posteriors, model, 12)
        for head in sorted(set(posteriors.relations.tolist())):
            sums: dict[Rule, float] = {}
            for relation, rules, row_weights in rows:
                if relation == head:
                    for rule, weight in zip(rules, row_weights):
                        sums[rule] = sums.get(rule, 0.0) + float(weight)
            reference.fit_weighted(head, sorted(sums.items(), key=lambda kv: kv[0].body))
        counts, want = dense_counts(model), dense_counts(reference)
        assert list(counts) == list(want)
        for key, vec in want.items():
            assert np.array_equal(counts[key], vec)

    @pytest.mark.parametrize("relations", [4, 24])
    def test_batched_l_g_equals_one_log_prob_call_per_posterior(self, relations):
        # m_step_generator reads each head's log-priors right after that
        # head's refit; the reference reads them after every refit.
        result = tiny_synth(relations=relations, docs=8)
        train, vocab = result.splits["train"], result.vocab
        model = RuleGenerator(vocab)
        draws = draw_all_rules(model, [inst.relation for inst in train.instances], 40, np.random.default_rng(2))
        posteriors = e_step(train, draws, model, TrainingWeights(), 40, GroundingCache())
        l_g = m_step_generator(posteriors, model, 40)
        rows = [(relation, posteriors.indices[row], posteriors.weights[row])
                for relation, row in zip(posteriors.relations.tolist(), row_slices(posteriors.sizes))]
        # Rows longer than 8 and of several lengths make several stacked
        # products that a pairwise sum would not match.
        assert len({len(ids) for _, ids, _ in rows}) > 1 and min(len(ids) for _, ids, _ in rows) > 8
        want = float(np.mean([40 * float(weights @ model.log_probs_by_index(relation, ids))
                              for relation, ids, weights in rows]))
        assert l_g == want
        if relations == 24:  # past the limit both equal the scalar log_prob, one call per (relation, id)
            keys = {(relation, i) for relation, ids, _ in rows for i in ids.tolist()}
            scalar = {key: model.log_prob(key[0], model.rule_at(*key).body) for key in keys}
            assert want == float(np.mean([40 * float(weights @ np.array([scalar[relation, i] for i in ids.tolist()]))
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
        weights = TrainingWeights([-1], [0.125])
        m_result = m_step_extractor(train, model, weights, FitConfig(lr=1.0, epochs=0), rng,
                                    n_rules=4, mode="top", beam=16)
        assert m_result.weights.to_extractor(model).bias[0] == 0.125
        assert weights.codes.tolist() == [-1] and weights.values.tolist() == [0.125]

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

    @pytest.mark.parametrize("dense_span", [rulex.core.DENSE_SPAN, *SIDES])
    @pytest.mark.parametrize("relations", [4, 24])
    def test_two_warm_sampled_steps_equal_two_fits_on_the_same_draws(self, relations, dense_span, monkeypatch):
        # The second step starts from the first one's stored weights, exact
        # zeros included.  Each step must build the design that from_batch
        # builds on the same grounded draws, column for column (stored
        # biases by relation, stored rules in (relation, body) order, then
        # new keys by first appearance), and train the same weights bit for
        # bit, on either side of every integer lookup.  24 base relations
        # are past ENUM_LIMIT.
        monkeypatch.setattr(rulex.core, "DENSE_SPAN", dense_span)
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
            assert len(got.keys) == len(want.keys) > len(weights.codes)
            assert np.array_equal(got.rows, want.rows) and np.array_equal(got.cols, want.cols)
            assert np.array_equal(got.vals, want.vals)
            assert m_result.losses == fitted.losses
            weights = m_result.weights
            trained = weights.to_extractor(model)
            assert trained.bias == reference.bias
            assert trained.rule_weight == reference.rule_weight
            assert list(trained.rule_weight) == sorted(reference.rule_weight, key=lambda k: (k[0], k[1].body))
            if step == 0:
                rule_values = weights.values[weights.codes >= 0]
                assert np.any(rule_values == 0.0) and np.any(rule_values != 0.0)
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

    def test_either_side_of_every_integer_lookup_trains_the_same_model(self, monkeypatch):
        # Both sides of core.CodeIndex and core.distinct, forced everywhere,
        # on an enumerable space and on one past ENUM_LIMIT.  The second
        # iteration's E-step and design look its keys up among the first
        # one's stored weights.
        for relations in (4, 24):
            result = tiny_synth(relations=relations, docs=6, split=(1.0, 0.0, 0.0))
            config = EMConfig(n_rules=6, iterations=2, seed=3, fit=FitConfig(lr=0.5, epochs=4),
                              convergence_eps=0.0, beam=12)
            runs = []
            for dense_span in SIDES:
                monkeypatch.setattr(rulex.core, "DENSE_SPAN", dense_span)
                sides = []

                class Spy(CodeIndex):
                    def __init__(self, codes, keys=0):
                        super().__init__(codes, keys)
                        sides.append((len(self.codes) > 0, self._table is None))

                monkeypatch.setattr(rulex.em, "CodeIndex", Spy)
                out = run_em(result.splits["train"], result.vocab, config)
                assert (True, dense_span == 0) in sides  # stored weights looked up on the forced side
                runs.append((out.diagnostics, list(out.weights.bias.items()), list(out.weights.rule_weight.items())))
            assert runs[0] == runs[1] and runs[0][2]

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

    def test_sampled_inference_past_enum_limit_is_deterministic(self):
        # inference_mode="sample" past ENUM_LIMIT draws each rule set token by
        # token (sample_ruleset -> sample_rule), from a fresh seeded rng per call.
        result = tiny_synth(relations=24, docs=6, split=(0.5, 0.0, 0.5))
        train, vocab = result.splits["train"], result.vocab
        config = EMConfig(n_rules=6, iterations=1, seed=3, fit=FitConfig(lr=0.5, epochs=4),
                          convergence_eps=0.0, beam=12, inference_mode="sample")
        out = run_em(train, vocab, config)
        assert out.model.enumerable_size() > ENUM_LIMIT
        a, b = (inference_rulesets(out.model, vocab, config) for _ in range(2))
        assert {h: list(rules) for h, rules in a.items()} == {h: list(rules) for h, rules in b.items()}
        assert any(len(rules.counts()) > 1 for rules in a.values())
        docs = list(result.splits["test"].docs.values())
        assert docs
        for doc in docs:
            predicted = predict_document(doc, vocab, out.model, out.weights, config)
            assert predicted == predict_document(doc, vocab, out.model, out.weights, config)
            assert predicted == predict_document(doc, vocab, out.model, out.weights, config, rulesets=a)

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

    @pytest.mark.parametrize("early_stop", [False, True])
    @pytest.mark.parametrize("inference_mode", ["sample", "top"])
    @pytest.mark.parametrize("train_ruleset_mode", ["sample", "top"])
    def test_extractor_update_schedule(self, monkeypatch, train_ruleset_mode, inference_mode, early_stop):
        # Every iteration but the last updates the extractor on training rule
        # sets, warm-started; the last one, or one more update after an early
        # stop, trains on inference rule sets, from scratch when the modes differ.
        calls = []
        update = rulex.em.m_step_extractor

        def recording(*args, mode, reset, **kwargs):
            calls.append((mode, reset))
            return update(*args, mode=mode, reset=reset, **kwargs)

        monkeypatch.setattr(rulex.em, "m_step_extractor", recording)
        result = tiny_synth(docs=8)
        config = EMConfig(n_rules=4, iterations=3, seed=0, fit=FitConfig(lr=0.5, epochs=2),
                          convergence_eps=1e9 if early_stop else 0.0, beam=8,
                          train_ruleset_mode=train_ruleset_mode, inference_mode=inference_mode)
        out = run_em(result.splits["train"], result.vocab, config)
        # With a huge epsilon, the second iteration is the first that can converge.
        assert len(out.diagnostics) == (2 if early_stop else 3)
        want = [(train_ruleset_mode, False)] * 2
        if not early_stop or inference_mode != train_ruleset_mode:
            want.append((inference_mode, inference_mode != train_ruleset_mode))
        assert calls == want

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
            assert enumerate_best_path(doc, c.rule, 0, 1) == (c.grounding, c.best_path)

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

    @pytest.mark.parametrize("h,t", [(-2, 0), (0, -1), (3, 0), (0, 7)])
    def test_entity_id_outside_the_document_names_the_ids_and_the_document(self, h, t):
        # No rule fires on this document, so before the check (-2, r, 0)
        # read entity 1's logit and an id >= 3 raised a bare IndexError.
        vocab = build_vocab(["a", "b"])
        model = RuleGenerator(vocab)
        doc = make_doc({}, vocab.size, n_entities=3, doc_id="doc7")
        config = EMConfig(n_rules=8, beam=32)
        message = re.escape(f"entity id out of range: ({h}, {t}) in doc doc7")
        with pytest.raises(ValueError, match=message):
            explain(doc, (h, 0, t), model.top_rules(0, 8, 32), ExtractorWeights(), vocab)
        with pytest.raises(ValueError, match=message):
            infer(doc, (h, 0, t), model, ExtractorWeights(), config)

    @pytest.mark.parametrize("relation", [-1, 4, 9])
    def test_unknown_relation_id_is_a_value_error(self, relation):
        vocab = build_vocab(["a", "b"])
        doc = make_doc({}, vocab.size, n_entities=3)
        with pytest.raises(ValueError, match=f"relation id out of range: {relation}"):
            infer(doc, (0, relation, 1), RuleGenerator(vocab), ExtractorWeights(), EMConfig(n_rules=8, beam=32))

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


def reference_scoring(doc, rulesets, weights, vocab):
    """Every ordered pair's (logit, contributions) per head, one query at a time.

    A scalar reference for the document path: the bias, then ``multiplicity
    * weight * ground_rule_all_pairs(...)[h, t]`` of each rule with a nonzero
    weight in rule-set order; the nonzero contributions sorted by
    (-contribution, rule text), each with its witness path by exhaustive
    enumeration (``enumerate_best_path``).
    """
    scored = {}
    for relation, ruleset in rulesets.items():
        matrices = {rule: ground_rule_all_pairs(doc, rule) for rule in ruleset.counts()}
        for h in range(doc.num_entities):
            for t in range(doc.num_entities):
                logit = weights.get_bias(relation)
                fired = []
                for rule, multiplicity in ruleset.counts().items():
                    weight = weights.get_rule_weight(relation, rule)
                    if weight == 0.0:
                        continue
                    grounding = float(matrices[rule][h, t])
                    contribution = multiplicity * weight * grounding
                    logit += contribution
                    if contribution != 0.0:
                        fired.append((contribution, format_rule(rule, vocab), rule, weight, grounding, multiplicity))
                fired.sort(key=lambda item: (-item[0], item[1]))
                scored[(h, relation, t)] = (logit, tuple(
                    RuleContribution(rule, weight, grounding, multiplicity, enumerate_best_path(doc, rule, h, t)[1], c)
                    for c, _, rule, weight, grounding, multiplicity in fired
                ))
    return scored


class TestDocumentScoring:
    # Names out of alphabetical order, so that the order of rule texts
    # differs from the order of bodies.
    NAMES = ["zeta", "alpha", "mid"]
    TIED = (Rule(0, (1,)), Rule(0, (0,)))  # "zeta <- alpha" sorts before "zeta <- zeta"

    def setup_case(self, mode):
        vocab = build_vocab(self.NAMES)
        model = RuleGenerator(vocab)
        for relation in range(vocab.size):
            model.fit_weighted(relation, [(Rule(relation, ((relation + 1) % vocab.size,)), 3.0),
                                          (Rule(relation, (relation,)), 3.0),
                                          (Rule(relation, (relation, (relation + 3) % vocab.size)), 2.0)])
        config = EMConfig(n_rules=12, beam=48, seed=3, inference_mode=mode)
        rulesets = inference_rulesets(model, vocab, config)
        rng = np.random.default_rng(11)
        weights = ExtractorWeights()
        for relation, ruleset in rulesets.items():
            weights.bias[relation] = float(rng.normal(0.0, 0.5))
            for rule in ruleset.counts():
                weights.set_rule_weight(relation, rule, float(rng.normal()))
        # Weights that make both tied rules' coefficients 0.75 * m0 * m1 exactly.
        counts = rulesets[0].counts()
        m0, m1 = (counts[rule] for rule in self.TIED)
        weights.set_rule_weight(0, self.TIED[0], 0.75 * m1)
        weights.set_rule_weight(0, self.TIED[1], 0.75 * m0)
        zero = next(rule for rule in counts if rule not in self.TIED)
        weights.set_rule_weight(0, zero, 0.0)
        docs = []
        for i, n in enumerate((2, 7, 4, 6, 3)):
            atoms = {(h, r, t): float(rng.random())
                     for h in range(n) for r in range(vocab.size) for t in range(n) if rng.random() < 0.3}
            atoms[(0, 1, 1)] = atoms[(0, 0, 1)] = 0.5  # the tied rules ground equally at (0, 1)
            docs.append(make_doc(atoms, vocab.size, n_entities=n, doc_id=f"d{i}"))
        return vocab, model, config, rulesets, weights, zero, docs

    @pytest.mark.parametrize("mode", ["top", "sample"])
    def test_document_path_equals_a_per_query_reference(self, mode):
        vocab, model, config, rulesets, weights, zero, docs = self.setup_case(mode)
        terms = inference_terms(rulesets, weights, vocab)
        heads_of_body = {}
        for relation, ruleset in rulesets.items():
            for rule in ruleset.counts():
                if weights.get_rule_weight(relation, rule) != 0.0:
                    heads_of_body.setdefault(rule.body, set()).add(relation)
        assert any(len(heads) > 1 for heads in heads_of_body.values())
        assert zero not in terms.rules
        if mode == "sample":
            assert any(count > 1 for ruleset in rulesets.values() for count in ruleset.counts().values())
        ties = 0
        for doc in docs:
            scored = reference_scoring(doc, rulesets, weights, vocab)
            want = {(h, r, t): InferenceResult(1, prob(1, logit), logit, contributions)
                    for (h, r, t), (logit, contributions) in scored.items()
                    if h != t and prob(1, logit) > 0.5}
            for top in (None, 5, 1):
                got = explain_document(doc, terms, top=top)
                assert list(got) == sorted(want, key=lambda q: (q[1], q[0], q[2]))
                assert got == {query: InferenceResult(1, result.probability, result.logit, result.contributions[:top])
                               for query, result in want.items()}
            assert predict_document(doc, vocab, model, weights, config) == {q: r.probability for q, r in want.items()}
            for (h, relation, t), (logit, contributions) in scored.items():
                result = explain(doc, (h, relation, t), rulesets[relation], weights, vocab)
                assert result.logit == logit and result.contributions == contributions
                assert result.label == (1 if prob(1, logit) > 0.5 else -1)
            _, fired = scored[(0, 0, 1)]
            tied = [c.rule for c in fired if c.rule in self.TIED]
            ties += tied == list(self.TIED) and len({c.contribution for c in fired if c.rule in self.TIED}) == 1
        assert ties == len(docs)
        assert len({doc.num_entities for doc in docs}) == len(docs)

    def test_explain_grounds_one_query_as_the_document_path_scores_it(self):
        # explain grounds a query's bodies at (h, t) alone; on a 40-entity
        # document every positive triple must equal explain_document's
        # result, and every other triple's logit score_document's cell.
        rng = np.random.default_rng(21)
        vocab = build_vocab(["r0", "r1", "r2", "r3"])
        bodies = [(1,), (2,), (0, 3), (4, 5), (6, 7, 1), (3, 3), (2, 5, 0)]
        weights, rulesets = ExtractorWeights(), {}
        for head in (0, 2, 5):
            rulesets[head] = RuleSet([Rule(head, body) for body in bodies for _ in range(1 + head % 3)][head:])
            weights.bias[head] = -2.0
            for rule in rulesets[head]:
                weights.set_rule_weight(head, rule, float(rng.normal(1.0, 1.5)))
        n = 40
        triples = zip(*(rng.integers(0, high, 500).tolist() for high in (n, vocab.size, n)))
        doc = make_doc({triple: float(rng.uniform(0.2, 1.0)) for triple in triples}, vocab.size, n_entities=n)
        terms = inference_terms(rulesets, weights, vocab)
        stack = all_pairs_stack(doc.atom_array(), terms.bodies, terms.mirror, terms.inverse_of)
        logits = rulex.em.score_document(stack, terms)
        positive = explain_document(doc, terms)
        assert 100 < len(positive) < len(rulesets) * n * (n - 1) / 4
        for (h, relation, t), result in positive.items():
            assert explain(doc, (h, relation, t), rulesets[relation], weights, vocab) == result
        negatives = [(h, relation, t) for relation in rulesets for h in range(0, n, 3) for t in range(1, n, 4)
                     if (h, relation, t) not in positive]
        assert len(negatives) > 100
        for h, relation, t in negatives:
            result = explain(doc, (h, relation, t), rulesets[relation], weights, vocab)
            assert result.logit == logits[terms.heads.tolist().index(relation), h, t] and result.label == -1

    @pytest.mark.parametrize("cells", [16, 1 << 18])
    def test_stack_equals_ground_rule_all_pairs_bit_for_bit(self, rng, monkeypatch, cells):
        # A small GATHER_CELLS splits every length, and the mirror copies,
        # into several chunks.
        monkeypatch.setattr(rulex.extractor, "GATHER_CELLS", cells)
        vocab = build_vocab(["a", "b", "c"], self_inverse=["c"])  # a, b, c, a⁻¹, b⁻¹
        inverse_of = np.array(vocab.inverse_of, dtype=np.intp)
        def reverse(body):  # its inverse relations in reverse order
            return tuple(inverse_of[list(body[::-1])].tolist())

        drawn = [tuple(rng.integers(0, vocab.size, size=length).tolist()) for length in (1, 2, 3) for _ in range(12)]
        # Two mirrored pairs, every drawn body's mirror, and the self-mirror
        # bodies (a, a⁻¹), (c, c) and (b⁻¹, b).
        bodies = list(dict.fromkeys([(0, 1), (4, 3), (0, 2), (2, 3), *drawn, *map(reverse, drawn),
                                     (0, 3), (2, 2), (4, 1)]))
        table = pad_bodies(bodies, 3)
        mirror = rulex.em.body_mirrors(table, inverse_of)
        # Each length-2 body's mirror's row, where that row is earlier; -1 elsewhere.
        assert mirror.tolist() == [bodies.index(reverse(body)) if len(body) == 2 and reverse(body) in bodies[:k] else -1
                                   for k, body in enumerate(bodies)]
        assert mirror[1] == 0 and mirror[3] == 2 and np.count_nonzero(mirror >= 0) > 5
        assert any(len(body) == 3 and reverse(body) != body for body in bodies)

        def closed_doc(n):
            atoms = {}
            for h, r, t in zip(*(rng.integers(0, high, 4 * n * n).tolist() for high in (n, vocab.size, n))):
                if (t, vocab.inverse_of[r], h) not in atoms:
                    atoms[h, r, t] = float(rng.random())
            return close_inverses(make_doc(atoms, vocab.size, n_entities=n), vocab)

        docs = [closed_doc(int(n)) for n in rng.integers(2, 9, size=6)]
        # A -0.0 atom of the self-inverse c, the last factor of (a, c) at (0, 1).
        docs.append(close_inverses(make_doc({(0, 0, 1): 0.5, (1, 2, 1): -0.0}, vocab.size, n_entities=2), vocab))
        # Not closed bit for bit: the inverse of (0, a, 1) is listed 1e-10 off,
        # which loading keeps, and it is the maximum of (b⁻¹, a⁻¹) at (2, 0).
        off = {(h, r, t): float(rng.uniform(0.0, 0.4)) for h, r, t in [(0, 2, 2), (2, 1, 0), (1, 4, 2)]}
        off.update({(0, 0, 1): 0.9, (1, 1, 2): 0.8, (1, 3, 0): 0.9 + 1e-10})
        docs.append(close_inverses(make_doc(off, vocab.size, n_entities=3), vocab))
        for doc in docs:
            atoms = doc.atom_array()
            assert rulex.em._exactly_closed(atoms, inverse_of) == (doc is not docs[-1])
            stack = all_pairs_stack(atoms, table, mirror, inverse_of)
            computed = all_pairs_stack(atoms, table, np.full(len(table), -1), inverse_of)
            assert np.array_equal(stack.view(np.int64), computed.view(np.int64))
            for body, matrix in zip(bodies, stack):
                assert np.array_equal(matrix.view(np.int64), ground_rule_all_pairs(doc, Rule(0, body)).view(np.int64))
        assert np.signbit(docs[-2].atom_array()[2, 1, 1])
        # On the off document, the computed (a, b) and the transposed (b⁻¹, a⁻¹) differ.
        assert stack[0, 0, 2] == 0.9 * 0.8 and stack[1, 2, 0] == 0.8 * (0.9 + 1e-10)
        # A document of fewer relation ids than the vocabulary computes every body it can hold.
        sub = [body for body in bodies if max(body) < 4]
        short = make_doc({(h, r, t): c for (h, r, t), c in docs[0].atoms.items() if r < 4}, 4,
                         n_entities=docs[0].num_entities)
        sub_table = pad_bodies(sub, 3)
        stack = all_pairs_stack(short.atom_array(), sub_table, rulex.em.body_mirrors(sub_table, inverse_of), inverse_of)
        for body, matrix in zip(sub, stack):
            assert np.array_equal(matrix.view(np.int64), ground_rule_all_pairs(short, Rule(0, body)).view(np.int64))

    @pytest.mark.parametrize("sizes", [(3, 0, 5, 1, 5), (2, 4, 1, 4)])
    def test_score_document_adds_each_heads_terms_in_rule_set_order(self, rng, sizes):
        vocab = build_vocab(["a", "b", "c"])
        bodies = [(r,) for r in range(vocab.size)] + [(r, s) for r in range(vocab.size) for s in range(3)]
        weights, rulesets = ExtractorWeights(), {}
        for head, size in enumerate(sizes):
            picked = rng.choice(len(bodies), size=max(size, 1), replace=False).tolist()
            rulesets[head] = RuleSet([Rule(head, bodies[i]) for i in picked])
            weights.bias[head] = float(rng.normal())
            for rule in rulesets[head]:  # a head of size 0 has only zero weights
                weights.set_rule_weight(head, rule, float(rng.normal()) if size else 0.0)
        terms = inference_terms(rulesets, weights, vocab)
        assert np.diff(terms.starts).tolist() == list(sizes)
        full = [rows for rows, _, _ in terms.plan if isinstance(rows, slice)]
        assert len(terms.plan) == max(sizes) and len(full) == min(sizes)
        stack = rng.random((len(terms.bodies), 5, 5))
        logits = rulex.em.score_document(stack, terms)
        for i in range(len(sizes)):
            want = np.full((5, 5), terms.bias[i])
            for k in range(terms.starts[i], terms.starts[i + 1]):
                want = want + terms.coef[k] * stack[terms.body[k]]
            assert np.array_equal(logits[i].view(np.int64), want.view(np.int64))

    def test_memory_holds_one_matrix_per_distinct_body_not_per_term(self):
        # 20 heads share 10 bodies, 9 each: T = 180 terms over B = 10 bodies.
        # A (T, n, n) array alone would take T * n**2 * 8 bytes.
        rng = np.random.default_rng(5)
        vocab = build_vocab([f"r{i}" for i in range(20)])
        bodies = [(1,), (2,), (3, 4), (5, 6), (7, 8), (9, 10, 11), (12, 13), (14,), (15, 16), (17, 18, 19)]
        weights, rulesets = ExtractorWeights(), {}
        for head in range(20):
            rulesets[head] = RuleSet([Rule(head, body) for i, body in enumerate(bodies) if i != head % 10])
            weights.bias[head] = -1.5
            for rule in rulesets[head]:
                weights.set_rule_weight(head, rule, float(rng.uniform(0.5, 1.5)))
        terms = inference_terms(rulesets, weights, vocab)
        n = 60
        triples = zip(*(rng.integers(0, high, 900).tolist() for high in (n, 20, n)))
        doc = make_doc({triple: float(rng.uniform(0.3, 1.0)) for triple in triples}, vocab.size, n_entities=n)
        assert (len(terms.coef), len(terms.bodies)) == (180, 10)
        explain_document(doc, terms, top=5)  # warm
        tracemalloc.start()
        try:
            results = explain_document(doc, terms, top=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert results and all(result.contributions for result in results.values())
        assert peak < len(terms.coef) * n * n * 8
