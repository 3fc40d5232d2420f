import itertools
import math

import numpy as np
import pytest

from rulex.core import LabeledInstance, Rule, RuleSet, atom_conf, build_vocab
from rulex.em import explain
from rulex.extractor import (
    ExtractorWeights,
    FitConfig,
    FitDivergenceError,
    fit,
    fit_design,
    ground_body_value,
    ground_chain,
    ground_rule,
    ground_rule_all_pairs,
    prob,
    _DesignMatrix,
    _max_product,
)
from rulex.oracles import enumerate_grounding

from conftest import make_doc, random_doc


def enumerate_best_path(doc, rule, h, t):
    """Exhaustive max-product reference, multiplying left to right: ``(value, witness path)``.

    Every entity path from h to t is scored, and ``best[k, e]`` is the best
    product of any path's first k steps ending at e.  The witness is, among
    the paths whose every prefix attains ``best`` at its end entity, the one
    whose entities are smallest read back from the tail; it is None when the
    value is 0.
    """
    products = {}
    for middles in itertools.product(range(doc.num_entities), repeat=len(rule.body) - 1):
        path = (h,) + middles + (t,)
        prefix = [1.0]
        for i, r in enumerate(rule.body):
            prefix.append(prefix[-1] * atom_conf(doc, path[i], r, path[i + 1]))
        products[path] = prefix
    best = {}
    for path, prefix in products.items():
        for k in range(1, len(path)):
            best[k, path[k]] = max(best.get((k, path[k]), 0.0), prefix[k])
    value = best[len(rule.body), t]
    if value == 0.0:
        return 0.0, None
    optimal = [path for path, prefix in products.items()
               if all(prefix[k] == best[k, path[k]] for k in range(1, len(path)))]
    return value, min(optimal, key=lambda path: path[::-1])


class TestGroundRule:
    def test_chain_of_ones(self):
        doc = make_doc({(0, 0, 1): 1.0, (1, 1, 2): 1.0}, num_relations=4, n_entities=3)
        result = ground_rule(doc, Rule(2, (0, 1)), 0, 2)
        assert result.value == 1.0
        assert result.best_path == (0, 1, 2)

    def test_takes_better_of_two_paths(self):
        # 0.7 * 0.5 = 0.35 through entity 1; 0.6 * 0.8 = 0.48 through entity 2.
        doc = make_doc(
            {(0, 0, 1): 0.7, (1, 1, 3): 0.5, (0, 0, 2): 0.6, (2, 1, 3): 0.8},
            num_relations=4,
            n_entities=4,
        )
        want, _ = enumerate_best_path(doc, Rule(2, (0, 1)), 0, 3)
        result = ground_rule(doc, Rule(2, (0, 1)), 0, 3)
        assert want == 0.48
        assert result.value == want
        assert result.best_path == (0, 2, 3)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_tied_paths_break_to_the_smallest_entity_in_any_atom_order(self, reverse):
        # 0-1-3 and 0-2-3 tie for (0, 1); for (0, 1, 2), 0-1-3-4 and
        # 0-2-3-4 tie at the middle step.
        atoms = [(0, 0, 1), (1, 1, 3), (0, 0, 2), (2, 1, 3), (3, 2, 4)]
        doc = make_doc({atom: 0.5 for atom in (atoms[::-1] if reverse else atoms)}, num_relations=4)
        assert list(doc.atoms)[0] == (atoms[-1] if reverse else atoms[0])
        for body, t, path in (((0, 1), 3, (0, 1, 3)), ((0, 1, 2), 4, (0, 1, 3, 4))):
            result = ground_rule(doc, Rule(0, body), 0, t)
            assert result.best_path == path
            assert (result.value, result.best_path) == enumerate_best_path(doc, Rule(0, body), 0, t)

    def test_empty_graph_grounds_zero(self):
        doc = make_doc({}, num_relations=4, n_entities=3)
        result = ground_rule(doc, Rule(0, (1, 2)), 0, 2)
        assert result.value == 0.0 and result.best_path is None

    def test_out_of_range_rejected(self):
        doc = make_doc({}, num_relations=4, n_entities=3)
        with pytest.raises(ValueError):
            ground_rule(doc, Rule(0, (1,)), 0, 9)
        with pytest.raises(ValueError):
            ground_rule(doc, Rule(0, (9,)), 0, 1)

    def test_matches_enumeration_on_random_docs(self, rng):
        for _ in range(300):
            doc = random_doc(rng, num_relations=5)
            body = tuple(int(r) for r in rng.integers(0, 5, size=int(rng.integers(1, 4))))
            rule = Rule(int(rng.integers(0, 5)), body)
            h = int(rng.integers(0, doc.num_entities))
            t = int(rng.integers(0, doc.num_entities))
            got = ground_rule(doc, rule, h, t)
            want, path = enumerate_best_path(doc, rule, h, t)
            assert got.value == want
            assert got.best_path == path
            assert (got.value, got.best_path is not None) == enumerate_grounding(doc, rule, h, t)

    def test_body_relations_alone_equal_the_whole_atom_array_bit_for_bit(self, rng):
        # ground_rule densifies only the body's relations; the chain over the
        # document's whole array gives the same values and witness paths.
        for _ in range(200):
            doc = random_doc(rng, num_relations=6, max_entities=8, density=0.3)
            body = tuple(int(r) for r in rng.integers(0, 6, size=int(rng.integers(1, 4))))
            h, t = (int(e) for e in rng.integers(0, doc.num_entities, size=2))
            values, paths = ground_chain(doc.atom_array()[None], np.zeros(1, dtype=np.intp), np.array([body]),
                                         np.array([h]), np.array([t]), _paths=True)
            got = ground_rule(doc, Rule(0, body), h, t)
            assert (got.value, got.best_path) == (values[0], paths[0])

    def test_body_value_is_the_rule_value_and_zero_outside_the_document(self):
        doc = make_doc({(0, 0, 1): 0.5, (1, 1, 2): 0.25}, num_relations=4, n_entities=3)
        assert ground_body_value(doc, (0, 1), 0, 2) == ground_rule(doc, Rule(3, (0, 1)), 0, 2).value == 0.125
        assert ground_body_value(doc, (0, 1), 0, 3) == ground_body_value(doc, (0, 1), -1, 2) == 0.0
        with pytest.raises(ValueError, match="relation id out of range"):
            ground_body_value(doc, (4,), 0, 2)

    def test_witness_path_product_matches_value(self, rng):
        for _ in range(100):
            doc = random_doc(rng, num_relations=4, density=0.4)
            rule = Rule(0, tuple(int(r) for r in rng.integers(0, 4, size=2)))
            result = ground_rule(doc, rule, 0, doc.num_entities - 1)
            if result.best_path is None:
                assert result.value == 0.0
                continue
            assert result.best_path[0] == 0
            assert result.best_path[-1] == doc.num_entities - 1
            product = 1.0
            for i, r in enumerate(rule.body):
                product *= atom_conf(doc, result.best_path[i], r, result.best_path[i + 1])
            assert abs(product - result.value) <= 1e-9

    def test_monotone_in_atom_confidence(self, rng):
        for _ in range(100):
            doc = random_doc(rng, num_relations=4, density=0.4)
            rule = Rule(0, tuple(int(r) for r in rng.integers(0, 4, size=2)))
            before = ground_rule(doc, rule, 0, doc.num_entities - 1).value
            if not doc.atoms:
                continue
            key = sorted(doc.atoms)[int(rng.integers(0, len(doc.atoms)))]
            bumped = dict(doc.atoms)
            bumped[key] = min(1.0, bumped[key] + float(rng.random() * (1 - bumped[key])))
            doc2 = make_doc(bumped, num_relations=4, n_entities=doc.num_entities)
            after = ground_rule(doc2, rule, 0, doc.num_entities - 1).value
            assert after >= before - 1e-12

    def test_value_stays_in_unit_interval(self, rng):
        for _ in range(100):
            doc = random_doc(rng, num_relations=3, density=0.5)
            rule = Rule(0, tuple(int(r) for r in rng.integers(0, 3, size=3)))
            value = ground_rule(doc, rule, 0, 0).value
            assert 0.0 <= value <= 1.0

    def test_all_pairs_matches_per_query(self, rng):
        for _ in range(30):
            doc = random_doc(rng, num_relations=4)
            rule = Rule(0, tuple(int(r) for r in rng.integers(0, 4, size=int(rng.integers(1, 4)))))
            matrix = ground_rule_all_pairs(doc, rule)
            for h in range(doc.num_entities):
                for t in range(doc.num_entities):
                    assert matrix[h, t] == pytest.approx(ground_rule(doc, rule, h, t).value, abs=1e-12)


def score(doc, query, ruleset, weights):
    """The disjunction score of one query, as ``em.explain`` computes it."""
    vocab = build_vocab([f"r{i}" for i in range(doc.num_relations // 2)])
    return explain(doc, query, ruleset, weights, vocab).logit


class TestScore:
    def test_bias_only(self):
        doc = make_doc({}, num_relations=4, n_entities=2)
        weights = ExtractorWeights()
        weights.bias[2] = -0.3
        assert score(doc, (0, 2, 1), RuleSet([Rule(2, (0,))]), weights) == -0.3

    def test_weighted_grounding_adds_to_bias(self):
        doc = make_doc(
            {(0, 0, 1): 0.7, (1, 1, 3): 0.5, (0, 0, 2): 0.6, (2, 1, 3): 0.8},
            num_relations=4,
            n_entities=4,
        )
        rule = Rule(2, (0, 1))
        weights = ExtractorWeights()
        weights.bias[2] = 0.5
        weights.set_rule_weight(2, rule, 1.0)
        assert score(doc, (0, 2, 3), RuleSet([rule]), weights) == pytest.approx(0.98)

    def test_multiplicity_counts_twice(self):
        doc = make_doc({(0, 0, 1): 0.5}, num_relations=4, n_entities=2)
        rule = Rule(1, (0,))
        weights = ExtractorWeights()
        weights.set_rule_weight(1, rule, 2.0)
        single = score(doc, (0, 1, 1), RuleSet([rule]), weights)
        double = score(doc, (0, 1, 1), RuleSet([rule, rule]), weights)
        assert double == pytest.approx(2 * single)

    def test_mismatched_head_rejected(self):
        doc = make_doc({}, num_relations=4, n_entities=2)
        with pytest.raises(ValueError, match="does not match"):
            score(doc, (0, 1, 1), RuleSet([Rule(2, (0,))]), ExtractorWeights())

    def test_linear_superposition(self, rng):
        doc = random_doc(rng, num_relations=4, density=0.5)
        rules = [Rule(1, (0,)), Rule(1, (2, 3)), Rule(1, (3,))]
        ruleset = RuleSet(rules)
        query = (0, 1, doc.num_entities - 1)

        def with_weights(bias, values):
            weights = ExtractorWeights()
            weights.bias[1] = bias
            for rule, value in zip(rules, values):
                weights.set_rule_weight(1, rule, value)
            return score(doc, query, ruleset, weights)

        a = with_weights(0.2, [1.0, 0.0, 0.0])
        b = with_weights(0.0, [0.0, 2.0, -1.0])
        combined = with_weights(0.2, [1.0, 2.0, -1.0])
        assert combined == pytest.approx(a + b, abs=1e-12)


class TestProb:
    def test_half_at_zero(self):
        assert prob(1, 0.0) == 0.5
        assert prob(-1, 0.0) == 0.5

    def test_complement(self, rng):
        for s in rng.normal(0, 5, size=50):
            assert prob(1, s) + prob(-1, s) == pytest.approx(1.0, abs=1e-12)

    def test_large_scores_saturate_without_overflow(self):
        assert prob(1, 40.0) == pytest.approx(1.0, abs=1e-15)
        assert prob(-1, 40.0) == pytest.approx(0.0, abs=1e-15)
        assert math.isfinite(prob(1, -1000.0))

    def test_sign_symmetry(self, rng):
        for s in rng.normal(0, 3, size=50):
            assert prob(1, s) == pytest.approx(prob(-1, -s), abs=1e-15)


class TestPredict:
    """The label and probability that ``em.explain`` gives a query."""

    def test_positive_score(self):
        doc = make_doc({}, num_relations=2, n_entities=2)
        weights = ExtractorWeights()
        weights.bias[0] = 0.98
        result = explain(doc, (0, 0, 1), RuleSet([Rule(0, (1,))]), weights, build_vocab(["a"]))
        assert result.label == 1 and result.probability > 0.5

    def test_zero_score_breaks_negative(self):
        doc = make_doc({}, num_relations=2, n_entities=2)
        result = explain(doc, (0, 0, 1), RuleSet([Rule(0, (1,))]), ExtractorWeights(), build_vocab(["a"]))
        assert result.label == -1 and result.probability == 0.5

    def test_negative_score(self):
        doc = make_doc({}, num_relations=2, n_entities=2)
        weights = ExtractorWeights()
        weights.bias[0] = -2.0
        result = explain(doc, (0, 0, 1), RuleSet([Rule(0, (1,))]), weights, build_vocab(["a"]))
        assert result.label == -1


def one_rule_batch(label, grounding, relation=0, weights=None):
    rule = Rule(relation, (0,))
    instance = LabeledInstance("d", 0, relation, 1, label)
    return [(instance, RuleSet([rule]), {rule: grounding})]


def gradient_by_key(batch, l2):
    """The gradient of a batch's design at zero stored weights, by weight key."""
    weights = ExtractorWeights()
    design = _DesignMatrix.from_batch(batch, weights)
    return dict(zip(design.keys, design.gradient(design.initial_vector(weights), l2).tolist()))


class TestLossAndGrad:
    def test_balanced_pair_has_zero_bias_gradient(self):
        rule = Rule(0, (1,))
        pos = (LabeledInstance("d", 0, 0, 1, 1), RuleSet([rule]), {rule: 0.5})
        neg = (LabeledInstance("d", 1, 0, 0, -1), RuleSet([rule]), {rule: 0.5})
        grad = gradient_by_key([pos, neg], l2=0.0)
        assert grad[("bias", 0)] == pytest.approx(0.0, abs=1e-15)

    def test_single_positive_at_zero_score(self):
        grad = gradient_by_key(one_rule_batch(1, 0.9), l2=1e-4)
        assert grad[("bias", 0)] == pytest.approx(-0.5)
        assert grad[("rule", 0, Rule(0, (0,)))] == pytest.approx(-0.5 * 0.9)

    def test_multiplicity_scales_rule_gradient(self):
        rule = Rule(0, (1,))
        instance = LabeledInstance("d", 0, 0, 1, 1)
        single = [(instance, RuleSet([rule]), {rule: 0.5})]
        double = [(instance, RuleSet([rule, rule]), {rule: 0.5})]
        g1 = gradient_by_key(single, l2=0.0)
        g2 = gradient_by_key(double, l2=0.0)
        assert g2[("rule", 0, rule)] == pytest.approx(2 * g1[("rule", 0, rule)])

    def test_non_finite_grounding_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            _DesignMatrix.from_batch(one_rule_batch(1, float("nan")), ExtractorWeights())

    def test_matches_finite_differences(self, rng):
        # Central differences of the loss over every column of the design.
        for _ in range(20):
            weights = ExtractorWeights()
            rules = [Rule(int(r), tuple(int(x) for x in rng.integers(0, 4, size=2))) for r in rng.integers(0, 4, size=3)]
            batch = []
            for _ in range(int(rng.integers(1, 5))):
                relation = int(rng.integers(0, 4))
                candidates = [r for r in rules if r.head == relation] or [Rule(relation, (0,))]
                picked = [candidates[int(i)] for i in rng.integers(0, len(candidates), size=2)]
                batch.append(
                    (
                        LabeledInstance("d", 0, relation, 1, 1 if rng.random() < 0.5 else -1),
                        RuleSet(picked),
                        {rule: float(rng.random()) for rule in set(picked)},
                    )
                )
            l2 = 1e-3
            step = 1e-5
            design = _DesignMatrix.from_batch(batch, weights)
            w = design.initial_vector(weights)
            for col, g in enumerate(design.gradient(w, l2).tolist()):
                up, down = w.copy(), w.copy()
                up[col] += step
                down[col] -= step
                n = (design.loss(up, l2) - design.loss(down, l2)) / (2 * step)
                assert abs(g - n) <= 1e-4 * max(1.0, abs(g))


class TestFit:
    def separable_batch(self):
        rule_a = Rule(0, (1,))
        batch = []
        for i in range(6):
            label = 1 if i % 2 == 0 else -1
            grounding = 0.9 if label == 1 else 0.05
            batch.append((LabeledInstance("d", 0, 0, 1, label), RuleSet([rule_a]), {rule_a: grounding}))
        return batch

    def test_loss_never_increases(self):
        weights = ExtractorWeights()
        result = fit(self.separable_batch(), weights, FitConfig(lr=1.0, epochs=30))
        assert all(b <= a + 1e-12 for a, b in zip(result.losses, result.losses[1:]))
        assert result.losses[-1] <= result.losses[0]

    def test_large_l2_shrinks_weights(self):
        light = ExtractorWeights()
        heavy = ExtractorWeights()
        fit(self.separable_batch(), light, FitConfig(lr=1.0, epochs=30, l2=1e-4))
        fit(self.separable_batch(), heavy, FitConfig(lr=1.0, epochs=30, l2=100.0))
        key = (0, Rule(0, (1,)))
        assert abs(heavy.rule_weight[key]) < abs(light.rule_weight[key])
        assert abs(heavy.rule_weight[key]) < 0.05

    def test_deterministic(self):
        a = ExtractorWeights()
        b = ExtractorWeights()
        fit(self.separable_batch(), a, FitConfig(lr=0.5, epochs=10))
        fit(self.separable_batch(), b, FitConfig(lr=0.5, epochs=10))
        assert a.bias == b.bias
        assert a.rule_weight == b.rule_weight

    def test_zero_epochs_is_identity(self):
        weights = ExtractorWeights()
        weights.bias[0] = 0.25
        result = fit(self.separable_batch(), weights, FitConfig(lr=0.5, epochs=0))
        assert weights.bias[0] == 0.25
        assert len(result.losses) == 1

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            fit(self.separable_batch(), ExtractorWeights(), FitConfig(lr=0.0))
        with pytest.raises(ValueError):
            fit([], ExtractorWeights(), FitConfig())

    def test_descent_equals_a_loop_that_scores_every_call_afresh(self, rng):
        # fit_design keeps the accepted trial's scores for the next gradient
        # and the final scores; recomputing them each time gives the same bits.
        rules = [Rule(r, (b,)) for r in range(3) for b in range(4)]
        batch = []
        for i in range(40):
            relation = int(rng.integers(0, 3))
            picks = [rules[4 * relation + int(b)] for b in rng.integers(0, 4, size=3)]
            batch.append((LabeledInstance("d", 0, relation, 1, 1 if rng.random() < 0.4 else -1),
                          RuleSet(picks), {rule: float(rng.random()) for rule in picks}))
        config = FitConfig(lr=2.0, epochs=12, l2=1e-3)  # a large step: some epochs halve it
        design = _DesignMatrix.from_batch(batch, ExtractorWeights())

        def fresh_scores(w):
            return np.bincount(design.rows, weights=design.vals * w[design.cols], minlength=design.n_rows)

        def loss(w):
            return float(np.logaddexp(0.0, -design.y * fresh_scores(w)).sum() + 0.5 * config.l2 * np.dot(w, w))

        w = design.initial_vector(ExtractorWeights())
        curvature = np.bincount(design.cols, weights=design.vals**2, minlength=len(design.keys))
        precondition = np.maximum(curvature / 4.0 + config.l2, 1e-9)
        losses = [loss(w)]
        for _ in range(config.epochs):
            coef = -design.y / (1.0 + np.exp(design.y * fresh_scores(w)))
            gradient = np.bincount(design.cols, weights=coef[design.rows] * design.vals,
                                   minlength=len(design.keys)) + config.l2 * w
            step = config.lr
            while loss(w - step * (gradient / precondition)) > losses[-1]:
                step /= 2.0
            w = w - step * (gradient / precondition)
            losses.append(loss(w))
        weights = ExtractorWeights()
        result = fit(batch, weights, config)
        assert result.losses == losses
        assert np.array_equal(result.final_scores, fresh_scores(w))
        assert np.array_equal(result.w, w)
        assert list(weights.rule_weight.values()) == w[[k[0] == "rule" for k in design.keys]].tolist()

    def test_divergence_reported_after_halvings(self):
        design = _DesignMatrix.from_batch(self.separable_batch(), ExtractorWeights())
        calls = {"n": 0}

        def rising_loss(w, l2):
            calls["n"] += 1
            return float(calls["n"])  # strictly increasing: no step can ever be accepted

        design.loss = rising_loss
        with pytest.raises(FitDivergenceError):
            fit_design(design, np.zeros(len(design.keys)), FitConfig(lr=0.5, epochs=3))


def bits(values) -> bytes:
    """The float64 bytes of ``values``, which tell -0.0 from 0.0."""
    return np.asarray(values, dtype=float).tobytes()


def test_bincount_adds_in_entry_order_from_positive_zero():
    # The descent, fit_bodies and m_step_generator take their sums from
    # bincount and rely on it adding each bin's entries in entry order into
    # +0.0.  These values give a different sum in any other order.
    values = [1e16, 1.0, -1e16, -0.0]
    for order in itertools.permutations(range(len(values))):
        idx = np.array([0, 0, 0, 0, 1, 3, 3] + [2] * len(order))
        w = np.array([values[i] for i in order] + [-0.0, -0.0, 0.0] + [values[i] for i in order])
        loop = [0.0] * 4
        for i, v in zip(idx.tolist(), w.tolist()):
            loop[i] += v
        assert bits(np.bincount(idx, weights=w, minlength=5)) == bits(loop + [0.0])


def test_max_product_of_transposes_in_reverse_is_the_transpose_bit_for_bit():
    # all_pairs_stack copies a mirrored length-2 body as its partner's
    # transpose and relies on _max_product(L, R) == _max_product(Rᵀ, Lᵀ)ᵀ
    # bit for bit: the same products, commuted, maxed in the same j order.
    # The blocks tie often and hold exact zeros, -0.0 and 5e-324.
    rng = np.random.default_rng(3)
    specials = np.array([0.0, -0.0, 5e-324, 0.5, 0.25, 1.0])

    def block(m, n):
        values = rng.random((m, n, n))
        special = rng.random((m, n, n)) < 0.5
        values[special] = rng.choice(specials, size=int(special.sum()))
        return values

    for m, n in [(1, 1), (3, 2), (4, 5), (2, 9)]:
        for _ in range(20):
            left, right = block(m, n), block(m, n)
            got = _max_product(right.transpose(0, 2, 1), left.transpose(0, 2, 1)).transpose(0, 2, 1)
            assert bits(got) == bits(_max_product(left, right))
    # A length-3 chain's transpose associates the other way:
    # ((X∘Y)∘Z)ᵀ = Zᵀ∘(Yᵀ∘Xᵀ), not the (Zᵀ∘Yᵀ)∘Xᵀ that the mirrored body
    # chains left to right, and at seed 0 the two differ in bits.
    x, y, z = np.random.default_rng(0).random((3, 1, 4, 4))
    chained = _max_product(_max_product(x, y), z).transpose(0, 2, 1)
    mirrored = _max_product(_max_product(z.transpose(0, 2, 1), y.transpose(0, 2, 1)), x.transpose(0, 2, 1))
    assert np.allclose(chained, mirrored) and bits(chained) != bits(mirrored)


class TestNonzeroDesign:
    def test_keeps_exactly_the_nonzero_entries_in_order_with_every_key(self):
        keys = ["a", "b", "c", "d"]
        rows = [0, 0, 1, 1, 1, 2, 2, 3]
        cols = [3, 1, 0, 2, 3, 1, 0, 2]
        vals = [0.5, 0.0, 5e-324, -0.0, -2.0, 1.0, 0.0, 0.25]
        design = _DesignMatrix(keys, rows, cols, vals, [1, -1, 1, -1])
        keep = [0, 2, 4, 5, 7]
        assert design.keys == keys
        assert design.n_rows == 4 and design.y.tolist() == [1.0, -1.0, 1.0, -1.0]
        assert design.rows.tolist() == [rows[i] for i in keep]
        assert design.cols.tolist() == [cols[i] for i in keep]
        assert bits(design.vals) == bits([vals[i] for i in keep])

    def test_subnormal_grounding_is_kept(self):
        design = _DesignMatrix.from_batch(one_rule_batch(1, 5e-324), ExtractorWeights())
        assert design.vals.tolist() == [5e-324, 1.0]
        assert design.keys[0] == ("rule", 0, Rule(0, (0,)))
        assert design.scores(np.array([1.0, 0.0])).tolist() == [5e-324]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_still_rejected(self, bad):
        design = _DesignMatrix(["a", "b"], [0, 0, 1], [0, 1, 1], [0.0, bad, 1.0], [1, -1])
        with pytest.raises(ValueError, match="non-finite feature value"):
            fit_design(design, np.zeros(2), FitConfig())

    def test_descent_equals_a_descent_over_every_entry_bit_for_bit(self, rng):
        # Entries of value ±0.0 are dropped; a descent over the arrays with
        # them, sums by bincount, gives the same bits.  Column 5 has only
        # zero entries: it keeps its key, and l2 alone moves its weight.
        n_rows, n_cols, per_row = 30, 6, 5
        rows = np.repeat(np.arange(n_rows), per_row)
        cols = rng.integers(0, n_cols - 1, size=rows.size)
        vals = rng.normal(size=rows.size)
        vals[rng.random(rows.size) < 0.6] = 0.0
        vals[rng.random(rows.size) < 0.2] = -0.0
        cols[rng.random(rows.size) < 0.1] = n_cols - 1
        vals[cols == n_cols - 1] = rng.choice([0.0, -0.0], size=int(np.sum(cols == n_cols - 1)))
        y = rng.choice([-1.0, 1.0], size=n_rows)
        w0 = rng.normal(size=n_cols)
        assert (w0 < 0).any() and (vals == 0.0).any() and np.signbit(vals[vals == 0.0]).any()
        config = FitConfig(lr=2.0, epochs=12, l2=1e-2)

        def scores(w):
            return np.bincount(rows, weights=vals * w[cols], minlength=n_rows)

        def loss(w):
            return float(np.logaddexp(0.0, -y * scores(w)).sum() + 0.5 * config.l2 * np.dot(w, w))

        precondition = np.maximum(np.bincount(cols, weights=vals**2, minlength=n_cols) / 4.0 + config.l2, 1e-9)
        w, losses = w0, [loss(w0)]
        for _ in range(config.epochs):
            coef = -y / (1.0 + np.exp(y * scores(w)))
            direction = (np.bincount(cols, weights=coef[rows] * vals, minlength=n_cols) + config.l2 * w) / precondition
            step = config.lr
            while loss(w - step * direction) > losses[-1]:
                step /= 2.0
            w = w - step * direction
            losses.append(loss(w))
        keys = [f"k{j}" for j in range(n_cols)]
        design = _DesignMatrix(keys, rows, cols, vals, y)
        assert design.keys == keys and design.vals.size == np.count_nonzero(vals) < vals.size
        result = fit_design(design, w0, config)
        assert bits(result.losses) == bits(losses)
        assert bits(result.w) == bits(w)
        assert bits(result.final_scores) == bits(scores(w))
        assert result.w[-1] != w0[-1]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        vocab = build_vocab(["a", "b"])
        weights = ExtractorWeights()
        weights.bias[0] = -1.25
        weights.set_rule_weight(2, Rule(2, (0, 1)), 3.5)
        path = tmp_path / "extractor.json"
        weights.save(path, vocab)
        loaded = ExtractorWeights.load(path, vocab)
        assert loaded.bias == weights.bias
        assert loaded.rule_weight == weights.rule_weight

    def test_rule_weight_requires_matching_head(self):
        weights = ExtractorWeights()
        with pytest.raises(ValueError):
            weights.set_rule_weight(1, Rule(2, (0,)), 1.0)
