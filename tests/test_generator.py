import itertools
import json
import math

import numpy as np
import pytest

from rulex.core import Rule, build_vocab, pad_bodies
from rulex.generator import ENUM_LIMIT, RuleGenerator


def fresh(names=("a", "b"), self_inverse=(), **kwargs):
    return RuleGenerator(build_vocab(names, set(self_inverse)), **kwargs)


def all_bodies(size, max_len):
    for length in range(1, max_len + 1):
        yield from itertools.product(range(size), repeat=length)


def per_event_counts(model, head, weighted_bodies):
    """Counts after one scalar update per (context, token) event of each body.

    The reference for ``fit_bodies``: termination counts below ``max_len``
    only, and zero-weight bodies touch nothing.
    """
    counts = {key: vec.copy() for key, vec in model.counts.items()}
    for body, weight in weighted_bodies:
        if weight == 0.0:
            continue
        positions = list(enumerate(body))
        if len(body) < model.max_len:
            positions.append((len(body), model.vocab.stop_id))
        for position, token in positions:
            for d in range(min(position, model.order) + 1):
                key = (head, tuple(body[position - d : position]))
                vec = counts.get(key)
                if vec is None:
                    vec = counts[key] = np.zeros(model.vocab.size + 1)
                vec[token] += weight
    return counts


def assert_same_counts(got, want):
    assert list(got) == list(want)  # the same contexts, entered in the same order
    for key, vec in want.items():
        assert np.array_equal(got[key], vec), key


class TestLogProb:
    def test_uniform_model_single_token_body(self):
        # 4 relations: first token uniform over 4, then termination uniform
        # over 5 symbols.
        model = fresh()
        expected = -math.log(4) - math.log(5)
        assert model.log_prob(0, (1,)) == pytest.approx(expected, abs=1e-12)

    def test_max_length_body_has_free_termination(self):
        model = fresh(max_len=2)
        body = (1, 2)
        total = 0.0
        for i in range(len(body)):
            _, probs = model.conditional(0, body[:i])
            total += math.log(probs[body[i]])
        assert model.log_prob(0, body) == pytest.approx(total, abs=1e-12)

    def test_deterministic_for_equal_rules(self):
        model = fresh()
        assert model.log_prob(2, (0, 1)) == model.log_prob(2, (0, 1))

    def test_rejects_bad_bodies(self):
        model = fresh()
        with pytest.raises(ValueError):
            model.log_prob(0, ())
        with pytest.raises(ValueError):
            model.log_prob(0, (1, 1, 1, 1))
        with pytest.raises(ValueError):
            model.log_prob(0, (9,))

    def test_finite_after_fits(self, rng):
        model = fresh()
        model.fit_weighted(0, [(Rule(0, (1,)), 5.0)])
        for body in all_bodies(4, 3):
            assert math.isfinite(model.log_prob(0, body))


class TestNormalization:
    @pytest.mark.parametrize("names", [("a",), ("a", "b"), ("a", "b", "c")])
    def test_total_probability_is_one(self, names, rng):
        model = fresh(names)
        size = model.vocab.size
        for round_idx in range(3):
            for head in range(size):
                total = math.fsum(math.exp(model.log_prob(head, body)) for body in all_bodies(size, 3))
                assert total == pytest.approx(1.0, abs=1e-6)
            bodies = list(all_bodies(size, 3))
            for head in range(size):
                picks = rng.integers(0, len(bodies), size=4)
                model.fit_weighted(head, [(Rule(head, bodies[int(i)]), float(rng.random()) + 0.1)
                                          for i in picks])

    def test_every_conditional_sums_to_one(self, rng):
        model = fresh(("a", "b", "c"))
        bodies = list(all_bodies(model.vocab.size, 3))
        for head in range(model.vocab.size):
            picks = rng.integers(0, len(bodies), size=6)
            model.fit_weighted(head, [(Rule(head, bodies[int(i)]), float(rng.random()) + 0.1)
                                      for i in picks])
        for head in range(model.vocab.size):
            for prefix in [(), (0,), (1, 2), (5, 0)]:
                _, probs = model.conditional(head, prefix)
                assert probs.sum() == pytest.approx(1.0, abs=1e-9)
                assert (probs > 0).all()

    def test_enumeration_matches_log_prob(self):
        model = fresh()
        model.fit_weighted(1, [(Rule(1, (0, 2)), 2.0), (Rule(1, (3,)), 1.0)])
        bodies, probs = model.enumerate_rules(1)
        for body, p in zip(bodies, probs):
            assert p == pytest.approx(math.exp(model.log_prob(1, body)), rel=1e-12)

    @pytest.mark.parametrize("order,max_len", [(0, 2), (1, 3), (2, 3), (3, 4)])
    def test_enumeration_equals_per_prefix_conditionals_bit_for_bit(self, order, max_len, rng):
        # Reference: one ``conditional`` call per prefix, level by level, the
        # log-probabilities then sorted into lexicographic body order.
        model = fresh(("a", "b"), order=order, lambdas=[0.4] * (order + 1), max_len=max_len, alpha=0.3)
        size = model.vocab.size
        bodies = list(all_bodies(size, max_len))
        for head in range(size):
            picks = rng.integers(0, len(bodies), size=6)
            model.fit_weighted(head, [(Rule(head, bodies[int(i)]), float(rng.random()) + 0.1) for i in picks])
        for head in (0, 2):
            generated, chunks, prefixes, prefix_logs = [], [], [()], np.zeros(1)
            for level in range(max_len):
                conds = np.array([model.conditional(head, prefix)[1] for prefix in prefixes])
                log_conds = np.log(conds)
                if level > 0:
                    generated.extend(prefixes)
                    chunks.append(prefix_logs + log_conds[:, size])
                prefix_logs = (prefix_logs[:, None] + log_conds[:, :size]).ravel()
                prefixes = [prefix + (x,) for prefix in prefixes for x in range(size)]
            generated.extend(prefixes)
            chunks.append(prefix_logs)
            order_ = sorted(range(len(generated)), key=generated.__getitem__)
            want = np.concatenate(chunks)[order_]
            got_bodies, got_probs = model.enumerate_rules(head)
            assert got_bodies == [generated[i] for i in order_]
            assert np.array_equal(model.log_probs_by_index(head, np.arange(len(want))), want)
            assert np.array_equal(got_probs, np.exp(want))

    def test_body_table_follows_every_heads_enumeration_order(self):
        model = fresh()
        model.fit_weighted(1, [(Rule(1, (0, 2)), 2.0), (Rule(1, (3,)), 1.0)])
        table = model.body_table()
        for head in (0, 1):
            bodies = [model.rule_at(head, i).body for i in range(model.enumerable_size())]
            assert [tuple(int(r) for r in row if r >= 0) for row in table] == bodies


class TestSampling:
    def test_degenerate_conditionals_sample_deterministically(self, rng):
        # Conditionals concentrated on one token then on termination: the
        # count tables are set directly so every backoff depth agrees.
        model = fresh(alpha=1e-12)
        width = model.vocab.size + 1
        first = np.zeros(width)
        first[2] = 1.0
        first[model.vocab.stop_id] = 1e9  # read only at positions where STOP is allowed
        after = np.zeros(width)
        after[model.vocab.stop_id] = 1e9
        model.counts[(0, ())] = first
        model.counts[(0, (2,))] = after
        for _ in range(20):
            assert model.sample_rule(0, rng) == Rule(0, (2,))

    def test_fixed_seed_reproduces_rule(self):
        model = fresh()
        first = model.sample_rule(1, np.random.default_rng(7))
        second = model.sample_rule(1, np.random.default_rng(7))
        assert first == second

    def test_length_distribution_matches_analytic_law(self):
        # Uniform conditionals: stop probability is 1/(R+1) at positions
        # 1..L-1 and 1 at L, giving a truncated geometric law over lengths.
        model = fresh()
        r = model.vocab.size
        expected = {
            1: 1 / (r + 1),
            2: (r / (r + 1)) * (1 / (r + 1)),
            3: (r / (r + 1)) ** 2,
        }
        rng = np.random.default_rng(123)
        counts = {1: 0, 2: 0, 3: 0}
        draws = 100_000
        for _ in range(draws):
            counts[len(model.sample_rule(0, rng))] += 1
        for length, p in expected.items():
            assert counts[length] / draws == pytest.approx(p, abs=0.01)

    def test_ruleset_size_and_multiplicities(self, rng):
        model = fresh()
        ruleset = model.sample_ruleset(0, 50, rng)
        assert len(ruleset) == 50
        assert sum(ruleset.counts().values()) == 50
        singleton = model.sample_ruleset(0, 1, rng)
        assert len(singleton) == 1

    def test_zero_size_rejected(self, rng):
        with pytest.raises(ValueError):
            fresh().sample_ruleset(0, 0, rng)

    def test_empirical_frequencies_match_probabilities(self):
        # Enumerable case: frequency of every rule over 200k draws stays
        # within three standard errors of its probability.
        model = fresh(("a",), max_len=2)
        model.fit_weighted(0, [(Rule(0, (1, 0)), 3.0), (Rule(0, (0,)), 1.0)])
        bodies, probs = model.enumerate_rules(0)
        rng = np.random.default_rng(5)
        draws = 200_000
        ruleset = model.sample_ruleset(0, draws, rng)
        counts = ruleset.counts()
        for body, p in zip(bodies, probs):
            observed = counts.get(Rule(0, body), 0) / draws
            se = math.sqrt(p * (1 - p) / draws)
            assert abs(observed - p) <= 3 * se + 1e-9

    def test_unique_sampling_agrees_with_ruleset(self):
        model = fresh()
        rules, counts, log_probs = model.sample_unique_rules(2, 40, np.random.default_rng(9))
        assert int(counts.sum()) == 40
        assert [r.body for r in rules] == sorted(r.body for r in rules)
        for rule, lp in zip(rules, log_probs):
            assert lp == pytest.approx(model.log_prob(2, rule.body), abs=1e-9)


class TestTopRules:
    def test_padding_when_space_exhausted(self):
        model = fresh(("only",), ("only",), max_len=1)  # a single possible rule
        ruleset = model.top_rules(0, 3, beam=3)
        assert list(ruleset) == [Rule(0, (0,))] * 3

    def test_uniform_two_relations_lexicographic(self):
        model = fresh(("a",), max_len=1)  # two relation ids, bodies of length 1
        ruleset = model.top_rules(0, 2, beam=4)
        assert [r.body for r in ruleset] == [(0,), (1,)]

    def test_log_probs_non_increasing(self, rng):
        model = fresh(("a", "b"))
        bodies = list(all_bodies(4, 3))
        model.fit_weighted(0, [(Rule(0, bodies[int(i)]), float(rng.random()) + 0.1)
                               for i in rng.integers(0, len(bodies), size=8)])
        scores = [model.log_prob(0, r.body) for r in model.top_rules(0, 10, beam=64)]
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_beam_narrower_than_n_rejected(self):
        with pytest.raises(ValueError):
            fresh().top_rules(0, 10, beam=5)

    def test_heavily_fitted_rule_ranks_high(self):
        # Backoff sharing spreads some mass onto related shorter bodies, so
        # the fitted rule need not be the single argmax, but it must rank
        # near the top.
        model = fresh()
        model.fit_weighted(3, [(Rule(3, (1, 2)), 50.0)])
        top = model.top_rules(3, 3, beam=32)
        assert Rule(3, (1, 2)) in set(top)


class TestFitWeighted:
    def test_mle_monotonicity_on_own_support(self):
        model = fresh(alpha=1e-9)
        rule = Rule(0, (1, 2))
        before = model.log_prob(0, rule.body)
        model.fit_weighted(0, [(rule, 1.0)])
        assert model.log_prob(0, rule.body) > before

    def test_first_token_ratio_approaches_weights(self):
        # Two single-token rules with 9:1 weights: with vanishing smoothing
        # the first-token probabilities converge to the same ratio.
        model = fresh(alpha=1e-9)
        model.fit_weighted(0, [(Rule(0, (1,)), 0.9), (Rule(0, (2,)), 0.1)])
        _, probs = model.conditional(0, ())
        assert probs[1] / probs[2] == pytest.approx(9.0, rel=1e-4)

    def test_zero_weights_contribute_nothing(self):
        a = fresh()
        b = fresh()
        a.fit_weighted(0, [(Rule(0, (1,)), 1.0), (Rule(0, (2,)), 0.0)])
        b.fit_weighted(0, [(Rule(0, (1,)), 1.0)])
        for body in all_bodies(4, 3):
            assert a.log_prob(0, body) == pytest.approx(b.log_prob(0, body), rel=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            fresh().fit_weighted(0, [(Rule(0, (1,)), 0.0)])

    def test_mismatched_head_rejected(self):
        with pytest.raises(ValueError):
            fresh().fit_weighted(0, [(Rule(1, (1,)), 1.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            fresh().fit_weighted(0, [(Rule(0, (1,)), -0.5)])

    def test_uniform_model_is_an_expected_count_fixpoint(self):
        # A fresh model's expected counts refit to nearly the same
        # distribution.  The residual comes from the depth-0 table serving
        # both the first position (where termination is excluded) and later
        # ones; it is bounded well below any fitted-signal scale.
        model = fresh(alpha=1e-6)
        bodies, probs = model.enumerate_rules(0)
        refit = fresh(alpha=1e-6)
        refit.fit_weighted(0, [(Rule(0, body), 1e6 * p) for body, p in zip(bodies, probs)])
        _, probs2 = refit.enumerate_rules(0)
        assert np.max(np.abs(probs - probs2)) < 5e-3

    def test_expected_count_refits_contract(self):
        # For a concentrated model the backoff interpolation redistributes
        # some mass, so one refit is not exact; iterating refits contracts
        # toward a fixpoint.
        def tv(p, q):
            return 0.5 * float(np.abs(p - q).sum())

        model = fresh(alpha=1e-6)
        model.fit_weighted(0, [(Rule(0, (1, 2)), 4.0), (Rule(0, (3,)), 2.0), (Rule(0, (0, 0, 1)), 1.0)])
        bodies, probs = model.enumerate_rules(0)
        current = probs
        distances = []
        for _ in range(3):
            refit = fresh(alpha=1e-6)
            refit.fit_weighted(0, [(Rule(0, body), 1e6 * p) for body, p in zip(bodies, current)])
            _, nxt = refit.enumerate_rules(0)
            distances.append(tv(current, nxt))
            current = nxt
        assert distances[1] < distances[0]
        assert distances[2] < distances[1]


class TestSerialization:
    def test_round_trip_preserves_distribution_and_sampling(self, tmp_path, rng):
        model = fresh(("a", "b"))
        bodies = list(all_bodies(4, 3))
        for head in range(4):
            model.fit_weighted(head, [(Rule(head, bodies[int(i)]), float(rng.random()))
                                      for i in rng.integers(0, len(bodies), size=5)])
        path = tmp_path / "generator.json"
        model.save(path)
        loaded = RuleGenerator.load(path)
        assert loaded.vocab == model.vocab
        for head in range(4):
            for body in bodies:
                assert loaded.log_prob(head, body) == pytest.approx(model.log_prob(head, body), rel=1e-12)
        a = model.sample_ruleset(0, 20, np.random.default_rng(3))
        b = loaded.sample_ruleset(0, 20, np.random.default_rng(3))
        assert list(a) == list(b)


class TestFitBodies:
    @pytest.mark.parametrize("order,max_len", [(0, 3), (1, 2), (2, 3), (3, 4), (2, 1)])
    def test_equals_one_update_per_event_bit_for_bit(self, order, max_len):
        rng = np.random.default_rng(order * 10 + max_len)
        model = fresh(("a", "b"), order=order, lambdas=[0.5] * (order + 1), max_len=max_len)
        size = model.vocab.size
        for round_idx in range(4):  # later rounds add into existing count rows
            head = int(rng.integers(0, size))
            weighted = [((1,) * max_len, 0.7), ((1,) * max_len, 0.7), ((1,), 0.3)]  # repeated tokens
            weighted.append(((2,) * max_len, 0.0))  # zero weight: no event, no context
            for _ in range(12):
                body = tuple(int(r) for r in rng.integers(0, size, size=int(rng.integers(1, max_len + 1))))
                weighted.append((body, 0.0 if rng.random() < 0.2 else float(rng.random()) * 3))
            want = per_event_counts(model, head, weighted)
            model.fit_bodies(head, pad_bodies([b for b, _ in weighted], max_len),
                             np.array([w for _, w in weighted]))
            assert_same_counts(model.counts, want)

    def test_stop_events_only_below_max_len(self):
        model = fresh(max_len=2)
        model.fit_bodies(0, np.array([[1, 2], [3, -1]]), np.array([1.0, 2.0]))
        stop = model.vocab.stop_id
        assert model.counts[(0, (1,))][2] == 1.0
        assert model.counts[(0, (1,))][stop] == 0.0  # (1, 2) ends at max_len: the stop is forced
        assert model.counts[(0, (3,))][stop] == 2.0
        assert model.counts[(0, ())][stop] == 2.0
        assert (0, (1, 2)) not in model.counts

    @pytest.mark.parametrize("bodies", [[[0], [2]], [[0, -1, -1, -1], [2, -1, -1, -1]]])
    def test_any_padding_width_and_fit_weighted_agree(self, bodies):
        a, b = fresh(), fresh()
        a.fit_bodies(1, np.array(bodies), np.array([1.5, 0.5]))
        b.fit_weighted(1, [(Rule(1, (0,)), 1.5), (Rule(1, (2,)), 0.5)])
        assert_same_counts(a.counts, b.counts)

    @pytest.mark.parametrize("bodies,weights", [
        ([[1, -1, -1]], [float("nan")]),
        ([[1, -1, -1]], [float("inf")]),
        ([[1, -1, -1], [2, -1, -1]], [1.0, -0.5]),
        ([[1, -1, -1]], [0.0]),
        (np.zeros((0, 3), dtype=int), []),
        ([[1, -1, 2]], [1.0]),  # a hole in the padding
        ([[-1, -1, -1]], [1.0]),  # empty body
        ([[4, -1, -1]], [1.0]),  # relation id out of range
        ([[1, 1, 1, 1]], [1.0]),  # longer than max_len
        ([[1, -1, -1]], [1.0, 2.0]),  # one weight per body
    ])
    def test_rejects_bad_input_and_leaves_counts_alone(self, bodies, weights):
        model = fresh()
        model.fit_weighted(0, [(Rule(0, (3,)), 1.0)])
        before = {key: vec.copy() for key, vec in model.counts.items()}
        with pytest.raises(ValueError):
            model.fit_bodies(0, np.array(bodies), np.array(weights))
        assert_same_counts(model.counts, before)

    def test_rejects_bad_head(self):
        with pytest.raises(ValueError):
            fresh().fit_bodies(4, np.array([[1, -1, -1]]), np.array([1.0]))

    def test_fit_weighted_rejects_long_bodies_and_nan(self):
        with pytest.raises(ValueError):
            fresh().fit_weighted(0, [(Rule(0, (1, 1, 1, 1)), 1.0)])
        with pytest.raises(ValueError):
            fresh().fit_weighted(0, [(Rule(0, (1,)), float("nan"))])
        with pytest.raises(ValueError):
            fresh().fit_weighted(0, [])


class TestRuleIds:
    def test_enumerable_ids_are_enumeration_indices(self):
        model = fresh()
        bodies, _ = model.enumerate_rules(0)
        assert np.array_equal(model.rule_ids(bodies), np.arange(len(bodies)))
        assert np.array_equal(model.rule_ids(reversed(bodies)), np.arange(len(bodies))[::-1])
        assert len(model.body_table()) == model.enumerable_size()
        with pytest.raises(ValueError):
            model.rule_ids([(1, 1, 1, 1)])

    def test_past_enum_limit_ids_follow_first_seen_order(self):
        model = fresh(tuple(f"r{i}" for i in range(24)))
        assert len(model.body_table()) == 0
        first = [(5, 2), (1,), (5, 2), (0, 47, 3)]
        assert model.rule_ids(first).tolist() == [0, 1, 0, 2]
        assert model.rule_ids([(7,), (1,), (7,)]).tolist() == [3, 1, 3]
        bodies = [(5, 2), (1,), (0, 47, 3), (7,)]
        assert model.body_table().tolist() == pad_bodies(bodies, 3).tolist()
        assert model.rule_ids(bodies).tolist() == [0, 1, 2, 3]  # re-interning changes nothing
        assert [model.rule_at(0, i).body for i in (3, 0)] == [(7,), (5, 2)]
        assert model.rule_at(9, 2) == Rule(9, (0, 47, 3))
        for bad in ([()], [(48,)], [(1, 1, 1, 1)]):
            with pytest.raises(ValueError):
                model.rule_ids(bad)
        assert len(model.body_table()) == 4

    def test_body_table_round_trips_ids(self):
        for names in (("a", "b"), tuple(f"r{i}" for i in range(24))):
            model = fresh(names)
            rng = np.random.default_rng(3)
            bodies = [tuple(int(r) for r in rng.integers(0, model.vocab.size, size=rng.integers(1, 4)))
                      for _ in range(40)]
            ids = model.rule_ids(bodies)
            assert [tuple(r for r in row if r >= 0) for row in model.body_table()[ids].tolist()] == bodies


class TestBatchedDraws:
    def fitted(self):
        model = fresh()
        for head in range(model.vocab.size):
            model.fit_weighted(head, [(Rule(head, (head,)), 5.0 * head + 1.0), (Rule(head, (0, 1)), 2.0)])
        return model

    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_equal_one_draw_per_head_and_leave_the_same_rng_state(self, n):
        model = self.fitted()
        heads = np.random.default_rng(1).integers(0, model.vocab.size, size=40)
        batched_rng, reference_rng = np.random.default_rng(4), np.random.default_rng(4)
        support, counts, log_probs, sizes = model.sample_unique_index_rows(heads, n, batched_rng)
        assert len(sizes) == len(heads) and int(sizes.sum()) == len(support) == len(counts) == len(log_probs)
        end = 0
        for head, size in zip(heads.tolist(), sizes.tolist()):
            # Reference: one inverse-CDF draw per head, deduplicated by np.unique.
            everything = np.arange(model.enumerable_size())
            cdf = np.cumsum(np.exp(model.log_probs_by_index(head, everything)))
            cdf[-1] = max(cdf[-1], 1.0)
            idx = np.searchsorted(cdf, reference_rng.random(n), side="right")
            unique, multiplicity = np.unique(idx, return_counts=True)
            want = (unique, multiplicity, model.log_probs_by_index(head, unique))
            got = (support[end : end + size], counts[end : end + size], log_probs[end : end + size])
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            end += size
        assert batched_rng.bit_generator.state == reference_rng.bit_generator.state
        assert batched_rng.random() == reference_rng.random()

    def test_past_enum_limit_interns_one_ancestral_draw_per_row(self):
        model = fresh(tuple(f"r{i}" for i in range(24)))
        assert model.enumerable_size() > ENUM_LIMIT
        for head in range(model.vocab.size):
            model.fit_weighted(head, [(Rule(head, (head,)), 2.0)])
        heads = [3, 0, 3, 47]
        batched_rng, reference_rng = np.random.default_rng(6), np.random.default_rng(6)
        support, counts, log_probs, sizes = model.sample_unique_index_rows(heads, 9, batched_rng)
        assert support.dtype == counts.dtype == sizes.dtype == np.intp
        end = 0
        for head, size in zip(heads, sizes.tolist()):
            rules, want_counts, want_log_probs = model.sample_unique_rules(head, 9, reference_rng)
            ids = support[end : end + size]
            assert [model.rule_at(head, i) for i in ids.tolist()] == rules
            assert np.array_equal(counts[end : end + size], want_counts)
            assert np.array_equal(log_probs[end : end + size], want_log_probs)
            assert np.array_equal(model.log_probs_by_index(head, ids), want_log_probs)
            end += size
        assert end == len(support)
        assert batched_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_rule_objects_are_built_once(self):
        model = self.fitted()
        first = model.rule_at(2, 17)
        model.fit_weighted(2, [(Rule(2, (3,)), 1.0)])
        assert model.rule_at(2, 17) is first
        assert first == Rule(2, [int(r) for r in model.body_table()[17] if r >= 0])


def fitted_model(names=("a", "b"), seed=0, heads=None, picks=6, **kwargs):
    """A generator fitted on random bodies of the given heads (all heads by default)."""
    model = fresh(names, **kwargs)
    rng = np.random.default_rng(seed)
    size = model.vocab.size
    for head in range(size) if heads is None else heads:
        bodies = [tuple(int(r) for r in rng.integers(0, size, size=int(rng.integers(1, model.max_len + 1))))
                  for _ in range(picks)]
        model.fit_weighted(head, [(Rule(head, body), float(rng.random()) * 3 + 0.1) for body in bodies])
    return model


def python_beam(model, head, n, beam):
    """The list-based beam search over ``conditional`` that ``top_rules`` replaced: the reference."""
    frontier = [(0.0, ())]
    completed = []
    for _ in range(model.max_len + 1):
        expansions = []
        for lp, prefix in frontier:
            support, probs = model.conditional(head, prefix)
            for sym, p in zip(support, probs):
                if sym == model.vocab.stop_id:
                    if prefix:
                        completed.append((lp + math.log(p), prefix))
                else:
                    expansions.append((lp + math.log(p), prefix + (int(sym),)))
        expansions.sort(key=lambda item: (-item[0], item[1]))
        frontier = expansions[:beam]
        if not frontier:
            break
    completed.sort(key=lambda item: (-item[0], item[1]))
    best = [Rule(head, body) for _, body in completed[:n]]
    while len(best) < n:
        best.append(best[0])
    return best


class TestConditionals:
    @pytest.mark.parametrize("order,max_len", [(0, 2), (1, 3), (2, 3), (3, 4)])
    def test_equal_conditional_bit_for_bit(self, order, max_len):
        # Head 1 is fitted on a few bodies, so its contexts are touched at
        # some depths and not at others; head 3 is untouched.
        model = fitted_model(order=order, lambdas=[0.3 + 0.1 * d for d in range(order + 1)],
                             max_len=max_len, heads=[1], picks=5, seed=order)
        size = model.vocab.size
        for head in (1, 3):
            for position in range(max_len + 1):
                prefixes = list(itertools.product(range(size), repeat=position))
                support, probs = model.conditionals(head, np.array(prefixes, dtype=np.intp).reshape(len(prefixes), position))
                assert probs.shape == (len(prefixes), len(support))
                for prefix, row in zip(prefixes, probs):
                    want_support, want = model.conditional(head, prefix)
                    assert np.array_equal(support, want_support)
                    assert np.array_equal(row, want), (head, prefix)

    def test_rows_in_any_order_with_repeats(self):
        model = fitted_model()
        prefixes = np.array([[3, 1], [0, 0], [3, 1], [2, 3], [0, 0]])
        _, probs = model.conditionals(2, prefixes)
        for prefix, row in zip(prefixes.tolist(), probs):
            assert np.array_equal(row, model.conditional(2, tuple(prefix))[1])
        _, none = model.conditionals(2, np.zeros((0, 2), dtype=np.intp))
        assert none.shape == (0, model.vocab.size + 1)

    def test_rejects_a_flat_prefix(self):
        with pytest.raises(ValueError):
            fresh().conditionals(0, np.array([1, 2]))


class TestArrayBeam:
    @pytest.mark.parametrize("order,seed", [(0, 1), (1, 2), (2, 3), (3, 4)])
    def test_fitted_models_equal_the_python_beam(self, order, seed):
        model = fitted_model(("a", "b", "c"), seed=seed, order=order, lambdas=[0.5] * (order + 1),
                             max_len=3, picks=4)
        for head in range(model.vocab.size):
            for n, beam in ((1, 1), (5, 7), (20, 40)):
                assert list(model.top_rules(head, n, beam)) == python_beam(model, head, n, beam)

    def test_uniform_model_breaks_every_tie_like_the_python_beam(self):
        model = fresh(("a", "b"))
        for n, beam in ((3, 3), (10, 16), (40, 200)):
            assert list(model.top_rules(0, n, beam)) == python_beam(model, 0, n, beam)

    def test_padding_when_the_beam_runs_out(self):
        model = fresh(("only",), ("only",), max_len=2)  # bodies (0,) and (0, 0)
        got = list(model.top_rules(0, 5, beam=6))
        assert got == python_beam(model, 0, 5, 6)
        assert len(got) == 5 and len(set(got)) == 2

    def test_past_enum_limit_equals_the_python_beam(self):
        model = fitted_model(tuple(f"r{i}" for i in range(24)), heads=[0, 5, 47], picks=10)
        assert model.enumerable_size() > ENUM_LIMIT
        for head in (0, 5, 30):
            assert list(model.top_rules(head, 8, 12)) == python_beam(model, head, 8, 12)


class TestBatchedLogProbs:
    @pytest.mark.parametrize("order,max_len", [(0, 2), (1, 3), (2, 3), (3, 4)])
    def test_enumerable_bodies_equal_log_prob_bit_for_bit(self, order, max_len):
        model = fitted_model(order=order, lambdas=[0.4] * (order + 1), max_len=max_len, seed=order)
        bodies = list(all_bodies(model.vocab.size, max_len))
        for head in (0, 2):
            want = [model.log_prob(head, body) for body in bodies]
            assert model._body_log_probs(head, pad_bodies(bodies, max_len)).tolist() == want
            short = [body for body in bodies if len(body) < max_len]  # padded narrower than max_len
            assert model._body_log_probs(head, pad_bodies(short, max_len - 1)).tolist() == \
                [model.log_prob(head, body) for body in short]

    def test_past_enum_limit_log_probs_by_index_equal_log_prob_bit_for_bit(self):
        model = fitted_model(tuple(f"r{i}" for i in range(24)), heads=[4, 9], picks=30)
        assert model.enumerable_size() > ENUM_LIMIT
        rng = np.random.default_rng(2)
        bodies = [tuple(int(r) for r in rng.integers(0, 12, size=int(rng.integers(1, 4)))) for _ in range(300)]
        ids = model.rule_ids(bodies)  # small ids: many repeats
        for head in (4, 9, 20):
            got = model.log_probs_by_index(head, ids)
            assert got.dtype == float and got.tolist() == [model.log_prob(head, body) for body in bodies]
        assert model.log_probs_by_index(4, np.array([], dtype=np.intp)).shape == (0,)

    def test_ancestral_draws_sum_log_prob_while_drawing_bit_for_bit(self):
        model = fitted_model(tuple(f"r{i}" for i in range(24)), heads=[4, 9], picks=30)
        for head in (4, 9, 20):
            rng, reference_rng = np.random.default_rng(head), np.random.default_rng(head)
            rules, _, log_probs = model.sample_unique_rules(head, 60, rng)
            assert log_probs.tolist() == [model.log_prob(head, rule.body) for rule in rules]
            # The draws read the rng as one inverse-CDF lookup per token did before.
            drawn = []
            for _ in range(60):
                body = []
                while True:
                    support, probs = model.conditional(head, tuple(body))
                    token = int(support[np.searchsorted(np.cumsum(probs), reference_rng.random(), side="right")])
                    if token == model.vocab.stop_id:
                        break
                    body.append(token)
                    if len(body) == model.max_len:
                        break
                drawn.append(tuple(body))
            assert [rule.body for rule in rules] == sorted(set(drawn))
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_past_enum_limit_rejects_a_bad_head(self):
        model = fresh(tuple(f"r{i}" for i in range(24)))
        with pytest.raises(ValueError):
            model.log_probs_by_index(48, model.rule_ids([(1,)]))


class TestStreamedSave:
    @pytest.mark.parametrize("names", [("a", "b", "c", "d", "e", "f"), tuple(f"r{i}" for i in range(24))])
    def test_bytes_equal_json_dump_and_load_back(self, names, tmp_path):
        # 12 or 48 ids: keys "10|..." sort before "2|..." as strings.
        for model in (fresh(names), fitted_model(names, picks=3)):
            model.save(tmp_path / "streamed.json")
            with open(tmp_path / "reference.json", "w", encoding="utf-8") as fh:
                json.dump(model.to_json(), fh, sort_keys=True)
                fh.write("\n")
            assert (tmp_path / "streamed.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
            loaded = RuleGenerator.load(tmp_path / "streamed.json")
            assert loaded.to_json() == model.to_json()
