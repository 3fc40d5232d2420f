import base64
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import rulex.core
import rulex.generator
from rulex.core import Rule, build_vocab, pad_bodies
from rulex.generator import ENUM_LIMIT, RuleGenerator

from conftest import count_arrays, dense_counts, enumeration, set_count_arrays, with_counts


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
    counts = dense_counts(model)
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
    return {key: counts[key] for key in sorted(counts, key=lambda key: (key[0], len(key[1]), key[1]))}


def assert_same_counts(got, want):
    assert list(got) == list(want)  # the same contexts, in generator.json's order
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
        bodies, probs = enumeration(model, 1)
        for body, p in zip(bodies, probs):
            assert p == pytest.approx(math.exp(model.log_prob(1, body)), rel=1e-12)

    @pytest.mark.parametrize("order,max_len", [(0, 2), (1, 3), (2, 3), (3, 4)])
    def test_enumeration_equals_per_prefix_conditionals_bit_for_bit(self, order, max_len, rng):
        # Reference: one dense-row ``conditional`` call per prefix, level by
        # level, the log-probabilities then sorted into lexicographic body order.
        model = fresh(("a", "b"), order=order, lambdas=[0.4] * (order + 1), max_len=max_len, alpha=0.3)
        size = model.vocab.size
        bodies = list(all_bodies(size, max_len))
        for head in range(size):
            picks = rng.integers(0, len(bodies), size=6)
            model.fit_weighted(head, [(Rule(head, bodies[int(i)]), float(rng.random()) + 0.1) for i in picks])
        reference = dense_reference(model)
        for head in (0, 2):
            generated, chunks, prefixes, prefix_logs = [], [], [()], np.zeros(1)
            for level in range(max_len):
                conds = np.array([reference.conditional(head, prefix)[1] for prefix in prefixes])
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
            got_bodies, got_probs = enumeration(model, head)
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
        model = with_counts(model, {(0, ()): first, (0, (2,)): after})
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

    @pytest.mark.parametrize("names", [("a", "b"), tuple(f"r{i}" for i in range(24))])
    @pytest.mark.parametrize("n", [0, -1])
    def test_every_rule_count_below_one_is_the_same_error(self, names, n, rng):
        # Both regimes: an enumerable vocabulary and one past ENUM_LIMIT.
        model = fresh(names)
        calls = (
            lambda: model.top_rules(0, n, 5),
            lambda: model.sample_ruleset(0, n, rng),
            lambda: model.sample_unique_rules(0, n, rng),
            lambda: model.sample_unique_indices(0, n, rng),
            lambda: model.sample_unique_index_rows([0, 1], n, rng),
        )
        for call in calls:
            with pytest.raises(ValueError, match="ruleset size must be >= 1"):
                call()

    def test_a_uniform_at_the_rounded_cdf_end_draws_the_last_token(self):
        # Six uniform first tokens sum to just below 1, so without a guard
        # the largest uniform below 1 falls past the last bucket.
        class LastUniform:
            def random(self, size=None):  # every uniform, alone or in a block, is the same value
                value = np.nextafter(1.0, 0.0)
                return value if size is None else np.full(size, value)

        model = fresh(("a", "b", "c"))
        _, probs = model.conditional(0, ())
        assert np.cumsum(probs)[-1] <= LastUniform().random()
        assert model.sample_rule(0, LastUniform()) == Rule(0, (5,))  # then STOP, the last token

    def test_empirical_frequencies_match_probabilities(self):
        # Enumerable case: frequency of every rule over 200k draws stays
        # within three standard errors of its probability.
        model = fresh(("a",), max_len=2)
        model.fit_weighted(0, [(Rule(0, (1, 0)), 3.0), (Rule(0, (0,)), 1.0)])
        bodies, probs = enumeration(model, 0)
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

    @pytest.mark.parametrize("names", [("a", "b"), tuple(f"r{i}" for i in range(24))])
    def test_kept_result_never_outlives_a_refit(self, names):
        # top_rules keeps its result per (n, beam); fit_bodies must drop it.
        model = fresh(names)
        model.fit_weighted(1, [(Rule(1, (0,)), 3.0)])
        before = model.top_rules(1, 4, beam=8)
        assert model.top_rules(1, 4, beam=8) is before
        model.fit_weighted(1, [(Rule(1, (2, 3)), 40.0), (Rule(1, (3,)), 20.0)])
        after = model.top_rules(1, 4, beam=8)
        assert list(after) != list(before)
        loaded = RuleGenerator.from_json(json.loads(json.dumps(model.to_json())))
        for n, beam in ((4, 8), (2, 2)):
            assert list(model.top_rules(1, n, beam)) == list(loaded.top_rules(1, n, beam))
            assert model.top_rules(1, n, beam).counts() == loaded.top_rules(1, n, beam).counts()


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
        bodies, probs = enumeration(model, 0)
        refit = fresh(alpha=1e-6)
        refit.fit_weighted(0, [(Rule(0, body), 1e6 * p) for body, p in zip(bodies, probs)])
        _, probs2 = enumeration(refit, 0)
        assert np.max(np.abs(probs - probs2)) < 5e-3

    def test_expected_count_refits_contract(self):
        # For a concentrated model the backoff interpolation redistributes
        # some mass, so one refit is not exact; iterating refits contracts
        # toward a fixpoint.
        def tv(p, q):
            return 0.5 * float(np.abs(p - q).sum())

        model = fresh(alpha=1e-6)
        model.fit_weighted(0, [(Rule(0, (1, 2)), 4.0), (Rule(0, (3,)), 2.0), (Rule(0, (0, 0, 1)), 1.0)])
        bodies, probs = enumeration(model, 0)
        current = probs
        distances = []
        for _ in range(3):
            refit = fresh(alpha=1e-6)
            refit.fit_weighted(0, [(Rule(0, body), 1e6 * p) for body, p in zip(bodies, current)])
            _, nxt = enumeration(refit, 0)
            distances.append(tv(current, nxt))
            current = nxt
        assert distances[1] < distances[0]
        assert distances[2] < distances[1]


class TestSerialization:
    def test_round_trip_preserves_distribution_and_sampling(self, tmp_path, rng):
        wide = fitted_model(tuple(f"r{i}" for i in range(24)), picks=3)
        assert wide.enumerable_size() > ENUM_LIMIT
        enumerable = fresh(("a", "b"))
        bodies = list(all_bodies(4, 3))
        for head in range(4):
            enumerable.fit_weighted(head, [(Rule(head, bodies[int(i)]), float(rng.random()))
                                           for i in rng.integers(0, len(bodies), size=5)])
        for model in (enumerable, wide):
            path = tmp_path / "generator.json"
            model.save(path)
            loaded = RuleGenerator.load(path)
            assert loaded.vocab == model.vocab
            counts, loaded_counts = dense_counts(model), dense_counts(loaded)
            assert set(loaded_counts) == set(counts)
            for key, vec in counts.items():
                assert loaded_counts[key].tobytes() == vec.tobytes(), key
            size = model.vocab.size
            for head in range(size):
                # Every body of length 1, and bodies that read each stored context of the head.
                checked = [(r,) for r in range(size)]
                checked += [ctx + (r,) for h, ctx in counts if h == head and ctx for r in range(3)]
                for body in checked:
                    assert loaded.log_prob(head, body) == model.log_prob(head, body)
                assert list(loaded.top_rules(head, 5, 8)) == list(model.top_rules(head, 5, 8))
        a = enumerable.sample_ruleset(0, 20, np.random.default_rng(3))
        b = RuleGenerator.load(save_to(enumerable, tmp_path)).sample_ruleset(0, 20, np.random.default_rng(3))
        assert list(a) == list(b)


def save_to(model, tmp_path):
    path = tmp_path / "generator.json"
    model.save(path)
    return path


def dense_layout(model):
    """The generator.json layout from before format 2: every count vector as a JSON list."""
    obj = {key: value for key, value in model.to_json().items() if key not in ("format", "counts")}
    obj["counts"] = {f"{head}|" + ",".join(map(str, ctx)): vec.tolist() for (head, ctx), vec in dense_counts(model).items()}
    return obj


def first_row_with_two_tokens(arrays):
    row = int(np.argmax(arrays["nnz"] >= 2))
    assert arrays["nnz"][row] >= 2
    return int(arrays["nnz"][:row].sum())  # the index of the row's first entry


def drop_counts(obj, arrays):
    del obj["counts"]


def drop_values(obj, arrays):
    del arrays["values"]


def short_values(obj, arrays):
    arrays["values"] = arrays["values"][:-1]


def short_nnz(obj, arrays):
    arrays["nnz"] = arrays["nnz"][:-1]


def ragged_contexts(obj, arrays):
    arrays["contexts"] = arrays["contexts"][:-1]


def short_contexts(obj, arrays):
    arrays["contexts"] = arrays["contexts"][: -(obj["max_len"] + 1)]


def nnz_off_by_one(obj, arrays):
    arrays["nnz"][0] += 1


def inverse_out_of_range(obj, arrays):
    obj["vocab"]["inverse_of"][0] = 99


def head_out_of_range(obj, arrays):
    arrays["contexts"][0] = 99


def context_token_out_of_range(obj, arrays):
    width = obj["max_len"] + 1
    rows = arrays["contexts"].reshape(-1, width)
    row = int(np.argmax(rows[:, 1] >= 0))
    arrays["contexts"][row * width + 1] = 99


def context_longer_than_order(obj, arrays):
    width = obj["max_len"] + 1
    rows = arrays["contexts"].reshape(-1, width)
    row = int(np.argmax(rows[:, obj["order"]] >= 0))  # a context of the full order
    arrays["contexts"][row * width + obj["order"] + 1] = 0


def entry_token_out_of_range(obj, arrays):
    arrays["tokens"][-1] = 99


def unsorted_tokens(obj, arrays):
    i = first_row_with_two_tokens(arrays)
    arrays["tokens"][[i, i + 1]] = arrays["tokens"][[i + 1, i]]


def duplicate_tokens(obj, arrays):
    i = first_row_with_two_tokens(arrays)
    arrays["tokens"][i + 1] = arrays["tokens"][i]


def duplicate_context(obj, arrays):
    width = obj["max_len"] + 1
    arrays["contexts"][width : 2 * width] = arrays["contexts"][:width]


def nan_count(obj, arrays):
    arrays["values"][0] = np.nan


def infinite_count(obj, arrays):
    arrays["values"][0] = np.inf


def negative_count(obj, arrays):
    arrays["values"][0] = -1.0


def zero_count(obj, arrays):
    arrays["values"][0] = 0.0


class TestMalformedFile:
    @pytest.mark.parametrize("corrupt,field", [
        (drop_counts, "'counts'"),
        (drop_values, "'counts.values'"),
        (short_values, "counts.values"),
        (short_nnz, "counts.nnz"),
        (ragged_contexts, "counts.contexts"),
        (short_contexts, "counts.nnz"),
        (nnz_off_by_one, "counts.nnz"),
        (inverse_out_of_range, "inverse_of"),
        (head_out_of_range, "counts.contexts: a head"),
        (context_token_out_of_range, "counts.contexts: a context"),
        (context_longer_than_order, "counts.contexts: a context"),
        (entry_token_out_of_range, "counts.tokens"),
        (unsorted_tokens, "counts.tokens: unsorted"),
        (duplicate_tokens, "counts.tokens: unsorted or duplicate"),
        (duplicate_context, "counts.contexts: a duplicate"),
        (nan_count, "counts.values: a count"),
        (infinite_count, "counts.values: a count"),
        (negative_count, "counts.values: a count"),
        (zero_count, "counts.values: a count"),
    ])
    def test_is_refused_with_the_file_and_field_named(self, corrupt, field, tmp_path):
        path = save_to(fitted_model(), tmp_path)
        obj = json.loads(path.read_text())
        arrays = count_arrays(obj)
        set_count_arrays(obj, arrays)
        assert RuleGenerator.from_json(obj).to_json() == json.loads(path.read_text())  # the helpers round-trip
        corrupt(obj, arrays)
        if "counts" in obj:
            set_count_arrays(obj, arrays)
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=rf"generator\.json: .*{re.escape(field)}"):
            RuleGenerator.load(path)

    @pytest.mark.parametrize("key,value,message", [
        ("alpha", math.nan, "alpha must be a finite number, not nan"),
        ("alpha", math.inf, "alpha must be a finite number, not inf"),
        ("alpha", True, "alpha must be a finite number, not True"),
        pytest.param("alpha", 10**400, f"alpha must be a finite number, not {10**400}", id="alpha-huge-integer"),
        ("lambdas", [0.6, math.nan, 0.1], "a lambdas entry must be a finite number, not nan"),
        ("lambdas", [True, 0.3, 0.1], "a lambdas entry must be a finite number, not True"),
        ("order", 2.0, "order must be an integer, not 2.0"),
        ("order", True, "order must be an integer, not True"),
        ("max_len", 3.5, "max_len must be an integer, not 3.5"),
        ("max_len", False, "max_len must be an integer, not False"),
    ])
    def test_a_non_finite_or_boolean_setting_is_refused_by_name(self, key, value, message, tmp_path):
        # JSON reads NaN and Infinity; a NaN alpha or lambda used to load and
        # make every log-probability NaN, and true loaded as 1.
        path = save_to(fitted_model(), tmp_path)
        obj = json.loads(path.read_text())
        obj[key] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=rf"generator\.json: {re.escape(message)}$"):
            RuleGenerator.load(path)

    @pytest.mark.parametrize("value", [1, 3, "2", None])
    def test_wrong_format_is_refused(self, value, tmp_path):
        path = save_to(fitted_model(), tmp_path)
        obj = json.loads(path.read_text())
        obj["format"] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=r"generator\.json: format .* is not 2"):
            RuleGenerator.load(path)

    def test_dense_layout_is_refused_with_a_retrain_hint(self, tmp_path):
        path = tmp_path / "generator.json"
        path.write_text(json.dumps(dense_layout(fitted_model()), sort_keys=True) + "\n")
        with pytest.raises(ValueError, match=r"generator\.json: .*before format 2.*retrain"):
            RuleGenerator.load(path)

    @pytest.mark.parametrize("field,value,message", [
        ("tokens", "not base64!", "counts.tokens: not a base64 string"),
        ("values", base64.b64encode(bytes(12)).decode(), "counts.values: 12 bytes"),
    ])
    def test_bad_array_bytes_are_refused(self, field, value, message, tmp_path):
        path = save_to(fitted_model(), tmp_path)
        obj = json.loads(path.read_text())
        obj["counts"][field] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=rf"generator\.json: {re.escape(message)}"):
            RuleGenerator.load(path)

    @pytest.mark.parametrize("text", ["[2]", "7"])
    def test_a_file_that_is_not_an_object_is_refused(self, text, tmp_path):
        path = tmp_path / "generator.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"generator\.json: not a JSON object"):
            RuleGenerator.load(path)

    def test_counts_that_are_not_an_object_are_refused(self, tmp_path):
        path = save_to(fitted_model(), tmp_path)
        obj = json.loads(path.read_text())
        obj["counts"] = 7
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=r"generator\.json: counts: not a JSON object"):
            RuleGenerator.load(path)

    def test_truncated_json_is_refused(self, tmp_path):
        path = save_to(fitted_model(), tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError, match=r"generator\.json: "):
            RuleGenerator.load(path)


# DENSE_SPAN values that make fit_bodies number the stored and touched cells
# by sorting them, or through a table over their span (``core.distinct``).
CELL_PATHS = pytest.mark.parametrize("dense_span", [0, 10**9], ids=["sorted-cells", "all-cells"])


class TestFitBodies:
    @CELL_PATHS
    @pytest.mark.parametrize("order,max_len", [(0, 3), (1, 2), (2, 3), (3, 4), (2, 1)])
    def test_equals_one_update_per_event_bit_for_bit(self, order, max_len, dense_span, monkeypatch):
        monkeypatch.setattr(rulex.core, "DENSE_SPAN", dense_span)
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
            assert_same_counts(dense_counts(model), want)

    @CELL_PATHS
    def test_a_stored_count_takes_each_event_in_turn(self, dense_span, monkeypatch):
        # 1e16 + 1.0 rounds back to 1e16, so four events of weight 1.0 leave
        # the stored count as it is; their sum, 4.0, added at once would not.
        monkeypatch.setattr(rulex.core, "DENSE_SPAN", dense_span)
        model = fresh()
        model.fit_bodies(0, np.array([[1, -1, -1]]), np.array([1e16]))
        weighted = [((1,), 1.0)] * 4
        want = per_event_counts(model, 0, weighted)
        model.fit_bodies(0, pad_bodies([body for body, _ in weighted], 3), np.array([w for _, w in weighted]))
        assert_same_counts(dense_counts(model), want)
        assert want[(0, ())][1] == 1e16 != 1e16 + 4.0

    def test_stop_events_only_below_max_len(self):
        model = fresh(max_len=2)
        model.fit_bodies(0, np.array([[1, 2], [3, -1]]), np.array([1.0, 2.0]))
        stop = model.vocab.stop_id
        counts = dense_counts(model)
        assert counts[(0, (1,))][2] == 1.0
        assert counts[(0, (1,))][stop] == 0.0  # (1, 2) ends at max_len: the stop is forced
        assert counts[(0, (3,))][stop] == 2.0
        assert counts[(0, ())][stop] == 2.0
        assert (0, (1, 2)) not in counts

    @pytest.mark.parametrize("bodies", [[[0], [2]], [[0, -1, -1, -1], [2, -1, -1, -1]]])
    def test_any_padding_width_and_fit_weighted_agree(self, bodies):
        a, b = fresh(), fresh()
        a.fit_bodies(1, np.array(bodies), np.array([1.5, 0.5]))
        b.fit_weighted(1, [(Rule(1, (0,)), 1.5), (Rule(1, (2,)), 0.5)])
        assert_same_counts(dense_counts(a), dense_counts(b))

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
        before = dense_counts(model)
        with pytest.raises(ValueError):
            model.fit_bodies(0, np.array(bodies), np.array(weights))
        assert_same_counts(dense_counts(model), before)

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
        bodies, _ = enumeration(model, 0)
        assert np.array_equal(model.rule_ids(bodies), np.arange(len(bodies)))
        assert np.array_equal(model.rule_ids(reversed(bodies)), np.arange(len(bodies))[::-1])
        assert len(model.body_table()) == model.enumerable_size()
        for bad in ((1, 1, 1, 1), (), (4,), (1.5,)):  # the check that interning past ENUM_LIMIT makes
            with pytest.raises(ValueError, match=re.escape(f"bad rule body {bad!r}")):
                model.rule_ids([(1,), bad])
        assert len(model.body_table()) == model.enumerable_size()

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

    @pytest.mark.parametrize("bodies,bad", [
        ([(5, 2), (), (1, 1, 1, 1), (48,)], ()),
        ([(5, 2), (1, 1, 1, 1), (), (48,)], (1, 1, 1, 1)),
        ([(5, 2), (3, 48), (), (1, 1, 1, 1)], (3, 48)),
        ([(5, 2), (0, -1), (48,)], (0, -1)),
        ([(5, 2), (2**70,), (48,)], (2**70,)),
        ([(5, 2), (None,), ()], (None,)),
        ([(5, 2), (1.5,), (48,)], (1.5,)),
        ([(5, 2), (7,), (5, 2), (48,), (1, 1, 1, 1)], (48,)),
    ])
    def test_past_enum_limit_names_the_first_bad_body_and_interns_none(self, bodies, bad):
        model = fresh(tuple(f"r{i}" for i in range(24)))
        model.rule_ids([(7,)])
        with pytest.raises(ValueError, match=re.escape(f"bad rule body {bad!r}")):
            model.rule_ids(bodies)
        assert model.body_table().tolist() == [[7, -1, -1]]
        assert model.rule_ids([(5, 2), (7,)]).tolist() == [1, 0]

    def test_an_interned_body_reads_back_as_python_ints(self):
        model = fresh(tuple(f"r{i}" for i in range(24)))
        ids = model.rule_ids([(1.0, 2), (np.int64(3),)])
        assert model.rule_ids([(1, 2), (3,)]).tolist() == ids.tolist() == [0, 1]
        bodies = [model.rule_at(0, i).body for i in ids.tolist()]
        assert bodies == [(1, 2), (3,)] and {type(r) for body in bodies for r in body} == {int}

    def test_an_interned_body_is_one_tuple_for_its_key_and_its_entry(self):
        for names in (("a", "b"), tuple(f"r{i}" for i in range(24))):
            model = fresh(names)
            model.rule_ids([(1.0, 2), (np.int64(3),), (1, 2)])
            space = model._rule_space()
            assert len(space.index) == len(space.bodies)
            assert all(space.bodies[i] is body for body, i in space.index.items())

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

    @pytest.mark.parametrize("n", [1, 50, 400])
    def test_equal_sorting_each_row_of_ids_after_the_lookup(self, n):
        # The reference sorts each row's ids after the inverse-CDF lookup
        # instead of sorting its uniforms before it.
        model = fitted_model(tuple(f"r{i}" for i in range(10)), picks=30)  # 20 ids, an 8,420-entry CDF
        heads = np.random.default_rng(2).integers(0, model.vocab.size, size=60)
        rng, reference_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = model.sample_unique_index_rows(heads, n, rng)
        uniforms = reference_rng.random((len(heads), n))
        idx = np.empty(uniforms.shape, dtype=np.intp)
        for head in np.unique(heads).tolist():
            rows = heads == head
            idx[rows] = np.searchsorted(model._enumeration(head).cdf, uniforms[rows], side="right")
        idx.sort(axis=1)
        first = np.ones(idx.shape, dtype=bool)
        first[:, 1:] = idx[:, 1:] != idx[:, :-1]
        ids, sizes = idx[first], np.count_nonzero(first, axis=1)
        counts = np.diff(np.append(np.flatnonzero(first), idx.size))
        log_probs = np.concatenate([model.log_probs_by_index(head, row)
                                    for head, row in zip(heads.tolist(), np.split(ids, np.cumsum(sizes)[:-1]))])
        assert n < 400 or np.any(counts > 1)
        for g, w in zip(got, (ids, counts, log_probs, sizes)):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state

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
        # Against the dense reference's scalar ``conditional``.  Head 1 is
        # fitted on a few bodies, so its contexts are touched at some depths
        # and not at others; head 3 is untouched.
        model = fitted_model(order=order, lambdas=[0.3 + 0.1 * d for d in range(order + 1)],
                             max_len=max_len, heads=[1], picks=5, seed=order)
        reference = dense_reference(model)
        size = model.vocab.size
        for head in (1, 3):
            for position in range(max_len + 1):
                prefixes = list(itertools.product(range(size), repeat=position))
                support, probs = model.conditionals(head, np.array(prefixes, dtype=np.intp).reshape(len(prefixes), position))
                assert probs.shape == (len(prefixes), len(support))
                for prefix, row in zip(prefixes, probs):
                    want_support, want = reference.conditional(head, prefix)
                    assert np.array_equal(support, want_support)
                    assert np.array_equal(row, want), (head, prefix)

    def test_rows_in_any_order_with_repeats(self):
        model = fitted_model()
        reference = dense_reference(model)
        prefixes = np.array([[3, 1], [0, 0], [3, 1], [2, 3], [0, 0]])
        _, probs = model.conditionals(2, prefixes)
        for prefix, row in zip(prefixes.tolist(), probs):
            assert np.array_equal(row, reference.conditional(2, tuple(prefix))[1])
        _, none = model.conditionals(2, np.zeros((0, 2), dtype=np.intp))
        assert none.shape == (0, model.vocab.size + 1)

    def test_rejects_a_flat_prefix(self):
        with pytest.raises(ValueError):
            fresh().conditionals(0, np.array([1, 2]))


class TestArrayBeam:
    @pytest.mark.parametrize("order,seed", [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 6), (2, 7)])
    def test_fitted_models_equal_the_python_beam(self, order, seed):
        # Beams of 1, 2 and n prune hardest: most candidates fall outside.
        model = fitted_model(("a", "b", "c"), seed=seed, order=order, lambdas=[0.5] * (order + 1),
                             max_len=3, picks=4)
        for head in range(model.vocab.size):
            for n, beam in ((1, 1), (1, 2), (2, 2), (5, 5), (5, 7), (20, 20), (20, 40)):
                assert list(model.top_rules(head, n, beam)) == python_beam(model, head, n, beam)

    def test_exact_ties_at_the_beam_th_score_equal_the_python_beam(self):
        # First tokens rank 0, then 3 and 4 tied, then 1 and 2 tied, then 5.
        # The contexts (1,) and (2,) hold equal counts, so every extension
        # of (1,) ties exactly with the same extension of (2,).
        model = fresh(("a", "b", "c"), order=1, lambdas=(0.5, 0.5))
        model.fit_weighted(0, [(Rule(0, (0,)), 4.0), (Rule(0, (1,)), 1.0), (Rule(0, (2,)), 1.0),
                               (Rule(0, (3, 4)), 2.0)])
        _, first = model.conditional(0, ())
        assert first[0] > first[3] == first[4] > first[1] == first[2] > first[5]
        assert np.array_equal(model.conditional(0, (1,))[1], model.conditional(0, (2,))[1])
        for beam in range(1, 25):
            for n in {1, (beam + 1) // 2, beam}:
                assert list(model.top_rules(0, n, beam)) == python_beam(model, 0, n, beam)

    def test_sixty_ids_equal_the_python_beam(self):
        # 30 base relations, the shape of the widest benchmark workload.
        model = fitted_model(tuple(f"r{i}" for i in range(30)), heads=[0, 7, 59], picks=40)
        for head in (0, 7, 59, 31):
            for n, beam in ((1, 1), (5, 5), (50, 200)):
                assert list(model.top_rules(head, n, beam)) == python_beam(model, head, n, beam)

    def test_a_beam_no_step_fills_equals_the_python_beam(self):
        # Two ids and bodies of at most 3: no step has more than 8 candidates.
        model = fitted_model(("a",), seed=3, picks=3)
        for n, beam in ((14, 14), (14, 30), (3, 8), (1, 9)):
            assert list(model.top_rules(0, n, beam)) == python_beam(model, 0, n, beam)

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
            assert model.rule_log_probs(head, [Rule(head, body) for body in bodies]).tolist() == got.tolist()
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


def draw_per_token(model, head, rng):
    """One ancestral draw without the table, one ``conditional`` and one ``rng.random()`` per token: the reference.

    Returns the body and its log-probability.
    """
    body, total = [], 0.0
    while True:
        support, probs = model.conditional(head, tuple(body))
        cdf = np.cumsum(probs)
        cdf[-1] = max(cdf[-1], 1.0)
        i = np.searchsorted(cdf, rng.random(), side="right")
        total += math.log(probs[i])
        if support[i] == model.vocab.stop_id:
            break
        body.append(int(support[i]))
        if len(body) == model.max_len:
            break
    return tuple(body), total


def drawn_per_token(model, heads, n, rng):
    """``draw_per_token`` n times per head in turn.

    Returns one (sorted unique bodies, multiplicities, log-probs) per head.
    """
    rows = []
    for head in heads:
        drawn = {}
        multiplicity = {}
        for _ in range(n):
            body, total = draw_per_token(model, head, rng)
            drawn[body] = total
            multiplicity[body] = multiplicity.get(body, 0) + 1
        bodies = sorted(drawn)
        rows.append((bodies, [multiplicity[b] for b in bodies], [drawn[b] for b in bodies]))
    return rows


def context_code(size, ctx):
    """The code of a context: the number of shorter contexts, plus its tokens read as base-``size`` digits."""
    code = 0
    for token in ctx:
        code = code * size + token
    return sum(size**j for j in range(len(ctx))) + code


def table_keys(model, counts, head, prefix):
    """The key of a prefix in ``_draw_bodies``'s table: the position and the codes of the stored contexts it reads.

    ``counts`` is ``dense_counts(model)``.
    """
    position = len(prefix)
    contexts = [tuple(prefix[position - d :]) for d, _ in model._depth_weights[position]]
    return position, tuple(context_code(model.vocab.size, ctx) for ctx in contexts if (head, ctx) in counts)


class TestDrawTable:
    """Past ``ENUM_LIMIT``, draws read a per-head table of next-token CDFs and equal per-token draws."""

    @pytest.fixture
    def no_limit(self, monkeypatch):
        # A limit of 0 puts every vocabulary past it, so even max_len 1 draws ancestrally.
        monkeypatch.setattr(rulex.generator, "ENUM_LIMIT", 0)

    def assert_draws_equal_per_token(self, build, heads, n, seed):
        model, reference = build(), build()  # twins, so both intern the same ids
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        support, counts, log_probs, sizes = model.sample_unique_index_rows(heads, n, rng)
        rows = drawn_per_token(reference, heads, n, reference_rng)
        want_bodies = [body for bodies, _, _ in rows for body in bodies]
        assert support.tolist() == reference.rule_ids(want_bodies).tolist()
        assert model.body_table().tolist() == reference.body_table().tolist()
        assert counts.tolist() == [c for _, cs, _ in rows for c in cs]
        assert log_probs.tolist() == [lp for _, _, lps in rows for lp in lps]
        assert sizes.tolist() == [len(bodies) for bodies, _, _ in rows]
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        return model, rows

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("max_len", [1, 2, 3, 4])
    @pytest.mark.parametrize("trained", [False, True])
    def test_equal_per_token_draws(self, no_limit, order, max_len, trained):
        def build():
            kwargs = dict(order=order, lambdas=[0.2 + 0.1 * d for d in range(order + 1)], max_len=max_len)
            if trained:
                return fitted_model(("a", "b", "c"), seed=order + 4 * max_len, heads=[0, 2, 5], picks=40, **kwargs)
            return fresh(("a", "b", "c"), **kwargs)

        assert build().enumerable_size() > rulex.generator.ENUM_LIMIT
        self.assert_draws_equal_per_token(build, [0, 2, 3, 2, 5, 0], 30, seed=order + max_len)

    def test_sixty_ids_equal_per_token_draws(self):
        # The widest benchmark workload's vocabulary, past the real limit.
        def build():
            return fitted_model(tuple(f"r{i}" for i in range(30)), heads=[0, 7, 59], picks=60)

        assert build().enumerable_size() > ENUM_LIMIT
        self.assert_draws_equal_per_token(build, [0, 7, 59, 31, 7], 50, seed=3)

    def test_draws_at_the_default_length_score_prefixes_in_batches(self, monkeypatch):
        # Kept entries are filled a row per sibling prefix and the last steps
        # in one batch, so no draw pays for a one-row ``conditional``.
        model = fitted_model(tuple(f"r{i}" for i in range(30)), heads=[0, 7, 59], picks=60)
        reference = fitted_model(tuple(f"r{i}" for i in range(30)), heads=[0, 7, 59], picks=60)
        monkeypatch.setattr(RuleGenerator, "conditional", None)
        drawn = [model.sample_unique_rules(head, 200, np.random.default_rng(head)) for head in (0, 7, 59)]
        monkeypatch.undo()
        for head, (rules, counts, log_probs) in zip((0, 7, 59), drawn):
            want_bodies, want_counts, want_log_probs = drawn_per_token(reference, [head], 200,
                                                                       np.random.default_rng(head))[0]
            assert [rule.body for rule in rules] == want_bodies and counts.tolist() == want_counts
            assert log_probs.tolist() == want_log_probs

    def test_a_draw_after_fit_bodies_reads_the_new_counts(self, no_limit):
        def build():
            model = fitted_model(("a", "b", "c"), heads=[1], picks=20)
            model.sample_unique_index_rows([1, 4], 40, np.random.default_rng(0))  # fills both tables
            # The same contexts gain counts, so every key stays the same.
            model.fit_bodies(1, pad_bodies([(2,), (2, 2)], 3), np.array([300.0, 300.0]))
            return model

        model, _ = self.assert_draws_equal_per_token(build, [1, 4], 40, seed=1)
        # (2,) now leads after the empty context, code 0; an entry holds the CDF and each token's log-probability.
        assert model._head_cache[1].steps[(0, (0,))][1][2] > math.log(0.9)

    @pytest.mark.parametrize("max_len", [3, 4])
    def test_the_table_and_memo_stay_within_their_stated_bounds(self, no_limit, max_len):
        # The README's bounds per head for V ids: 1 + (max_len - 1)(V + 1)
        # table entries, and 1 + (max_len - 2)V memo keys that share them.
        model = fitted_model(("a", "b", "c"), order=3, lambdas=[0.25] * 4, max_len=max_len, picks=200, seed=2)
        size = model.vocab.size
        heads = list(range(size)) * 4
        support, _, _, sizes = model.sample_unique_index_rows(heads, 100, np.random.default_rng(5))
        rows = np.split(model.body_table()[support], np.cumsum(sizes)[:-1])
        counts = dense_counts(model)
        two = context_code(size, (0, 0))  # the least code of a two-token context
        for head in range(size):
            bodies = {tuple(int(r) for r in body if r >= 0) for row in rows[head::size] for body in row}
            read = {table_keys(model, counts, head, body[:position])
                    for body in bodies for position in range(min(len(body) + 1, max_len))}
            kept = {key for key in read if all(code < two for code in key[1])}
            cache = model._head_cache[head]
            assert len(read) > 1 + (max_len - 1) * (size + 1)  # a table of every key read would break the bound
            assert set(cache.steps) == kept
            assert len(kept) <= 1 + (max_len - 1) * (size + 1)
            memo = [entry for known in cache.memo if known is not None for entry in known.values()]
            assert size < len(memo) <= 1 + (max_len - 2) * size
            assert {id(entry) for entry in memo} <= {id(entry) for entry in cache.steps.values()}

    @pytest.mark.parametrize("max_len", [3, 4])
    def test_last_steps_that_mix_kept_and_unkept_keys_and_stop_equal_per_token_draws(self, no_limit, max_len):
        def build():
            return fitted_model(("a", "b", "c"), seed=max_len, heads=[1, 4], picks=12, max_len=max_len)

        heads = [1, 4, 1, 0]
        model, rows = self.assert_draws_equal_per_token(build, heads, 60, seed=7)
        counts, size, last = dense_counts(model), model.vocab.size, max_len - 1
        two = context_code(size, (0, 0))
        for head, (bodies, _, _) in zip(heads[:2], rows):
            # Within one row: last steps whose key is kept and not kept, and last steps that draw STOP.
            prefixes = [body[:last] for body in bodies if len(body) >= last]
            deep = [any(code >= two for code in table_keys(model, counts, head, prefix)[1]) for prefix in prefixes]
            assert any(deep) and not all(deep)
            assert any(len(body) == last for body in bodies) and any(len(body) == max_len for body in bodies)

    def test_sample_ruleset_past_the_limit_equals_per_token_draws(self, no_limit):
        model = fitted_model(("a", "b", "c"), heads=[2], picks=12)
        reference = fitted_model(("a", "b", "c"), heads=[2], picks=12)
        for head in (2, 3):
            rng, reference_rng = np.random.default_rng(head), np.random.default_rng(head)
            drawn = model.sample_ruleset(head, 80, rng)
            assert [rule.body for rule in drawn] == [draw_per_token(reference, head, reference_rng)[0]
                                                     for _ in range(80)]
            assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestSave:
    @pytest.mark.parametrize("names", [("a", "b", "c", "d", "e", "f"), tuple(f"r{i}" for i in range(24))])
    def test_save_load_save_gives_the_same_bytes(self, names, tmp_path):
        for model in (fresh(names), fitted_model(names, picks=3)):
            model.save(tmp_path / "first.json")
            RuleGenerator.load(tmp_path / "first.json").save(tmp_path / "second.json")
            assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()

    def test_fit_and_to_json_memory_follows_the_nonzero_counts(self):
        # 60 ids: a dense row per context would take 61 floats, 488 bytes,
        # where about 2.4 of them are nonzero.  The bound allows 64 bytes per
        # nonzero count and 384 per context, for the store (tokens, counts,
        # codes and row starts) and to_json's arrays and base64 text, with
        # fit_bodies' temporaries on top.  A loaded generator holds its CSR
        # arrays and little else.
        model = fresh(tuple(f"r{i}" for i in range(30)))
        assert model.enumerable_size() > ENUM_LIMIT
        rng = np.random.default_rng(0)
        size = model.vocab.size
        fits = []
        for head in range(size):
            lengths = rng.integers(1, 4, size=300)
            bodies = np.where(np.arange(3) < lengths[:, None], rng.integers(0, size, size=(300, 3)), -1)
            fits.append((head, bodies, rng.random(300) + 0.1))
        tracemalloc.start()
        try:
            for head, bodies, weights in fits:
                model.fit_bodies(head, bodies, weights)
            obj = model.to_json()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = count_arrays(obj)
        nnz, contexts = len(arrays["tokens"]), len(arrays["nnz"])
        assert contexts > 10_000 and nnz < 4 * contexts
        assert peak <= 64 * nnz + 384 * contexts
        tracemalloc.start()
        try:
            loaded = RuleGenerator.from_json(obj)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        blocks = loaded._counts.values()
        arrays_bytes = sum(b.codes.nbytes + b.starts.nbytes + b.tokens.nbytes + b.values.nbytes for b in blocks)
        assert held <= 2 * arrays_bytes

    def test_file_is_smaller_than_the_dense_layout(self, tmp_path):
        model = fitted_model(tuple(f"r{i}" for i in range(24)), picks=3)
        dense = len(json.dumps(dense_layout(model), sort_keys=True)) + 1
        assert save_to(model, tmp_path).stat().st_size * 4 <= dense


class DenseRows(RuleGenerator):
    """The next-token kernels as one scalar formula over dense count rows: the reference.

    ``rows`` maps (head, context) to a dense row of ``size + 1`` floats.
    ``conditional`` computes one prefix's distribution on its own, and
    ``conditionals`` stacks its rows.  Everything else (the stored-context
    keys of ``_draw_bodies``'s table included) is the generator's own, so every
    method built on the kernels reads the dense formula.
    """

    rows: dict

    def conditional(self, head, prefix):
        position = len(prefix)
        if position >= self.max_len:
            return self._stop_support, np.ones(1)
        width = self.vocab.size if position == 0 else self.vocab.size + 1
        probs = None
        uniform_mass = 0.0
        for d, w in self._depth_weights[position]:
            vec = self.rows.get((head, prefix[position - d :]))
            if vec is None:
                uniform_mass += w
                continue
            c = vec[:width]
            if probs is None:
                probs = np.zeros(width)
            probs += w * (c + self.alpha) / (c.sum() + self.alpha * width)
        if probs is None:
            return self._supports[position > 0], np.full(width, 1.0 / width)
        if uniform_mass:
            probs += uniform_mass / width
        return self._supports[position > 0], probs

    def conditionals(self, head, prefixes):
        prefixes = np.asarray(prefixes, dtype=np.intp)
        if prefixes.shape[1] >= self.max_len:
            return self._stop_support, np.ones((len(prefixes), 1))
        support, _ = self.conditional(head, (0,) * prefixes.shape[1])
        rows = [self.conditional(head, tuple(prefix))[1] for prefix in prefixes.tolist()]
        return support, np.array(rows).reshape(len(prefixes), len(support))


def dense_reference(model):
    """``DenseRows`` over the counts of ``model``, as ``dense_counts`` reads them."""
    reference = DenseRows.from_json(model.to_json())
    reference.rows = dense_counts(model)
    return reference


def rounding_row(rng, size, widths):
    """A dense count row whose sum up to each width differs from numpy's sum of its nonzeros alone.

    Large and small counts at random tokens spread the nonzeros over
    numpy's eight pairwise-sum accumulators and its sequential tail.
    """
    while True:
        vec = np.zeros(size + 1)
        tokens = rng.choice(size + 1, size=int(rng.integers(4, 10)), replace=False)
        vec[tokens] = rng.choice([1e16, 1.0, 3.0, 0.5, 1e-3], size=len(tokens))
        if all(vec[:width].sum() != vec[:width][vec[:width] > 0].sum() for width in widths):
            return vec


def rounding_counts(model, heads, seed):
    """Count rows for ``heads`` that round apart from a nonzero-only sum, plus one empty row per depth."""
    rng = np.random.default_rng(seed)
    size = model.vocab.size
    rows = {}
    for head in heads:
        rows[head, ()] = rounding_row(rng, size, (size, size + 1))  # read at position 0 and after it
        for length in range(1, min(model.order, model.max_len - 1) + 1):
            for _ in range(6):
                ctx = tuple(int(t) for t in rng.integers(0, size, size=length))
                rows[head, ctx] = rounding_row(rng, size, (size + 1,))
            rows[head, (head,) * length] = np.zeros(size + 1)  # stored, with no nonzero count
    return rows


class TestSparseCountsEqualDenseRows:
    """Every number the generator derives from its counts equals the dense formula, bit for bit."""

    def twins(self, names, heads, seed, **kwargs):
        rows = rounding_counts(fresh(names, **kwargs), heads, seed)
        model = with_counts(fresh(names, **kwargs), rows)
        reference = DenseRows.from_json(model.to_json())
        reference.rows = rows
        assert set(dense_counts(model)) == set(rows)
        assert 0 in count_arrays(model.to_json())["nnz"]  # the file holds contexts with nnz = 0
        return model, reference

    def test_kernels_log_probs_beam_and_enumeration(self):
        names = tuple(f"r{i}" for i in range(10))  # 20 ids: 8,420 enumerable bodies, rows of 21 floats
        model, reference = self.twins(names, heads=[0, 3, 19], seed=1)
        size = model.vocab.size
        assert model.enumerable_size() <= ENUM_LIMIT
        everything = np.arange(model.enumerable_size())
        for head in (0, 3, 7, 19):  # head 7 has no counts
            for position in range(model.max_len + 1):
                prefixes = np.array(list(itertools.product(range(size), repeat=position)), dtype=np.intp)
                prefixes = prefixes.reshape(len(prefixes), position)
                support, probs = model.conditionals(head, prefixes)
                want_support, want = reference.conditionals(head, prefixes)
                assert np.array_equal(support, want_support) and probs.tobytes() == want.tobytes()
                for prefix, row in zip(prefixes.tolist()[:50], want):
                    assert model.conditional(head, tuple(prefix))[1].tobytes() == row.tobytes()
            bodies = [(head,), (head, head), (head, head, head), (1, 2), (5, 0, 19)]
            for body in bodies:
                assert model.log_prob(head, body) == reference.log_prob(head, body)
            assert model.log_probs_by_index(head, everything).tobytes() == \
                reference.log_probs_by_index(head, everything).tobytes()
            assert model._enumeration(head).cdf.tobytes() == reference._enumeration(head).cdf.tobytes()
            assert list(model.top_rules(head, 5, 20)) == list(reference.top_rules(head, 5, 20))

    def test_ancestral_draws_past_enum_limit(self):
        names = tuple(f"r{i}" for i in range(30))  # 60 ids, past ENUM_LIMIT
        model, reference = self.twins(names, heads=[0, 7, 59], seed=2)
        assert model.enumerable_size() > ENUM_LIMIT
        heads = [0, 7, 59, 7, 12, 0]
        rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = model.sample_unique_index_rows(heads, 200, rng)
        want = reference.sample_unique_index_rows(heads, 200, reference_rng)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert model.body_table().tolist() == reference.body_table().tolist()
        for head in (0, 7, 12, 59):
            ids = np.arange(len(model.body_table()))
            assert model.log_probs_by_index(head, ids).tobytes() == reference.log_probs_by_index(head, ids).tobytes()
            assert list(model.top_rules(head, 5, 20)) == list(reference.top_rules(head, 5, 20))
