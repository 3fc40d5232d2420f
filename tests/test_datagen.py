import pytest

from rulex.core import close_inverses, write_corpus
from rulex.datagen import SynthConfig, gen_corpus
from rulex.extractor import ground_rule
from rulex.metrics import f1, gold_by_doc, threshold_predictions


def config(**overrides):
    params = dict(
        relations=4,
        planted_rules=["r0 <- r1 & r2"],
        docs=20,
        entities_per_doc=(4, 6),
        base_facts_per_doc=(3, 5),
        chains_per_rule=(1, 2),
        p_flip=0.0,
        jitter=0.0,
        p_hide=0.0,
        neg_ratio=2,
        split=(0.5, 0.25, 0.25),
        seed=3,
    )
    params.update(overrides)
    return SynthConfig(**params)


class TestNoiseless:
    def test_thresholding_reproduces_gold_exactly(self):
        result = gen_corpus(config())
        for split in result.splits.values():
            if not split.docs:
                continue
            scores = f1(threshold_predictions(split.docs), gold_by_doc(split.docs))
            assert scores.f1 == 1.0

    def test_full_hiding_leaves_perfect_rule_paths(self):
        result = gen_corpus(config(p_hide=1.0))
        rule = result.planted[0]
        hidden = 0
        for split in result.splits.values():
            for doc in split.docs.values():
                for h, r, t in sorted(doc.gold_facts):
                    if r != rule.head or doc.atoms.get((h, r, t)) is not None:
                        continue
                    hidden += 1
                    assert ground_rule(doc, rule, h, t).value == 1.0
        assert hidden > 0

    def test_hidden_facts_ground_above_jitter_floor(self):
        jitter = 0.1
        result = gen_corpus(config(p_hide=0.6, jitter=jitter, docs=30))
        rule = result.planted[0]
        floor = (1 - jitter) ** len(rule.body)
        checked = 0
        for split in result.splits.values():
            for doc in split.docs.values():
                for h, r, t in sorted(doc.gold_facts):
                    if r != rule.head or (h, r, t) in doc.atoms:
                        continue
                    value = ground_rule(doc, rule, h, t).value
                    if value > 0:
                        checked += 1
                        assert value >= floor - 1e-12
        assert checked > 0


class TestValidity:
    def test_documents_pass_closure_and_range_checks(self):
        result = gen_corpus(config(p_flip=0.1, jitter=0.2, p_hide=0.3))
        for split in result.splits.values():
            for doc in split.docs.values():
                closed = close_inverses(doc, result.vocab)
                assert closed.atoms == doc.atoms  # already closed
                for conf in doc.atoms.values():
                    assert 0.0 <= conf <= 1.0

    def test_instance_labels_match_gold(self):
        result = gen_corpus(config(p_flip=0.1, jitter=0.2, p_hide=0.3))
        for split in result.splits.values():
            for instance in split.instances:
                doc = split.docs[instance.doc_id]
                member = (instance.head, instance.relation, instance.tail) in doc.gold_facts
                assert member == (instance.label == 1)

    def test_no_self_loop_queries(self):
        result = gen_corpus(config())
        for split in result.splits.values():
            for instance in split.instances:
                assert instance.head != instance.tail

    def test_split_sizes(self):
        result = gen_corpus(config(docs=20))
        assert len(result.splits["train"].docs) == 10
        assert len(result.splits["dev"].docs) == 5
        assert len(result.splits["test"].docs) == 5


class TestDeterminism:
    def test_identical_bytes_across_runs(self, tmp_path):
        for run in ("a", "b"):
            result = gen_corpus(config(p_flip=0.05, jitter=0.1, p_hide=0.5))
            for split, corpus in result.splits.items():
                write_corpus(tmp_path / f"{run}_{split}.jsonl", corpus, result.vocab)
        for split in ("train", "dev", "test"):
            assert (tmp_path / f"a_{split}.jsonl").read_bytes() == (tmp_path / f"b_{split}.jsonl").read_bytes()


class TestValidation:
    def test_zero_entities_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(entities_per_doc=(0, 0)).validate()

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SynthConfig(split=(0.5, 0.4, 0.2)).validate()

    def test_wide_jitter_rejected(self):
        with pytest.raises(ValueError, match="jitter"):
            SynthConfig(jitter=0.5).validate()

    def test_overlong_planted_rule_rejected(self):
        with pytest.raises(ValueError, match="max_rule_len"):
            gen_corpus(config(planted_rules=["r0 <- r1 & r1 & r1 & r1"], max_rule_len=3))

    def test_unknown_key_is_rejected_by_name(self):
        with pytest.raises(ValueError, match="'doc'"):
            SynthConfig.from_json({"doc": 7})

    def test_json_round_trip(self):
        original = config(p_flip=0.07)
        rebuilt = SynthConfig.from_json(original.to_json())
        assert rebuilt.to_json() == original.to_json()
