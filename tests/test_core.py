import json

import pytest

from rulex.core import (
    Corpus,
    Document,
    LabeledInstance,
    Rule,
    atom_conf,
    build_vocab,
    close_inverses,
    format_rule,
    load_corpus,
    parse_rule,
    read_rules_file,
    read_vocab_file,
    validate_rule,
    write_corpus,
    write_rules_file,
    write_vocab_file,
)

from conftest import make_doc


class TestBuildVocab:
    def test_self_inverse_single(self):
        vocab = build_vocab(["spouse_of"], {"spouse_of"})
        assert vocab.size == 1
        assert vocab.inverse(0) == 0

    def test_generated_inverse_is_involution(self):
        vocab = build_vocab(["father"])
        assert vocab.size == 2
        father = vocab.id_of("father")
        inv = vocab.inverse(father)
        assert vocab.names[inv] == "father⁻¹"
        assert vocab.inverse(inv) == father

    def test_large_vocabulary_scale(self):
        names = [f"rel{i}" for i in range(65)]
        vocab = build_vocab(names)
        assert vocab.size == 130
        for r in range(vocab.size):
            assert vocab.inverse(vocab.inverse(r)) == r

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="father"):
            build_vocab(["father", "father"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([])

    def test_unknown_self_inverse_rejected(self):
        with pytest.raises(ValueError, match="ghost"):
            build_vocab(["father"], {"ghost"})

    def test_stop_is_not_a_relation(self):
        vocab = build_vocab(["a", "b"])
        assert vocab.stop_id == vocab.size
        with pytest.raises(ValueError):
            vocab.check_relation(vocab.stop_id)


class TestCloseInverses:
    def test_adds_reverse_atom(self, pair_vocab):
        doc = make_doc({(0, 0, 1): 0.7}, pair_vocab.size, n_entities=2)
        closed = close_inverses(doc, pair_vocab)
        assert closed.atoms[(1, pair_vocab.inverse(0), 0)] == 0.7

    def test_idempotent(self, pair_vocab):
        doc = make_doc({(0, 0, 1): 0.7}, pair_vocab.size, n_entities=2)
        once = close_inverses(doc, pair_vocab)
        twice = close_inverses(once, pair_vocab)
        assert once.atoms == twice.atoms

    def test_conflicting_inverse_rejected(self, pair_vocab):
        inv = pair_vocab.inverse(0)
        doc = make_doc({(0, 0, 1): 0.7, (1, inv, 0): 0.2}, pair_vocab.size, n_entities=2)
        with pytest.raises(ValueError, match="conflicting inverse"):
            close_inverses(doc, pair_vocab)

    def test_matching_inverse_accepted(self, pair_vocab):
        inv = pair_vocab.inverse(0)
        doc = make_doc({(0, 0, 1): 0.7, (1, inv, 0): 0.7}, pair_vocab.size, n_entities=2)
        closed = close_inverses(doc, pair_vocab)
        assert len(closed.atoms) == 2


class TestAtomConf:
    def test_stored_lookup(self, pair_vocab):
        doc = make_doc({(0, 1, 1): 0.7}, pair_vocab.size, n_entities=2)
        assert atom_conf(doc, 0, 1, 1) == 0.7

    def test_missing_reads_zero(self, pair_vocab):
        doc = make_doc({(0, 1, 1): 0.7}, pair_vocab.size, n_entities=2)
        assert atom_conf(doc, 1, 1, 0) == 0.0

    def test_closure_direction(self, pair_vocab):
        doc = close_inverses(make_doc({(0, 0, 1): 0.7}, pair_vocab.size, n_entities=2), pair_vocab)
        assert atom_conf(doc, 1, pair_vocab.inverse(0), 0) == 0.7

    def test_out_of_range_rejected(self, pair_vocab):
        doc = make_doc({(0, 0, 1): 0.7}, pair_vocab.size, n_entities=2)
        with pytest.raises(ValueError):
            atom_conf(doc, 0, 99, 1)
        with pytest.raises(ValueError):
            atom_conf(doc, 5, 0, 1)

    def test_range_preserved_on_random_docs(self, pair_vocab, rng):
        for _ in range(50):
            atoms = {(0, int(rng.integers(0, 4)), 1): float(rng.random())}
            doc = make_doc(atoms, pair_vocab.size, n_entities=2)
            for h in range(2):
                for t in range(2):
                    for r in range(4):
                        assert 0.0 <= atom_conf(doc, h, r, t) <= 1.0


    def test_atom_array_is_the_dense_store(self, pair_vocab, rng):
        for _ in range(20):
            atoms = {(int(rng.integers(0, 3)), int(rng.integers(0, 4)), int(rng.integers(0, 3))): float(rng.random())
                     for _ in range(5)}
            doc = make_doc(atoms, pair_vocab.size, n_entities=3)
            arr = doc.atom_array()
            assert arr.shape == (pair_vocab.size, 3, 3)
            assert not arr.flags.writeable
            for h in range(3):
                for t in range(3):
                    for r in range(pair_vocab.size):
                        assert arr[r, h, t] == atom_conf(doc, h, r, t)


class TestDocumentValidation:
    def test_confidence_out_of_range(self, pair_vocab):
        with pytest.raises(ValueError, match="outside"):
            make_doc({(0, 0, 1): 1.5}, pair_vocab.size, n_entities=2)

    def test_entity_out_of_range(self, pair_vocab):
        with pytest.raises(ValueError, match="entity id"):
            make_doc({(0, 0, 5): 0.5}, pair_vocab.size, n_entities=2)

    def test_relation_out_of_range(self, pair_vocab):
        with pytest.raises(ValueError, match="relation id"):
            make_doc({(0, 9, 1): 0.5}, pair_vocab.size, n_entities=2)


class TestRule:
    def test_structural_equality_and_hash(self):
        assert Rule(0, (1, 2)) == Rule(0, (1, 2))
        assert Rule(0, (1, 2)) != Rule(1, (1, 2))
        assert len({Rule(0, (1, 2)), Rule(0, (1, 2)), Rule(0, (2, 1))}) == 2

    def test_empty_body_rejected(self):
        with pytest.raises(ValueError):
            Rule(0, ())

    def test_validate_length_and_ids(self, pair_vocab):
        validate_rule(Rule(0, (1, 2, 3)), pair_vocab, max_len=3)
        with pytest.raises(ValueError):
            validate_rule(Rule(0, (1, 2, 3)), pair_vocab, max_len=2)
        with pytest.raises(ValueError):
            validate_rule(Rule(0, (9,)), pair_vocab)

    def test_format_parse_round_trip(self, pair_vocab, rng):
        for _ in range(100):
            body = tuple(int(r) for r in rng.integers(0, 4, size=int(rng.integers(1, 4))))
            rule = Rule(int(rng.integers(0, 4)), body)
            parsed, weight = parse_rule(format_rule(rule, pair_vocab), pair_vocab)
            assert parsed == rule
            assert weight == 0.0

    def test_weight_round_trip(self, pair_vocab):
        rule = Rule(0, (1, 2))
        parsed, weight = parse_rule(format_rule(rule, pair_vocab, -1.25), pair_vocab)
        assert parsed == rule and weight == -1.25

    def test_bad_lines_rejected(self, pair_vocab):
        with pytest.raises(ValueError):
            parse_rule("a & b", pair_vocab)
        with pytest.raises(ValueError):
            parse_rule("a <- nope", pair_vocab)


class TestFiles:
    def test_vocab_file_round_trip(self, tmp_path):
        vocab = build_vocab(["knows", "likes"], {"knows"})
        path = tmp_path / "vocab.txt"
        write_vocab_file(path, vocab)
        assert read_vocab_file(path) == vocab

    def test_rules_file_round_trip(self, tmp_path, pair_vocab):
        path = tmp_path / "rules.txt"
        rules = [(Rule(0, (1,)), 0.5), (Rule(2, (3, 0)), 0.0)]
        write_rules_file(path, rules, pair_vocab)
        assert read_rules_file(path, pair_vocab) == rules

    def test_corpus_round_trip(self, tmp_path, pair_vocab):
        doc = close_inverses(
            make_doc({(0, 0, 1): 0.75}, pair_vocab.size, n_entities=3, gold=[(0, 0, 1)]),
            pair_vocab,
        )
        corpus = Corpus({"d": doc}, [LabeledInstance("d", 0, 0, 1, 1), LabeledInstance("d", 1, 0, 2, -1)])
        path = tmp_path / "docs.jsonl"
        write_corpus(path, corpus, pair_vocab)
        loaded = load_corpus(path, pair_vocab)
        assert loaded.docs["d"].atoms == doc.atoms
        assert loaded.docs["d"].gold_facts == doc.gold_facts
        assert set(loaded.instances) == set(corpus.instances)

    def test_corrupt_line_names_line_number(self, tmp_path, pair_vocab):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"doc_id": "d", "entities": ["x"], "atoms": [], "facts": []}\nnot json\n')
        with pytest.raises(ValueError, match=":2"):
            load_corpus(path, pair_vocab)

    def test_duplicate_doc_id_rejected(self, tmp_path, pair_vocab):
        line = json.dumps({"doc_id": "d", "entities": ["x"], "atoms": [], "facts": []})
        path = tmp_path / "docs.jsonl"
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(ValueError, match="duplicate doc_id"):
            load_corpus(path, pair_vocab)

    def test_label_must_be_signed_unit(self, tmp_path, pair_vocab):
        record = {"doc_id": "d", "entities": ["x", "y"], "atoms": [], "facts": [[0, "a", 1, 2]]}
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError):
            load_corpus(path, pair_vocab)

    @pytest.mark.parametrize("fact", [[7, "b", 9, -1], [0, "a", 2, 1], [-1, "a", 1, 1]])
    def test_fact_outside_its_document_names_the_line(self, tmp_path, pair_vocab, fact):
        good = {"doc_id": "d0", "entities": ["x", "y"], "atoms": [], "facts": [[0, "a", 1, 1]]}
        bad = {"doc_id": "d1", "entities": ["x", "y"], "atoms": [], "facts": [fact]}
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match=r"docs\.jsonl:2: .*entity id out of range in fact"):
            load_corpus(path, pair_vocab)

    @pytest.mark.parametrize("field, record", [
        ("atoms", [0, "a", 1.5, 0.9]),
        ("atoms", [0, "a", True, 0.9]),
        ("facts", [0, "a", 1.0, 1]),
        ("facts", [True, "a", 0, 1]),
    ])
    def test_non_integer_entity_id_names_the_line(self, tmp_path, pair_vocab, field, record):
        # 1.5 would ground as 0 through the DP and as entity 1 through the
        # all-pairs matrices; true would load as entity 1.
        good = {"doc_id": "d0", "entities": ["x", "y", "z"], "atoms": [], "facts": [[0, "a", 1, 1]]}
        bad = {"doc_id": "d1", "entities": ["x", "y", "z"], "atoms": [], "facts": [], field: [record]}
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match=r"docs\.jsonl:2: .*entity ids must be integers"):
            load_corpus(path, pair_vocab)

    @pytest.mark.parametrize("confidence", ["0.7", True])
    def test_non_numeric_confidence_names_the_line(self, tmp_path, pair_vocab, confidence):
        good = {"doc_id": "d0", "entities": ["x", "y"], "atoms": [[0, "a", 1, 0.5]], "facts": []}
        bad = {"doc_id": "d1", "entities": ["x", "y"], "atoms": [[0, "b", 1, confidence]], "facts": []}
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match=r"docs\.jsonl:2: .*confidence is not a number"):
            load_corpus(path, pair_vocab)

    def test_conflicting_duplicate_atom_names_the_line(self, tmp_path, pair_vocab):
        # Within 1e-9 a duplicate is the same atom; beyond it, it contradicts.
        same = {"doc_id": "d0", "entities": ["x", "y", "z"], "facts": [],
                "atoms": [[1, "b", 2, 0.8], [0, "a", 1, 0.5], [1, "b", 2, 0.8 + 1e-12]]}
        clash = {"doc_id": "d1", "entities": ["x", "y", "z"], "facts": [],
                 "atoms": [[1, "b", 2, 0.8], [1, "b", 2, 0.7]]}
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps(same) + "\n")
        assert load_corpus(path, pair_vocab).docs["d0"].atoms[(1, pair_vocab.id_of("b"), 2)] == pytest.approx(0.8)
        path.write_text(json.dumps(same) + "\n" + json.dumps(clash) + "\n")
        with pytest.raises(ValueError, match=r"docs\.jsonl:2: .*conflicting confidences 0\.8 and 0\.7"):
            load_corpus(path, pair_vocab)

    def test_bad_label_names_the_line(self, tmp_path, pair_vocab):
        good = {"doc_id": "d0", "entities": ["x", "y"], "atoms": [], "facts": [[0, "a", 1, 1]]}
        bad = {"doc_id": "d1", "entities": ["x", "y"], "atoms": [], "facts": [[0, "a", 1, 2]]}
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match=r"docs\.jsonl:2: .*label must be \+1 or -1"):
            load_corpus(path, pair_vocab)

    @pytest.mark.parametrize("label", [True, -1.0, 1.0, "1"])
    def test_non_integer_label_names_the_line(self, tmp_path, pair_vocab, label):
        # true and -1.0 pass a ``label in (-1, 1)`` check; true would also
        # enter the gold facts.
        good = {"doc_id": "d0", "entities": ["x", "y"], "atoms": [], "facts": [[0, "a", 1, 1]]}
        bad = {"doc_id": "d1", "entities": ["x", "y"], "atoms": [], "facts": [[0, "a", 1, label]]}
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match=r"docs\.jsonl:2: .*label must be \+1 or -1 as a JSON integer"):
            load_corpus(path, pair_vocab)

    def test_conflicting_duplicate_fact_names_the_line(self, tmp_path, pair_vocab):
        # An exact repeat is one query, as write_corpus writes it; the same
        # query with the other label contradicts itself.
        same = {"doc_id": "d0", "entities": ["x", "y", "z"], "atoms": [],
                "facts": [[0, "a", 1, 1], [1, "b", 2, -1], [0, "a", 1, 1]]}
        clash = {"doc_id": "d1", "entities": ["x", "y", "z"], "atoms": [],
                 "facts": [[1, "b", 2, -1], [0, "a", 1, 1], [1, "b", 2, 1]]}
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps(same) + "\n")
        a, b = pair_vocab.id_of("a"), pair_vocab.id_of("b")
        loaded = load_corpus(path, pair_vocab)
        assert loaded.instances == [LabeledInstance("d0", 0, a, 1, 1), LabeledInstance("d0", 1, b, 2, -1)]
        assert list(loaded.docs["d0"].gold_facts) == [(0, a, 1)]
        path.write_text(json.dumps(same) + "\n" + json.dumps(clash) + "\n")
        with pytest.raises(ValueError, match=r"docs\.jsonl:2: .*conflicting labels -1 and 1 for fact"):
            load_corpus(path, pair_vocab)
