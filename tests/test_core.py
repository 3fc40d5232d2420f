import json
import math

import numpy as np
import pytest

import rulex.core
from rulex.core import (
    Corpus,
    Document,
    LabeledInstance,
    Rule,
    atom_conf,
    build_vocab,
    close_inverses,
    format_rule,
    is_finite_number,
    load_corpus,
    parse_rule,
    read_json,
    read_lines,
    read_rules_file,
    read_vocab_file,
    validate_rule,
    write_corpus,
    write_json,
    write_lines,
    write_rules_file,
    write_vocab_file,
)

from rulex.datagen import SynthConfig
from rulex.em import EMConfig
from rulex.extractor import FitConfig

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

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e400", "-1e400"])
    def test_weight_that_is_not_finite_is_refused(self, pair_vocab, weight):
        with pytest.raises(ValueError, match=f"rule weight '{weight}' is not finite"):
            parse_rule(f"a <- b [{weight}]", pair_vocab)


class TestFiles:
    def test_vocab_file_round_trip(self, tmp_path):
        vocab = build_vocab(["knows", "likes"], {"knows"})
        path = tmp_path / "vocab.txt"
        write_vocab_file(path, vocab)
        assert read_vocab_file(path) == vocab

    def test_names_the_rule_format_reads_back_load(self, tmp_path):
        names = [f"r{i}" for i in range(30)] + ["born in", "x-y", "<y", "a|b", "e⁻¹"]
        path = tmp_path / "vocab.txt"
        path.write_text("// a comment\n" + "".join(name + "\n" for name in names) + "twin #self\n", encoding="utf-8")
        vocab = read_vocab_file(path)
        assert list(vocab.names[: vocab.num_base]) == [*names, "twin"]
        rule = Rule(vocab.id_of("r0"), tuple(vocab.id_of(name) for name in names[30:]))
        assert parse_rule(format_rule(rule, vocab, 0.5), vocab) == (rule, 0.5)

    @pytest.mark.parametrize("name", ["#self", "x <- y", "a & b", "w[1]", "w]"])
    def test_a_name_the_rule_format_cannot_read_back_names_its_line(self, tmp_path, name):
        path = tmp_path / "vocab.txt"
        path.write_text(f"r0\n{name}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="vocab.txt:2: relation name"):
            read_vocab_file(path)

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

    @pytest.mark.parametrize("confidence", ["0.7", True, pytest.param(10**400, id="huge-integer")])
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


class TestFileLayer:
    def test_writers_end_every_line_with_a_newline(self, tmp_path):
        path = tmp_path / "out.txt"
        write_lines(path, iter(["a", "", "b\r", "é"]))
        assert path.read_bytes() == "a\n\nb\r\né\n".encode("utf-8")
        write_json(path, {"b": [1, 2], "a": None})
        assert path.read_text(encoding="utf-8") == '{"a": null, "b": [1, 2]}\n'
        write_json(path, {"b": 1, "a": 2}, indent=2)
        assert path.read_text(encoding="utf-8") == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_read_lines_skips_blank_lines_and_numbers_the_rest(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("x\n\n  \ny\n", encoding="utf-8")
        assert read_lines(path, str.strip) == ["x", "y"]
        path.write_bytes("é\r\n\r\ny".encode("utf-8"))
        assert read_lines(path, str.strip) == ["é", "y"]

    def test_a_line_that_is_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes(b"x\n\ny\xffz\n")
        with pytest.raises(ValueError, match=r"in\.txt:3: bad line: 'utf-8' codec can't decode byte 0xff"):
            read_lines(path, str.strip, "bad line: ")

    @pytest.mark.parametrize("error", [KeyError("k"), TypeError("t"), ValueError("v"), OverflowError("o")])
    def test_a_parse_error_names_the_file(self, tmp_path, error):
        def parse(value):
            if value in ("bad\n", "bad"):
                raise error
            return value

        path = tmp_path / "in.txt"
        path.write_text("ok\n\nbad\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_lines(path, parse, "bad record: ")
        assert str(exc.value) == f"{path}:3: bad record: {error}"
        path.write_text('"bad"', encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_json(path, parse)
        assert str(exc.value) == f"{path}: {error}"

    def test_read_json_reads_one_value(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text('{"a": [1, 2.5]}\n', encoding="utf-8")
        assert read_json(path, lambda obj: obj["a"]) == [1, 2.5]
        path.write_text("{} {}", encoding="utf-8")
        with pytest.raises(ValueError, match=r"in\.json: Extra data"):
            read_json(path, dict)

    def test_is_finite_number(self):
        finite = [0, -3, 0.5, 10**300, np.float64(2.0)]
        not_finite = [10**400, -(10**400), math.nan, math.inf, True, "1", None]
        assert [is_finite_number(value) for value in finite + not_finite] == [True] * 5 + [False] * 7

    def test_load_corpus_builds_one_document_per_record(self, tmp_path, pair_vocab, monkeypatch):
        built = []

        class CountedDocument(Document):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built.append(args[0])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(rulex.core, "Document", CountedDocument)
        path = tmp_path / "docs.jsonl"
        records = [{"doc_id": f"d{i}", "entities": ["x", "y"], "atoms": [[0, "a", 1, 0.5]], "facts": []}
                   for i in range(3)]
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        corpus = load_corpus(path, pair_vocab)
        assert built == ["d0", "d1", "d2"]
        assert corpus.docs["d1"].atoms == {(0, pair_vocab.id_of("a"), 1): 0.5, (1, pair_vocab.inverse(0), 0): 0.5}

    def test_conflicting_inverse_atom_names_the_line(self, tmp_path, pair_vocab):
        a = pair_vocab.id_of("a")
        record = {"doc_id": "d", "entities": ["x", "y"], "facts": [],
                  "atoms": [[0, "a", 1, 1], [1, pair_vocab.name_of(pair_vocab.inverse(a)), 0, 0]]}
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=r"docs\.jsonl:1: bad document record: doc d: conflicting inverse "
                                             r"confidences for atom \(0, 0, 1\): 1\.0 vs 0\.0"):
            load_corpus(path, pair_vocab)


class TestJsonConfig:
    @pytest.mark.parametrize("cls", [EMConfig, FitConfig, SynthConfig])
    def test_default_round_trip(self, cls):
        assert cls.from_json(cls().to_json()) == cls()

    def test_to_json_writes_nested_configs_as_objects_and_tuples_as_lists(self):
        assert EMConfig().to_json()["fit"] == {"lr": 0.1, "epochs": 5, "l2": 1e-4}
        assert SynthConfig().to_json()["entities_per_doc"] == [4, 6]

    def test_missing_keys_keep_their_defaults(self):
        assert EMConfig.from_json({"fit": {"epochs": 2}}) == EMConfig(fit=FitConfig(epochs=2))

    def test_values_are_kept_as_given(self):
        # An integer in a float field stays an integer, so the echo keeps its bytes.
        config = SynthConfig.from_json({"p_flip": 0, "split": [1, 0, 0]})
        assert type(config.p_flip) is int and config.split == (1, 0, 0)
        assert json.dumps(config.to_json()["split"]) == "[1, 0, 0]"

    @pytest.mark.parametrize(
        ("cls", "obj", "message"),
        [
            (EMConfig, {"fit": {"x": 1}}, "unknown config key 'fit.x'"),
            (EMConfig, {"seed": True}, "config key 'seed' must be an integer, got true"),
            (EMConfig, {"beam": 200.0}, "config key 'beam' must be an integer, got 200.0"),
            (EMConfig, {"fit": {"l2": None}}, "config key 'fit.l2' must be a finite number, got null"),
            (EMConfig, {"fit": {"lr": float("nan")}}, "config key 'fit.lr' must be a finite number, got NaN"),
            (EMConfig, {"fit": {"lr": 10**400}}, "config key 'fit.lr' must be a finite number, got 1000"),
            (SynthConfig, {"split": [1, 0, float("inf")]}, "config key 'split[2]' must be a finite number"),
            (EMConfig, {"inference_mode": 1}, "config key 'inference_mode' must be a string, got 1"),
            (EMConfig, [], "config must be a JSON object, got []"),
            (SynthConfig, {"split": [0.5, 0.5]}, "config key 'split' must be a list of 3 values"),
            (SynthConfig, {"chains_per_rule": [1, 2.0]}, "config key 'chains_per_rule[1]' must be an integer"),
            (SynthConfig, {"planted_rules": "r0 <- r1"}, "config key 'planted_rules' must be a list"),
            (SynthConfig, {"self_inverse": [None]}, "config key 'self_inverse[0]' must be a string"),
        ],
    )
    def test_mistyped_value_names_its_dotted_key(self, cls, obj, message):
        with pytest.raises(ValueError) as exc:
            cls.from_json(obj)
        assert str(exc.value).startswith(message)

    def test_loaded_config_is_validated(self):
        with pytest.raises(ValueError, match="beam must be >= n_rules"):
            EMConfig.from_json({"n_rules": 10, "beam": 5})

