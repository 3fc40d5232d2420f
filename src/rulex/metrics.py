"""Evaluation: micro-averaged F1, ign F1, and rule-consistency scoring."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import Document, RelationVocab, Rule, body_paths, is_finite_number, parse_json, read_lines, write_lines

Triple = tuple[int, int, int]


@dataclass
class PredictionSet:
    """Predicted positive triples per document with their probabilities."""

    by_doc: dict[str, dict[Triple, float]] = field(default_factory=dict)


@dataclass
class PRF:
    precision: float
    recall: float
    f1: float

    def to_json(self) -> dict:
        return asdict(self)


def prf(tp: int, fp: int, fn: int) -> PRF:
    """Precision, recall and F1 from counts of true positives, false positives and false negatives."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return PRF(precision, recall, f1)


def f1(predictions: PredictionSet, gold: Mapping[str, Iterable[Triple]]) -> PRF:
    """Micro-averaged precision/recall/F1 over all documents."""
    gold_sets = {doc_id: set(facts) for doc_id, facts in gold.items()}
    tp = fp = fn = 0
    for doc_id, preds in predictions.by_doc.items():
        if doc_id not in gold_sets:
            raise ValueError(f"predictions reference unknown doc id {doc_id!r}")
        hits = sum(1 for triple in preds if triple in gold_sets[doc_id])
        tp += hits
        fp += len(preds) - hits
    for doc_id, facts in gold_sets.items():
        preds = predictions.by_doc.get(doc_id, {})
        fn += sum(1 for triple in facts if triple not in preds)
    return prf(tp, fp, fn)


NameTriple = tuple[str, str, str]


def name_facts(docs: Mapping[str, Document], vocab: RelationVocab) -> set[NameTriple]:
    """Name-level gold triples of a document collection (for train-set exclusion)."""
    out: set[NameTriple] = set()
    for doc in docs.values():
        for h, r, t in doc.gold_facts:
            out.add((doc.entities[h], vocab.name_of(r), doc.entities[t]))
    return out


def ign_f1(
    predictions: PredictionSet,
    gold: Mapping[str, Iterable[Triple]],
    train_facts: set[NameTriple],
    docs: Mapping[str, Document],
    vocab: RelationVocab,
) -> PRF:
    """F1 with triples whose name-level form occurs in the training facts removed
    from both predictions and gold."""

    def keep(doc_id: str, triple: Triple) -> bool:
        doc = docs[doc_id]
        h, r, t = triple
        return (doc.entities[h], vocab.name_of(r), doc.entities[t]) not in train_facts

    filtered_preds = PredictionSet(
        {
            doc_id: {triple: p for triple, p in preds.items() if keep(doc_id, triple)}
            for doc_id, preds in predictions.by_doc.items()
        }
    )
    filtered_gold = {
        doc_id: {triple for triple in facts if keep(doc_id, triple)} for doc_id, facts in gold.items()
    }
    return f1(filtered_preds, filtered_gold)


@dataclass
class LogicScore:
    """Precision of a rule set over predictions.

    ``score`` is the fraction of body-satisfied entity bindings whose head
    atom is also predicted; with no body-satisfied bindings at all the score
    is vacuously 1 and ``vacuous`` is flagged.
    """

    score: float
    bindings: int
    satisfied: int
    vacuous: bool

    def to_json(self) -> dict:
        return asdict(self)


def logic_score(predictions: PredictionSet, eval_rules: Sequence[Rule]) -> LogicScore:
    """Check how often predictions respect the given rules.

    A binding is any entity sequence whose body atoms are all predicted;
    repeated entities are legal bindings.
    """
    total = satisfied = 0
    for preds in predictions.by_doc.values():
        for rule, paths in zip(eval_rules, body_paths(preds, [rule.body for rule in eval_rules])):
            total += len(paths)
            satisfied += sum((path[0], rule.head, path[-1]) in preds for path in paths)
    if total == 0:
        return LogicScore(1.0, 0, 0, True)
    return LogicScore(satisfied / total, total, satisfied, False)


def threshold_predictions(docs: Mapping[str, Document], threshold: float = 0.5) -> PredictionSet:
    """Backbone-only baseline: predict every stored atom above the threshold."""
    predictions = PredictionSet()
    for doc_id, doc in docs.items():
        predictions.by_doc[doc_id] = {
            triple: conf for triple, conf in doc.atoms.items() if conf > threshold
        }
    return predictions


def gold_by_doc(docs: Mapping[str, Document]) -> dict[str, frozenset[Triple]]:
    return {doc_id: doc.gold_facts for doc_id, doc in docs.items()}


# -- predictions file ----------------------------------------------------------


def write_predictions(
    path,
    predictions: PredictionSet,
    vocab: RelationVocab,
    explanations: Mapping[str, Mapping[Triple, list]] | None = None,
) -> None:
    def lines() -> Iterable[str]:
        for doc_id, preds in predictions.by_doc.items():
            record = {
                "doc_id": doc_id,
                "triples": [[h, vocab.name_of(r), t, p] for (h, r, t), p in sorted(preds.items())],
            }
            if explanations and doc_id in explanations:
                record["explanations"] = [
                    {"triple": [h, vocab.name_of(r), t], "rules": rules}
                    for (h, r, t), rules in sorted(explanations[doc_id].items())
                ]
            yield json.dumps(record, sort_keys=True)

    write_lines(path, lines())


def read_predictions(path, vocab: RelationVocab) -> PredictionSet:
    """The predictions ``write_predictions`` wrote; a bad record raises ``ValueError`` naming ``path:line``.

    ``doc_id``s must be JSON strings, entity ids JSON integers >= 0,
    probabilities JSON numbers in [0, 1] (not ``true``), and triples and
    ``doc_id``s unique.
    """
    predictions = PredictionSet()

    def parse(line: str) -> None:
        obj = parse_json(line)
        doc_id = obj["doc_id"]
        if type(doc_id) is not str:
            raise ValueError(f"doc_id must be a string, got {type(doc_id).__name__}")
        if doc_id in predictions.by_doc:
            raise ValueError(f"duplicate doc_id {doc_id!r}")
        triples = {}
        # ``type``, not ``isinstance``: JSON true loads as a bool, an int.
        for h, r_name, t, p in obj["triples"]:
            if type(h) is not int or type(t) is not int or h < 0 or t < 0:
                raise ValueError(f"entity ids must be integers >= 0, got {json.dumps(h)} and {json.dumps(t)}")
            if not is_finite_number(p) or not 0.0 <= p <= 1.0:
                raise ValueError(f"probability must be a number in [0, 1], got {json.dumps(p)}")
            triple = (h, vocab.id_of(r_name), t)
            if triple in triples:
                raise ValueError(f"duplicate predicted triple {triple}")
            triples[triple] = p
        predictions.by_doc[doc_id] = triples

    read_lines(path, parse, "bad prediction record: ")
    return predictions
