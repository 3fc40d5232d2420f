"""Output checks and the determinism digest of one pipeline pass."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

RUN_FILES = ("generator.json", "extractor.json", "diagnostics.csv")


def digest(run_dir: Path, predictions: Path) -> str:
    """sha256 over the trained model, the diagnostics and the predictions file."""
    h = hashlib.sha256()
    for label, path in [(name, run_dir / name) for name in RUN_FILES] + [("predictions", predictions)]:
        h.update(label.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _path_grounding(doc, body: tuple[int, ...], path: list[int]) -> float:
    """Product of the path's atom confidences, left to right as the DP multiplies."""
    value = 1.0
    for i, r in enumerate(body):
        value = value * doc.atoms.get((path[i], r, path[i + 1]), 0.0)
    return value


def document_problems(record: dict | None, doc, vocab, rulex) -> list[str]:
    """Every way one document's prediction record breaks the output contract.

    Predicted triples need ids in range and a probability in (0.5, 1]; every
    explanation belongs to a predicted triple, and each rule's witness path
    runs from its head entity to its tail entity with a left-to-right product
    of atom confidences that equals the reported grounding exactly.
    """
    if record is None:
        return ["no prediction record"]
    problems = []
    n = doc.num_entities
    predicted = set()
    for h, r_name, t, p in record["triples"]:
        if r_name not in vocab.names:
            problems.append(f"unknown relation {r_name!r}")
        if not (0 <= h < n and 0 <= t < n):
            problems.append(f"entity id out of range in {[h, r_name, t]}")
        if not 0.5 < p <= 1.0:
            problems.append(f"probability {p} outside (0.5, 1] for {[h, r_name, t]}")
        predicted.add((h, r_name, t))
    for explanation in record.get("explanations", []):
        h, r_name, t = explanation["triple"]
        if (h, r_name, t) not in predicted:
            problems.append(f"explanation for unpredicted triple {[h, r_name, t]}")
            continue
        for item in explanation["rules"]:
            rule, _ = rulex.core.parse_rule(item["rule"], vocab)
            path = item["path"]
            if rule.head != vocab.id_of(r_name):
                problems.append(f"rule {item['rule']!r} explains relation {r_name}")
            elif len(path) != len(rule.body) + 1 or path[0] != h or path[-1] != t:
                problems.append(f"path {path} of {item['rule']!r} does not run from {h} to {t}")
            elif _path_grounding(doc, rule.body, path) != item["grounding"]:
                problems.append(f"path {path} of {item['rule']!r} does not give grounding {item['grounding']!r}")
    return problems


def check_predictions(path: Path, corpus, vocab, rulex) -> dict[str, list[str]]:
    """Problems per document of the corpus; documents without problems are omitted."""
    records = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                record = json.loads(line)
                records[record["doc_id"]] = record
            except (ValueError, KeyError, TypeError):
                continue  # its document is then reported without a record
    failures = {}
    for doc_id, doc in corpus.docs.items():
        try:
            problems = document_problems(records.get(doc_id), doc, vocab, rulex)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems = [f"malformed record: {exc!r}"]
        if problems:
            failures[doc_id] = problems
    return failures
