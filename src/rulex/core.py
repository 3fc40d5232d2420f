"""Core vocabulary, rule, and document types shared by every other module.

A document is an entity list plus a sparse store of atom confidences,
``(head_entity, relation, tail_entity) -> c`` with ``c`` in [0, 1].  Missing
atoms read as confidence 0.  Relation vocabularies carry an involutive
inverse mapping so that the store can be closed under reversal once at
ingestion time; downstream grounding then only ever needs forward lookups.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

INVERSE_SUFFIX = "⁻¹"  # superscript -1, appended to generated inverse names
SELF_INVERSE_MARK = "#self"
DEFAULT_MAX_RULE_LEN = 3


class RelationVocab:
    """Relation-type vocabulary with an involutive inverse mapping.

    ``names`` lists every relation id in order, including generated inverse
    names.  ``stop_id`` is a sequence-termination token used by the rule
    generator; it is not a relation id and never appears in a rule body.
    """

    __slots__ = ("names", "inverse_of", "num_base", "_index")

    def __init__(self, names: Sequence[str], inverse_of: Sequence[int], num_base: int):
        self.names = tuple(names)
        self.inverse_of = tuple(inverse_of)
        self.num_base = num_base
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) != len(self.names):
            raise ValueError("relation names must be unique")
        if len(self.inverse_of) != len(self.names):
            raise ValueError("inverse_of must cover every relation id")
        for r, inv in enumerate(self.inverse_of):
            if self.inverse_of[inv] != r:
                raise ValueError(f"inverse_of is not an involution at id {r}")

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def stop_id(self) -> int:
        return len(self.names)

    @property
    def base_ids(self) -> range:
        """Ids of the caller-supplied names (generated inverses excluded)."""
        return range(self.num_base)

    def id_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown relation name: {name!r}") from None

    def name_of(self, r: int) -> str:
        self.check_relation(r)
        return self.names[r]

    def inverse(self, r: int) -> int:
        self.check_relation(r)
        return self.inverse_of[r]

    def check_relation(self, r: int) -> None:
        if not 0 <= r < len(self.names):
            raise ValueError(f"relation id out of range: {r}")

    def to_json(self) -> dict:
        return {
            "names": list(self.names),
            "inverse_of": list(self.inverse_of),
            "num_base": self.num_base,
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "RelationVocab":
        return cls(obj["names"], obj["inverse_of"], obj["num_base"])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RelationVocab)
            and self.names == other.names
            and self.inverse_of == other.inverse_of
            and self.num_base == other.num_base
        )

    def __repr__(self) -> str:
        return f"RelationVocab({len(self.names)} relations, {self.num_base} base)"


def build_vocab(names: Sequence[str], self_inverse: Iterable[str] = ()) -> RelationVocab:
    """Build a vocabulary from base relation names.

    Every name not listed in ``self_inverse`` gets a generated inverse
    appended after the base block, so a base set of B names with K
    self-inverse members yields ``2B - K`` relation ids.
    """
    names = list(names)
    if not names:
        raise ValueError("relation name list is empty")
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate relation name: {name!r}")
        seen.add(name)
    self_inverse = set(self_inverse)
    unknown = self_inverse - seen
    if unknown:
        raise ValueError(f"self_inverse names not in vocabulary: {sorted(unknown)}")

    full = list(names)
    inverse_of = list(range(len(names)))
    for i, name in enumerate(names):
        if name in self_inverse:
            continue
        inv_id = len(full)
        full.append(name + INVERSE_SUFFIX)
        inverse_of.append(i)
        inverse_of[i] = inv_id
    return RelationVocab(full, inverse_of, num_base=len(names))


def read_vocab_file(path) -> RelationVocab:
    """Read a vocabulary file: one base name per line, '#self' marks self-inverse."""
    names, self_inverse = [], set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("//"):
                continue
            if line.endswith(SELF_INVERSE_MARK):
                name = line[: -len(SELF_INVERSE_MARK)].strip()
                self_inverse.add(name)
            else:
                name = line
            names.append(name)
    return build_vocab(names, self_inverse)


def write_vocab_file(path, vocab: RelationVocab) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in vocab.base_ids:
            mark = SELF_INVERSE_MARK if vocab.inverse_of[r] == r else ""
            fh.write(vocab.names[r] + mark + "\n")


class Rule:
    """A conjunctive rule: ``head(e0, el) <- body[0](e0, e1) & ... & body[l-1](e(l-1), el)``.

    Equality and hashing are structural over (head, body), so rules
    deduplicate naturally in sets and count tables.  Treat instances as
    immutable; the hash is computed once at construction.
    """

    __slots__ = ("head", "body", "_hash")

    def __init__(self, head: int, body: Sequence[int]):
        body = tuple(body)
        if len(body) == 0:
            raise ValueError("rule body is empty")
        self.head = head
        self.body = body
        self._hash = hash((head, body))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rule)
            and self._hash == other._hash
            and self.head == other.head
            and self.body == other.body
        )

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.body)

    def __repr__(self) -> str:
        return f"Rule({self.head}, {self.body})"


def validate_rule(rule: Rule, vocab: RelationVocab, max_len: int = DEFAULT_MAX_RULE_LEN) -> None:
    vocab.check_relation(rule.head)
    if not 1 <= len(rule.body) <= max_len:
        raise ValueError(f"rule body length {len(rule.body)} outside [1, {max_len}]")
    for r in rule.body:
        vocab.check_relation(r)


def format_rule(rule: Rule, vocab: RelationVocab, weight: float | None = None) -> str:
    """Render a rule in the text format ``head <- r1 & r2 [weight]``."""
    text = vocab.name_of(rule.head) + " <- " + " & ".join(vocab.name_of(r) for r in rule.body)
    if weight is not None:
        text += f" [{weight!r}]"
    return text


def parse_rule(line: str, vocab: RelationVocab) -> tuple[Rule, float]:
    """Parse one rule line; the bracketed weight is optional and defaults to 0."""
    text = line.strip()
    weight = 0.0
    if text.endswith("]"):
        lb = text.rfind("[")
        if lb < 0:
            raise ValueError(f"unbalanced weight bracket in rule line: {line!r}")
        weight = float(text[lb + 1 : -1])
        text = text[:lb].strip()
    if "<-" not in text:
        raise ValueError(f"missing '<-' in rule line: {line!r}")
    head_text, body_text = text.split("<-", 1)
    body = tuple(vocab.id_of(part.strip()) for part in body_text.split("&"))
    return Rule(vocab.id_of(head_text.strip()), body), weight


def read_rules_file(path, vocab: RelationVocab) -> list[tuple[Rule, float]]:
    rules = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rules.append(parse_rule(line, vocab))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return rules


def write_rules_file(path, rules: Iterable[tuple[Rule, float] | Rule], vocab: RelationVocab) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in rules:
            if isinstance(item, Rule):
                fh.write(format_rule(item, vocab) + "\n")
            else:
                rule, weight = item
                fh.write(format_rule(rule, vocab, weight) + "\n")


def pad_bodies(bodies: Sequence[Sequence[int]], width: int) -> np.ndarray:
    """Rule bodies as the rows of an int array of shape (len(bodies), width), padded with -1."""
    table = np.full((len(bodies), width), -1, dtype=np.intp)
    for i, body in enumerate(bodies):
        table[i, : len(body)] = body
    return table


class RuleSet:
    """A fixed-size multiset of rules (duplicates permitted)."""

    __slots__ = ("rules", "_counts")

    def __init__(self, rules: Sequence[Rule]):
        if len(rules) == 0:
            raise ValueError("rule set is empty")
        self.rules = tuple(rules)
        self._counts = None

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def counts(self) -> dict[Rule, int]:
        """Deduplicated view; multiplicities sum to the multiset size."""
        if self._counts is None:
            counts: dict[Rule, int] = {}
            for rule in self.rules:
                counts[rule] = counts.get(rule, 0) + 1
            self._counts = counts
        return self._counts


class Document:
    """An entity list plus a sparse atom-confidence store and gold facts.

    Immutable after construction: all derived indexes are built lazily and
    cached, which keeps concurrent reads safe.
    """

    __slots__ = ("doc_id", "entities", "atoms", "gold_facts", "num_relations", "_adjacency", "_atom_array")

    def __init__(
        self,
        doc_id: str,
        entities: Sequence[str],
        atoms: Mapping[tuple[int, int, int], float],
        gold_facts: Iterable[tuple[int, int, int]] = (),
        *,
        num_relations: int,
    ):
        self.doc_id = doc_id
        self.entities = tuple(entities)
        self.num_relations = num_relations
        n = len(self.entities)
        checked = {}
        for (h, r, t), c in atoms.items():
            if not (0 <= h < n and 0 <= t < n):
                raise ValueError(f"doc {doc_id}: entity id out of range in atom ({h}, {r}, {t})")
            if not 0 <= r < num_relations:
                raise ValueError(f"doc {doc_id}: relation id out of range in atom ({h}, {r}, {t})")
            c = float(c)
            if not 0.0 <= c <= 1.0:
                raise ValueError(f"doc {doc_id}: confidence {c} outside [0, 1] for atom ({h}, {r}, {t})")
            checked[(h, r, t)] = c
        self.atoms = checked
        facts = frozenset(tuple(f) for f in gold_facts)
        for h, r, t in facts:
            if not (0 <= h < n and 0 <= t < n and 0 <= r < num_relations):
                raise ValueError(f"doc {doc_id}: id out of range in gold fact ({h}, {r}, {t})")
        self.gold_facts = facts
        self._adjacency = None
        self._atom_array = None

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    def adjacency(self) -> dict[int, dict[int, list[tuple[int, float]]]]:
        """Per-relation out-edge index, ``r -> h -> [(t, conf), ...]``.

        Zero-confidence atoms are dropped: under the product t-norm they can
        never contribute to a positive-value path.
        """
        if self._adjacency is None:
            adj: dict[int, dict[int, list[tuple[int, float]]]] = {}
            for (h, r, t), c in self.atoms.items():
                if c <= 0.0:
                    continue
                adj.setdefault(r, {}).setdefault(h, []).append((t, c))
            self._adjacency = adj
        return self._adjacency

    def atom_array(self) -> np.ndarray:
        """Dense read-only atom confidences, ``[r, h, t]``, shape (relations, entities, entities).

        Costs ``num_relations * num_entities**2 * 8`` bytes per document.
        """
        if self._atom_array is None:
            n = len(self.entities)
            arr = np.zeros((self.num_relations, n, n))
            if self.atoms:
                h, r, t = np.array(list(self.atoms), dtype=np.intp).T
                arr[r, h, t] = list(self.atoms.values())
            arr.flags.writeable = False
            self._atom_array = arr
        return self._atom_array


def atom_conf(doc: Document, h: int, r: int, t: int) -> float:
    """Stored confidence of an atom, 0 when absent; rejects out-of-range ids."""
    n = doc.num_entities
    if not (0 <= h < n and 0 <= t < n):
        raise ValueError(f"entity id out of range: ({h}, {t}) in doc {doc.doc_id}")
    if not 0 <= r < doc.num_relations:
        raise ValueError(f"relation id out of range: {r}")
    return doc.atoms.get((h, r, t), 0.0)


def close_inverses(doc: Document, vocab: RelationVocab) -> Document:
    """Return a document whose atom store is closed under relation inversion.

    Idempotent.  A pre-existing inverse atom whose confidence disagrees by
    more than 1e-9 is a contradiction and is rejected.
    """
    closed = dict(doc.atoms)
    for (h, r, t), c in doc.atoms.items():
        inv = (t, vocab.inverse(r), h)
        existing = closed.get(inv)
        if existing is None:
            closed[inv] = c
        elif abs(existing - c) > 1e-9:
            raise ValueError(
                f"doc {doc.doc_id}: conflicting inverse confidences for atom ({h}, {r}, {t}): "
                f"{c} vs {existing}"
            )
    return Document(doc.doc_id, doc.entities, closed, doc.gold_facts, num_relations=doc.num_relations)


@dataclass(frozen=True)
class LabeledInstance:
    """A query triple within one document with its gold label (+1 or -1)."""

    doc_id: str
    head: int
    relation: int
    tail: int
    label: int

    def __post_init__(self):
        if self.label not in (-1, 1):
            raise ValueError(f"label must be +1 or -1, got {self.label}")

    @property
    def query(self) -> tuple[int, int, int]:
        return (self.head, self.relation, self.tail)


@dataclass
class Corpus:
    """Documents keyed by id plus the labeled query instances over them."""

    docs: dict[str, Document] = field(default_factory=dict)
    instances: list[LabeledInstance] = field(default_factory=list)

    def doc_of(self, instance: LabeledInstance) -> Document:
        return self.docs[instance.doc_id]


def _doc_to_json(doc: Document, vocab: RelationVocab, instances: Sequence[LabeledInstance]) -> dict:
    labels = {(i.head, i.relation, i.tail): i.label for i in instances}
    for h, r, t in doc.gold_facts:
        labels.setdefault((h, r, t), 1)
    return {
        "doc_id": doc.doc_id,
        "entities": list(doc.entities),
        "atoms": [[h, vocab.name_of(r), t, c] for (h, r, t), c in sorted(doc.atoms.items())],
        "facts": [[h, vocab.name_of(r), t, y] for (h, r, t), y in sorted(labels.items())],
    }


def load_corpus(path, vocab: RelationVocab, *, close: bool = True) -> Corpus:
    """Load a JSONL document file into a corpus.

    Each line holds one document object; its ``facts`` list carries the
    labeled instances (label +1 entries double as the document's gold facts).
    Atom stores are closed under inversion after ingestion unless ``close``
    is disabled.  Any invalid record fails with the file's path and line
    number: among others, an entity id that is not a JSON integer or falls
    outside the document, a confidence that is not a JSON number, an atom
    listed twice with confidences more than 1e-9 apart (within that, the
    first is kept), a label that is not the JSON integer 1 or -1, and a fact
    listed twice with different labels (an exact repeat loads once).
    """
    corpus = Corpus()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                doc_id = obj["doc_id"]
                entities = obj["entities"]
                n = len(entities)
                atoms = {}
                # ``type``, not ``isinstance``: JSON true loads as a bool, an int.
                for atom in obj["atoms"]:
                    h, r_name, t, c = atom
                    if type(h) is not int or type(t) is not int:
                        raise ValueError(f"entity ids must be integers in atom {atom}")
                    if type(c) is not float and type(c) is not int:
                        raise ValueError(f"confidence is not a number in atom {atom}")
                    first = atoms.setdefault((h, vocab.id_of(r_name), t), c)
                    if first is not c and abs(first - c) > 1e-9:
                        raise ValueError(f"conflicting confidences {first} and {c} for atom {atom}")
                labels = {}
                for fact in obj["facts"]:
                    h, r_name, t, y = fact
                    if type(h) is not int or type(t) is not int:
                        raise ValueError(f"entity ids must be integers in fact {fact}")
                    if not (0 <= h < n and 0 <= t < n):
                        raise ValueError(f"entity id out of range in fact [{h}, {r_name!r}, {t}, {y}]")
                    if type(y) is not int or y not in (-1, 1):
                        raise ValueError(f"label must be +1 or -1 as a JSON integer in fact {fact}")
                    first = labels.setdefault((h, vocab.id_of(r_name), t), y)
                    if first != y:
                        raise ValueError(f"conflicting labels {first} and {y} for fact {fact}")
                instances = [LabeledInstance(doc_id, h, r, t, y) for (h, r, t), y in labels.items()]
                gold = [key for key, y in labels.items() if y == 1]
                doc = Document(doc_id, entities, atoms, gold, num_relations=vocab.size)
                if close:
                    doc = close_inverses(doc, vocab)
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad document record: {exc}") from None
            if doc_id in corpus.docs:
                raise ValueError(f"{path}:{lineno}: duplicate doc_id {doc_id!r}")
            corpus.docs[doc_id] = doc
            corpus.instances.extend(instances)
    return corpus


def write_corpus(path, corpus: Corpus, vocab: RelationVocab) -> None:
    by_doc: dict[str, list[LabeledInstance]] = {doc_id: [] for doc_id in corpus.docs}
    for inst in corpus.instances:
        by_doc[inst.doc_id].append(inst)
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, doc in corpus.docs.items():
            fh.write(json.dumps(_doc_to_json(doc, vocab, by_doc[doc_id]), sort_keys=True) + "\n")
