"""Core vocabulary, rule, and document types shared by every other module.

A document is an entity list plus a sparse store of atom confidences,
``(head_entity, relation, tail_entity) -> c`` with ``c`` in [0, 1].  Missing
atoms read as confidence 0.  Relation vocabularies carry an involutive
inverse mapping so that the store can be closed under reversal once at
ingestion time; downstream grounding then only ever needs forward lookups.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Iterator, Mapping, Sequence, get_args, get_origin, get_type_hints

import numpy as np

INVERSE_SUFFIX = "⁻¹"  # superscript -1, appended to generated inverse names
SELF_INVERSE_MARK = "#self"
DEFAULT_MAX_RULE_LEN = 3
# A direct-address table over a span of integer codes takes 8 bytes per code
# in the span.  Its only readers, ``CodeIndex`` and ``distinct``, let it stand
# in for sorting or binary-searching n codes only while the span is below this
# many times n, so that it weighs about as much as the n-entry arrays their
# callers already build.  At this density a lookup through it still runs 4-5x
# faster than ``searchsorted`` (numpy 2.4, 20k-150k codes, 2-core x86 host).
# The sparse spans measured lie past ``ENUM_LIMIT``, on the 60-id benchmark
# workload: a design's 84k new weight keys over 4M codes, a head's 5k-15k
# count events over 223k cells.
DENSE_SPAN = 8
_PARSE_ERRORS = (KeyError, TypeError, ValueError, OverflowError)  # what a reader's ``parse`` raises on a bad record


def _span(codes: np.ndarray) -> tuple[int, int]:
    """The least and the greatest of the int ``codes``, (0, -1) when there are none."""
    return (int(codes.min()), int(codes.max())) if len(codes) else (0, -1)


class CodeIndex:
    """The position of each key among distinct int ``codes``, or -1.

    ``keys`` is the number of keys the caller means to look up.  While the
    span ``[min code, max code]`` is under ``DENSE_SPAN`` times the number of
    codes and keys, a direct-address table of 8 bytes per code in the span
    answers; otherwise a binary search of the codes' sort order, 8 bytes per
    code.  Both give the same positions.  No codes at all take the table, of
    one entry.
    """

    __slots__ = ("codes", "_lo", "_table", "_order")

    def __init__(self, codes: np.ndarray, keys: int = 0):
        self.codes = codes = np.asarray(codes)
        self._lo, hi = _span(codes)
        self._table = self._order = None
        if hi - self._lo < DENSE_SPAN * (len(codes) + keys):
            # Entry c - lo holds the position of code c; the last entry, -1, answers every key outside the span.
            self._table = np.full(hi - self._lo + 2, -1, dtype=np.intp)
            self._table[codes - self._lo] = np.arange(len(codes))
        else:
            self._order = np.argsort(codes, kind="stable")

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The position in ``codes`` of each of the int ``keys``, -1 where it is none of them."""
        if self._table is not None:
            at, outside = keys - self._lo, len(self._table) - 1
            return self._table[np.where(at.view(np.uintp) < outside, at, outside)]
        at = np.searchsorted(self.codes[self._order], keys)
        positions = np.append(self._order, -1)[at]  # at == len(codes): above every code, so no position matches
        return np.where(self.codes[positions] == keys, positions, -1)


def distinct(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` of int ``codes``: the distinct codes, ascending, and each code's number.

    A span under ``DENSE_SPAN`` times the number of codes numbers them
    through a direct-address table of the span, a sparse one through
    ``np.unique``; both give the same arrays.
    """
    codes = np.asarray(codes)
    lo, hi = _span(codes)
    if hi - lo >= DENSE_SPAN * len(codes):
        return np.unique(codes, return_inverse=True)
    seen = np.zeros(hi - lo + 1, dtype=bool)
    seen[codes - lo] = True
    number = np.cumsum(seen, dtype=np.intp) - 1
    return (np.flatnonzero(seen) + lo).astype(codes.dtype, copy=False), number[codes - lo]


def write_lines(path, lines: Iterable[str]) -> None:
    """Write ``lines`` to a UTF-8 text file as they come, each followed by ``\\n`` on every platform."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\n" for line in lines)


def write_json(path, obj, indent: int | None = None) -> None:
    """Write ``obj`` as JSON with sorted keys and a trailing newline, in pieces rather than as one string."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, sort_keys=True, indent=indent)
        fh.write("\n")


def read_lines(path, parse: Callable[[str], object], prefix: str = "") -> list:
    """``parse`` of each non-blank line of a UTF-8 file; an error ``exc`` is raised as ``path:lineno: prefix exc``.

    Lines end at ``\\n``, and each decodes on its own, so a byte that is not
    UTF-8 fails as its line's error.
    """
    parsed = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    parsed.append(parse(line))
            except _PARSE_ERRORS as exc:
                raise ValueError(f"{path}:{lineno}: {prefix}{exc}") from None
    return parsed


def read_json(path, parse: Callable[[object], object]):
    """``parse`` of the one JSON value of a UTF-8 file; an error ``exc`` is raised as ``path: exc``.

    An object that repeats a key is such an error, as in ``parse_json``.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(parse_json(fh.read()))
        except _PARSE_ERRORS as exc:
            raise ValueError(f"{path}: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The ``object_pairs_hook`` of ``parse_json``: the object of ``pairs``, refusing a key held twice."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValueError(f"repeated key {json.dumps(repeated)} in a JSON object")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)  # built once: ``json.loads`` with a hook builds one per call


def parse_json(text: str):
    """The JSON value of ``text``; an object that repeats a key raises ``ValueError``."""
    return _DECODER.decode(text)


def is_finite_number(value) -> bool:
    """Whether ``value`` is a real number, not a bool, that a float holds finitely: not NaN, ±inf or ``10**400``."""
    if type(value) not in (int, float) and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
            if not 0 <= inv < len(self.names) or self.inverse_of[inv] != r:
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
    """Read a vocabulary file: one base name per line, '#self' marks self-inverse.

    A repeated name, an empty one or one holding ``<-``, ``&``, ``[`` or
    ``]``, which the rule format cannot read back, raises ``ValueError``
    naming its line.
    """
    names, self_inverse = [], set()

    def parse(line: str) -> None:
        line = line.strip()
        if line.startswith("//"):
            return
        name = line.removesuffix(SELF_INVERSE_MARK).strip()
        if name != line:
            self_inverse.add(name)
        if not name or any(mark in name for mark in ("<-", "&", "[", "]")):
            raise ValueError(f"relation name {name!r} is empty or holds '<-', '&', '[' or ']'")
        if name in names:
            raise ValueError(f"duplicate relation name: {name!r}")
        names.append(name)

    read_lines(path, parse)
    try:
        return build_vocab(names, self_inverse)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_vocab_file(path, vocab: RelationVocab) -> None:
    write_lines(path, (vocab.names[r] + (SELF_INVERSE_MARK if vocab.inverse_of[r] == r else "")
                       for r in vocab.base_ids))


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
        if not math.isfinite(weight):
            raise ValueError(f"rule weight {text[lb + 1 : -1].strip()!r} is not finite")
        text = text[:lb].strip()
    if "<-" not in text:
        raise ValueError(f"missing '<-' in rule line: {line!r}")
    head_text, body_text = text.split("<-", 1)
    body = tuple(vocab.id_of(part.strip()) for part in body_text.split("&"))
    return Rule(vocab.id_of(head_text.strip()), body), weight


def read_rules_file(path, vocab: RelationVocab, check=None) -> list[tuple[Rule, float]]:
    """Every (rule, weight) of a rules file in line order.

    ``check(rule, weight)``, when given, runs on each parsed line.  A line
    that does not parse, or that ``check`` rejects with ``ValueError``,
    raises ``ValueError`` naming ``path:line``.
    """

    def parse(line: str) -> tuple[Rule, float]:
        rule, weight = parse_rule(line, vocab)
        if check is not None:
            check(rule, weight)
        return rule, weight

    return read_lines(path, parse)


def write_rules_file(path, rules: Iterable[tuple[Rule, float] | Rule], vocab: RelationVocab) -> None:
    write_lines(path, (format_rule(item, vocab) if isinstance(item, Rule) else format_rule(item[0], vocab, item[1])
                       for item in rules))


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

    Immutable after construction, caching nothing.  The atoms ground in one
    form, the dense ``[r, h, t]`` array of ``atom_array``/``fill_atom_array``.
    """

    __slots__ = ("doc_id", "entities", "atoms", "gold_facts", "num_relations")

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

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    def atom_array(self) -> np.ndarray:
        """Dense atom confidences ``[r, h, t]``, built afresh at each call: ``relations * entities**2 * 8`` bytes."""
        n = len(self.entities)
        arr = np.zeros((self.num_relations, n, n))
        self.fill_atom_array(arr)
        return arr

    def fill_atom_array(self, out: np.ndarray, relations: Sequence[int] | None = None) -> None:
        """Write the atom confidences into ``out[r, h, t]``, a zero array shaped like ``atom_array``.

        With ``relations``, distinct ids, only their atoms are written,
        relation ``relations[i]``'s into ``out[i]``.
        """
        atoms = self.atoms
        if relations is not None:
            slot = {r: i for i, r in enumerate(relations)}
            atoms = {(h, slot[r], t): c for (h, r, t), c in atoms.items() if r in slot}
        if atoms:
            h, r, t = np.array(list(atoms), dtype=np.intp).T
            out[r, h, t] = list(atoms.values())


def atom_conf(doc: Document, h: int, r: int, t: int) -> float:
    """Stored confidence of an atom, 0 when absent; rejects out-of-range ids."""
    n = doc.num_entities
    if not (0 <= h < n and 0 <= t < n):
        raise ValueError(f"entity id out of range: ({h}, {t}) in doc {doc.doc_id}")
    if not 0 <= r < doc.num_relations:
        raise ValueError(f"relation id out of range: {r}")
    return doc.atoms.get((h, r, t), 0.0)


def body_paths(triples: Iterable[tuple[int, int, int]],
               bodies: Iterable[Sequence[int]]) -> list[list[tuple[int, ...]]]:
    """Each body's entity paths ``(e0, ..., el)``, repeats allowed, whose steps ``(e_i, body[i], e_i+1)`` all occur."""
    adjacency: dict[int, dict[int, list[int]]] = {}
    for h, r, t in triples:
        adjacency.setdefault(r, {}).setdefault(h, []).append(t)
    found = []
    for body in bodies:
        paths = [(h,) for h in adjacency.get(body[0], ())]
        for r in body:
            edges = adjacency.get(r, {})
            paths = [path + (t,) for path in paths for t in edges.get(path[-1], ())]
        found.append(paths)
    return found


def close_inverses(doc: Document, vocab: RelationVocab) -> Document:
    """Return a document whose atom store is closed under relation inversion.

    Idempotent.  A pre-existing inverse atom whose confidence disagrees by
    more than 1e-9 is a contradiction and is rejected.
    """
    closed = _closed_atoms(doc.doc_id, doc.atoms, vocab)
    return Document(doc.doc_id, doc.entities, closed, doc.gold_facts, num_relations=doc.num_relations)


def _closed_atoms(doc_id: str, atoms: Mapping[tuple[int, int, int], float], vocab: RelationVocab) -> dict:
    """``atoms`` as floats, then the inverse of each one that is absent, as ``close_inverses`` describes."""
    closed = {atom: float(c) for atom, c in atoms.items()}
    inverse_of = vocab.inverse_of
    for (h, r, t), c in list(closed.items()):
        existing = closed.setdefault((t, inverse_of[r], h), c)
        if abs(existing - c) > 1e-9:
            raise ValueError(
                f"doc {doc_id}: conflicting inverse confidences for atom ({h}, {r}, {t}): {c} vs {existing}"
            )
    return closed


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


@dataclass
class Corpus:
    """Documents keyed by id plus the labeled query instances over them."""

    docs: dict[str, Document] = field(default_factory=dict)
    instances: list[LabeledInstance] = field(default_factory=list)


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


def load_corpus(path, vocab: RelationVocab) -> Corpus:
    """Load a JSONL document file into a corpus.

    Each line holds one document object; its ``facts`` list carries the
    labeled instances (label +1 entries double as the document's gold facts).
    Atom stores are closed under inversion as each record is read.  Any invalid
    record fails with the file's path and line number: among others, a
    ``doc_id`` that is not a JSON string or repeats an earlier one,
    ``entities`` that are not a list of strings, an
    entity id that is not a JSON integer or falls outside the document, a
    confidence that is not a finite JSON number, an atom listed twice with
    confidences more than 1e-9 apart (within that, the first is kept), a
    label that is not the JSON integer 1 or -1, and a fact listed twice with
    different labels (an exact repeat loads once).
    """
    corpus = Corpus()

    def parse(line: str) -> None:
        obj = parse_json(line)
        doc_id = obj["doc_id"]
        if type(doc_id) is not str:
            raise ValueError(f"doc_id must be a string, got {type(doc_id).__name__}")
        if doc_id in corpus.docs:
            raise ValueError(f"duplicate doc_id {doc_id!r}")
        entities = obj["entities"]
        if type(entities) is not list:
            raise ValueError(f"entities must be a list of strings, got {type(entities).__name__}")
        bad = next((i for i, name in enumerate(entities) if type(name) is not str), None)
        if bad is not None:
            kind = type(entities[bad]).__name__
            raise ValueError(f"entities must be a list of strings, got {kind} at index {bad}")
        n = len(entities)
        atoms = {}
        # ``type``, not ``isinstance``: JSON true loads as a bool, an int.
        for atom in obj["atoms"]:
            h, r_name, t, c = atom
            if type(h) is not int or type(t) is not int:
                raise ValueError(f"entity ids must be integers in atom {atom}")
            if not is_finite_number(c):
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
        gold = [key for key, y in labels.items() if y == 1]
        atoms = _closed_atoms(doc_id, atoms, vocab)
        corpus.docs[doc_id] = Document(doc_id, entities, atoms, gold, num_relations=vocab.size)
        corpus.instances.extend([LabeledInstance(doc_id, h, r, t, y) for (h, r, t), y in labels.items()])

    read_lines(path, parse, "bad document record: ")
    return corpus


def write_corpus(path, corpus: Corpus, vocab: RelationVocab) -> None:
    by_doc: dict[str, list[LabeledInstance]] = {doc_id: [] for doc_id in corpus.docs}
    for inst in corpus.instances:
        by_doc[inst.doc_id].append(inst)
    write_lines(path, (json.dumps(_doc_to_json(doc, vocab, by_doc[doc_id]), sort_keys=True)
                       for doc_id, doc in corpus.docs.items()))


# -- config files ------------------------------------------------------------

# Name in errors and Python types from ``json.load`` of each scalar field
# type, matched by ``type``: JSON true loads as a bool, which is an int.
_JSON_TYPES = {int: ("an integer", (int,)), float: ("a finite number", (int, float)), str: ("a string", (str,))}


class JsonConfig:
    """Base of the config dataclasses: JSON read and written from their fields, then ``validate``d.

    A missing key keeps its default; an unknown key, or a value of another
    JSON type than its field's annotation (a float field takes a finite
    number, a tuple field a list of its length), raises ``ValueError`` naming
    the dotted key.  Values are kept as given, with no int to float
    coercion, so a config echoes byte for byte.
    """

    def to_json(self) -> dict:
        return {f.name: _config_to_json(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json(cls, obj, prefix: str = ""):
        if not isinstance(obj, dict):
            where = f"config key '{prefix[:-1]}'" if prefix else "config"
            raise ValueError(f"{where} must be a JSON object, got {json.dumps(obj, default=repr)}")
        types = get_type_hints(cls)
        for key in obj:
            if key not in types:
                raise ValueError(f"unknown config key '{prefix}{key}'")
        config = cls(**{key: _config_from_json(types[key], value, prefix + key) for key, value in obj.items()})
        config.validate()
        return config


def _config_to_json(value):
    if isinstance(value, JsonConfig):
        return value.to_json()
    return list(value) if isinstance(value, (tuple, list)) else value


def _config_from_json(tp, value, key: str):
    """``value`` read as a field of type ``tp``; a JSON type mismatch raises ``ValueError`` naming ``key``."""
    if isinstance(tp, type) and issubclass(tp, JsonConfig):
        return tp.from_json(value, key + ".")
    origin, args = get_origin(tp), get_args(tp)
    if origin in (list, tuple):
        if type(value) is not list or (origin is tuple and len(value) != len(args)):
            want = f"a list of {len(args)} values" if origin is tuple else "a list"
            raise ValueError(f"config key '{key}' must be {want}, got {json.dumps(value, default=repr)}")
        item_types = args if origin is tuple else args * len(value)
        return origin(_config_from_json(t, item, f"{key}[{i}]") for i, (t, item) in enumerate(zip(item_types, value)))
    want, allowed = _JSON_TYPES[tp]
    if type(value) not in allowed or (tp is float and not is_finite_number(value)):
        raise ValueError(f"config key '{key}' must be {want}, got {json.dumps(value, default=repr)}")
    return value
