"""Synthetic corpus generator with planted rules and noisy confidences.

Documents are built fact-first: uniform base facts plus a few seeded body
chains per planted rule, closed under the planted rules with one forward
sweep each, then wrapped in backbone-style confidences.  True atoms score
near 1 and sampled false atoms near 0, with labels flipped at a configured
rate.  A fraction of rule-derived facts has its direct confidence withheld
entirely, so recovering them requires reasoning over the rule's body path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    Corpus,
    DEFAULT_MAX_RULE_LEN,
    Document,
    JsonConfig,
    LabeledInstance,
    RelationVocab,
    Rule,
    body_paths,
    build_vocab,
    parse_rule,
)


@dataclass
class SynthConfig(JsonConfig):
    relations: int = 10
    self_inverse: list[str] = field(default_factory=list)
    planted_rules: list[str] = field(default_factory=lambda: ["r0 <- r1 & r2", "r3 <- r4 & r5", "r6 <- r7 & r8"])
    docs: int = 300
    entities_per_doc: tuple[int, int] = (4, 6)
    base_facts_per_doc: tuple[int, int] = (4, 7)
    chains_per_rule: tuple[int, int] = (1, 2)
    p_flip: float = 0.05
    jitter: float = 0.1
    p_hide: float = 0.5
    neg_ratio: int = 4
    split: tuple[float, float, float] = (2 / 3, 1 / 6, 1 / 6)
    seed: int = 0
    max_rule_len: int = DEFAULT_MAX_RULE_LEN

    def validate(self) -> None:
        if self.relations < 1:
            raise ValueError("need at least one relation")
        if self.docs < 1:
            raise ValueError("need at least one document")
        lo, hi = self.entities_per_doc
        if lo < 2 or hi < lo:
            raise ValueError(f"bad entities_per_doc range {self.entities_per_doc}")
        lo_b, hi_b = self.base_facts_per_doc
        if lo_b < 0 or hi_b < lo_b:
            raise ValueError(f"bad base_facts_per_doc range {self.base_facts_per_doc}")
        lo_c, hi_c = self.chains_per_rule
        if lo_c < 0 or hi_c < lo_c:
            raise ValueError(f"bad chains_per_rule range {self.chains_per_rule}")
        for name, p in (("p_flip", self.p_flip), ("p_hide", self.p_hide)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if not 0.0 <= self.jitter < 0.5:
            raise ValueError(f"jitter must be in [0, 0.5), got {self.jitter}")
        if self.neg_ratio < 0:
            raise ValueError("neg_ratio must be >= 0")
        if len(self.split) != 3 or any(f < 0 for f in self.split):
            raise ValueError("split needs three non-negative fractions")
        if abs(sum(self.split) - 1.0) > 1e-6:
            raise ValueError(f"split fractions must sum to 1, got {sum(self.split)}")


@dataclass
class SynthResult:
    vocab: RelationVocab
    splits: dict[str, Corpus]
    planted: list[Rule]


def _canonical(h: int, r: int, t: int, vocab: RelationVocab) -> tuple[int, int, int]:
    return min((h, r, t), (t, vocab.inverse_of[r], h))


def _gen_doc(
    doc_id: str,
    vocab: RelationVocab,
    planted: Sequence[Rule],
    config: SynthConfig,
    rng: np.random.Generator,
) -> tuple[Document, list[LabeledInstance]]:
    n_e = int(rng.integers(config.entities_per_doc[0], config.entities_per_doc[1] + 1))
    entities = [f"e{i}" for i in range(n_e)]
    facts: set[tuple[int, int, int]] = set()

    def add(h: int, r: int, t: int) -> None:
        facts.add((h, r, t))
        facts.add((t, vocab.inverse_of[r], h))

    n_base = int(rng.integers(config.base_facts_per_doc[0], config.base_facts_per_doc[1] + 1))
    for _ in range(n_base):
        h, t = rng.choice(n_e, size=2, replace=False)
        add(int(h), int(rng.integers(0, vocab.num_base)), int(t))
    for rule in planted:
        if n_e < len(rule.body) + 1:
            continue
        n_chains = int(rng.integers(config.chains_per_rule[0], config.chains_per_rule[1] + 1))
        for _ in range(n_chains):
            nodes = rng.choice(n_e, size=len(rule.body) + 1, replace=False)
            for i, r in enumerate(rule.body):
                add(int(nodes[i]), r, int(nodes[i + 1]))

    # One forward sweep per rule, in order: earlier rules' conclusions are
    # visible to later rules, but no fixpoint iteration happens.
    derived: set[tuple[int, int, int]] = set()
    for rule in planted:
        (paths,) = body_paths(facts, [rule.body])
        ends = sorted({(path[0], path[-1]) for path in paths})
        new = [(e0, rule.head, el) for e0, el in ends if e0 != el and (e0, rule.head, el) not in facts]
        for h, r, t in new:
            add(h, r, t)
            derived.add(_canonical(h, r, t, vocab))

    atoms: dict[tuple[int, int, int], float] = {}

    def store(h: int, r: int, t: int, conf: float) -> None:
        atoms[(h, r, t)] = conf
        atoms[(t, vocab.inverse_of[r], h)] = conf

    canonical_gold = sorted({_canonical(h, r, t, vocab) for h, r, t in facts})
    for h, r, t in canonical_gold:
        if (h, r, t) in derived and rng.random() < config.p_hide:
            continue
        flipped = rng.random() < config.p_flip
        noise = float(rng.random() * config.jitter)
        store(h, r, t, noise if flipped else 1.0 - noise)

    positives = sorted(facts)
    instances = [LabeledInstance(doc_id, h, r, t, 1) for h, r, t in positives]
    n_neg = config.neg_ratio * len(positives)
    tried: set[tuple[int, int, int]] = set()
    attempts = 0
    while n_neg > 0 and attempts < 50 * n_neg:
        attempts += 1
        h, t = rng.choice(n_e, size=2, replace=False)
        triple = (int(h), int(rng.integers(0, vocab.size)), int(t))
        if triple in facts or triple in tried:
            continue
        tried.add(triple)
        n_neg -= 1
        instances.append(LabeledInstance(doc_id, *triple, -1))
        if triple not in atoms:  # the store holds both directions, so this covers the inverse too
            flipped = rng.random() < config.p_flip
            noise = float(rng.random() * config.jitter)
            store(*triple, 1.0 - noise if flipped else noise)

    doc = Document(doc_id, entities, atoms, facts, num_relations=vocab.size)
    return doc, instances


def gen_corpus(config: SynthConfig) -> SynthResult:
    """Generate vocab, train/dev/test corpora, and the planted rules.

    Deterministic given the config seed: every document derives its own child
    seed, so generation order (or a parallel driver) cannot change outputs.
    """
    config.validate()
    names = [f"r{i}" for i in range(config.relations)]
    vocab = build_vocab(names, set(config.self_inverse))
    planted = []
    for text in config.planted_rules:
        rule, _ = parse_rule(text, vocab)
        if len(rule.body) > config.max_rule_len:
            raise ValueError(f"planted rule longer than max_rule_len: {text!r}")
        planted.append(rule)

    n_train = round(config.split[0] * config.docs)
    n_dev = round(config.split[1] * config.docs)
    if n_train + n_dev > config.docs:
        raise ValueError("split fractions leave no room for the test set")

    children = np.random.SeedSequence(config.seed).spawn(config.docs)
    splits = {"train": Corpus(), "dev": Corpus(), "test": Corpus()}
    for i in range(config.docs):
        if i < n_train:
            split = "train"
        elif i < n_train + n_dev:
            split = "dev"
        else:
            split = "test"
        doc, instances = _gen_doc(f"d{i:05d}", vocab, planted, config, np.random.default_rng(children[i]))
        splits[split].docs[doc.doc_id] = doc
        splits[split].instances.extend(instances)
    return SynthResult(vocab, splits, planted)
