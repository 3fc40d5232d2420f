"""Brute-force reference checks for the engine's numeric kernels.

Each oracle re-derives an answer by a method independent of the production
path (exhaustive path enumeration instead of dynamic programming or the
batched tensor gather, naive softmax instead of the posterior code, recursive
rule enumeration instead of the model's own index, finite differences instead
of analytic gradients) and counts disagreements over randomized cases.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Document, LabeledInstance, Rule, RuleSet, atom_conf, build_vocab, pad_bodies
from .em import GroundingCache, posterior_over_rules
from .extractor import ExtractorWeights, _DesignMatrix, ground_rule
from .generator import RuleGenerator


@dataclass
class OracleReport:
    name: str
    cases: int
    failures: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.cases - self.failures}/{self.cases} cases"


def _random_document(rng: np.random.Generator, num_relations: int, max_entities: int = 6) -> Document:
    n = int(rng.integers(2, max_entities + 1))
    atoms = {}
    for h in range(n):
        for t in range(n):
            for r in range(num_relations):
                if rng.random() < 0.25:
                    atoms[(h, r, t)] = float(rng.random())
    return Document("oracle", [f"e{i}" for i in range(n)], atoms, num_relations=num_relations)


def enumerate_grounding(doc: Document, rule: Rule, h: int, t: int) -> tuple[float, bool]:
    """Best path value by exhaustive enumeration of all intermediate entities.

    Products multiply left to right, matching the dynamic program's order, so
    agreement can be checked exactly rather than within a tolerance.
    """
    n = doc.num_entities
    best = 0.0
    found = False
    for middles in itertools.product(range(n), repeat=len(rule.body) - 1):
        path = (h,) + middles + (t,)
        value = 1.0
        for i, r in enumerate(rule.body):
            value = value * atom_conf(doc, path[i], r, path[i + 1])
            if value == 0.0:
                break
        if value > 0.0:
            found = True
            if value > best:
                best = value
    return best, found


def grounding_oracle(cases: int = 1000, seed: int = 0, max_entities: int = 6) -> OracleReport:
    """Dynamic program and batched gather vs exhaustive path enumeration on random sparse documents.

    The batched gather grounds every case in one call over one store that
    stacks all the cases' documents, so smaller documents read through the
    padding of the larger ones.
    """
    rng = np.random.default_rng(seed)
    num_relations = 6
    report = OracleReport("grounding dp and batched gather vs enumeration", cases)
    drawn = []
    for i in range(cases):
        doc = _random_document(rng, num_relations, max_entities)
        body = tuple(int(r) for r in rng.integers(0, num_relations, size=int(rng.integers(1, 4))))
        rule = Rule(int(rng.integers(0, num_relations)), body)
        h = int(rng.integers(0, doc.num_entities))
        t = int(rng.integers(0, doc.num_entities))
        got = ground_rule(doc, rule, h, t)
        want_value, want_found = enumerate_grounding(doc, rule, h, t)
        ok = got.value == want_value and (got.best_path is not None) == want_found
        if ok and got.best_path is not None:
            product = 1.0
            for j, r in enumerate(rule.body):
                product *= atom_conf(doc, got.best_path[j], r, got.best_path[j + 1])
            ok = abs(product - got.value) <= 1e-9 and got.best_path[0] == h and got.best_path[-1] == t
        drawn.append((doc, body, h, t, want_value, ok, got.value))
    store = GroundingCache()
    batched = store.ground(
        store.rows([case[0] for case in drawn]),
        pad_bodies([case[1] for case in drawn], 3),
        np.array([case[2] for case in drawn]),
        np.array([case[3] for case in drawn]),
    )
    for i, ((_, _, _, _, want_value, ok, dp_value), value) in enumerate(zip(drawn, batched)):
        if not ok or value != want_value:
            report.failures += 1
            report.notes.append(f"case {i}: dp={dp_value} batched={value} enum={want_value}")
    return report


def enumerate_bodies(num_relations: int, max_len: int) -> list[tuple[int, ...]]:
    bodies = []
    for length in range(1, max_len + 1):
        bodies.extend(itertools.product(range(num_relations), repeat=length))
    return bodies


def normalization_oracle(seed: int = 0, num_base: int = 3, max_len: int = 3) -> OracleReport:
    """Total probability of the enumerated rule space, fresh and after refits."""
    rng = np.random.default_rng(seed)
    vocab = build_vocab([f"r{i}" for i in range(num_base)])
    model = RuleGenerator(vocab, max_len=max_len)
    bodies = enumerate_bodies(vocab.size, max_len)
    report = OracleReport("generator normalization", cases=vocab.size * 4)
    for round_idx in range(4):
        for head in range(vocab.size):
            total = math.fsum(math.exp(model.log_prob(head, body)) for body in bodies)
            if abs(total - 1.0) > 1e-6:
                report.failures += 1
                report.notes.append(f"round {round_idx} head {head}: total={total}")
        if round_idx < 3:
            for head in range(vocab.size):
                picked = [bodies[int(i)] for i in rng.integers(0, len(bodies), size=5)]
                model.fit_weighted(head, [(Rule(head, body), float(rng.random()) + 0.1) for body in picked])
    return report


def posterior_oracle(seed: int = 0) -> OracleReport:
    """Full-rule-space posterior vs a naive softmax over independently built scores."""
    rng = np.random.default_rng(seed)
    vocab = build_vocab(["a", "b"])  # 4 relation ids with inverses
    max_len = 2
    model = RuleGenerator(vocab, max_len=max_len)
    bodies = enumerate_bodies(vocab.size, max_len)
    cases = 40
    report = OracleReport("posterior vs naive softmax", cases)
    for i in range(cases):
        doc = _random_document(rng, vocab.size, max_entities=5)
        for head in range(vocab.size):
            model.fit_weighted(
                head,
                [
                    (Rule(head, bodies[int(j)]), float(rng.random()) + 0.05)
                    for j in rng.integers(0, len(bodies), size=4)
                ],
            )
        weights = ExtractorWeights()
        relation = int(rng.integers(0, vocab.size))
        weights.bias[relation] = float(rng.normal())
        rules = [Rule(relation, body) for body in bodies]
        for rule in rules:
            if rng.random() < 0.5:
                weights.set_rule_weight(relation, rule, float(rng.normal()))
        h = int(rng.integers(0, doc.num_entities))
        t = int(rng.integers(0, doc.num_entities))
        label = 1 if rng.random() < 0.5 else -1
        instance = LabeledInstance("oracle", h, relation, t, label)
        n_rules = 50

        posterior = posterior_over_rules(instance, rules, model, weights, doc, n_rules)

        h_ref = []
        for rule in rules:
            value, _ = enumerate_grounding(doc, rule, h, t)
            quality = model.log_prob(relation, rule.body) + (label / 2.0) * (
                weights.get_bias(relation) / n_rules + weights.get_rule_weight(relation, rule) * value
            )
            h_ref.append(quality)
        ok = True
        for shift in (-5.0, 0.0, 7.0):
            shifted = [q + shift for q in h_ref]
            peak = max(shifted)
            exps = [math.exp(q - peak) for q in shifted]
            z = math.fsum(exps)
            naive = [e / z for e in exps]
            if any(abs(a - b) > 1e-12 for a, b in zip(posterior.weights, naive)):
                ok = False
        if not ok:
            report.failures += 1
            report.notes.append(f"case {i}: posterior mismatch")
    return report


def gradient_oracle(cases: int = 100, seed: int = 0) -> OracleReport:
    """Analytic design gradient vs central finite differences of the design loss on random batches.

    Every column of the batch's design is perturbed: the stored weights and
    the keys the batch adds.
    """
    rng = np.random.default_rng(seed)
    vocab = build_vocab(["a", "b"])
    report = OracleReport("gradient vs finite differences", cases)
    step = 1e-5
    for i in range(cases):
        rule_pool = [Rule(r, tuple(int(x) for x in rng.integers(0, vocab.size, size=int(rng.integers(1, 4)))))
                     for r in rng.integers(0, vocab.size, size=6)]
        weights = ExtractorWeights()
        for r in range(vocab.size):
            if rng.random() < 0.7:
                weights.bias[r] = float(rng.normal())
        for rule in rule_pool:
            if rng.random() < 0.7:
                weights.rule_weight[(rule.head, rule)] = float(rng.normal())
        batch = []
        for _ in range(int(rng.integers(1, 6))):
            relation = int(rng.integers(0, vocab.size))
            candidates = [rule for rule in rule_pool if rule.head == relation]
            if not candidates:
                candidates = [Rule(relation, (int(rng.integers(0, vocab.size)),))]
            picked = [candidates[int(k)] for k in rng.integers(0, len(candidates), size=int(rng.integers(1, 4)))]
            ruleset = RuleSet(picked)
            groundings = {rule: float(rng.random()) for rule in set(picked)}
            label = 1 if rng.random() < 0.5 else -1
            batch.append((LabeledInstance("oracle", 0, relation, 1, label), ruleset, groundings))
        l2 = 10.0 ** float(rng.uniform(-5, -2))
        design = _DesignMatrix.from_batch(batch, weights)
        w = design.initial_vector(weights)
        ok = True
        for col, g in enumerate(design.gradient(w, l2).tolist()):
            up, down = w.copy(), w.copy()
            up[col] += step
            down[col] -= step
            numeric = (design.loss(up, l2) - design.loss(down, l2)) / (2 * step)
            if abs(g - numeric) / max(1e-8, abs(g), abs(numeric)) > 1e-4 and abs(g - numeric) > 1e-8:
                ok = False
        if not ok:
            report.failures += 1
            report.notes.append(f"case {i}: gradient mismatch")
    return report


ORACLES = {
    "grounding": grounding_oracle,
    "posterior": posterior_oracle,
    "normalization": normalization_oracle,
    "gradient": gradient_oracle,
}


def run_oracles(scope: str = "all", seed: int = 0) -> list[OracleReport]:
    names = list(ORACLES) if scope == "all" else [scope]
    reports = []
    for name in names:
        if name not in ORACLES:
            raise ValueError(f"unknown oracle scope {name!r}")
        reports.append(ORACLES[name](seed=seed))
    return reports
