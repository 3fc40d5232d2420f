"""Relation extractor: fuzzy rule grounding, disjunction scoring, weight training.

A rule body grounds on a document as the best entity path from the query's
head to its tail, scored as the product of atom confidences along the path
(product t-norm).  Rules in a rule set combine additively through learned
scalar weights, and a sigmoid turns the combined score into the probability
of the label.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    Document,
    LabeledInstance,
    RelationVocab,
    Rule,
    RuleSet,
    format_rule,
    parse_rule,
)


@dataclass(frozen=True)
class GroundingResult:
    """Best-path value in [0, 1] plus its witness entity sequence (absent when value is 0)."""

    value: float
    best_path: tuple[int, ...] | None


def ground_rule(doc: Document, rule: Rule, h: int, t: int) -> GroundingResult:
    """Max-product grounding of one rule between two entities.

    Dynamic program over body positions: the frontier maps each reachable
    entity to the best product of confidences so far, with parent pointers
    for path reconstruction.  Missing atoms read as 0, so an unreachable
    tail yields value 0 and no path rather than an error.
    """
    n = doc.num_entities
    if not (0 <= h < n and 0 <= t < n):
        raise ValueError(f"entity id out of range: ({h}, {t}) in doc {doc.doc_id}")
    for r in rule.body:
        if not 0 <= r < doc.num_relations:
            raise ValueError(f"relation id out of range: {r}")
    adjacency = doc.adjacency()
    frontier: dict[int, float] = {h: 1.0}
    parents: list[dict[int, int]] = []
    for r in rule.body:
        edges = adjacency.get(r)
        nxt: dict[int, float] = {}
        parent: dict[int, int] = {}
        if edges:
            for e, value in frontier.items():
                for e2, conf in edges.get(e, ()):
                    cand = value * conf
                    if cand > nxt.get(e2, 0.0):
                        nxt[e2] = cand
                        parent[e2] = e
        parents.append(parent)
        frontier = nxt
        if not frontier:
            return GroundingResult(0.0, None)
    value = frontier.get(t, 0.0)
    if value <= 0.0:
        return GroundingResult(0.0, None)
    path = [t]
    for parent in reversed(parents):
        path.append(parent[path[-1]])
    path.reverse()
    return GroundingResult(value, tuple(path))


def ground_body_value(doc: Document, body: tuple[int, ...], h: int, t: int) -> float:
    """Value-only max-product grounding of a body between two entities.

    Hot-path helper: skips id validation and parent pointers; agrees with
    ``ground_rule(...).value`` exactly.  Bodies ground independently of the
    owning rule's head, so values are shared across heads.
    """
    adjacency = doc.adjacency()
    frontier = {h: 1.0}
    for r in body:
        edges = adjacency.get(r)
        if not edges:
            return 0.0
        nxt: dict[int, float] = {}
        for e, value in frontier.items():
            hop = edges.get(e)
            if hop:
                for e2, conf in hop:
                    cand = value * conf
                    prev = nxt.get(e2)
                    if prev is None or cand > prev:
                        nxt[e2] = cand
        if not nxt:
            return 0.0
        frontier = nxt
    return frontier.get(t, 0.0)


def ground_rule_all_pairs(doc: Document, rule: Rule) -> np.ndarray:
    """Grounding values of one rule for every (head, tail) entity pair.

    Chains the document's per-relation confidence matrices under the
    max-product composition ``(A * B)[i, j] = max_k A[i, k] * B[k, j]``;
    agrees with ``ground_rule`` entrywise.  The result may be a read-only
    view of the document's atom array.
    """
    for r in rule.body:
        if not 0 <= r < doc.num_relations:
            raise ValueError(f"relation id out of range: {r}")
    atoms = doc.atom_array()
    mat = atoms[rule.body[0]]
    for r in rule.body[1:]:
        mat = np.max(mat[:, :, None] * atoms[r][None, :, :], axis=1)
    return mat


class ExtractorWeights:
    """Learnable scalar weights: a per-relation bias and a per-(relation, rule) table.

    Unseen keys read as 0, so a newly sampled rule contributes nothing until
    it has been trained.
    """

    def __init__(self):
        self.bias: dict[int, float] = {}
        self.rule_weight: dict[tuple[int, Rule], float] = {}

    def get_bias(self, relation: int) -> float:
        return self.bias.get(relation, 0.0)

    def get_rule_weight(self, relation: int, rule: Rule) -> float:
        return self.rule_weight.get((relation, rule), 0.0)

    def set_rule_weight(self, relation: int, rule: Rule, value: float) -> None:
        if rule.head != relation:
            raise ValueError("rule weights must pair a rule with its own head relation")
        self.rule_weight[(relation, rule)] = value

    def to_json(self, vocab: RelationVocab) -> dict:
        return {
            "bias": {vocab.name_of(r): w for r, w in sorted(self.bias.items())},
            "rule_weight": {
                format_rule(rule, vocab): w
                for (_, rule), w in sorted(self.rule_weight.items(), key=lambda kv: (kv[0][0], kv[0][1].body))
            },
        }

    @classmethod
    def from_json(cls, obj: Mapping, vocab: RelationVocab) -> "ExtractorWeights":
        weights = cls()
        for name, w in obj["bias"].items():
            weights.bias[vocab.id_of(name)] = float(w)
        for text, w in obj["rule_weight"].items():
            rule, _ = parse_rule(text, vocab)
            weights.rule_weight[(rule.head, rule)] = float(w)
        return weights

    def save(self, path, vocab: RelationVocab) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(vocab), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path, vocab: RelationVocab) -> "ExtractorWeights":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh), vocab)


def prob(y: int, s: float) -> float:
    """Sigmoid label probability, computed on the numerically safe branch."""
    x = y * s
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


# -- training ----------------------------------------------------------------

# One training example: the labeled query, its rule multiset, and the
# precomputed grounding value of every unique rule in the multiset.
BatchItem = tuple[LabeledInstance, RuleSet, Mapping[Rule, float]]


@dataclass
class FitConfig:
    lr: float = 0.1
    epochs: int = 5
    l2: float = 1e-4

    def validate(self) -> None:
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.l2 < 0:
            raise ValueError("l2 penalty must be >= 0")


class FitDivergenceError(RuntimeError):
    def __init__(self, epoch: int, loss: float, tried: float):
        super().__init__(
            f"descent failed at epoch {epoch}: loss {tried} still above {loss} after 20 halvings"
        )
        self.epoch = epoch


class _DesignMatrix:
    """Sparse feature layout for a batch: one column per touched or stored weight key.

    Rows, cols, vals triples describe the feature entries in coordinate form.
    ``em._index_design`` keys columns by the int codes of
    ``em.TrainingWeights``.  ``from_batch`` keys them by ``("bias",
    relation)`` or ``("rule", relation, rule)``, the keys of
    ``ExtractorWeights``, and lists each row's rule entries in rule-set order
    and then its bias entry, as ``_index_design`` does, so ``fit`` on a batch
    of the same rule sets is a bit-exact reference for that design path.
    """

    def __init__(self, keys: Sequence, rows, cols, vals, y):
        self.keys = keys
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.vals = np.asarray(vals, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.n_rows = len(self.y)
        self._scored: tuple[np.ndarray, np.ndarray] | None = None  # (w, scores(w)) of the last call

    @classmethod
    def stored_keys(cls, weights: ExtractorWeights) -> list[tuple]:
        keys: list[tuple] = [("bias", r) for r in sorted(weights.bias)]
        keys += [
            ("rule", r, rule)
            for (r, rule) in sorted(weights.rule_weight, key=lambda k: (k[0], k[1].body))
        ]
        return keys

    @classmethod
    def from_batch(cls, batch: Sequence[BatchItem], weights: ExtractorWeights) -> "_DesignMatrix":
        keys = cls.stored_keys(weights)
        index = {key: i for i, key in enumerate(keys)}
        rows, cols, vals = [], [], []
        for i, (instance, ruleset, groundings) in enumerate(batch):
            relation = instance.relation
            for rule, multiplicity in ruleset.counts().items():
                if rule.head != relation:
                    raise ValueError(f"rule head {rule.head} does not match query relation {relation}")
                g = float(groundings[rule])
                if not math.isfinite(g):
                    raise ValueError(f"non-finite grounding for rule {rule} in doc {instance.doc_id}")
                key = ("rule", relation, rule)
                if key not in index:
                    index[key] = len(keys)
                    keys.append(key)
                rows.append(i)
                cols.append(index[key])
                vals.append(multiplicity * g)
            bias_key = ("bias", relation)
            if bias_key not in index:
                index[bias_key] = len(keys)
                keys.append(bias_key)
            rows.append(i)
            cols.append(index[bias_key])
            vals.append(1.0)
        y = [instance.label for instance, _, _ in batch]
        return cls(keys, rows, cols, vals, y)

    def initial_vector(self, weights: ExtractorWeights) -> np.ndarray:
        bias, rule_weight = weights.bias, weights.rule_weight
        return np.array(
            [bias.get(key[1], 0.0) if key[0] == "bias" else rule_weight.get(key[1:], 0.0) for key in self.keys],
            dtype=float,
        )

    def scores(self, w: np.ndarray) -> np.ndarray:
        """Every row's score at ``w``, which the caller must not change in place afterwards.

        The last array scored and its scores are kept, so ``loss``,
        ``gradient`` and the caller share one evaluation per weight vector.
        """
        if self._scored is not None and self._scored[0] is w:
            return self._scored[1]
        s = np.bincount(self.rows, weights=self.vals * w[self.cols], minlength=self.n_rows)
        self._scored = (w, s)
        return s

    def loss(self, w: np.ndarray, l2: float) -> float:
        margins = self.y * self.scores(w)
        return float(np.logaddexp(0.0, -margins).sum() + 0.5 * l2 * np.dot(w, w))

    def gradient(self, w: np.ndarray, l2: float) -> np.ndarray:
        s = self.scores(w)
        coef = -self.y / (1.0 + np.exp(self.y * s))  # -y * sigmoid(-y*s)
        g = np.bincount(self.cols, weights=coef[self.rows] * self.vals, minlength=len(self.keys))
        return g + l2 * w

    def write_back(self, w: np.ndarray, weights: ExtractorWeights) -> None:
        bias, rule_weight = weights.bias, weights.rule_weight
        for key, value in zip(self.keys, w.tolist()):
            if key[0] == "bias":
                bias[key[1]] = value
            else:
                rule_weight[key[1:]] = value


@dataclass
class FitResult:
    w: np.ndarray
    losses: list[float]
    final_scores: np.ndarray
    labels: np.ndarray

    @property
    def data_log_likelihood(self) -> float:
        """Mean log label probability at the trained weights."""
        return float(-np.logaddexp(0.0, -self.labels * self.final_scores).mean())


def fit(batch: Sequence[BatchItem], weights: ExtractorWeights, config: FitConfig) -> FitResult:
    """``fit_design`` on the batch's design, written back into ``weights``.

    The reference that EM's array path (``em._index_design``) is tested
    against: it keys every weight by ``(relation, Rule)``.
    """
    design = _DesignMatrix.from_batch(batch, weights)
    result = fit_design(design, design.initial_vector(weights), config)
    design.write_back(result.w, weights)
    return result


def fit_design(design: _DesignMatrix, w0: np.ndarray, config: FitConfig) -> FitResult:
    """Full-batch descent with diagonal preconditioning and step halving, from the weights ``w0``.

    The gradient is rescaled per coordinate by an upper bound on the loss
    curvature (sum of squared feature values / 4 plus the L2 strength), so
    dense bias coordinates and rarely touched rule weights both move at a
    sensible rate under one step size.  Each epoch halves the step until the
    loss stops increasing; the recorded loss sequence is therefore
    monotonically non-increasing.  A step that still increases the loss after
    20 halvings aborts with diagnostics.  The weight vectors are never
    changed in place, so the scores of an accepted trial step serve the next
    epoch's gradient and the final scores.
    """
    config.validate()
    if design.n_rows == 0:
        raise ValueError("empty training batch")
    if not np.all(np.isfinite(design.vals)):
        raise ValueError("non-finite feature value in training batch")
    w = w0
    curvature = np.bincount(design.cols, weights=design.vals**2, minlength=len(design.keys))
    precondition = np.maximum(curvature / 4.0 + config.l2, 1e-9)
    loss = design.loss(w, config.l2)
    losses = [loss]
    for epoch in range(config.epochs):
        direction = design.gradient(w, config.l2) / precondition
        step = config.lr
        for _ in range(21):
            w_try = w - step * direction
            loss_try = design.loss(w_try, config.l2)
            if loss_try <= loss:
                break
            step /= 2.0
        else:
            raise FitDivergenceError(epoch, loss, loss_try)
        w, loss = w_try, loss_try
        losses.append(loss)
    return FitResult(w, losses, design.scores(w), design.y)
