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
    JsonConfig,
    LabeledInstance,
    RelationVocab,
    Rule,
    RuleSet,
    format_rule,
    is_finite_number,
    parse_rule,
    read_json,
    write_json,
)


@dataclass(frozen=True)
class GroundingResult:
    """Best-path value in [0, 1] plus its witness entity sequence (absent when value is 0)."""

    value: float
    best_path: tuple[int, ...] | None


# Matrix cells per chunk of a batched gather: a length-3 body on documents of
# N entities reads one (N, N) relation matrix per entry, so a chunk holds
# GATHER_CELLS // N**2 entries and its largest temporary takes 2 MB.
GATHER_CELLS = 1 << 18


def _max_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Max-product composition of stacked matrices, ``max_j left[m, a, j] * right[m, j, b]``.

    A loop of elementwise maxima over j, several times faster than numpy's
    axis reductions at these shapes.  Max is exact, so any order of the
    maxima gives the same bits.
    """
    out = left[:, :, :1] * right[:, :1]
    for j in range(1, left.shape[2]):
        np.maximum(out, left[:, :, j : j + 1] * right[:, j : j + 1], out=out)
    return out


def _chunks_by_length(lengths: np.ndarray, n: int):
    """``(length, indices)`` of the entries of each body length > 0, in chunks sized for n-entity documents."""
    chunk = max(1, GATHER_CELLS // max(1, n * n))
    for length in np.unique(lengths[lengths > 0]).tolist():
        selected = np.flatnonzero(lengths == length)
        for start in range(0, selected.size, chunk):
            yield length, selected[start : start + chunk]


def ground_chain(block: np.ndarray, rows: np.ndarray, bodies: np.ndarray, heads: np.ndarray,
                 tails: np.ndarray, *, _paths: bool = False):
    """Max-product groundings of (block row, body, head, tail) entries on a block ``A[row, r, h, t]`` of n entities.

    ``bodies`` holds one body per entry, relation ids padded with -1, and
    heads and tails lie in [0, n).  A length-3 body reads ``max_k (max_j
    A[d, r1, h, j] * A[d, r2, j, k]) * A[d, r3, k, t]``, multiplied left to
    right, in chunks by body length with temporaries near ``GATHER_CELLS *
    8`` bytes.  With ``_paths``, each entry's witness path (None at value 0)
    comes back too, by backward argmax (Viterbi decoding): going back from
    the tail, each earlier entity is the smallest index whose best product
    attains that step's maximum, whatever the order of a document's atoms.
    """
    values = np.zeros(len(rows))
    paths = [None] * len(rows) if _paths else None
    for length, idx in _chunks_by_length(np.count_nonzero(bodies >= 0, axis=1), block.shape[-1]):
        d, body, h, t = rows[idx], bodies[idx], heads[idx], tails[idx]
        if length == 1:
            values[idx] = block[d, body[:, 0], h, t]
        else:
            steps = [block[d, body[:, 0], h][:, None]]  # (m, 1, n): the best product reaching each entity
            for pos in range(1, length - 1):
                steps.append(_max_product(steps[-1], block[d, body[:, pos]]))
            values[idx] = _max_product(steps[-1], block[d, body[:, length - 1], :, t][:, :, None])[:, 0, 0]
        if _paths:
            walk = [t]
            for pos in range(length - 1, 0, -1):
                walk.append((steps[pos - 1][:, 0] * block[d, body[:, pos], :, walk[-1]]).argmax(axis=1))
            walk.append(h)
            for i, value, path in zip(idx.tolist(), values[idx].tolist(), np.stack(walk[::-1], axis=1).tolist()):
                paths[i] = tuple(path) if value > 0.0 else None
    return (values, paths) if _paths else values


def ground_rule(doc: Document, rule: Rule, h: int, t: int) -> GroundingResult:
    """Max-product grounding of one rule between two entities, with its witness path.

    ``ground_chain`` on a dense array of the body's distinct relations
    only, built for this call: k * n**2 * 8 bytes for k distinct relations
    and n entities.  Missing atoms read as 0, so an unreachable tail yields
    value 0 and no path rather than an error.
    """
    if not (0 <= h < doc.num_entities and 0 <= t < doc.num_entities):
        raise ValueError(f"entity id out of range: ({h}, {t}) in doc {doc.doc_id}")
    for r in rule.body:
        if not 0 <= r < doc.num_relations:
            raise ValueError(f"relation id out of range: {r}")
    relations, body = np.unique(rule.body, return_inverse=True)
    atoms = np.zeros((1, len(relations), doc.num_entities, doc.num_entities))
    doc.fill_atom_array(atoms[0], relations.tolist())
    values, paths = ground_chain(atoms, np.zeros(1, dtype=np.intp), body.reshape(1, -1),
                                 np.array([h]), np.array([t]), _paths=True)
    return GroundingResult(float(values[0]), paths[0])


def ground_body_value(doc: Document, body: tuple[int, ...], h: int, t: int) -> float:
    """``ground_rule``'s value of a body between two entities, 0.0 when either lies outside the document.

    A relation id outside the vocabulary raises ``ValueError``, as in ``ground_rule``.
    """
    n = doc.num_entities
    if not (0 <= h < n and 0 <= t < n):
        return 0.0
    return ground_rule(doc, Rule(0, body), h, t).value


def ground_rule_all_pairs(doc: Document, rule: Rule) -> np.ndarray:
    """Grounding values of one rule for every (head, tail) entity pair.

    Chains the document's per-relation confidence matrices under the
    max-product composition ``(A * B)[i, j] = max_k A[i, k] * B[k, j]``;
    agrees with ``ground_rule`` entrywise.
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
        """The weights ``to_json`` wrote; ``ValueError`` names a bad field, a non-finite weight, a rule keyed twice."""
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        for key in ("bias", "rule_weight"):
            if not isinstance(obj.get(key), dict):
                raise ValueError(f"missing key {key!r}" if key not in obj else f"{key!r} is not a JSON object")
            for name, w in obj[key].items():
                if not is_finite_number(w):
                    raise ValueError(f"{key} of {name!r}: {json.dumps(w)} is not a finite number")
        weights = cls()
        for name, w in obj["bias"].items():
            weights.bias[vocab.id_of(name)] = float(w)
        texts: dict[Rule, str] = {}
        for text, w in obj["rule_weight"].items():
            rule, _ = parse_rule(text, vocab)
            if texts.setdefault(rule, text) != text:
                raise ValueError(f"rule_weight keys {texts[rule]!r} and {text!r} name one rule")
            weights.rule_weight[(rule.head, rule)] = float(w)
        return weights

    def save(self, path, vocab: RelationVocab) -> None:
        write_json(path, self.to_json(vocab))

    @classmethod
    def load(cls, path, vocab: RelationVocab) -> "ExtractorWeights":
        """The weights saved at ``path``; a malformed file raises ``ValueError`` naming it."""
        return read_json(path, lambda obj: cls.from_json(obj, vocab))


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
class FitConfig(JsonConfig):
    lr: float = 0.1
    epochs: int = 5
    l2: float = 1e-4

    def validate(self) -> None:
        if self.lr <= 0:
            raise ValueError(f"fit.lr must be > 0, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"fit.epochs must be >= 0, got {self.epochs}")
        if self.l2 < 0:
            raise ValueError(f"fit.l2 must be >= 0, got {self.l2}")


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

    Only the entries whose value is not 0.0 are stored, in their given order;
    the keys, ``n_rows`` and ``y`` keep every column and row.  Every sum over
    the entries is a ``bincount``, which adds a bin's entries in entry order
    into +0.0.  Such a sum is never -0.0, and adding ±0.0 to any other value
    returns it unchanged, so with finite weights a dropped entry, which adds
    ±0.0, changes no bit of a score, gradient or curvature.  NaN and inf are
    not 0.0 and stay, for ``fit_design``'s finiteness check.
    """

    def __init__(self, keys: Sequence, rows, cols, vals, y):
        self.keys = keys
        vals = np.asarray(vals, dtype=float)
        nonzero = vals != 0.0
        self.rows = np.asarray(rows, dtype=np.intp)[nonzero]
        self.cols = np.asarray(cols, dtype=np.intp)[nonzero]
        self.vals = vals[nonzero]
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
    epoch's gradient and the final scores.  Scores, gradient, curvature and
    loss run over the design's nonzero entries only; by the ±0 argument in
    ``_DesignMatrix`` the result is the same, bit for bit, as over every entry.
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
        with np.errstate(over="ignore"):  # an overflowing trial loss is inf, and the step halves
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
