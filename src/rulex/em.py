"""Alternating optimization of the rule generator and the relation extractor.

Each iteration estimates a per-instance posterior over rules (the latent rule
set is approximated by softmax-normalized rule quality scores), refits the
generator toward posterior-favored rules, and retrains the extractor on fresh
rule sets drawn from the updated generator.  Diagnostics track the two halves
of the training objective and the training F1 per iteration.

Training grounds rules through one dense atom tensor per corpus
(``GroundingCache``, which states its memory bounds), built once per
``run_em``: each step draws every instance's rules first and then grounds all
of them in one chunked gather.  A step's draws (``Draws``) and posteriors
(``Posteriors``) are flat arrays, one row per instance with the rows
concatenated, and ``e_step`` scores all the instances in one pass.  Every
step works on integer ids from the generator's one rule-id space
(``RuleGenerator.rule_ids``), whatever the size of the vocabulary, and the
extractor weights train as arrays over rule ids (``TrainingWeights``);
``run_em`` builds ``Rule`` objects once, for the weights it returns.
Inference scores (``predict_document``) and explains (``explain``) from the
same memoized all-pairs matrices, so explanations sum to the score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    DEFAULT_MAX_RULE_LEN,
    Corpus,
    Document,
    LabeledInstance,
    RelationVocab,
    Rule,
    RuleSet,
    format_rule,
)
from .extractor import (  # ``fit`` and ``ground_body_value`` are unused here; perfbench/tracing.py patches both
    ExtractorWeights,
    FitConfig,
    _DesignMatrix,
    fit,
    fit_design,
    ground_body_value,
    ground_rule,
    ground_rule_all_pairs,
    prob,
)
from .generator import RuleGenerator

# Matrix cells per chunk of a batched gather: a length-3 body reads one
# (N_max, N_max) relation matrix per entry, so a chunk holds
# GATHER_CELLS // N_max**2 entries and its largest temporary takes 2 MB.
GATHER_CELLS = 1 << 18


def _reject_unknown(obj: Mapping, known: Mapping, prefix: str = "") -> None:
    for key in obj:
        if key not in known:
            raise ValueError(f"unknown config key '{prefix}{key}'")


@dataclass
class EMConfig:
    """Knobs for one training run; defaults follow the engine's standard setup."""

    n_rules: int = 50
    iterations: int = 10
    seed: int = 0
    fit: FitConfig = field(default_factory=FitConfig)
    convergence_eps: float = 1e-4
    inference_mode: str = "top"  # rule multiset used at prediction time: "top" | "sample"
    train_ruleset_mode: str = "sample"  # rule multiset for the extractor update
    beam: int = 200
    max_rule_len: int = DEFAULT_MAX_RULE_LEN

    def validate(self) -> None:
        if self.n_rules < 1:
            raise ValueError("n_rules must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.inference_mode not in ("top", "sample"):
            raise ValueError(f"unknown inference mode {self.inference_mode!r}")
        if self.train_ruleset_mode not in ("top", "sample"):
            raise ValueError(f"unknown train ruleset mode {self.train_ruleset_mode!r}")
        if self.beam < self.n_rules:
            raise ValueError("beam must be >= n_rules")
        self.fit.validate()

    def to_json(self) -> dict:
        return {
            "n_rules": self.n_rules,
            "iterations": self.iterations,
            "seed": self.seed,
            "fit": {"lr": self.fit.lr, "epochs": self.fit.epochs, "l2": self.fit.l2},
            "convergence_eps": self.convergence_eps,
            "inference_mode": self.inference_mode,
            "train_ruleset_mode": self.train_ruleset_mode,
            "beam": self.beam,
            "max_rule_len": self.max_rule_len,
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "EMConfig":
        """Config from its ``to_json`` form; absent keys take their defaults, unknown keys raise."""
        known = cls().to_json()
        fit_obj = obj.get("fit", {})
        _reject_unknown(obj, known)
        _reject_unknown(fit_obj, known["fit"], "fit.")
        config = cls(
            n_rules=obj.get("n_rules", 50),
            iterations=obj.get("iterations", 10),
            seed=obj.get("seed", 0),
            fit=FitConfig(
                lr=fit_obj.get("lr", 0.1),
                epochs=fit_obj.get("epochs", 5),
                l2=fit_obj.get("l2", 1e-4),
            ),
            convergence_eps=obj.get("convergence_eps", 1e-4),
            inference_mode=obj.get("inference_mode", "top"),
            train_ruleset_mode=obj.get("train_ruleset_mode", "sample"),
            beam=obj.get("beam", 200),
            max_rule_len=obj.get("max_rule_len", DEFAULT_MAX_RULE_LEN),
        )
        config.validate()
        return config


class GroundingCache:
    """Batched max-product grounding over one dense atom tensor per corpus.

    The tensor ``A[row, r, h, t]`` stacks the documents' ``atom_array``
    views, zero-padded to the largest entity count.  Documents are immutable
    and key the store by identity, never by ``doc_id``, so rows never
    invalidate and corpora with colliding ids can share one store.  ``ground``
    reads many (row, body, head, tail) values in one gather; a length-3 body
    reads ``max_k (max_j A[d, r1, h, j] * A[d, r2, j, k]) * A[d, r3, k, t]``.
    Products multiply left to right as in ``ground_body_value`` and max
    commutes with monotone rounding, so the values agree with it exactly.

    Memory: the tensor takes ``D * V * N_max**2 * 8`` bytes for D documents,
    V relation ids and N_max entities (1.2 MB for 200 documents, 20 ids, 6
    entities), and a gather's temporaries stay near ``GATHER_CELLS * 8``
    bytes (2 MB) however many values it reads.  DocRED-scale corpora are
    outside this envelope: 3,000 documents with 192 ids and up to 40
    entities would need a 7.4 GB tensor.

    All-pairs matrices for whole-document scoring are memoized per body for
    the most recent document only.
    """

    def __init__(self):
        self._rows: dict[Document, int] = {}
        self._tensor = np.zeros((0, 0, 0, 0))
        self._matrix_doc: Document | None = None
        self._matrices: dict[tuple[int, ...], np.ndarray] = {}

    def rows(self, docs: Iterable[Document]) -> np.ndarray:
        """Tensor rows of ``docs``, stacking the documents the store lacks.

        Stacking rebuilds the whole tensor, so callers pass all the documents
        they will ground in one call.
        """
        docs = list(docs)
        new = [doc for doc in dict.fromkeys(docs) if doc not in self._rows]
        if new:
            stacked = [*self._rows, *new]
            arrays = [doc.atom_array() for doc in stacked]
            if len({arr.shape[0] for arr in arrays}) > 1:
                raise ValueError("documents in one grounding store must share a relation vocabulary")
            n_max = max(arr.shape[1] for arr in arrays)
            tensor = np.zeros((len(arrays), arrays[0].shape[0], n_max, n_max))
            for i, arr in enumerate(arrays):
                tensor[i, :, : arr.shape[1], : arr.shape[2]] = arr
            self._rows = {doc: i for i, doc in enumerate(stacked)}
            self._tensor = tensor
        return np.array([self._rows[doc] for doc in docs], dtype=np.intp)

    def ground(self, rows: np.ndarray, bodies: np.ndarray, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """Grounding values of many entries in one chunked gather.

        ``bodies`` holds one body per entry as a row of relation ids padded
        with -1.  Entity ids outside a document read as 0, as in
        ``ground_body_value``.
        """
        tensor = self._tensor
        n = tensor.shape[2]
        values = np.zeros(len(rows))
        inside = (heads >= 0) & (heads < n) & (tails >= 0) & (tails < n)
        lengths = np.count_nonzero(bodies >= 0, axis=1)
        chunk = max(1, GATHER_CELLS // max(1, n * n))
        for length in range(1, bodies.shape[1] + 1):
            selected = np.flatnonzero(inside & (lengths == length))
            for start in range(0, selected.size, chunk):
                idx = selected[start : start + chunk]
                d, body, h, t = rows[idx], bodies[idx], heads[idx], tails[idx]
                if length == 1:
                    values[idx] = tensor[d, body[:, 0], h, t]
                    continue
                # Maxima over the short entity axis run as loops of
                # elementwise maxima, several times faster than numpy's axis
                # reductions at this shape.
                best = tensor[d, body[:, 0], h]  # best product reaching each entity
                for pos in range(1, length - 1):
                    step = tensor[d, body[:, pos]]
                    reach = best[:, :1] * step[:, 0]
                    for j in range(1, n):
                        np.maximum(reach, best[:, j : j + 1] * step[:, j], out=reach)
                    best = reach
                last = best * tensor[d, body[:, length - 1], :, t]
                value = last[:, 0].copy()
                for k in range(1, n):
                    np.maximum(value, last[:, k], out=value)
                values[idx] = value
        return values

    def value_body(self, doc: Document, body: tuple[int, ...], h: int, t: int) -> float:
        """Grounding of one body between two entities: a one-entry gather."""
        return float(self.ground(self.rows([doc]), np.array([body]), np.array([h]), np.array([t]))[0])

    def matrix(self, doc: Document, rule: Rule) -> np.ndarray:
        """All-pairs grounding of one rule on one document (see ``ground_rule_all_pairs``)."""
        if doc is not self._matrix_doc:
            self._matrix_doc, self._matrices = doc, {}
        mat = self._matrices.get(rule.body)
        if mat is None:
            mat = self._matrices[rule.body] = ground_rule_all_pairs(doc, rule)
        return mat


def log_sigmoid_taylor(x: float) -> float:
    """First-order expansion of log-sigmoid around 0: ``-log 2 + x/2``.

    This is the truncation that makes the rule posterior decompose over
    individual rules; its error is bounded by ``x**2 / 8``.
    """
    return -math.log(2.0) + 0.5 * x


def rule_score_H(
    instance: LabeledInstance,
    rule: Rule,
    model: RuleGenerator,
    weights: ExtractorWeights,
    doc: Document,
    n_rules: int,
) -> float:
    """Quality score of one rule for one labeled query.

    Combines the generator's log-prior with the rule's signed contribution to
    the correct label: the per-rule share of the bias plus the weighted
    grounding value on this document.
    """
    if rule.head != instance.relation:
        raise ValueError(f"rule head {rule.head} does not match query relation {instance.relation}")
    log_prior = model.log_prob(instance.relation, rule.body)
    g = ground_rule(doc, rule, instance.head, instance.tail).value
    extract = weights.get_bias(instance.relation) / n_rules + weights.get_rule_weight(instance.relation, rule) * g
    return log_prior + (instance.label / 2.0) * extract


def _softmax(values: np.ndarray) -> np.ndarray:
    shifted = values - values.max()
    e = np.exp(shifted)
    return e / e.sum()


def _row_blocks(sizes: np.ndarray):
    """The rows of each length, and their flat positions as one (rows, length) array, length by length."""
    starts = np.cumsum(sizes) - sizes
    for length in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == length)
        yield rows, starts[rows, None] + np.arange(length)


def _row_softmax(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``_softmax`` of each row of concatenated rows, bit for bit.

    Rows of one length softmax as one block: each row's sum is a ``sum`` over
    one contiguous row of the block, the pairwise sum ``_softmax`` takes.  A
    segmented sum such as ``np.add.reduceat`` adds in another order.
    """
    weights = np.empty_like(values)
    for _, idx in _row_blocks(sizes):
        block = values[idx]
        e = np.exp(block - block.max(axis=1, keepdims=True))
        weights[idx] = e / e.sum(axis=1, keepdims=True)
    return weights


class Posteriors(NamedTuple):
    """Approximate posteriors over the unique rules drawn for many instances, rows concatenated.

    Row i has ``sizes[i]`` entries and the query relation ``relations[i]``.
    ``indices`` holds the entries' rule ids (``RuleGenerator.rule_ids``),
    ``h_values`` their quality scores and ``weights`` their softmaxed
    weights, which sum to 1 in each row.
    """

    relations: np.ndarray
    sizes: np.ndarray
    indices: np.ndarray
    h_values: np.ndarray
    weights: np.ndarray


def posterior_over_rules(
    instance: LabeledInstance,
    rules: Sequence[Rule],
    model: RuleGenerator,
    weights: ExtractorWeights,
    doc: Document,
    n_rules: int,
) -> Posteriors:
    """Softmax-normalized rule quality over an explicit rule list, as a one-row ``Posteriors``.

    This is the posterior computation of the E-step applied to a caller-chosen
    support (for example the fully enumerated rule space in oracle checks);
    adding any constant to every quality score leaves the weights unchanged.
    """
    h_values = np.array([rule_score_H(instance, rule, model, weights, doc, n_rules) for rule in rules])
    indices = model.rule_ids(rule.body for rule in rules)
    return Posteriors(np.array([instance.relation]), np.array([len(rules)]), indices, h_values, _softmax(h_values))


class TrainingWeights:
    """The extractor weights while EM runs: arrays over the stored keys.

    A stored key is any key that has been a design column since the last
    reset; keys whose weight is exactly 0 stay, because their columns still
    enter the descent's sums.  ``bias_rel``/``bias_val`` hold the stored
    biases, sorted by relation.  ``rule_rel``/``rule_id``/``rule_val`` hold
    the stored rule weights by relation and rule id (``RuleGenerator.rule_ids``)
    in (relation, body) order, the order of the design's stored columns.
    Memory: 16 bytes per stored bias and 24 per stored rule weight, whatever
    the number of relations and rule ids.
    Keys code as ints: a bias as ``-1 - relation``, a rule weight as
    ``relation * E + id`` for a table of E rule ids.
    """

    def __init__(self, bias_rel=(), bias_val=(), rule_rel=(), rule_id=(), rule_val=()):
        self.bias_rel = np.asarray(bias_rel, dtype=np.intp)
        self.bias_val = np.asarray(bias_val, dtype=float)
        self.rule_rel = np.asarray(rule_rel, dtype=np.intp)
        self.rule_id = np.asarray(rule_id, dtype=np.intp)
        self.rule_val = np.asarray(rule_val, dtype=float)

    @classmethod
    def from_codes(cls, codes: np.ndarray, w: np.ndarray, table: np.ndarray) -> "TrainingWeights":
        """The keys ``codes`` with the weights ``w``, for the rule-id table ``table``."""
        bias_rel, (rel, ids) = -1 - codes[codes < 0], np.divmod(codes[codes >= 0], len(table))
        by_rel = np.argsort(bias_rel)
        order = np.lexsort((*table[ids].T[::-1], rel))  # (relation, body) order
        return cls(bias_rel[by_rel], w[codes < 0][by_rel], rel[order], ids[order], w[codes >= 0][order])

    def codes(self, size: int) -> np.ndarray:
        """The stored keys' codes for a table of ``size`` rule ids: biases, then rule weights."""
        return np.concatenate([-1 - self.bias_rel, self.rule_rel * size + self.rule_id])

    def values(self) -> np.ndarray:
        """The stored weights in the order of ``codes``."""
        return np.concatenate([self.bias_val, self.rule_val])

    def find(self, keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Which of the codes ``keys`` are stored, and where each stored one sits in ``codes(size)``."""
        columns = self.codes(size)
        by_code = np.argsort(columns)
        stored = columns[by_code]
        at = np.searchsorted(stored, keys)
        found = at < len(stored)
        found[found] = stored[at[found]] == keys[found]
        positions = np.zeros(len(keys), dtype=np.intp)
        positions[found] = by_code[at[found]]
        return found, positions

    def to_extractor(self, model: RuleGenerator) -> ExtractorWeights:
        """The same keys and weights as ``ExtractorWeights``, one ``Rule`` per stored rule weight."""
        weights = ExtractorWeights()
        weights.bias = dict(zip(self.bias_rel.tolist(), self.bias_val.tolist()))
        weights.rule_weight = {
            (relation, model.rule_at(relation, i)): value
            for relation, i, value in zip(self.rule_rel.tolist(), self.rule_id.tolist(), self.rule_val.tolist())
        }
        return weights


class Draws(NamedTuple):
    """A step's drawn rule multisets, one deduplicated row per instance, rows concatenated.

    Row i has ``sizes[i]`` entries: the unique rules' ids
    (``RuleGenerator.rule_ids``) in body order, their multiplicities, and
    their log-priors (None for a deterministic rule set).  ``values`` holds
    each entry's grounding at its instance's query once computed.
    """

    sizes: np.ndarray
    support: np.ndarray
    counts: np.ndarray
    log_priors: np.ndarray | None
    values: np.ndarray | None = None


def draw_all_rules(
    model: RuleGenerator, relations: Sequence[int], n_rules: int, rng: np.random.Generator
) -> Draws:
    """N rules for each relation in turn from the generator's prior, deduplicated, in one batched draw."""
    support, counts, log_priors, sizes = model.sample_unique_index_rows(relations, n_rules, rng)
    return Draws(sizes, support, counts, log_priors)


def _ground_draws(
    cache: GroundingCache, corpus: Corpus, draws: Draws, model: RuleGenerator, entries=slice(None)
) -> np.ndarray:
    """Grounding values of the draws' ``entries`` at their instances' queries, in one gather.

    Row i of ``draws`` belongs to ``corpus.instances[i]``.
    """
    instances = corpus.instances
    owner = np.repeat(np.arange(len(instances)), draws.sizes)[entries]
    return cache.ground(
        cache.rows([corpus.docs[inst.doc_id] for inst in instances])[owner],
        model.body_table()[draws.support[entries]],
        np.array([inst.head for inst in instances], dtype=np.intp)[owner],
        np.array([inst.tail for inst in instances], dtype=np.intp)[owner],
    )


def e_step(
    corpus: Corpus,
    draws: Draws,
    model: RuleGenerator,
    weights: TrainingWeights,
    n_rules: int,
    cache: GroundingCache,
) -> Posteriors:
    """Weight the unique drawn rules of every instance by softmaxed quality, in one pass.

    Row i of ``draws`` and of the result belongs to ``corpus.instances[i]``.
    One lookup reads every row's bias and every entry's rule weight.  Rules
    whose weight is 0 skip grounding: their extractor term vanishes whatever
    the document says.  The others read the draws' ``values``, or ground in
    one gather through ``cache`` when the draws carry none.  Each quality
    score takes the same per-entry arithmetic as a per-instance
    ``log_prior + label / 2 * (bias / N + weight * value)``, and each row
    softmaxes as ``_softmax`` does, bit for bit.
    """
    instances = corpus.instances
    relations = np.array([inst.relation for inst in instances], dtype=np.intp)
    labels = np.array([inst.label for inst in instances], dtype=float)
    owner = np.repeat(np.arange(len(instances)), draws.sizes)
    size = len(model.body_table())
    keys = np.concatenate([-1 - relations, relations[owner] * size + draws.support])
    found, at = weights.find(keys, size)
    stored = np.zeros(len(keys))
    stored[found] = weights.values()[at[found]]
    bias, w = stored[: len(instances)], stored[len(instances) :]
    extract = np.zeros(len(w))
    nz = np.flatnonzero(w)
    if nz.size:
        values = draws.values[nz] if draws.values is not None else _ground_draws(cache, corpus, draws, model, nz)
        extract[nz] = w[nz] * values
    h_values = draws.log_priors + (labels / 2.0)[owner] * ((bias / n_rules)[owner] + extract)
    return Posteriors(relations, draws.sizes, draws.support, h_values, _row_softmax(h_values, draws.sizes))


def m_step_generator(posteriors: Posteriors, model: RuleGenerator) -> RuleGenerator:
    """Refit the generator on posterior-weighted rules, grouped by query relation.

    Count additivity makes the per-head aggregate equivalent to one
    ``fit_weighted`` call per instance.  Each head's weights sum per rule id
    in row order, and the nonzero sums refit in body order.
    """
    if not len(posteriors.sizes):
        raise ValueError("no posteriors to fit the generator on")
    heads = np.repeat(posteriors.relations, posteriors.sizes)
    table = model.body_table()
    for head in np.unique(posteriors.relations).tolist():
        mine = heads == head
        acc = np.zeros(len(table))
        np.add.at(acc, posteriors.indices[mine], posteriors.weights[mine])
        nonzero = np.flatnonzero(acc)
        nonzero = nonzero[np.lexsort(table[nonzero].T[::-1])]
        model.fit_bodies(head, table[nonzero], acc[nonzero])
    return model


def _generator_log_likelihood(posteriors: Posteriors, model: RuleGenerator, n_rules: int) -> float:
    """Mean over instances of N times the posterior-weighted log-prior of the instance's rules.

    Each head's log-priors come from one ``log_probs_by_index`` call.  The
    rows' dot products run as one stacked ``matmul`` per row length, each
    row's equal to its own ``weights @ log_probs``.
    """
    heads = np.repeat(posteriors.relations, posteriors.sizes)
    log_probs = np.empty(len(heads))
    for head in np.unique(posteriors.relations).tolist():
        mine = heads == head
        log_probs[mine] = model.log_probs_by_index(head, posteriors.indices[mine])
    dots = np.empty(len(posteriors.sizes))
    for rows, idx in _row_blocks(posteriors.sizes):
        dots[rows] = (posteriors.weights[idx][:, None, :] @ log_probs[idx][:, :, None])[:, 0, 0]
    return float(np.mean(n_rules * dots))


@dataclass
class MStepResult:
    weights: TrainingWeights
    losses: list[float]
    l_r: float
    train_f1: float
    # The grounded draws of the rule sets this step trained on, when they
    # were freshly sampled; reusable as the next E-step's draws from the
    # same prior.
    samples: Draws | None = None


def m_step_extractor(
    corpus: Corpus,
    model: RuleGenerator,
    weights: TrainingWeights,
    fit_config: FitConfig,
    rng: np.random.Generator,
    *,
    n_rules: int,
    mode: str = "sample",
    beam: int = 200,
    cache: GroundingCache | None = None,
    reset: bool = False,
) -> MStepResult:
    """Retrain the extractor on rule sets from the updated generator.

    ``mode`` chooses fresh per-instance samples (the default) or the shared
    deterministic top rules per head.  Every instance's rule set is drawn
    first, then all of them ground in one batched gather before the descent
    loop runs, warm-started from ``weights``.  ``reset`` starts from no
    stored weights instead, turning the step into a from-scratch calibration
    against the given rule sets.  The trained weights come back in the
    result; ``weights`` is left as it was.
    """
    cache = cache or GroundingCache()
    if reset:
        weights = TrainingWeights()
    design, draws = _index_design(corpus, model, weights, rng, n_rules=n_rules, mode=mode, beam=beam, cache=cache)
    stored = weights.values()
    result = fit_design(design, np.concatenate([stored, np.zeros(len(design.keys) - len(stored))]), fit_config)
    predicted = result.final_scores > 0
    actual = result.labels > 0
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    trained = TrainingWeights.from_codes(design.keys, result.w, model.body_table())
    return MStepResult(trained, result.losses, result.data_log_likelihood, f1, draws if mode == "sample" else None)


def _index_design(
    corpus: Corpus,
    model: RuleGenerator,
    weights: TrainingWeights,
    rng: np.random.Generator,
    *,
    n_rules: int,
    mode: str,
    beam: int,
    cache: GroundingCache,
) -> tuple[_DesignMatrix, Draws]:
    """Feature build over rule ids, with the codes of the keys (``TrainingWeights.codes``) as column keys.

    Returns the design and the grounded draws it was built from.  Each
    instance contributes one entry per unique drawn rule, then one bias
    entry; the grounding values of all draws come from one gather.  Columns
    are the stored keys in the order ``weights`` keeps them, then the new
    keys in the order the entries first reach them, so no order depends on
    id values.  Every entry finds its stored column by its key's code.
    """
    relations = np.array([instance.relation for instance in corpus.instances], dtype=np.intp)
    if mode == "top":
        top_sets = {}
        for relation in np.unique(relations).tolist():
            ruleset = model.top_rules(relation, n_rules, beam)
            items = sorted(ruleset.counts().items(), key=lambda kv: kv[0].body)
            ids = model.rule_ids(rule.body for rule, _ in items)
            top_sets[relation] = (ids, np.array([c for _, c in items], dtype=float))
        ids, counts = zip(*(top_sets[relation] for relation in relations.tolist()))
        sizes = np.array([len(row) for row in ids], dtype=np.intp)
        draws = Draws(sizes, np.concatenate(ids), np.concatenate(counts), None)
    else:
        draws = draw_all_rules(model, relations, n_rules, rng)
    draws = draws._replace(values=_ground_draws(cache, corpus, draws, model))
    size = len(model.body_table())  # every drawn rule has its id by now
    per_row = draws.sizes + 1
    bias_at = np.cumsum(per_row) - 1
    is_rule = np.ones(int(per_row.sum()), dtype=bool)
    is_rule[bias_at] = False
    codes = np.empty(is_rule.size, dtype=np.intp)
    codes[is_rule] = np.repeat(relations * size, draws.sizes) + draws.support
    codes[bias_at] = -1 - relations
    found, cols = weights.find(codes, size)
    new_codes, first, inverse = np.unique(codes[~found], return_index=True, return_inverse=True)
    appearance = np.argsort(first, kind="stable")
    rank = np.empty(len(new_codes), dtype=np.intp)
    rank[appearance] = np.arange(len(new_codes))
    columns = weights.codes(size)
    cols[~found] = len(columns) + rank[inverse]
    columns = np.concatenate([columns, new_codes[appearance]])
    vals = np.ones(is_rule.size)
    vals[is_rule] = draws.counts * draws.values
    y = np.array([instance.label for instance in corpus.instances], dtype=float)
    return _DesignMatrix(columns, np.repeat(np.arange(len(relations)), per_row), cols, vals, y), draws


@dataclass
class IterationStats:
    iteration: int
    l_g: float
    l_r: float
    train_f1: float
    extractor_losses: list[float]


@dataclass
class EMResult:
    model: RuleGenerator
    weights: ExtractorWeights
    diagnostics: list[IterationStats]


def run_em(corpus: Corpus, vocab: RelationVocab, config: EMConfig) -> EMResult:
    """Alternate posterior estimation and the two model updates for T iterations.

    Stops early when the tracked objective moves less than the configured
    epsilon between iterations.  The last extractor update before returning
    always trains against the rule sets that inference will use, so sampled
    exploration during training cannot leave the scores miscalibrated for
    deterministic prediction.  Deterministic given (corpus, config, seed).
    """
    config.validate()
    if not corpus.instances:
        raise ValueError("corpus has no labeled instances")
    for instance in corpus.instances:
        if instance.doc_id not in corpus.docs:
            raise ValueError(f"instance references missing document {instance.doc_id!r}")
    rng = np.random.default_rng(config.seed)
    model = RuleGenerator(vocab, max_len=config.max_rule_len)
    weights = TrainingWeights()
    cache = GroundingCache()
    diagnostics: list[IterationStats] = []
    previous = None
    stopped_early = False
    relations = [inst.relation for inst in corpus.instances]
    carried: Draws | None = None
    for iteration in range(1, config.iterations + 1):
        final = iteration == config.iterations
        mode = config.inference_mode if final else config.train_ruleset_mode
        try:
            # The previous extractor update's freshly sampled rule sets came
            # from the same prior this E-step targets, so they serve as its
            # draws, grounded already.
            draws = carried if carried is not None else draw_all_rules(model, relations, config.n_rules, rng)
            posteriors = e_step(corpus, draws, model, weights, config.n_rules, cache)
            m_step_generator(posteriors, model)
            l_g = _generator_log_likelihood(posteriors, model, config.n_rules)
            m_result = m_step_extractor(
                corpus,
                model,
                weights,
                config.fit,
                rng,
                n_rules=config.n_rules,
                mode=mode,
                beam=config.beam,
                cache=cache,
                reset=final and mode != config.train_ruleset_mode,
            )
            weights = m_result.weights
        except Exception as exc:
            raise RuntimeError(f"EM iteration {iteration} failed: {exc}") from exc
        diagnostics.append(
            IterationStats(iteration, l_g, m_result.l_r, m_result.train_f1, m_result.losses)
        )
        carried = m_result.samples
        current = l_g + m_result.l_r
        if previous is not None and abs(current - previous) < config.convergence_eps:
            stopped_early = iteration < config.iterations and mode != config.inference_mode
            break
        previous = current
    if stopped_early:
        weights = m_step_extractor(
            corpus,
            model,
            weights,
            config.fit,
            rng,
            n_rules=config.n_rules,
            mode=config.inference_mode,
            beam=config.beam,
            cache=cache,
            reset=config.inference_mode != config.train_ruleset_mode,
        ).weights
    return EMResult(model, weights.to_extractor(model), diagnostics)


@dataclass
class RuleContribution:
    rule: Rule
    weight: float
    grounding: float
    multiplicity: int
    best_path: tuple[int, ...]
    contribution: float


@dataclass
class InferenceResult:
    label: int
    probability: float
    logit: float
    contributions: tuple[RuleContribution, ...]


def _weighted_rules(
    doc: Document,
    relation: int,
    ruleset: RuleSet,
    weights: ExtractorWeights,
    cache: GroundingCache,
) -> list[tuple[Rule, int, float, np.ndarray]]:
    """The terms that score ``relation`` on one document, in rule-set order.

    One ``(rule, multiplicity, weight, all-pairs matrix)`` per distinct rule
    with a nonzero weight; the score is the bias plus the sum of
    ``multiplicity * weight * matrix`` in this order.
    """
    terms = []
    for rule, multiplicity in ruleset.counts().items():
        if rule.head != relation:
            raise ValueError(f"rule head {rule.head} does not match query relation {relation}")
        weight = weights.get_rule_weight(relation, rule)
        if weight != 0.0:
            terms.append((rule, multiplicity, weight, cache.matrix(doc, rule)))
    return terms


def explain(
    doc: Document,
    query: tuple[int, int, int],
    ruleset: RuleSet,
    weights: ExtractorWeights,
    vocab: RelationVocab,
    cache: GroundingCache | None = None,
    top: int | None = None,
) -> InferenceResult:
    """Score one query against a rule multiset and explain it by the rules that fired.

    The logit is the bias plus ``multiplicity * weight * grounding`` of every
    rule with a nonzero weight, added in rule-set order and read from the
    cache's all-pairs matrices, so it equals ``predict_document``'s score bit
    for bit.  Contributions list the rules whose term is nonzero, ordered by
    decreasing contribution and then by rule text; only the first ``top`` of
    them (all when ``top`` is None) are returned, each with its witness path.
    """
    h, relation, t = query
    terms = _weighted_rules(doc, relation, ruleset, weights, cache or GroundingCache())
    logit = weights.get_bias(relation)
    fired = []
    for rule, multiplicity, weight, matrix in terms:
        grounding = float(matrix[h, t])
        contribution = multiplicity * weight * grounding
        logit += contribution
        if contribution != 0.0:
            fired.append((contribution, format_rule(rule, vocab), rule, multiplicity, weight, grounding))
    fired.sort(key=lambda item: (-item[0], item[1]))
    contributions = tuple(
        RuleContribution(rule, weight, grounding, multiplicity, ground_rule(doc, rule, h, t).best_path, contribution)
        for contribution, _, rule, multiplicity, weight, grounding in fired[:top]
    )
    return InferenceResult(1 if logit > 0 else -1, prob(1, logit), logit, contributions)


def infer(
    doc: Document,
    query: tuple[int, int, int],
    model: RuleGenerator,
    weights: ExtractorWeights,
    config: EMConfig,
    rng: np.random.Generator | None = None,
) -> InferenceResult:
    """``explain`` of one query against its relation's inference rule set.

    The rule sets of every relation are drawn as ``predict_document`` draws
    them, so with the same ``rng`` (or none) the probability equals its
    score's.  Each call draws them afresh and grounds on a fresh cache; to
    explain many queries, draw ``inference_rulesets`` once and call
    ``explain`` with one shared ``GroundingCache``, as ``rulex infer`` does.
    """
    rulesets = inference_rulesets(model, model.vocab, config, rng)
    return explain(doc, query, rulesets[query[1]], weights, model.vocab)


def inference_rulesets(
    model: RuleGenerator,
    vocab: RelationVocab,
    config: EMConfig,
    rng: np.random.Generator | None = None,
) -> dict[int, RuleSet]:
    """The rule multiset per head relation that inference scores against."""
    rulesets = {}
    for relation in range(vocab.size):
        if config.inference_mode == "top":
            rulesets[relation] = model.top_rules(relation, config.n_rules, config.beam)
        else:
            rng = rng if rng is not None else np.random.default_rng(config.seed)
            rulesets[relation] = model.sample_ruleset(relation, config.n_rules, rng)
    return rulesets


def predict_document(
    doc: Document,
    vocab: RelationVocab,
    model: RuleGenerator,
    weights: ExtractorWeights,
    config: EMConfig,
    rng: np.random.Generator | None = None,
    cache: GroundingCache | None = None,
    rulesets: Mapping[int, RuleSet] | None = None,
) -> dict[tuple[int, int, int], float]:
    """Positive predictions over all ordered entity pairs (h != t) of one document."""
    cache = cache or GroundingCache()
    if rulesets is None:
        rulesets = inference_rulesets(model, vocab, config, rng)
    n = doc.num_entities
    predictions: dict[tuple[int, int, int], float] = {}
    off_diagonal = ~np.eye(n, dtype=bool)
    for relation in range(vocab.size):
        scores = np.full((n, n), weights.get_bias(relation))
        for _, multiplicity, weight, matrix in _weighted_rules(doc, relation, rulesets[relation], weights, cache):
            scores += multiplicity * weight * matrix
        for h, t in np.argwhere((scores > 0) & off_diagonal):
            predictions[(int(h), relation, int(t))] = prob(1, float(scores[h, t]))
    return predictions
