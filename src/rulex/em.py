"""Alternating optimization of the rule generator and the relation extractor.

Each iteration estimates a per-instance posterior over rules (the latent rule
set is approximated by softmax-normalized rule quality scores), refits the
generator toward posterior-favored rules, and retrains the extractor on fresh
rule sets drawn from the updated generator.  Diagnostics track the two halves
of the training objective and the training F1 per iteration.

Training grounds rules through one dense atom tensor per corpus
(``GroundingCache``, which states its memory bounds), built once per
``run_em``: each step draws every instance's rules first and then grounds all
of them in one chunked gather.  Every step works on integer ids from the
generator's one rule-id space (``RuleGenerator.rule_ids``), whatever the size
of the vocabulary, and the extractor weights train as arrays over rule ids
(``TrainingWeights``); ``run_em`` builds ``Rule`` objects once, for the
weights it returns.  Inference scores (``predict_document``) and explains
(``explain``) from the same memoized all-pairs matrices, so explanations sum
to the score.
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
from .extractor import (  # ``fit`` is unused here; perfbench/tracing.py patches ``em.fit``
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


class RulePosterior:
    """Approximate posterior over the unique rules sampled for one instance.

    ``indices`` holds the rules' ids in the generator's rule-id space; the
    rule objects are built from them on the first read of ``rules``.
    """

    def __init__(
        self,
        instance: LabeledInstance,
        indices: np.ndarray,
        prior_counts: np.ndarray,
        h_values: np.ndarray,
        weights: np.ndarray,
        model: RuleGenerator,
    ):
        self.instance = instance
        self.indices = indices
        self.prior_counts = prior_counts
        self.h_values = h_values
        self.weights = weights
        self._model = model
        self._rules: tuple[Rule, ...] | None = None

    @property
    def rules(self) -> tuple[Rule, ...]:
        if self._rules is None:
            self._rules = tuple(self._model.rule_at(self.relation, i) for i in self.indices.tolist())
        return self._rules

    @property
    def relation(self) -> int:
        return self.instance.relation


def posterior_over_rules(
    instance: LabeledInstance,
    rules: Sequence[Rule],
    model: RuleGenerator,
    weights: ExtractorWeights,
    doc: Document,
    n_rules: int,
) -> RulePosterior:
    """Softmax-normalized rule quality over an explicit rule list.

    This is the posterior computation of the E-step applied to a caller-chosen
    support (for example the fully enumerated rule space in oracle checks);
    adding any constant to every quality score leaves the weights unchanged.
    """
    h_values = np.array([rule_score_H(instance, rule, model, weights, doc, n_rules) for rule in rules])
    indices = model.rule_ids(rule.body for rule in rules)
    return RulePosterior(instance, indices, np.ones(len(rules), dtype=int), h_values, _softmax(h_values), model)


class TrainingWeights:
    """The extractor weights while EM runs: arrays over the stored keys.

    A stored key is any key that has been a design column since the last
    reset; keys whose weight is exactly 0 stay, because their columns still
    enter the descent's sums.  ``bias_rel``/``bias_val`` hold the stored
    biases, sorted by relation.  ``rule_rel``/``rule_id``/``rule_val`` hold
    the stored rule weights by relation and rule id (``RuleGenerator.rule_ids``)
    in (relation, body) order, the order of the design's stored columns.
    Memory: 16 bytes per stored bias and 40 per stored rule weight, the
    lookup's copy in (relation, id) order included, whatever the number of
    relations and rule ids.
    Keys code as ints: a bias as ``-1 - relation``, a rule weight as
    ``relation * E + id`` for a table of E rule ids.
    """

    def __init__(self, bias_rel=(), bias_val=(), rule_rel=(), rule_id=(), rule_val=()):
        self.bias_rel = np.asarray(bias_rel, dtype=np.intp)
        self.bias_val = np.asarray(bias_val, dtype=float)
        self.rule_rel = np.asarray(rule_rel, dtype=np.intp)
        self.rule_id = np.asarray(rule_id, dtype=np.intp)
        self.rule_val = np.asarray(rule_val, dtype=float)
        by_id = np.lexsort((self.rule_id, self.rule_rel))  # the same relation slices, ids sorted in each
        self._ids, self._vals = self.rule_id[by_id], self.rule_val[by_id]

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

    def bias(self, relation: int) -> float:
        i = int(np.searchsorted(self.bias_rel, relation))
        return float(self.bias_val[i]) if i < len(self.bias_rel) and self.bias_rel[i] == relation else 0.0

    def rule_weights(self, relation: int, ids: np.ndarray) -> np.ndarray:
        """Weights of ``relation``'s rules with the given ids; 0 where no key is stored."""
        lo, hi = np.searchsorted(self.rule_rel, [relation, relation + 1])
        stored = self._ids[lo:hi]
        at = np.searchsorted(stored, ids)
        hit = at < len(stored)
        hit[hit] = stored[at[hit]] == ids[hit]
        values = np.zeros(len(ids))
        values[hit] = self._vals[lo:hi][at[hit]]
        return values

    def to_extractor(self, model: RuleGenerator) -> ExtractorWeights:
        """The same keys and weights as ``ExtractorWeights``, one ``Rule`` per stored rule weight."""
        weights = ExtractorWeights()
        weights.bias = dict(zip(self.bias_rel.tolist(), self.bias_val.tolist()))
        weights.rule_weight = {
            (relation, model.rule_at(relation, i)): value
            for relation, i, value in zip(self.rule_rel.tolist(), self.rule_id.tolist(), self.rule_val.tolist())
        }
        return weights


class Draw(NamedTuple):
    """One instance's drawn rule multiset, deduplicated.

    ``support`` holds the unique rules' ids (``RuleGenerator.rule_ids``) in
    body order; ``values`` holds each drawn body's grounding at the
    instance's query once computed.
    """

    support: np.ndarray
    counts: np.ndarray
    log_priors: np.ndarray
    values: np.ndarray | None = None


def draw_all_rules(
    model: RuleGenerator, relations: Sequence[int], n_rules: int, rng: np.random.Generator
) -> list[Draw]:
    """N rules for each relation in turn from the generator's prior, deduplicated, in one batched draw."""
    support, counts, log_priors, sizes = model.sample_unique_index_rows(relations, n_rules, rng)
    ends = np.cumsum(sizes).tolist()
    return [Draw(support[start:end], counts[start:end], log_priors[start:end])
            for start, end in zip([0, *ends], ends)]


def _ground_draws(
    cache: GroundingCache,
    corpus: Corpus,
    instances: Sequence[LabeledInstance],
    draws: Sequence[Draw],
    model: RuleGenerator,
) -> list[Draw]:
    """The draws with every drawn body grounded at its instance's query, in one gather."""
    if not draws:
        return []
    sizes = np.array([len(draw.counts) for draw in draws], dtype=np.intp)
    owner = np.repeat(np.arange(len(draws)), sizes)
    values = cache.ground(
        cache.rows([corpus.docs[inst.doc_id] for inst in instances])[owner],
        model.body_table()[np.concatenate([draw.support for draw in draws])],
        np.array([inst.head for inst in instances], dtype=np.intp)[owner],
        np.array([inst.tail for inst in instances], dtype=np.intp)[owner],
    )
    ends = np.cumsum(sizes).tolist()
    return [Draw(draw.support, draw.counts, draw.log_priors, values[end - len(draw.counts) : end])
            for draw, end in zip(draws, ends)]


def e_step(
    instance: LabeledInstance,
    model: RuleGenerator,
    weights: TrainingWeights,
    doc: Document,
    n_rules: int,
    rng: np.random.Generator,
    cache: GroundingCache | None = None,
    drawn: Draw | tuple | None = None,
) -> RulePosterior:
    """Sample N rules from the prior and weight the unique ones by softmaxed quality.

    Rules whose learned weight is still 0 skip grounding entirely: their
    extractor term vanishes no matter what the document says.  ``drawn``
    supplies an already drawn rule multiset from the same prior (a ``Draw``
    or its first three fields), letting the caller share one draw per
    instance across the steps of an iteration; its ``values``, when present,
    are used instead of grounding again.  Without them the rules ground
    through ``cache``, or through the dynamic program ``ground_body_value``
    when no cache is given.
    """
    relation = instance.relation
    drawn = Draw(*(model.sample_unique_indices(relation, n_rules, rng) if drawn is None else drawn))
    indices = drawn.support
    w = weights.rule_weights(relation, indices)
    extract = np.zeros(len(drawn.counts))
    nz = np.nonzero(w)[0]
    if nz.size:
        h, t = instance.head, instance.tail
        if drawn.values is not None:
            g = drawn.values[nz]
        else:
            ground = ground_body_value if cache is None else cache.value_body
            g = np.array([ground(doc, body, h, t) for body in model.bodies_at(relation, indices[nz])])
        extract[nz] = w[nz] * g
    h_values = drawn.log_priors + (instance.label / 2.0) * (weights.bias(relation) / n_rules + extract)
    return RulePosterior(instance, indices, drawn.counts, h_values, _softmax(h_values), model)


def m_step_generator(posteriors: Sequence[RulePosterior], model: RuleGenerator) -> RuleGenerator:
    """Refit the generator on posterior-weighted rules, grouped by query relation.

    Count additivity makes the per-head aggregate equivalent to one
    ``fit_weighted`` call per instance.  Each head's weights sum per rule id
    in posterior order, and the nonzero sums refit in body order.
    """
    if not posteriors:
        raise ValueError("no posteriors to fit the generator on")
    groups: dict[int, list[RulePosterior]] = {}
    for posterior in posteriors:
        groups.setdefault(posterior.relation, []).append(posterior)
    table = model.body_table()
    for head in sorted(groups):
        group = groups[head]
        acc = np.zeros(len(table))
        np.add.at(acc, np.concatenate([p.indices for p in group]), np.concatenate([p.weights for p in group]))
        nonzero = np.flatnonzero(acc)
        nonzero = nonzero[np.lexsort(table[nonzero].T[::-1])]
        model.fit_bodies(head, table[nonzero], acc[nonzero])
    return model


def _generator_log_likelihood(posteriors: Sequence[RulePosterior], model: RuleGenerator, n_rules: int) -> float:
    """Mean over instances of N times the posterior-weighted log-prior of the instance's rules.

    The log-priors of each head's posteriors come from one
    ``log_probs_by_index`` call over their concatenated ids; each instance's
    dot product is then taken on its own slice, as with one call per instance.
    """
    groups: dict[int, list[int]] = {}
    for i, posterior in enumerate(posteriors):
        groups.setdefault(posterior.relation, []).append(i)
    terms = [0.0] * len(posteriors)
    for head, members in groups.items():
        log_probs = model.log_probs_by_index(head, np.concatenate([posteriors[i].indices for i in members]))
        end = 0
        for i in members:
            p = posteriors[i]
            start, end = end, end + len(p.indices)
            terms[i] = n_rules * float(p.weights @ log_probs[start:end])
    return float(np.mean(terms))


@dataclass
class MStepResult:
    weights: TrainingWeights
    losses: list[float]
    l_r: float
    train_f1: float
    # Per-instance grounded draws of the rule sets this step trained on, when
    # they were freshly sampled; reusable as the next E-step's draws from the
    # same prior.
    samples: list[Draw] | None = None


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
    samples: list[Draw] | None = [] if mode == "sample" else None
    design = _index_design(
        corpus, model, weights, rng, n_rules=n_rules, mode=mode, beam=beam, cache=cache, samples_out=samples
    )
    stored = np.concatenate([weights.bias_val, weights.rule_val])
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
    return MStepResult(trained, result.losses, result.data_log_likelihood, f1, samples)


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
    samples_out: list | None = None,
) -> _DesignMatrix:
    """Feature build over rule ids, with the codes of the keys (``TrainingWeights.codes``) as column keys.

    Each instance contributes one entry per unique drawn rule, then one bias
    entry; the grounding values of all draws come from one gather.  Columns
    are the stored keys in the order ``weights`` keeps them, then the new
    keys in the order the entries first reach them, so no order depends on
    id values.  Every entry finds its stored column by its key's code.
    """
    relations = [instance.relation for instance in corpus.instances]
    if mode == "top":
        top_sets: dict[int, Draw] = {}
        for relation in sorted(set(relations)):
            ruleset = model.top_rules(relation, n_rules, beam)
            items = sorted(ruleset.counts().items(), key=lambda kv: kv[0].body)
            idx = model.rule_ids(rule.body for rule, _ in items)
            top_sets[relation] = Draw(idx, np.array([c for _, c in items], dtype=float), None)
        draws = [top_sets[relation] for relation in relations]
    else:
        draws = draw_all_rules(model, relations, n_rules, rng)
    draws = _ground_draws(cache, corpus, corpus.instances, draws, model)
    if samples_out is not None:
        samples_out.extend(draws)
    size = len(model.body_table())  # every drawn rule has its id by now
    per_row = np.array([len(draw.counts) + 1 for draw in draws], dtype=np.intp)
    bias_at = np.cumsum(per_row) - 1
    is_rule = np.ones(int(per_row.sum()), dtype=bool)
    is_rule[bias_at] = False
    rel_codes = np.array(relations, dtype=np.intp)
    codes = np.empty(is_rule.size, dtype=np.intp)
    codes[is_rule] = np.repeat(rel_codes * size, per_row - 1) + np.concatenate([draw.support for draw in draws])
    codes[bias_at] = -1 - rel_codes
    columns = weights.codes(size)
    by_code = np.argsort(columns)
    stored_codes = columns[by_code]
    at = np.searchsorted(stored_codes, codes)
    found = at < len(stored_codes)
    found[found] = stored_codes[at[found]] == codes[found]
    cols = np.empty(codes.size, dtype=np.intp)
    cols[found] = by_code[at[found]]
    new_codes, first, inverse = np.unique(codes[~found], return_index=True, return_inverse=True)
    appearance = np.argsort(first, kind="stable")
    rank = np.empty(len(new_codes), dtype=np.intp)
    rank[appearance] = np.arange(len(new_codes))
    cols[~found] = len(stored_codes) + rank[inverse]
    columns = np.concatenate([columns, new_codes[appearance]])
    vals = np.ones(is_rule.size)
    vals[is_rule] = np.concatenate([draw.counts * draw.values for draw in draws])
    y = np.array([instance.label for instance in corpus.instances], dtype=float)
    return _DesignMatrix(columns, np.repeat(np.arange(len(draws)), per_row), cols, vals, y)


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
    carried: list[Draw] | None = None
    for iteration in range(1, config.iterations + 1):
        final = iteration == config.iterations
        mode = config.inference_mode if final else config.train_ruleset_mode
        try:
            # The previous extractor update's freshly sampled rule sets came
            # from the same prior this E-step targets, so they serve as its
            # draws, grounded already.  Fresh draws are all sampled first,
            # then grounded in one gather unless no rule weight is nonzero.
            draws = carried
            if draws is None:
                draws = draw_all_rules(model, [inst.relation for inst in corpus.instances], config.n_rules, rng)
                if np.any(weights.rule_val):
                    draws = _ground_draws(cache, corpus, corpus.instances, draws, model)
            posteriors = [
                e_step(inst, model, weights, corpus.docs[inst.doc_id], config.n_rules, rng, cache, draws[i])
                for i, inst in enumerate(corpus.instances)
            ]
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
