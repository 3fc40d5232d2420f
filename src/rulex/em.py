"""Alternating optimization of the rule generator and the relation extractor.

Each iteration estimates a per-instance posterior over rules (the latent rule
set is approximated by softmax-normalized rule quality scores), refits the
generator toward posterior-favored rules, and retrains the extractor on fresh
rule sets drawn from the updated generator.  Diagnostics track the two halves
of the training objective and the training F1 per iteration.

Training grounds rules through the documents' atom arrays, stacked in one
unpadded block per entity count (``GroundingCache``, which states its memory
bounds) once per ``run_em``: each step draws every instance's rules first,
then grounds them all with one ``ground_chain`` call per block.  A step's
draws (``Draws``) and posteriors (``Posteriors``) are flat arrays, one row
per instance with the rows concatenated, and ``e_step`` scores all the
instances in one pass.  Every step works on integer ids from the generator's one
rule-id space (``RuleGenerator.rule_ids``), whatever the size of the
vocabulary, and the extractor weights train as arrays keyed by codes of
(relation, rule id) that never change (``TrainingWeights``); ``run_em``
builds ``Rule`` objects once, for the weights it returns.  Inference reads the rule sets and the weights once per
run, as flat term arrays (``inference_terms``), and scores and explains each
document in one pass (``explain_document``) over one stack of all-pairs
grounding matrices; ``predict_document`` calls the same code.  ``explain``
and ``infer`` score one query, grounding its bodies with one ``ground_chain``
call, whose values equal the stack's cells bit for bit, and add the terms in
the same order, so an explanation's contributions sum to the score bit for
bit.  The rules shown get their witness paths from one ``ground_chain`` call
per document.  Training and inference compose matrices through one
max-product kernel (``_max_product``), in the same chunks by body length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    DEFAULT_MAX_RULE_LEN,
    CodeIndex,
    Corpus,
    Document,
    JsonConfig,
    LabeledInstance,
    RelationVocab,
    Rule,
    RuleSet,
    distinct,
    format_rule,
    pad_bodies,
)
# ``fit``, ``ground_body_value`` and ``ground_rule_all_pairs`` are unused here;
# perfbench/tracing.py patches all three.
from .extractor import (
    ExtractorWeights,
    FitConfig,
    _chunks_by_length,
    _DesignMatrix,
    _max_product,
    fit,
    fit_design,
    ground_body_value,
    ground_chain,
    ground_rule,
    ground_rule_all_pairs,
    prob,
)
from .generator import RuleGenerator
from .metrics import prf


@dataclass
class EMConfig(JsonConfig):
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.max_rule_len < 1:
            raise ValueError(f"max_rule_len must be >= 1, got {self.max_rule_len}")
        if self.convergence_eps < 0:
            raise ValueError(f"convergence_eps must be >= 0, got {self.convergence_eps}")
        self.fit.validate()


class GroundingCache:
    """Batched max-product grounding over the documents' atom arrays, one block per entity count.

    Block ``n`` stacks the atom confidences of every stored document with n
    entities, ``A[row, r, h, t]``, without padding.  ``Document.fill_atom_array``
    writes them straight into the block, the only dense copy of them that
    training holds.  Documents are immutable and key the store
    by identity, never by ``doc_id``, so rows never invalidate and corpora
    with colliding ids can share one store.  ``ground`` reads many
    (document, body, head, tail) values with one ``ground_chain`` call per
    block, the routine ``ground_rule`` runs on one document's array.  Products
    multiply left to right and max commutes with monotone rounding, so the
    values equal exhaustive path enumeration exactly.

    Memory: the blocks hold each document's atoms once, ``sum_d V * N_d**2 *
    8`` bytes for V relation ids and N_d entities in document d (0.8 MB for
    200 documents of 4 to 6 entities with 20 ids), and a gather's
    temporaries stay near ``GATHER_CELLS * 8`` bytes (2 MB) however many
    values it reads.
    """

    def __init__(self):
        self._rows: dict[Document, tuple[int, int]] = {}
        self._blocks: dict[int, np.ndarray] = {}

    def rows(self, docs: Iterable[Document]) -> np.ndarray:
        """The (entity count, block row) of each of ``docs``, storing the documents the store lacks.

        A new document joins the block of its entity count, and the other
        blocks stay as they are.
        """
        docs = list(docs)
        new: dict[int, list[Document]] = {}
        for doc in dict.fromkeys(docs):
            if doc not in self._rows:
                new.setdefault(doc.num_entities, []).append(doc)
        vocabularies = {doc.num_relations for group in new.values() for doc in group}
        if len(vocabularies | {block.shape[1] for block in self._blocks.values()}) > 1:
            raise ValueError("documents in one grounding store must share a relation vocabulary")
        for n, group in new.items():
            stored = self._blocks.get(n, np.zeros((0, group[0].num_relations, n, n)))
            block = np.zeros((len(stored) + len(group), *stored.shape[1:]))
            block[: len(stored)] = stored
            for i, doc in enumerate(group):
                doc.fill_atom_array(block[len(stored) + i])
            self._rows.update((doc, (n, len(stored) + i)) for i, doc in enumerate(group))
            self._blocks[n] = block
        return np.array([self._rows[doc] for doc in docs], dtype=np.intp).reshape(-1, 2)

    def ground(self, rows: np.ndarray, bodies: np.ndarray, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """Grounding values of many entries in one chunked gather per block.

        ``rows`` holds each entry's (entity count, block row), as the method
        ``rows`` gives them, and ``bodies`` one body per entry as a row of
        relation ids padded with -1.  Entity ids outside a document read as
        0, as in ``ground_body_value``.  No witness paths are traced.
        """
        values = np.zeros(len(rows))
        for n, block in self._blocks.items():
            idx = np.flatnonzero((rows[:, 0] == n) & (heads >= 0) & (heads < n) & (tails >= 0) & (tails < n))
            values[idx] = ground_chain(block, rows[idx, 1], bodies[idx], heads[idx], tails[idx])
        return values

    def value_body(self, doc: Document, body: tuple[int, ...], h: int, t: int) -> float:
        """Grounding of one body between two entities: a one-entry gather."""
        return float(self.ground(self.rows([doc]), np.array([body]), np.array([h]), np.array([t]))[0])


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
    """The extractor weights while EM runs: the stored keys' codes and weights, as two arrays.

    A stored key is any key that has been a design column since the last
    reset; keys whose weight is exactly 0 stay, because their columns still
    enter the descent's sums.  Keys code as ints: a bias as ``-1 -
    relation``, a rule weight as ``id * R + relation`` for the rule id
    (``RuleGenerator.rule_ids``) and the R relation ids of the vocabulary, so
    a key's code never changes once its rule has an id.  ``codes`` holds the
    biases by relation, then the rule weights in (relation, body) order, the
    order of the design's stored columns, and ``values`` their weights.
    Memory: 16 bytes per stored key, whatever the number of relations and
    rule ids, and the ``core.CodeIndex`` that ``find`` builds on its first
    call: 8 bytes per code in the span ``[min code, max code]``, or, for a
    sparse span, per stored key.
    """

    def __init__(self, codes=(), values=()):
        self.codes = np.asarray(codes, dtype=np.intp)
        self.values = np.asarray(values, dtype=float)
        self._index: CodeIndex | None = None

    @classmethod
    def from_design(cls, codes: np.ndarray, w: np.ndarray, model: RuleGenerator) -> "TrainingWeights":
        """The design's column keys ``codes`` with their weights ``w``, in stored order."""
        biases, rules = np.flatnonzero(codes < 0), np.flatnonzero(codes >= 0)
        ids, relations = np.divmod(codes[rules], model.vocab.size)
        rank = model.body_rank()
        by_body = np.argsort(relations * len(rank) + rank[ids])  # (relation, body) order; the keys are unique
        at = np.concatenate([biases[np.argsort(-codes[biases])], rules[by_body]])
        return cls(codes[at], w[at])

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The position in ``codes`` of each of the codes ``keys``, -1 where it is not stored."""
        if self._index is None:
            self._index = CodeIndex(self.codes, len(keys))
        return self._index.find(keys)

    def to_extractor(self, model: RuleGenerator) -> ExtractorWeights:
        """The same keys and weights as ``ExtractorWeights``, one ``Rule`` per stored rule weight."""
        weights = ExtractorWeights()
        for code, value in zip(self.codes.tolist(), self.values.tolist()):
            if code < 0:
                weights.bias[-1 - code] = value
            else:
                i, relation = divmod(code, model.vocab.size)
                weights.rule_weight[relation, model.rule_at(relation, i)] = value
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
    keys = np.concatenate([-1 - relations, draws.support * model.vocab.size + relations[owner]])
    stored = np.append(weights.values, 0.0)[weights.find(keys)]  # position -1 reads the appended 0.0
    bias, w = stored[: len(instances)], stored[len(instances) :]
    extract = np.zeros(len(w))
    nz = np.flatnonzero(w)
    if nz.size:
        values = draws.values[nz] if draws.values is not None else _ground_draws(cache, corpus, draws, model, nz)
        extract[nz] = w[nz] * values
    h_values = draws.log_priors + (labels / 2.0)[owner] * ((bias / n_rules)[owner] + extract)
    return Posteriors(relations, draws.sizes, draws.support, h_values, _row_softmax(h_values, draws.sizes))


def m_step_generator(posteriors: Posteriors, model: RuleGenerator, n_rules: int) -> float:
    """Refit the generator on posterior-weighted rules, grouped by query relation, and return l_g.

    Count additivity makes the per-head aggregate equivalent to one
    ``fit_weighted`` call per instance.  Each head's weights sum per rule id
    in row order, from 0.0, in one ``bincount``, and the nonzero sums refit in
    body order (``RuleGenerator.body_rank``).  l_g is the mean
    over instances of N times the posterior-weighted log-prior of their
    rules.  A refit changes only its own head, so each head's log-priors come
    from one ``log_probs_by_index`` call right after its refit.  The rows'
    dot products run as one stacked ``matmul`` per row length, each equal to
    the row's own ``weights @ log_probs``.
    """
    if not len(posteriors.sizes):
        raise ValueError("no posteriors to fit the generator on")
    heads = np.repeat(posteriors.relations, posteriors.sizes)
    by_head = np.argsort(heads, kind="stable")  # each head's entries, in row order
    table, rank = model.body_table(), model.body_rank()
    log_probs = np.empty(len(heads))
    starts = np.flatnonzero(np.diff(heads[by_head], prepend=-1))
    for head, mine in zip(heads[by_head[starts]].tolist(), np.split(by_head, starts[1:])):
        acc = np.bincount(posteriors.indices[mine], posteriors.weights[mine], minlength=len(table))
        nonzero = np.flatnonzero(acc)
        nonzero = nonzero[np.argsort(rank[nonzero])]
        model.fit_bodies(head, table[nonzero], acc[nonzero])
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
    result = fit_design(design, np.append(weights.values, np.zeros(len(design.keys) - len(weights.values))), fit_config)
    predicted = result.final_scores > 0
    actual = result.labels > 0
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    trained = TrainingWeights.from_design(design.keys, result.w, model)
    samples = draws if mode == "sample" else None
    return MStepResult(trained, result.losses, result.data_log_likelihood, prf(tp, fp, fn).f1, samples)


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
    """Feature build over rule ids, with the keys' codes (see ``TrainingWeights``) as column keys.

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
    per_row = draws.sizes + 1
    bias_at = np.cumsum(per_row) - 1
    is_rule = np.ones(int(per_row.sum()), dtype=bool)
    is_rule[bias_at] = False
    codes = np.empty(is_rule.size, dtype=np.intp)
    codes[is_rule] = draws.support * model.vocab.size + np.repeat(relations, draws.sizes)
    codes[bias_at] = -1 - relations
    cols = weights.find(codes)
    new = cols < 0
    # The new keys, numbered in the order they first appear.
    new_codes, number = distinct(codes[new])
    first = np.full(len(new_codes), len(number))
    np.minimum.at(first, number, np.arange(len(number)))
    appearance = np.argsort(first)  # the first positions are distinct
    rank = np.empty_like(appearance)
    rank[appearance] = np.arange(len(appearance))
    cols[new] = len(weights.codes) + rank[number]
    columns = np.concatenate([weights.codes, new_codes[appearance]])
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
    relations = [inst.relation for inst in corpus.instances]
    carried: Draws | None = None

    def update_extractor(weights: TrainingWeights, mode: str) -> MStepResult:
        return m_step_extractor(corpus, model, weights, config.fit, rng, n_rules=config.n_rules, mode=mode,
                                beam=config.beam, cache=cache, reset=mode != config.train_ruleset_mode)

    for iteration in range(1, config.iterations + 1):
        mode = config.inference_mode if iteration == config.iterations else config.train_ruleset_mode
        try:
            # The previous extractor update's freshly sampled rule sets came
            # from the same prior this E-step targets, so they serve as its
            # draws, grounded already.
            draws = carried if carried is not None else draw_all_rules(model, relations, config.n_rules, rng)
            posteriors = e_step(corpus, draws, model, weights, config.n_rules, cache)
            l_g = m_step_generator(posteriors, model, config.n_rules)
            m_result = update_extractor(weights, mode)
            weights = m_result.weights
        except Exception as exc:
            raise RuntimeError(f"EM iteration {iteration} failed: {exc}") from exc
        diagnostics.append(
            IterationStats(iteration, l_g, m_result.l_r, m_result.train_f1, m_result.losses)
        )
        carried = m_result.samples
        current = l_g + m_result.l_r
        if previous is not None and abs(current - previous) < config.convergence_eps:
            break
        previous = current
    if mode != config.inference_mode:  # stopped early, on training rule sets
        weights = update_extractor(weights, config.inference_mode).weights
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


class InferenceTerms(NamedTuple):
    """The terms that score some head relations, read once from their rule sets and the weights.

    Head ``heads[i]`` has the bias ``bias[i]`` and the terms
    ``starts[i]:starts[i + 1]``: one per distinct rule of its rule set with a
    nonzero weight, in rule-set order.  Term k is ``rules[k]`` with
    ``multiplicity[k]`` and ``weight[k]``, the coefficient ``coef[k]`` (their
    product), the row ``body[k]`` of the distinct-body table ``bodies``
    (relation ids padded with -1), its text ``texts[k]`` (``format_rule``)
    and the rank ``rank[k]`` of that text among all the terms' texts.
    """

    heads: np.ndarray
    bias: np.ndarray
    starts: np.ndarray
    rules: tuple[Rule, ...]
    multiplicity: tuple[int, ...]
    weight: tuple[float, ...]
    coef: np.ndarray
    body: np.ndarray
    texts: tuple[str, ...]
    rank: np.ndarray
    bodies: np.ndarray


def inference_terms(
    rulesets: Mapping[int, RuleSet], weights: ExtractorWeights, vocab: RelationVocab
) -> InferenceTerms:
    """The scoring terms of each head relation's rule set, one weight lookup per distinct rule."""
    heads, bias, starts = [], [], [0]
    rules, multiplicity, weight, body = [], [], [], []
    row_of: dict[tuple[int, ...], int] = {}
    for relation, ruleset in rulesets.items():
        for rule, count in ruleset.counts().items():
            if rule.head != relation:
                raise ValueError(f"rule head {rule.head} does not match query relation {relation}")
            value = weights.get_rule_weight(relation, rule)
            if value != 0.0:
                rules.append(rule)
                multiplicity.append(count)
                weight.append(value)
                body.append(row_of.setdefault(rule.body, len(row_of)))
        heads.append(relation)
        bias.append(weights.get_bias(relation))
        starts.append(len(rules))
    texts = [format_rule(rule, vocab) for rule in rules]
    rank = np.empty(len(texts), dtype=np.intp)
    rank[sorted(range(len(texts)), key=texts.__getitem__)] = np.arange(len(texts))
    return InferenceTerms(
        np.array(heads, dtype=np.intp),
        np.array(bias, dtype=float),
        np.array(starts, dtype=np.intp),
        tuple(rules),
        tuple(multiplicity),
        tuple(weight),
        np.array([m * w for m, w in zip(multiplicity, weight)], dtype=float),
        np.array(body, dtype=np.intp),
        tuple(texts),
        rank,
        pad_bodies(list(row_of), max((len(b) for b in row_of), default=1)),
    )


def all_pairs_stack(atoms: np.ndarray, bodies: np.ndarray) -> np.ndarray:
    """All-pairs groundings of many bodies on one document's ``atom_array``, shape ``(len(bodies), n, n)``.

    ``bodies`` holds one body per row, relation ids padded with -1.  Row k
    equals ``ground_rule_all_pairs`` of body k bit for bit: the bodies of one
    length chain their relation matrices together, left to right, through
    ``_max_product``, with temporaries near ``GATHER_CELLS * 8`` bytes.
    """
    n = atoms.shape[1]
    _check_relations(atoms, bodies)
    stack = np.empty((len(bodies), n, n))
    for length, idx in _chunks_by_length(np.count_nonzero(bodies >= 0, axis=1), n):
        mats = atoms[bodies[idx, 0]]
        for pos in range(1, length):
            mats = _max_product(mats, atoms[bodies[idx, pos]])
        stack[idx] = mats
    return stack


def _check_relations(atoms: np.ndarray, bodies: np.ndarray) -> None:
    if bodies.size and bodies.max() >= atoms.shape[0]:
        raise ValueError(f"relation id out of range: {int(bodies.max())}")


def score_document(stack: np.ndarray, terms: InferenceTerms) -> np.ndarray:
    """Logits ``[i, h, t]`` of head ``heads[i]`` from the document's ``all_pairs_stack`` of ``terms.bodies``.

    Each head adds its terms' ``coef[k] * stack[body[k]]`` to its bias in
    rule-set order, one position at a time for every head at once, so the
    stack is the only per-term array and the temporaries are a few (H, n, n).
    """
    n = stack.shape[1]
    logits = np.repeat(terms.bias, n * n).reshape(len(terms.bias), n, n)
    sizes = np.diff(terms.starts)
    for position in range(int(sizes.max(initial=0))):
        rows = np.flatnonzero(sizes > position)
        k = terms.starts[rows] + position
        logits[rows] += terms.coef[k, None, None] * stack[terms.body[k]]
    return logits


def _term_entries(terms: InferenceTerms, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (triple, term) entries of triples of the heads ``heads[rows]``: each triple's terms, triple after triple."""
    counts = np.diff(terms.starts)[rows]
    owner = np.repeat(np.arange(len(rows)), counts)
    return owner, np.arange(counts.sum()) + np.repeat(terms.starts[rows] - (np.cumsum(counts) - counts), counts)


def _fired(
    atoms: np.ndarray,
    terms: InferenceTerms,
    rows: np.ndarray,
    hs: np.ndarray,
    ts: np.ndarray,
    groundings: np.ndarray,
    top: int | None,
) -> list[tuple[RuleContribution, ...]]:
    """The rules that fired for each triple ``(hs[p], heads[rows[p]], ts[p])`` of one document.

    ``groundings`` holds the value of each entry of ``_term_entries(terms,
    rows)``: term k's body grounded at its triple.  A triple's entries are its
    head's terms k whose contribution ``coef[k] * grounding`` is nonzero,
    ordered by decreasing contribution and then by text; the first ``top`` of
    them (all when ``top`` is None) are returned, each with its grounding and
    witness path.  All the triples' entries sort in one pass, and one
    ``ground_chain`` call on ``atoms`` traces their paths.
    """
    owner, term = _term_entries(terms, rows)
    h, t = hs[owner], ts[owner]
    values = terms.coef[term] * groundings
    entries = np.flatnonzero(values)
    entries = entries[np.lexsort((terms.rank[term[entries]], -values[entries], owner[entries]))]
    if top is not None:
        ranked = np.arange(len(entries)) - np.searchsorted(owner[entries], owner[entries])
        entries = entries[ranked < top]
    fired: list[list[RuleContribution]] = [[] for _ in range(len(rows))]
    groundings, paths = ground_chain(atoms[None], np.zeros(len(entries), dtype=np.intp),
                                     terms.bodies[terms.body[term[entries]]], h[entries], t[entries], _paths=True)
    columns = (owner[entries].tolist(), term[entries].tolist(), groundings.tolist(), values[entries].tolist(), paths)
    for p, k, grounding, contribution, path in zip(*columns):
        rule = terms.rules[k]
        fired[p].append(RuleContribution(rule, terms.weight[k], grounding, terms.multiplicity[k], path, contribution))
    return [tuple(items) for items in fired]


def explain_document(
    doc: Document, terms: InferenceTerms, top: int | None = None
) -> dict[tuple[int, int, int], InferenceResult]:
    """The positive predictions over all ordered entity pairs (h != t) of one document, each explained.

    A triple is positive when its probability is above 0.5.  Each result
    holds the first ``top`` of its contributions (all when ``top`` is None),
    as ``explain`` gives them; ``top=0`` skips the explanations.
    """
    atoms = doc.atom_array()
    stack = all_pairs_stack(atoms, terms.bodies)
    logits = score_document(stack, terms)
    n = doc.num_entities
    rows, hs, ts = np.nonzero((logits > 0) & ~np.eye(n, dtype=bool))
    probabilities = np.array([prob(1, logit) for logit in logits[rows, hs, ts].tolist()])
    positive = probabilities > 0.5
    rows, hs, ts = rows[positive], hs[positive], ts[positive]
    if top != 0:
        owner, term = _term_entries(terms, rows)
        fired = _fired(atoms, terms, rows, hs, ts, stack[terms.body[term], hs[owner], ts[owner]], top)
    else:
        fired = [()] * len(rows)
    columns = (hs, terms.heads[rows], ts, probabilities[positive], logits[rows, hs, ts])
    return {
        (h, relation, t): InferenceResult(1, p, logit, contributions)
        for (h, relation, t, p, logit), contributions in zip(zip(*(c.tolist() for c in columns)), fired)
    }


def explain(
    doc: Document,
    query: tuple[int, int, int],
    ruleset: RuleSet,
    weights: ExtractorWeights,
    vocab: RelationVocab,
    top: int | None = None,
) -> InferenceResult:
    """Score one query against a rule multiset and explain it by the rules that fired.

    One ``ground_chain`` call on the document's atom array grounds the
    distinct bodies at (h, t) alone.  The logit is the bias plus
    ``multiplicity * weight * grounding`` of every rule with a nonzero
    weight, added in rule-set order as ``score_document`` adds them, so it
    equals ``predict_document``'s score bit for bit.  The label is 1 when
    the probability is above 0.5.  Contributions list the rules whose term
    is nonzero, ordered by decreasing contribution and then by rule text;
    only the first ``top`` of them (all when ``top`` is None) are returned,
    each with its witness path.  An entity id outside the document raises
    ``ValueError``, as in ``ground_rule``.
    """
    h, relation, t = query
    if not (0 <= h < doc.num_entities and 0 <= t < doc.num_entities):
        raise ValueError(f"entity id out of range: ({h}, {t}) in doc {doc.doc_id}")
    terms = inference_terms({relation: ruleset}, weights, vocab)
    atoms = doc.atom_array()
    _check_relations(atoms, terms.bodies)
    row = np.zeros(len(terms.bodies), dtype=np.intp)
    groundings = ground_chain(atoms[None], row, terms.bodies, row + h, row + t)[terms.body]
    logit = float(terms.bias[0])
    for value in (terms.coef * groundings).tolist():
        logit += value
    probability = prob(1, logit)
    (contributions,) = _fired(atoms, terms, np.zeros(1, dtype=np.intp), np.array([h]), np.array([t]), groundings, top)
    return InferenceResult(1 if probability > 0.5 else -1, probability, logit, contributions)


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
    score's.  Each call draws them afresh; to explain many queries, build
    ``inference_terms`` of ``inference_rulesets`` once and call
    ``explain_document``, as ``rulex infer`` does with the rule sets that
    ``rulex train`` wrote.  An unknown relation id raises ``ValueError``.
    """
    model.vocab.check_relation(query[1])
    rulesets = inference_rulesets(model, model.vocab, config, rng)
    return explain(doc, query, rulesets[query[1]], weights, model.vocab)


def inference_rulesets(
    model: RuleGenerator,
    vocab: RelationVocab,
    config: EMConfig,
    rng: np.random.Generator | None = None,
) -> dict[int, RuleSet]:
    """The rule multiset per head relation that inference scores against.

    ``rulex train`` calls this once, with a fresh ``default_rng(config.seed)``,
    and writes the result to the run directory's ``rules.txt``; ``rulex
    infer`` reads that file and never loads the generator.
    """
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
    rulesets: Mapping[int, RuleSet] | None = None,
) -> dict[tuple[int, int, int], float]:
    """Positive predictions over all ordered entity pairs (h != t) of one document, with their probabilities.

    Builds the scoring terms at each call; to predict many documents, build
    ``inference_terms`` once and call ``explain_document``.
    """
    if rulesets is None:
        rulesets = inference_rulesets(model, vocab, config, rng)
    terms = inference_terms(rulesets, weights, vocab)
    return {query: result.probability for query, result in explain_document(doc, terms, top=0).items()}
