"""Autoregressive rule generator with interpolated backoff smoothing.

Rule bodies are generated token by token conditioned on the query's relation
type.  The conditional at each position interpolates smoothed categorical
estimates over context windows of depth 0..k, so unseen contexts back off
gracefully toward shorter histories.  Two hard structural constraints apply:
the termination token is forbidden as the first body token (bodies are
non-empty) and forced once the body reaches the maximum rule length.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .core import DEFAULT_MAX_RULE_LEN, RelationVocab, Rule, RuleSet, pad_bodies

# Above this many enumerable bodies per head, ruleset sampling falls back to
# token-wise ancestral draws instead of one multinomial over the rule space,
# and rule ids are interned in first-seen order instead of enumerated.
ENUM_LIMIT = 100_000


class RuleGenerator:
    """Backoff-interpolated categorical model over rule bodies, one prior per head relation."""

    def __init__(
        self,
        vocab: RelationVocab,
        *,
        order: int = 2,
        alpha: float = 0.1,
        lambdas: Sequence[float] = (0.6, 0.3, 0.1),
        max_len: int = DEFAULT_MAX_RULE_LEN,
    ):
        if order < 0:
            raise ValueError("order must be >= 0")
        if alpha <= 0:
            raise ValueError("smoothing alpha must be positive")
        if len(lambdas) != order + 1:
            raise ValueError(f"need {order + 1} interpolation weights for depths {order}..0")
        if any(w <= 0 for w in lambdas):
            raise ValueError("interpolation weights must be positive")
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        self.vocab = vocab
        self.order = order
        self.alpha = float(alpha)
        # lambdas are given deepest-first; store per depth index for lookup.
        self.lambda_by_depth = tuple(float(lambdas[order - d]) for d in range(order + 1))
        self.max_len = max_len
        # (head, context tuple) -> count vector over relation ids + STOP.
        self.counts: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
        self._enum_cache: dict[int, "_EnumeratedHead"] = {}
        self._space: _RuleSpace | None = None
        self._rules: dict[int, dict[int, Rule]] = {}
        size = vocab.size
        self._supports = (np.arange(size), np.arange(size + 1))
        self._uniforms = (np.full(size, 1.0 / size), np.full(size + 1, 1.0 / (size + 1)))
        self._stop_dist = (np.array([vocab.stop_id]), np.array([1.0]))
        # Normalized interpolation weights per position over the usable depths.
        self._depth_weights: list[tuple[tuple[int, float], ...]] = []
        for position in range(max_len):
            depths = range(min(position, order) + 1)
            total = sum(self.lambda_by_depth[d] for d in depths)
            self._depth_weights.append(tuple((d, self.lambda_by_depth[d] / total) for d in depths))
        self._enum_size = 0
        for length in range(1, max_len + 1):
            self._enum_size += size**length
            if self._enum_size > ENUM_LIMIT:
                break

    # -- conditionals -----------------------------------------------------

    def conditional(self, head: int, prefix: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Next-token distribution after ``prefix``; returns (support ids, probabilities).

        STOP is excluded from the support at position 0 and is a point mass
        at ``max_len``.  Callers must not mutate the returned arrays.
        """
        position = len(prefix)
        if position >= self.max_len:
            return self._stop_dist
        first = position == 0
        support = self._supports[0 if first else 1]
        width = len(support)
        probs = None
        uniform_mass = 0.0
        for d, w in self._depth_weights[position]:
            vec = self.counts.get((head, prefix[position - d :]))
            if vec is None:
                uniform_mass += w  # untouched context: smoothing alone gives the uniform
                continue
            c = vec[:width]
            if probs is None:
                probs = np.zeros(width)
            probs += w * (c + self.alpha) / (c.sum() + self.alpha * width)
        if probs is None:
            return support, self._uniforms[0 if first else 1]
        if uniform_mass:
            probs += uniform_mass / width
        return support, probs

    def conditionals(self, head: int, prefixes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``conditional`` for every row of ``prefixes``, an int array of equal-length prefixes.

        Returns (support ids, probabilities with one row per prefix).  Each
        depth's context is coded as a base-``size`` int, and each distinct
        context's count row and its sum are read once.  Per element the
        arithmetic is ``conditional``'s, in the same order: the depth terms
        accumulate in depth order, then the uniform mass of the untouched
        depths is added.
        """
        prefixes = np.asarray(prefixes, dtype=np.intp)
        if prefixes.ndim != 2:
            raise ValueError("prefixes must be a 2-D array, one prefix per row")
        n, position = prefixes.shape
        if position >= self.max_len:
            return self._stop_dist[0], np.ones((n, 1))
        first = position == 0
        support = self._supports[0 if first else 1]
        width = len(support)
        size, alpha = self.vocab.size, self.alpha
        probs = np.zeros((n, width))
        uniform_mass = np.zeros(n)
        seen = np.zeros(n, dtype=bool)
        for d, w in self._depth_weights[position]:
            contexts = prefixes[:, position - d :]
            codes = np.zeros(n, dtype=np.intp)
            for j in range(d):
                codes = codes * size + contexts[:, j]
            _, where, inverse = np.unique(codes, return_index=True, return_inverse=True)
            vecs = [self.counts.get((head, tuple(context))) for context in contexts[where].tolist()]
            present = np.array([vec is not None for vec in vecs], dtype=bool)
            rows = np.zeros((len(vecs), width))
            totals = np.zeros(len(vecs))
            if present.any():
                # Row sums along the contiguous axis: each equals ``c.sum()`` of its row.
                rows[present] = np.array([vec for vec in vecs if vec is not None])[:, :width]
                totals[present] = rows[present].sum(axis=1)
            hit = present[inverse]
            terms = w * (rows + alpha) / (totals + alpha * width)[:, None]
            probs[hit] += terms[inverse[hit]]
            uniform_mass[~hit] += w
            seen |= hit
        probs[~seen] = 1.0 / width
        spread = seen & (uniform_mass != 0.0)
        probs[spread] += (uniform_mass[spread] / width)[:, None]
        return support, probs

    def log_prob(self, head: int, body: Sequence[int]) -> float:
        """Log-probability of a complete rule body, including its termination event."""
        self.vocab.check_relation(head)
        body = tuple(body)
        if not 1 <= len(body) <= self.max_len:
            raise ValueError(f"body length {len(body)} outside [1, {self.max_len}]")
        for r in body:
            self.vocab.check_relation(r)
        total = 0.0
        for i, token in enumerate(body):
            _, probs = self.conditional(head, body[:i])
            total += math.log(probs[token])  # support ids are positional
        if len(body) < self.max_len:
            _, probs = self.conditional(head, body)
            total += math.log(probs[self.vocab.stop_id])
        return total

    # -- sampling ----------------------------------------------------------

    def sample_rule(self, head: int, rng: np.random.Generator) -> Rule:
        """Draw one rule token by token from the conditionals."""
        return Rule(head, self._draw_body(head, rng)[0])

    def _draw_body(self, head: int, rng: np.random.Generator) -> tuple[tuple[int, ...], float]:
        """One body drawn token by token, with its log-probability.

        The draw reads every conditional that ``log_prob`` reads for the body
        it draws, so it adds ``math.log`` of each drawn probability left to
        right, termination included, and the total equals ``log_prob``'s.
        """
        self.vocab.check_relation(head)
        body: list[int] = []
        total = 0.0
        while True:
            support, probs = self.conditional(head, tuple(body))
            i = np.searchsorted(np.cumsum(probs), rng.random(), side="right")
            token = int(support[i])
            total += math.log(probs[i])
            if token == self.vocab.stop_id:
                break
            body.append(token)
            if len(body) == self.max_len:
                break
        return tuple(body), total

    def sample_ruleset(self, head: int, n: int, rng: np.random.Generator) -> RuleSet:
        """Draw N independent rules for one head relation.

        On enumerable vocabularies the body distribution is materialized once
        and sampled with a single multinomial pass, which is distributionally
        identical to ancestral sampling and much faster for repeated calls.
        """
        if n < 1:
            raise ValueError("ruleset size must be >= 1")
        enum = self._enumeration(head)
        if enum is not None:
            idx = np.searchsorted(enum.cdf, rng.random(n), side="right")
            return RuleSet([self.rule_at(head, int(i)) for i in idx])
        return RuleSet([self.sample_rule(head, rng) for _ in range(n)])

    def sample_unique_indices(
        self, head: int, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw N rules, deduplicated, as rule ids (see ``rule_ids``).

        Returns (unique ids in body order, multiplicities summing to N, log-probs).
        """
        uidx, counts, log_probs, _ = self.sample_unique_index_rows([head], n, rng)
        return uidx, counts, log_probs

    def sample_unique_index_rows(
        self, heads: Sequence[int], n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``sample_unique_indices(head, n, rng)`` for each head in turn, in one pass.

        Returns the rows' unique ids, multiplicities and log-probs
        concatenated, plus the number of unique ids per row.  When the space
        is enumerable, row i draws N ids by inverse-CDF lookup of N uniforms,
        then deduplicates them after a sort.  The uniforms come from one
        ``rng.random((len(heads), n))`` call, which reads the same stream as
        one ``rng.random(n)`` call per head and leaves ``rng`` in the same
        state.  Past ``ENUM_LIMIT`` each row is one ``sample_unique_rules``
        draw, interned.
        """
        heads = np.asarray(heads, dtype=np.intp)
        if self.enumerable_size() > ENUM_LIMIT:
            rows = [self.sample_unique_rules(head, n, rng) for head in heads.tolist()]
            return (
                self.rule_ids([rule.body for rules, _, _ in rows for rule in rules]),
                np.array([c for _, counts, _ in rows for c in counts.tolist()], dtype=np.intp),
                np.array([lp for _, _, log_probs in rows for lp in log_probs.tolist()], dtype=float),
                np.array([len(rules) for rules, _, _ in rows], dtype=np.intp),
            )
        enums = {int(head): self._enumeration(int(head)) for head in np.unique(heads)}
        uniforms = rng.random((len(heads), n))
        idx = np.empty(uniforms.shape, dtype=np.intp)
        for head, enum in enums.items():
            rows = heads == head
            idx[rows] = np.searchsorted(enum.cdf, uniforms[rows], side="right")
        idx.sort(axis=1)
        first = np.ones(idx.shape, dtype=bool)
        first[:, 1:] = idx[:, 1:] != idx[:, :-1]
        uidx = idx[first]
        counts = np.diff(np.append(np.flatnonzero(first), idx.size))
        sizes = np.count_nonzero(first, axis=1)
        owners = np.repeat(heads, sizes)
        log_probs = np.empty(len(uidx))
        for head, enum in enums.items():
            entries = owners == head
            log_probs[entries] = enum.log_probs[uidx[entries]]
        return uidx, counts, log_probs, sizes

    def sample_unique_rules(
        self, head: int, n: int, rng: np.random.Generator
    ) -> tuple[list[Rule], np.ndarray, np.ndarray]:
        """Draw N rules and return (unique rules in body order, multiplicities, log-probs).

        Multiplicities sum to N.  The unique-rule ordering is canonical
        (lexicographic bodies) so downstream consumers are deterministic.
        Past ``ENUM_LIMIT`` the draws are ancestral, and each body's
        log-probability is summed while it is drawn (see ``_draw_body``).
        """
        if n < 1:
            raise ValueError("ruleset size must be >= 1")
        if self._enumeration(head) is not None:
            uidx, counts, log_probs = self.sample_unique_indices(head, n, rng)
            return [self.rule_at(head, int(i)) for i in uidx], counts, log_probs
        drawn = [self._draw_body(head, rng) for _ in range(n)]
        multiplicity = Counter(body for body, _ in drawn)
        log_prob_of = dict(drawn)
        bodies = sorted(log_prob_of)
        counts = np.array([multiplicity[body] for body in bodies])
        log_probs = np.array([log_prob_of[body] for body in bodies])
        return [Rule(head, body) for body in bodies], counts, log_probs

    def _rule_space(self) -> "_RuleSpace":
        if self._space is None:
            self._space = _RuleSpace(self.vocab.size, self.max_len, self.enumerable_size() <= ENUM_LIMIT)
        return self._space

    def rule_ids(self, bodies: Iterable[tuple[int, ...]]) -> np.ndarray:
        """Ids of many bodies in the generator's rule-id space, the same for every head.

        When the space is enumerable the ids are enumeration indices.  Past
        ``ENUM_LIMIT`` a body not seen before is interned with the next id,
        so ids follow first-seen order.
        """
        return self._rule_space().ids(list(bodies))

    def bodies_at(self, head: int, indices) -> list[tuple[int, ...]]:
        bodies = self._rule_space().bodies
        return [bodies[i] for i in indices]

    def rule_at(self, head: int, index: int) -> Rule:
        """The rule with id ``index``, built once per head and id.

        Ids do not depend on the counts, so one rule object serves the
        generator's whole lifetime.
        """
        rules = self._rules.get(head)
        if rules is None:
            self.vocab.check_relation(head)
            rules = self._rules[head] = {}
        rule = rules.get(index)
        if rule is None:
            rule = rules[index] = Rule(head, self._rule_space().bodies[index])
        return rule

    def body_table(self) -> np.ndarray:
        """Every body with an id, as row ``id`` of relation ids padded with -1.

        One table serves every head.  Past ``ENUM_LIMIT`` it grows as bodies
        are interned.
        """
        return self._rule_space().table

    def log_probs_by_index(self, head: int, indices: np.ndarray) -> np.ndarray:
        """Log-probabilities of the rules with the given ids.

        Past ``ENUM_LIMIT`` each distinct id is scored once, all in one batch.
        """
        enum = self._enumeration(head)
        if enum is None:
            unique, inverse = np.unique(np.asarray(indices, dtype=np.intp), return_inverse=True)
            return self._body_log_probs(head, self.body_table()[unique])[inverse]
        return enum.log_probs[indices]

    def _body_log_probs(self, head: int, bodies: np.ndarray) -> np.ndarray:
        """``log_prob`` of every row of ``bodies``, bit for bit.

        The rows are valid bodies, relation ids padded with -1 to at most
        ``max_len`` columns; they are not checked again.  Position by
        position, one ``conditionals`` call scores the next token of every
        body still running, or its termination where it ends below
        ``max_len``, and ``math.log`` of each chosen probability is added to
        the body's total left to right, as ``log_prob`` adds them.
        """
        self.vocab.check_relation(head)
        padded = np.full((len(bodies), self.max_len + 1), -1, dtype=np.intp)
        padded[:, : np.shape(bodies)[1]] = bodies
        lengths = np.count_nonzero(padded >= 0, axis=1)
        totals = np.zeros(len(padded))
        for position in range(self.max_len):
            rows = np.flatnonzero(lengths >= position)
            if not len(rows):
                break
            _, probs = self.conditionals(head, padded[rows, :position])
            tokens = np.where(lengths[rows] > position, padded[rows, position], self.vocab.stop_id)
            chosen = probs[np.arange(len(rows)), tokens].tolist()
            totals[rows] += np.fromiter(map(math.log, chosen), dtype=float, count=len(rows))
        return totals

    # -- deterministic inference -------------------------------------------

    def top_rules(self, head: int, n: int, beam: int) -> RuleSet:
        """The N most probable complete rules found by beam search over bodies.

        Ties break by lexicographic body order.  When the beam exhausts fewer
        than N distinct rules, the result is padded by repeating the best one
        so the multiset size stays exactly N.  The beam is an int array of
        prefixes, extended through ``conditionals``; each candidate's score is
        its prefix's score plus ``math.log`` of its probability.
        """
        if beam < n:
            raise ValueError(f"beam width {beam} smaller than requested rule count {n}")
        self.vocab.check_relation(head)
        frontier = np.zeros((1, 0), dtype=np.intp)  # one prefix per row
        scores = np.zeros(1)
        completed: list[tuple[float, tuple[int, ...]]] = []
        for _ in range(self.max_len + 1):
            support, probs = self.conditionals(head, frontier)
            logs = np.fromiter(map(math.log, probs.ravel().tolist()), dtype=float, count=probs.size)
            candidates = scores[:, None] + logs.reshape(probs.shape)
            stops = support == self.vocab.stop_id
            if stops.any():  # never at position 0, so every completed body is non-empty
                completed.extend(zip(candidates[:, stops.argmax()].tolist(), map(tuple, frontier.tolist())))
            tokens = support[~stops]
            if not len(tokens):
                break
            candidates = candidates[:, ~stops].ravel()
            grown = np.column_stack([np.repeat(frontier, len(tokens), axis=0), np.tile(tokens, len(frontier))])
            keep = np.lexsort((*grown.T[::-1], -candidates))[:beam]  # by (-score, prefix)
            frontier, scores = grown[keep], candidates[keep]
        completed.sort(key=lambda item: (-item[0], item[1]))
        best = [Rule(head, body) for _, body in completed[:n]]
        while len(best) < n:
            best.append(best[0])
        return RuleSet(best)

    # -- fitting -----------------------------------------------------------

    def fit_weighted(self, head: int, weighted_rules: Iterable[tuple[Rule, float]]) -> "RuleGenerator":
        """Add weighted counts for every (context, next-token) event of each rule.

        Rules count in the given order (see ``fit_bodies``).  Requires at
        least one strictly positive, finite weight.
        """
        self.vocab.check_relation(head)
        bodies, weights = [], []
        for rule, weight in weighted_rules:
            if not math.isfinite(weight) or weight < 0:
                raise ValueError(f"bad rule weight {weight!r}")
            if rule.head != head:
                raise ValueError(f"rule head {rule.head} does not match fit head {head}")
            if len(rule.body) > self.max_len:
                raise ValueError(f"rule body longer than max_len {self.max_len}")
            bodies.append(rule.body)
            weights.append(weight)
        return self.fit_bodies(head, pad_bodies(bodies, self.max_len), np.array(weights, dtype=float))

    def fit_bodies(self, head: int, bodies: np.ndarray, weights: np.ndarray) -> "RuleGenerator":
        """Add weighted counts for every (context, next-token) event of each body.

        ``bodies`` holds one body per row, relation ids padded with -1, and
        ``weights`` one finite, non-negative weight per body, at least one of
        them positive.  The termination event counts only when termination
        was an actual choice: at maximum length it is forced and carries no
        information.  Zero-weight bodies add nothing, not even a context.

        All events go through one ``np.add.at`` into the touched contexts'
        count rows, in body order, so every count receives the same additions
        in the same order as one scalar update per event.
        """
        self.vocab.check_relation(head)
        size, max_len = self.vocab.size, self.max_len
        bodies = np.asarray(bodies, dtype=np.intp)
        weights = np.asarray(weights, dtype=float)
        if bodies.ndim != 2 or weights.shape != (len(bodies),):
            raise ValueError("need one weight per body row")
        bad = ~np.isfinite(weights) | (weights < 0)
        if bad.any():
            raise ValueError(f"bad rule weight {float(weights[np.argmax(bad)])!r}")
        lengths = np.count_nonzero(bodies >= 0, axis=1)
        padded = np.arange(bodies.shape[1]) >= lengths[:, None]
        if np.any((bodies < 0) != padded) or np.any(bodies >= size) or np.any(lengths < 1):
            raise ValueError("bodies must be non-empty rows of relation ids padded with -1")
        if np.any(lengths > max_len):
            raise ValueError(f"rule body longer than max_len {max_len}")
        if not np.any(weights > 0):
            raise ValueError("fit_weighted needs at least one positive weight")
        keep = weights > 0
        weights, lengths = weights[keep], lengths[keep]
        table = np.full((len(weights), max_len), -1, dtype=np.intp)
        table[:, : min(bodies.shape[1], max_len)] = bodies[keep, :max_len]
        bodies = table
        # One slot per (position, depth) event of a body, in the order the
        # body's events are counted; a context of depth d is coded as
        # offset[d] + its tokens read as base-``size`` digits.
        offsets = np.cumsum([0] + [size**d for d in range(self.order)])
        slots, codes, tokens, valid = [], [], [], []
        for position in range(max_len):
            token = np.where(position < lengths, bodies[:, position], self.vocab.stop_id)
            for d in range(min(position, self.order) + 1):
                code = np.full(len(bodies), offsets[d])
                for j in range(position - d, position):
                    code = code + bodies[:, j] * size ** (position - 1 - j)
                slots.append((position, d))
                codes.append(code)
                tokens.append(token)
                valid.append(position <= lengths)
        valid = np.stack(valid, axis=1)
        events = np.flatnonzero(valid)
        codes = np.stack(codes, axis=1)[valid]
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        # Count rows follow the contexts' first appearance, which is also the
        # order a new context enters ``counts``.
        appearance = np.argsort(first, kind="stable")
        row_of = np.empty(len(first), dtype=np.intp)
        row_of[appearance] = np.arange(len(first))
        keys = []
        block = np.zeros((len(first), size + 1))
        for row, event in enumerate(events[first[appearance]].tolist()):
            body, slot = divmod(event, len(slots))
            position, d = slots[slot]
            key = (head, tuple(bodies[body, position - d : position].tolist()))
            existing = self.counts.get(key)
            if existing is not None:
                block[row] = existing
            keys.append(key)
        np.add.at(
            block,
            (row_of[inverse], np.stack(tokens, axis=1)[valid]),
            np.broadcast_to(weights[:, None], valid.shape)[valid],
        )
        for key, row in zip(keys, block):
            self.counts[key] = row
        self._enum_cache.pop(head, None)
        return self

    # -- whole-space enumeration --------------------------------------------

    def enumerable_size(self) -> int:
        return self._enum_size

    def _enumeration(self, head: int) -> "_EnumeratedHead | None":
        if self.enumerable_size() > ENUM_LIMIT:
            return None
        enum = self._enum_cache.get(head)
        if enum is None:
            enum = _EnumeratedHead(self, head)
            self._enum_cache[head] = enum
        return enum

    def rule_log_probs(self, head: int, rules: Sequence[Rule]) -> np.ndarray:
        """Log-probabilities for a batch of same-head rules (enumeration-backed when possible)."""
        enum = self._enumeration(head)
        if enum is None:
            return np.array([self.log_prob(head, rule.body) for rule in rules])
        return enum.log_probs[self.rule_ids(rule.body for rule in rules)]

    def enumerate_rules(self, head: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """All valid bodies for a head with their probabilities (enumerable vocabularies only)."""
        enum = self._enumeration(head)
        if enum is None:
            raise ValueError("rule space too large to enumerate")
        return self._rule_space().bodies, np.exp(enum.log_probs)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {**self._settings(), "counts": {key: vec.tolist() for key, vec in self._count_items()}}

    def _settings(self) -> dict:
        return {
            "vocab": self.vocab.to_json(),
            "order": self.order,
            "alpha": self.alpha,
            "lambdas": [self.lambda_by_depth[self.order - i] for i in range(self.order + 1)],
            "max_len": self.max_len,
        }

    def _count_items(self) -> Iterable[tuple[str, np.ndarray]]:
        """(JSON key, float count vector) of every count context, in insertion order."""
        for (head, ctx), vec in self.counts.items():
            yield f"{head}|" + ",".join(str(t) for t in ctx), np.asarray(vec, dtype=float)

    @classmethod
    def from_json(cls, obj: dict) -> "RuleGenerator":
        model = cls(
            RelationVocab.from_json(obj["vocab"]),
            order=obj["order"],
            alpha=obj["alpha"],
            lambdas=obj["lambdas"],
            max_len=obj["max_len"],
        )
        for key, vec in obj["counts"].items():
            head_text, ctx_text = key.split("|", 1)
            ctx = tuple(int(t) for t in ctx_text.split(",")) if ctx_text else ()
            model.counts[(int(head_text), ctx)] = np.array(vec, dtype=float)
        return model

    def save(self, path) -> None:
        """Write ``json.dump(self.to_json(), fh, sort_keys=True)`` and a newline, streamed.

        The same bytes, without building ``to_json()``'s tree of Python
        floats: the counts are written one context at a time, in sorted key
        order, each vector through ``json.dumps``.
        """
        fields = self._settings()
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(sorted([*fields, "counts"])):
                fh.write(("{" if i == 0 else ", ") + json.dumps(name) + ": ")
                if name != "counts":
                    fh.write(json.dumps(fields[name], sort_keys=True))
                    continue
                fh.write("{")
                items = sorted(self._count_items(), key=itemgetter(0))
                for j, (key, vec) in enumerate(items):
                    fh.write((", " if j else "") + json.dumps(key) + ": " + json.dumps(vec.tolist()))
                fh.write("}")
            fh.write("}\n")

    @classmethod
    def load(cls, path) -> "RuleGenerator":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


class _RuleSpace:
    """The rule-id table: one body per id, the same ids for every head.

    When the space is enumerable, ids follow the enumeration order, which
    sorts bodies lexicographically.  It depends on neither the head nor the
    counts, so a generator builds it once.  ``order`` maps ids to positions
    in the generation order: the bodies of each length in turn, each length
    extending every body of the previous one by each relation id.  Past
    ``ENUM_LIMIT`` the table starts empty and ``ids`` interns bodies in
    first-seen order.
    """

    __slots__ = ("size", "max_len", "enumerated", "order", "bodies", "index", "table")

    def __init__(self, size: int, max_len: int, enumerated: bool):
        self.size, self.max_len, self.enumerated = size, max_len, enumerated
        self.order: list[int] = []
        self.bodies: list[tuple[int, ...]] = []
        if enumerated:
            levels: list[list[tuple[int, ...]]] = [[()]]
            for _ in range(max_len):
                levels.append([prefix + (x,) for prefix in levels[-1] for x in range(size)])
            generated = list(itertools.chain.from_iterable(levels[1:]))
            self.order = sorted(range(len(generated)), key=generated.__getitem__)
            self.bodies = [generated[i] for i in self.order]
        self.index = {body: i for i, body in enumerate(self.bodies)}
        self.table = pad_bodies(self.bodies, max_len)

    def ids(self, bodies: list[tuple[int, ...]]) -> np.ndarray:
        index = self.index
        try:
            return np.fromiter(map(index.__getitem__, bodies), dtype=np.intp, count=len(bodies))
        except KeyError as exc:
            if self.enumerated:
                raise ValueError(f"rule body {exc.args[0]!r} is not in the enumeration") from None
        new = [body for body in dict.fromkeys(bodies) if body not in index]
        for body in new:
            if not 1 <= len(body) <= self.max_len or not all(0 <= r < self.size for r in body):
                raise ValueError(f"bad rule body {body!r}")
        index.update(zip(new, range(len(self.bodies), len(self.bodies) + len(new))))
        self.bodies.extend(new)
        self.table = np.concatenate([self.table, pad_bodies(new, self.max_len)])
        return np.fromiter(map(index.__getitem__, bodies), dtype=np.intp, count=len(bodies))


class _EnumeratedHead:
    """One head's log-probabilities and sampling CDF over the enumeration order.

    Built level by level: each level's cumulative prefix log-probabilities
    extend by the next-token conditionals of all its prefixes at once, from
    one ``RuleGenerator.conditionals`` call.  A level lists its prefixes in
    generation order, which is counting in base ``size``.
    """

    __slots__ = ("log_probs", "cdf")

    def __init__(self, model: RuleGenerator, head: int):
        space = model._rule_space()
        size = model.vocab.size
        stop = model.vocab.stop_id
        log_chunks: list[np.ndarray] = []
        prefix_logs = np.zeros(1)
        for level in range(model.max_len):
            digits = size ** np.arange(level - 1, -1, -1)
            _, conds = model.conditionals(head, np.arange(size**level)[:, None] // digits % size)
            with np.errstate(divide="ignore"):
                log_conds = np.log(conds)
            if level > 0:
                log_chunks.append(prefix_logs + log_conds[:, stop])
            next_logs = prefix_logs[:, None] + log_conds[:, :size]
            prefix_logs = next_logs.ravel()
        log_chunks.append(prefix_logs)  # maximum-length bodies terminate with certainty
        self.log_probs = np.concatenate(log_chunks)[space.order]
        probs = np.exp(self.log_probs)
        cdf = np.cumsum(probs)
        cdf[-1] = max(cdf[-1], 1.0)  # guard the last bucket against rounding
        self.cdf = cdf
