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
from typing import Iterable, Sequence

import numpy as np

from .core import DEFAULT_MAX_RULE_LEN, RelationVocab, Rule, RuleSet, pad_bodies

# Above this many enumerable bodies per head, ruleset sampling falls back to
# token-wise ancestral draws instead of one multinomial over the rule space.
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
        self._events_cache: dict[tuple[int, ...], tuple] = {}
        self._body_table: np.ndarray | None = None
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
        self.vocab.check_relation(head)
        body: list[int] = []
        while True:
            support, probs = self.conditional(head, tuple(body))
            token = int(support[np.searchsorted(np.cumsum(probs), rng.random(), side="right")])
            if token == self.vocab.stop_id:
                break
            body.append(token)
            if len(body) == self.max_len:
                break
        return Rule(head, tuple(body))

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
            return RuleSet([enum.rule_at(head, int(i)) for i in idx])
        return RuleSet([self.sample_rule(head, rng) for _ in range(n)])

    def sample_ruleset_indices(self, head: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """Fast-path variant returning enumeration indices; requires an enumerable vocabulary."""
        enum = self._enumeration(head)
        if enum is None:
            raise ValueError("rule space too large to enumerate; use sample_ruleset")
        return np.searchsorted(enum.cdf, rng.random(n), side="right")

    def sample_unique_indices(
        self, head: int, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw N rules, deduplicated, as enumeration indices.

        Returns (sorted unique indices, multiplicities summing to N, log-probs).
        Requires an enumerable vocabulary.
        """
        enum = self._enumeration(head)
        if enum is None:
            raise ValueError("rule space too large to enumerate; use sample_unique_rules")
        idx = np.searchsorted(enum.cdf, rng.random(n), side="right")
        uidx, counts = np.unique(idx, return_counts=True)
        return uidx, counts, enum.log_probs[uidx]

    def sample_unique_rules(
        self, head: int, n: int, rng: np.random.Generator
    ) -> tuple[list[Rule], np.ndarray, np.ndarray]:
        """Draw N rules and return (unique rules in body order, multiplicities, log-probs).

        Multiplicities sum to N.  The unique-rule ordering is canonical
        (lexicographic bodies) so downstream consumers are deterministic.
        """
        if n < 1:
            raise ValueError("ruleset size must be >= 1")
        enum = self._enumeration(head)
        if enum is not None:
            uidx, counts, log_probs = self.sample_unique_indices(head, n, rng)
            rules = [enum.rule_at(head, int(i)) for i in uidx]
            return rules, counts, log_probs
        counts_map: dict[Rule, int] = {}
        for _ in range(n):
            rule = self.sample_rule(head, rng)
            counts_map[rule] = counts_map.get(rule, 0) + 1
        rules = sorted(counts_map, key=lambda rule: rule.body)
        counts = np.array([counts_map[rule] for rule in rules])
        log_probs = np.array([self.log_prob(head, rule.body) for rule in rules])
        return rules, counts, log_probs

    def _enum_or_raise(self, head: int) -> "_EnumeratedHead":
        enum = self._enumeration(head)
        if enum is None:
            raise ValueError("rule space too large to enumerate")
        return enum

    def body_at(self, head: int, index: int) -> tuple[int, ...]:
        return self._enum_or_raise(head).bodies[index]

    def bodies_at(self, head: int, indices) -> list[tuple[int, ...]]:
        bodies = self._enum_or_raise(head).bodies
        return [bodies[i] for i in indices]

    def enum_index(self, head: int, body: tuple[int, ...]) -> int:
        return self._enum_or_raise(head).index[body]

    def rule_at(self, head: int, index: int) -> Rule:
        return self._enum_or_raise(head).rule_at(head, index)

    def rules_at(self, head: int, indices) -> tuple[Rule, ...]:
        enum = self._enum_or_raise(head)
        return tuple(enum.rule_at(head, int(i)) for i in indices)

    def body_table(self) -> np.ndarray:
        """Every body in enumeration order, one row of relation ids padded with -1.

        Enumeration order sorts bodies lexicographically whatever the head,
        so one table serves every head.  Requires an enumerable vocabulary.
        """
        if self._body_table is None:
            if self.enumerable_size() > ENUM_LIMIT:
                raise ValueError("rule space too large to enumerate")
            lengths = range(1, self.max_len + 1)
            bodies = sorted(itertools.chain.from_iterable(
                itertools.product(range(self.vocab.size), repeat=n) for n in lengths
            ))
            self._body_table = pad_bodies(bodies, self.max_len)
        return self._body_table

    def log_probs_by_index(self, head: int, indices: np.ndarray) -> np.ndarray:
        return self._enum_or_raise(head).log_probs[indices]

    # -- deterministic inference -------------------------------------------

    def top_rules(self, head: int, n: int, beam: int) -> RuleSet:
        """The N most probable complete rules found by beam search over bodies.

        Ties break by lexicographic body order.  When the beam exhausts fewer
        than N distinct rules, the result is padded by repeating the best one
        so the multiset size stays exactly N.
        """
        if beam < n:
            raise ValueError(f"beam width {beam} smaller than requested rule count {n}")
        self.vocab.check_relation(head)
        frontier: list[tuple[float, tuple[int, ...]]] = [(0.0, ())]
        completed: list[tuple[float, tuple[int, ...]]] = []
        for position in range(self.max_len + 1):
            expansions: list[tuple[float, tuple[int, ...]]] = []
            for lp, prefix in frontier:
                support, probs = self.conditional(head, prefix)
                for sym, p in zip(support, probs):
                    if sym == self.vocab.stop_id:
                        if prefix:
                            completed.append((lp + math.log(p), prefix))
                    else:
                        expansions.append((lp + math.log(p), prefix + (int(sym),)))
            expansions.sort(key=lambda item: (-item[0], item[1]))
            frontier = expansions[:beam]
            if not frontier:
                break
        completed.sort(key=lambda item: (-item[0], item[1]))
        best = [Rule(head, body) for _, body in completed[:n]]
        while len(best) < n:
            best.append(best[0])
        return RuleSet(best)

    # -- fitting -----------------------------------------------------------

    def _body_events(self, body: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(context, token) count events for one body.

        The termination event counts only when termination was an actual
        choice: at maximum length it is forced and carries no information.
        """
        events = self._events_cache.get(body)
        if events is None:
            positions = list(enumerate(body))
            if len(body) < self.max_len:
                positions.append((len(body), self.vocab.stop_id))
            built = []
            for position, token in positions:
                for d in range(min(position, self.order) + 1):
                    built.append((body[position - d : position], token))
            events = tuple(built)
            self._events_cache[body] = events
        return events

    def fit_weighted(self, head: int, weighted_rules: Iterable[tuple[Rule, float]]) -> "RuleGenerator":
        """Add weighted counts for every (context, next-token) event of each rule.

        The termination event is counted too.  Requires at least one strictly
        positive, finite weight.
        """
        self.vocab.check_relation(head)
        width = self.vocab.size + 1
        counts = self.counts
        any_positive = False
        for rule, weight in weighted_rules:
            if not math.isfinite(weight) or weight < 0:
                raise ValueError(f"bad rule weight {weight!r}")
            if rule.head != head:
                raise ValueError(f"rule head {rule.head} does not match fit head {head}")
            if len(rule.body) > self.max_len:
                raise ValueError(f"rule body longer than max_len {self.max_len}")
            if weight == 0.0:
                continue
            any_positive = True
            for ctx, token in self._body_events(rule.body):
                key = (head, ctx)
                vec = counts.get(key)
                if vec is None:
                    vec = np.zeros(width)
                    counts[key] = vec
                vec[token] += weight
        if not any_positive:
            raise ValueError("fit_weighted needs at least one positive weight")
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
        return np.array([enum.log_probs[enum.index[rule.body]] for rule in rules])

    def enumerate_rules(self, head: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """All valid bodies for a head with their probabilities (enumerable vocabularies only)."""
        enum = self._enumeration(head)
        if enum is None:
            raise ValueError("rule space too large to enumerate")
        return enum.bodies, np.exp(enum.log_probs)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        counts = {}
        for (head, ctx), vec in self.counts.items():
            key = f"{head}|" + ",".join(str(t) for t in ctx)
            counts[key] = [float(x) for x in vec]
        return {
            "vocab": self.vocab.to_json(),
            "order": self.order,
            "alpha": self.alpha,
            "lambdas": [self.lambda_by_depth[self.order - i] for i in range(self.order + 1)],
            "max_len": self.max_len,
            "counts": counts,
        }

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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "RuleGenerator":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


class _EnumeratedHead:
    """Full rule-space enumeration for one head: bodies, log-probs, sampling CDF.

    Built level by level: each level's cumulative prefix log-probabilities
    extend by one vectorized conditional per context, so the cost scales with
    the number of contexts rather than the number of bodies.
    """

    __slots__ = ("bodies", "log_probs", "cdf", "index", "_rules")

    def __init__(self, model: RuleGenerator, head: int):
        size = model.vocab.size
        stop = model.vocab.stop_id
        bodies: list[tuple[int, ...]] = []
        log_chunks: list[np.ndarray] = []
        prefixes: list[tuple[int, ...]] = [()]
        prefix_logs = np.zeros(1)
        for level in range(model.max_len):
            conds = np.empty((len(prefixes), size + 1 if level > 0 else size))
            for i, prefix in enumerate(prefixes):
                conds[i] = model.conditional(head, prefix)[1]
            with np.errstate(divide="ignore"):
                log_conds = np.log(conds)
            if level > 0:
                bodies.extend(prefixes)
                log_chunks.append(prefix_logs + log_conds[:, stop])
            next_logs = prefix_logs[:, None] + log_conds[:, :size]
            prefixes = [prefix + (x,) for prefix in prefixes for x in range(size)]
            prefix_logs = next_logs.ravel()
        bodies.extend(prefixes)  # maximum-length bodies terminate with certainty
        log_chunks.append(prefix_logs)
        log_probs = np.concatenate(log_chunks)
        order = sorted(range(len(bodies)), key=lambda i: bodies[i])
        self.bodies = [bodies[i] for i in order]
        self.log_probs = log_probs[order]
        probs = np.exp(self.log_probs)
        cdf = np.cumsum(probs)
        cdf[-1] = max(cdf[-1], 1.0)  # guard the last bucket against rounding
        self.cdf = cdf
        self.index = {body: i for i, body in enumerate(self.bodies)}
        self._rules: dict[int, Rule] = {}

    def rule_at(self, head: int, i: int) -> Rule:
        rule = self._rules.get(i)
        if rule is None:
            rule = Rule(head, self.bodies[i])
            self._rules[i] = rule
        return rule


def dump_top_rules(model: RuleGenerator, per_head: int, beam: int, vocab: RelationVocab) -> str:
    """Text dump of the most probable rules per head, weight field = log-prob."""
    from .core import format_rule

    lines = []
    for head in range(vocab.size):
        seen = set()
        for rule in model.top_rules(head, per_head, beam):
            if rule in seen:
                continue
            seen.add(rule)
            lines.append(format_rule(rule, vocab, model.log_prob(head, rule.body)))
    return "\n".join(lines) + "\n"
