"""Autoregressive rule generator with interpolated backoff smoothing.

Rule bodies are generated token by token conditioned on the query's relation
type.  The conditional at each position interpolates smoothed categorical
estimates over context windows of depth 0..k, so unseen contexts back off
gracefully toward shorter histories.  Two hard structural constraints apply:
the termination token is forbidden as the first body token (bodies are
non-empty) and forced once the body reaches the maximum rule length.
"""

from __future__ import annotations

import array
import base64
import bisect
import itertools
import math
import numbers
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from .core import (DEFAULT_MAX_RULE_LEN, RelationVocab, Rule, RuleSet, is_finite_number, pad_bodies, read_json,
                   write_json)

# Above this many enumerable bodies per head, ruleset sampling falls back to
# token-wise ancestral draws instead of one multinomial over the rule space,
# and the rule-id table starts empty instead of holding the enumeration.
ENUM_LIMIT = 100_000

# The layout of ``generator.json`` (see ``RuleGenerator.to_json``), and the
# little-endian dtype of each array of its sparse count block.
FORMAT = 2
_COUNT_ARRAYS = (("contexts", "<i4"), ("nnz", "<i4"), ("tokens", "<i4"), ("values", "<f8"))

# The relative margin of ``top_rules``' np.log pre-filter (see its docstring).
_BEAM_MARGIN = 1e-9

# The largest dense block, in cells, that ``_row_totals`` sums at once.
_TOTAL_CELLS = 1 << 18

# The ``_head_cache`` key of the draw tables that every head without counts
# shares: each of their conditionals is the uniform.
_UNCOUNTED = -1


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
        for name, value in (("order", order), ("max_len", max_len)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        for name, value in (("alpha", alpha), *(("a lambdas entry", w) for w in lambdas)):
            if not is_finite_number(value):
                raise ValueError(f"{name} must be a finite number, not {value!r}")
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
        # A context of d tokens has the code code_offsets[d] + its tokens read
        # as base-``size`` digits, so code order sorts contexts by (length, tokens).
        self._code_offsets = np.cumsum([0] + [vocab.size**d for d in range(order + 1)])
        # Each head's count rows; a head with no counts has no block.
        self._counts: dict[int, _Counts] = {}
        self._head_cache: dict[int, _HeadCache] = {}
        self._space: _RuleSpace | None = None
        self._rules: dict[int, dict[int, Rule]] = {}
        size = vocab.size
        self._supports = (np.arange(size), np.arange(size + 1))
        self._stop_support = np.array([vocab.stop_id])
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

        Row 0 of ``conditionals(head, [prefix])``.  STOP is excluded from the
        support at position 0 and is a point mass at ``max_len``.
        """
        support, probs = self.conditionals(head, np.array(prefix, dtype=np.intp).reshape(1, len(prefix)))
        return support, probs[0]

    def conditionals(self, head: int, prefixes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The next-token distribution after each row of ``prefixes``, an int array of equal-length prefixes.

        Returns (support ids, probabilities with one row per prefix).  Each
        depth's context is coded as in the count store, the codes are looked
        up with one ``searchsorted``, and the count rows of the stored ones
        are gathered into one dense block of the support's width, one row for
        the empty context that every prefix shares; each row's total is
        numpy's pairwise sum along that contiguous block, zeros included.
        ``_mix`` combines the depths.
        """
        prefixes = np.asarray(prefixes, dtype=np.intp)
        if prefixes.ndim != 2:
            raise ValueError("prefixes must be a 2-D array, one prefix per row")
        n, position = prefixes.shape
        if position >= self.max_len:
            return self._stop_support, np.ones((n, 1))
        support = self._supports[0 if position == 0 else 1]
        width = len(support)
        block = self._counts.get(head, _NO_COUNTS)

        def read(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            # Every prefix reads the empty context (d = 0): its one row serves them all.
            rows = block.find(self._context_codes(prefixes[:, position - d :] if d else prefixes[:1, :0]))
            counts = block.dense(rows[rows >= 0], width)
            return np.broadcast_to(rows >= 0, n), counts, counts.sum(axis=1)  # each row's pairwise sum

        return support, self._mix(position, n, width, read)

    def _mix(self, position: int, n: int, columns: int, read) -> np.ndarray:
        """The backoff mixture at ``position`` for n rows of ``columns`` tokens each.

        ``read(d)`` gives for depth d a mask of the rows whose context is
        stored, and for those rows the counts of the columns' tokens and the
        totals of their dense count rows, or one row of each that all of
        them share.  The smoothed terms of the stored
        contexts accumulate in depth order, then the weight of the untouched
        ones is added as uniform mass; a row with no stored context gets the
        uniform.  Every value is elementwise, so a column's value does not
        depend on which other columns are read.
        """
        alpha, width = self.alpha, len(self._supports[0 if position == 0 else 1])
        probs = np.zeros((n, columns))
        uniform_mass = np.zeros(n)
        seen = np.zeros(n, dtype=bool)
        for d, w in self._depth_weights[position]:
            hit, counts, totals = read(d)
            probs[hit] += w * (counts + alpha) / (totals + alpha * width)[:, None]
            uniform_mass[~hit] += w
            seen |= hit
        probs[~seen] = 1.0 / width
        spread = seen & (uniform_mass != 0.0)
        probs[spread] += (uniform_mass[spread] / width)[:, None]
        return probs

    def log_prob(self, head: int, body: Sequence[int]) -> float:
        """Log-probability of a complete rule body, including its termination event."""
        self.vocab.check_relation(head)
        body = tuple(body)
        if not 1 <= len(body) <= self.max_len:
            raise ValueError(f"body length {len(body)} outside [1, {self.max_len}]")
        for r in body:
            self.vocab.check_relation(r)
        events = body if len(body) == self.max_len else body + (self.vocab.stop_id,)  # STOP is forced at max_len
        total = 0.0
        for i, token in enumerate(events):
            total += math.log(self.conditional(head, body[:i])[1][token])  # support ids are positional
        return total

    # -- sampling ----------------------------------------------------------

    def sample_rule(self, head: int, rng: np.random.Generator) -> Rule:
        """Draw one rule token by token from the conditionals."""
        return Rule(head, self._draw_bodies(head, 1, rng)[0][0])

    def _draw_bodies(self, head: int, n: int, rng: np.random.Generator) -> list[tuple[tuple[int, ...], float]]:
        """N bodies drawn one after another, token by token, each with its log-probability.

        A token is ``bisect_right(_cdf(probs), u)`` for the next uniform u of
        ``rng`` in the conditional's probabilities, and ``math.log`` of each
        drawn one is added left to right, termination included, as
        ``log_prob`` adds them.  Uniforms are read in blocks of
        ``rng.random(k)``, k the number of draws not yet finished: each reads
        at least one more, so the stream and the end state are those of one
        ``rng.random()`` per token.

        A conditional depends on the counts only through the position and the
        codes of the stored contexts it reads, in depth order: that pair keys
        the head's table of entries (``_Entry``), each the CDF and
        ``math.log`` of each probability.  Entries whose key holds a context
        of two or more tokens serve few prefixes and are not kept, so the
        table holds at most ``1 + (max_len - 1) * (size + 1)`` entries.  A missing
        kept entry below the last position is filled with those of the
        prefixes that differ from it in the last token only, in one
        ``conditionals`` call.  At a position that reads no context of two or
        more tokens, the key follows from the last token, and a memo maps
        (position, last token) to the entry: at most ``1 + (max_len - 2) *
        size`` keys, positions below the last only, each sharing a table
        entry.  Every head without counts draws from the uniform, so all of
        them share one table and memo.

        A step at the last position reads one uniform whatever it draws, so
        every one takes its uniform and waits.  After the N draws,
        ``_draw_last_steps`` decodes them in one pass: the keys come from
        array operations, and the missing kept entries from one
        ``conditionals`` call.  A kept step draws by ``bisect_right`` in its
        entry.  The steps whose entry is not kept get their rows from one more
        call, and each token is the count of CDF values at or below its
        uniform, which is ``searchsorted(cdf, u, side="right")`` row by row.
        Each row of a batch equals ``conditional``'s, so the bodies, totals
        and rng state are those of uncached draws.  ``fit_bodies`` drops the
        head's table, memo and set of stored codes.
        """
        self.vocab.check_relation(head)
        cache = self._head(head if head in self._counts else _UNCOUNTED)
        block = self._counts.get(head, _NO_COUNTS)
        if cache.stored is None:
            cache.stored = set(block.codes.tolist())
            cache.memo = [{} if min(position, self.order) < 2 else None for position in range(self.max_len - 1)]
        stored, steps, memo = cache.stored, cache.steps, cache.memo
        order, size, stop, last = self.order, self.vocab.size, self.vocab.stop_id, self.max_len - 1
        offsets = self._code_offsets.tolist()

        def key_of(prefix: list[int]) -> tuple[tuple[int, tuple[int, ...]], bool]:
            """The table key of ``prefix``, and whether its entry is kept."""
            position = len(prefix)
            present, deepest = [], 0
            value = 0  # the last d tokens read as base-``size`` digits
            for d in range(min(position, order) + 1):
                if d:
                    value += prefix[position - d] * size ** (d - 1)
                code = offsets[d] + value
                if code in stored:
                    present.append(code)
                    deepest = d
            return (position, tuple(present)), deepest < 2

        def entry_of(prefix: list[int]) -> _Entry:
            """The entry of ``prefix``, a prefix below the last position."""
            key, kept = key_of(prefix)
            entry = steps.get(key)
            if entry is None and kept:
                fill: dict[tuple[int, tuple[int, ...]], list[int]] = {}
                for sibling in [prefix[:-1] + [x] for x in range(size)] if prefix else [prefix]:
                    sibling_key, sibling_kept = key_of(sibling)
                    if sibling_kept and sibling_key not in steps:
                        fill.setdefault(sibling_key, sibling)
                rows = self.conditionals(head, np.array(list(fill.values()), dtype=np.intp))[1]
                steps.update(zip(fill, _steps(rows)))
                entry = steps[key]
            elif entry is None:
                entry = _steps(self.conditional(head, tuple(prefix))[1][None])[0]
            return entry

        bisect_right = bisect.bisect_right
        drawn: list[tuple[list[int], float]] = []
        waiting: list[tuple[int, float]] = []  # (draw, uniform) of each last step
        uniforms: list[float] = []
        u = 0
        for i in range(n):
            body: list[int] = []
            total = 0.0
            previous = -1
            for known in memo:  # one per position below the last
                if u == len(uniforms):
                    uniforms, u = rng.random(n - i).tolist(), 0
                if known is None:
                    entry = entry_of(body)
                else:
                    entry = known.get(previous)
                    if entry is None:
                        entry = known[previous] = entry_of(body)
                cdf, logs = entry
                token = bisect_right(cdf, uniforms[u])  # support ids are positional
                u += 1
                total += logs[token]
                if token == stop:
                    break
                body.append(token)
                previous = token
            else:
                if u == len(uniforms):
                    uniforms, u = rng.random(n - i).tolist(), 0
                waiting.append((i, uniforms[u]))
                u += 1
            drawn.append((body, total))
        if waiting:
            self._draw_last_steps(head, cache, drawn, waiting)
        return [(tuple(body), total) for body, total in drawn]

    def _draw_last_steps(self, head: int, cache: "_HeadCache", drawn: list[tuple[list[int], float]],
                         waiting: list[tuple[int, float]]) -> None:
        """Draw the last steps that ``_draw_bodies`` left waiting, (draw, uniform) pairs, into ``drawn``."""
        last, stop = self.max_len - 1, self.vocab.stop_id
        steps, block = cache.steps, self._counts.get(head, _NO_COUNTS)

        def prefixes(rows) -> np.ndarray:
            return np.array([drawn[waiting[j][0]][0] for j in rows], dtype=np.intp).reshape(len(rows), last)

        # Each step's group: the code of its stored one-token context, -1 for none, or -2 where it reads a
        # stored context of two or more tokens, so that its entry is not kept.
        group = np.full(len(waiting), -1, dtype=np.int64)
        if cache.stored:
            every = prefixes(range(len(waiting)))
            for d, _ in self._depth_weights[last][1:]:
                codes = self._context_codes(every[:, last - d :])
                present = block.find(codes) >= 0
                group[present] = codes[present] if d == 1 else -2
        group = group.tolist()
        base = (0,) if 0 in cache.stored else ()
        keys = {code: (last, base + ((code,) if code >= 0 else ())) for code in dict.fromkeys(group) if code != -2}
        missing = [code for code, key in keys.items() if key not in steps]
        if missing:
            rows = self.conditionals(head, prefixes([group.index(code) for code in missing]))[1]
            steps.update(zip([keys[code] for code in missing], _steps(rows)))
        entries = {code: steps[key] for code, key in keys.items()}
        deep = [j for j, code in enumerate(group) if code == -2]
        if deep:
            probs = self.conditionals(head, prefixes(deep))[1]
            uniforms = np.array([waiting[j][1] for j in deep])
            tokens = np.count_nonzero(_cdf(probs) <= uniforms[:, None], axis=1)  # searchsorted, row by row
            deep_draws = zip(tokens.tolist(), _math_logs(probs[np.arange(len(deep)), tokens].tolist()).tolist())
        for (i, uniform), code in zip(waiting, group):
            if code == -2:
                token, log = next(deep_draws)
            else:
                cdf, logs = entries[code]
                token = bisect.bisect_right(cdf, uniform)
                log = logs[token]
            body, total = drawn[i]
            if token != stop:
                body.append(token)
            drawn[i] = body, total + log

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
        return RuleSet([Rule(head, body) for body, _ in self._draw_bodies(head, n, rng)])

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
        then deduplicates them.  The uniforms come from one
        ``rng.random((len(heads), n))`` call, which reads the same stream as
        one ``rng.random(n)`` call per head and leaves ``rng`` in the same
        state.  Each row's uniforms are sorted before the lookup; since
        ``searchsorted`` is monotone, the ids come out sorted, the same ids
        as a sort after the lookup gives.  Past ``ENUM_LIMIT`` each row is
        one ``sample_unique_rules`` draw, interned.
        """
        if n < 1:
            raise ValueError("ruleset size must be >= 1")
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
        uniforms.sort(axis=1)
        idx = np.empty(uniforms.shape, dtype=np.intp)
        for head, enum in enums.items():
            rows = heads == head
            idx[rows] = np.searchsorted(enum.cdf, uniforms[rows], side="right")
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
        log-probability is summed while it is drawn (see ``_draw_bodies``).
        """
        if n < 1:
            raise ValueError("ruleset size must be >= 1")
        if self._enumeration(head) is not None:
            uidx, counts, log_probs = self.sample_unique_indices(head, n, rng)
            return [self.rule_at(head, int(i)) for i in uidx], counts, log_probs
        drawn = self._draw_bodies(head, n, rng)
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

        A body without an id is checked and interned with the next id
        (``_RuleSpace``).  On an enumerable space every body has one from the
        start, its enumeration index; past ``ENUM_LIMIT`` ids follow first-seen order.
        """
        return self._rule_space().ids(list(bodies))

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
        position, each running body's probability of its next token, or of
        its termination where it ends below ``max_len``, is read, and
        ``math.log`` of it is added to the body's total left to right, as
        ``log_prob`` adds them.  Every body starts from the empty prefix, so
        one ``conditional`` row serves position 0.  Past it, the probability
        is ``_mix`` for that one token: its count read from the head's CSR
        rows, each context's total from ``_row_totals``.  No dense row per
        body is built.
        """
        self.vocab.check_relation(head)
        padded = np.full((len(bodies), self.max_len + 1), -1, dtype=np.intp)
        padded[:, : np.shape(bodies)[1]] = bodies
        lengths = np.count_nonzero(padded >= 0, axis=1)
        block = self._counts.get(head, _NO_COUNTS)
        totals = np.zeros(len(padded))
        for position in range(self.max_len):
            rows = np.flatnonzero(lengths >= position)
            if not len(rows):
                break
            tokens = np.where(lengths[rows] > position, padded[rows, position], self.vocab.stop_id)
            if position == 0:
                probs = self.conditional(head, ())[1][tokens]
            else:

                def read(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
                    found = block.find(self._context_codes(padded[rows, position - d : position]))
                    hit = found >= 0
                    return hit, block.at(found[hit], tokens[hit])[:, None], self._row_totals(head)[found[hit]]

                probs = self._mix(position, len(rows), 1, read)[:, 0]
            totals[rows] += _math_logs(probs.tolist())
        return totals

    def _row_totals(self, head: int) -> np.ndarray:
        """The total of each of the head's count rows as ``conditionals`` takes it past position 0.

        That is numpy's pairwise sum along the dense row of ``size + 1``
        counts, zeros included, summed in dense blocks of at most
        ``_TOTAL_CELLS`` cells.  The totals are kept per head until
        ``fit_bodies`` changes its counts: 8 bytes per stored context.
        """
        cache = self._head(head)
        if cache.totals is None:
            block, width = self._counts.get(head, _NO_COUNTS), self.vocab.size + 1
            rows, step = np.arange(len(block.codes)), max(1, _TOTAL_CELLS // width)
            cache.totals = np.concatenate(
                [np.zeros(0)] + [block.dense(rows[i : i + step], width).sum(axis=1) for i in range(0, len(rows), step)]
            )
        return cache.totals

    # -- deterministic inference -------------------------------------------

    def top_rules(self, head: int, n: int, beam: int) -> RuleSet:
        """The N most probable complete rules found by beam search over bodies.

        Ties break by lexicographic body order.  When the beam exhausts fewer
        than N distinct rules, the result is padded by repeating the best one
        so the multiset size stays exactly N.  The beam is an int array of
        prefixes, extended through ``conditionals``; each candidate's score is
        its prefix's score plus ``math.log`` of its probability, the sum
        ``log_prob`` makes.

        Only candidates that can still enter the beam are scored that way
        and sorted.  When a step has more than ``beam`` candidates, each is
        first scored approximately with ``np.log``, and those below the
        beam-th largest approximate score ``thr`` by more than the margin
        ``_BEAM_MARGIN * max(1, |thr|)`` (1e-9 relative) are dropped.  This
        is exact: np.log and math.log differ by a few ulp, so near the
        boundary an approximate score is off by about 1e-14 * |thr| at
        most, five orders of magnitude inside the margin.  Every
        candidate in the exact top ``beam`` therefore survives, ties at the
        beam-th score included, and sorting the survivors by (-score,
        prefix) keeps the same first ``beam``.

        The result is kept per ``(n, beam)`` until ``fit_bodies`` changes
        the head's counts.
        """
        if n < 1:
            raise ValueError("ruleset size must be >= 1")
        if beam < n:
            raise ValueError(f"beam width {beam} smaller than requested rule count {n}")
        self.vocab.check_relation(head)
        kept = self._head(head).top
        if (n, beam) in kept:
            return kept[n, beam]
        frontier = np.zeros((1, 0), dtype=np.intp)  # one prefix per row
        scores = np.zeros(1)
        completed: list[tuple[float, tuple[int, ...]]] = []
        for _ in range(self.max_len + 1):
            support, probs = self.conditionals(head, frontier)
            stops = support == self.vocab.stop_id
            if stops.any():  # never at position 0, so every completed body is non-empty
                ends = scores + _math_logs(probs[:, stops.argmax()].tolist())
                completed.extend(zip(ends.tolist(), map(tuple, frontier.tolist())))
            tokens = support[~stops]
            if not len(tokens):
                break
            probs = probs[:, ~stops]
            if probs.size > beam:
                approx = scores[:, None] + np.log(probs)
                thr = float(np.partition(approx, -beam, axis=None)[-beam])
                rows, cols = np.nonzero(approx >= thr - _BEAM_MARGIN * max(1.0, abs(thr)))
            else:
                rows, cols = np.divmod(np.arange(probs.size), probs.shape[1])
            candidates = scores[rows] + _math_logs(probs[rows, cols].tolist())
            grown = np.column_stack([frontier[rows], tokens[cols]])
            keep = np.lexsort((*grown.T[::-1], -candidates))[:beam]  # by (-score, prefix)
            frontier, scores = grown[keep], candidates[keep]
        completed.sort(key=lambda item: (-item[0], item[1]))
        best = [Rule(head, body) for _, body in completed[:n]]
        while len(best) < n:
            best.append(best[0])
        kept[n, beam] = RuleSet(best)
        return kept[n, beam]

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

        Only the head's block is rebuilt.  The distinct (context, token)
        cells of the events are merged with the head's stored cells into one
        sorted array, each stored cell starting from its count and each new
        one from 0.0.  All events go through one ``np.add.at`` into those
        cells, in body order, so every count receives the same additions in
        the same order as one scalar update per event into a dense row.  The
        work and memory are those of the head's nonzero counts and the
        events, whatever the vocabulary size.
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
        # One column per (position, depth) event of a body, in the order the
        # body's events are counted, each holding the event's context code.
        codes, tokens, valid = [], [], []
        for position in range(max_len):
            token = np.where(position < lengths, bodies[:, position], self.vocab.stop_id)
            for d in range(min(position, self.order) + 1):
                codes.append(self._context_codes(bodies[:, position - d : position]))
                tokens.append(token)
                valid.append(position <= lengths)
        valid = np.stack(valid, axis=1)
        codes = np.stack(codes, axis=1)[valid]
        # A cell is coded as context code * (size + 1) + token: code order, then token order.
        touched, inverse = np.unique(codes * (size + 1) + np.stack(tokens, axis=1)[valid], return_inverse=True)
        old = self._counts.get(head, _NO_COUNTS)
        stored = np.repeat(old.codes, np.diff(old.starts)) * (size + 1) + old.tokens
        cells = np.union1d(stored, touched)
        values = np.zeros(len(cells))
        values[np.searchsorted(cells, stored)] = old.values
        events = np.searchsorted(cells, touched)[inverse]
        np.add.at(values, events, np.broadcast_to(weights[:, None], valid.shape)[valid])
        contexts = np.union1d(old.codes, touched // (size + 1))
        starts = np.append(np.searchsorted(cells // (size + 1), contexts), len(cells))
        self._counts[head] = _Counts(contexts, starts, (cells % (size + 1)).astype(np.int32), values)
        self._head_cache.pop(head, None)
        return self

    def _context_codes(self, contexts: np.ndarray) -> np.ndarray:
        """The code of each row of ``contexts``, an int array of equal-length contexts (see ``_code_offsets``)."""
        codes = np.zeros(len(contexts), dtype=np.int64)
        for column in contexts.T:
            codes = codes * self.vocab.size + column
        return codes + self._code_offsets[contexts.shape[1]]

    # -- whole-space enumeration --------------------------------------------

    def enumerable_size(self) -> int:
        return self._enum_size

    def _head(self, head: int) -> "_HeadCache":
        cache = self._head_cache.get(head)
        if cache is None:
            cache = self._head_cache[head] = _HeadCache()
        return cache

    def _enumeration(self, head: int) -> "_EnumeratedHead | None":
        if self.enumerable_size() > ENUM_LIMIT:
            return None
        cache = self._head(head)
        if cache.enumeration is None:
            cache.enumeration = _EnumeratedHead(self, head)
        return cache.enumeration

    def rule_log_probs(self, head: int, rules: Sequence[Rule]) -> np.ndarray:
        """Log-probabilities for a batch of same-head rules (enumeration-backed when possible)."""
        return self.log_probs_by_index(head, self.rule_ids(rule.body for rule in rules))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        """The settings and every count context as one sparse block (``FORMAT``).

        ``counts`` holds four arrays, each the base64 of its little-endian
        bytes.  ``contexts`` (``<i4``) has one row of ``max_len + 1`` ids per
        context: the head, then the context tokens, padded with -1; rows are
        sorted by (head, context length, tokens).  ``nnz`` (``<i4``) is the
        number of stored entries in each row, ``tokens`` (``<i4``) the token
        of each entry, ascending within a row, and ``values`` (``<f8``) the
        nonzero counts, which round-trip exactly as raw bytes.  Each head's
        block is already in that order, so the arrays are its arrays
        concatenated, heads ascending.
        """
        heads = sorted(self._counts)
        blocks = [self._counts[head] for head in heads]
        codes = np.concatenate([np.zeros(0, dtype=np.int64)] + [block.codes for block in blocks])
        contexts = np.full((len(codes), self.max_len + 1), -1, dtype=np.int32)
        contexts[:, 0] = np.repeat(heads, [len(block.codes) for block in blocks])
        size, offsets = self.vocab.size, self._code_offsets
        lengths = np.searchsorted(offsets, codes, side="right") - 1
        rest = codes - offsets[lengths]  # each context's tokens as base-``size`` digits
        for j in range(min(self.order, self.max_len)):
            place = lengths - 1 - j  # token j is the digit of this place value
            has = place >= 0
            contexts[has, 1 + j] = rest[has] // size ** place[has] % size
        arrays = {
            "contexts": contexts,
            "nnz": np.concatenate([np.zeros(0, dtype=np.int64)] + [np.diff(block.starts) for block in blocks]),
            "tokens": np.concatenate([np.zeros(0, dtype=np.int32)] + [block.tokens for block in blocks]),
            "values": np.concatenate([np.zeros(0)] + [block.values for block in blocks]),
        }
        counts = {
            name: base64.b64encode(arrays[name].astype(dtype, copy=False).tobytes()).decode("ascii")
            for name, dtype in _COUNT_ARRAYS
        }
        return {
            "format": FORMAT,
            "vocab": self.vocab.to_json(),
            "order": self.order,
            "alpha": self.alpha,
            "lambdas": [self.lambda_by_depth[self.order - i] for i in range(self.order + 1)],
            "max_len": self.max_len,
            "counts": counts,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RuleGenerator":
        """The generator that ``to_json`` wrote; ``ValueError`` names a bad field.

        Rows may come in any order.  They are sorted by (head, context code)
        and each head's rows become its block, entries gathered with array
        operations; no dense row is built.
        """
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        if "format" not in obj:
            raise ValueError("no 'format': dense counts from before format 2 are not read; retrain")
        if obj["format"] != FORMAT:
            raise ValueError(f"format {obj['format']!r} is not {FORMAT}; retrain to rewrite it")
        try:
            model = cls(
                RelationVocab.from_json(obj["vocab"]),
                order=obj["order"],
                alpha=obj["alpha"],
                lambdas=obj["lambdas"],
                max_len=obj["max_len"],
            )
            fields = obj["counts"]
        except KeyError as exc:
            raise ValueError(f"missing key {exc.args[0]!r}") from None
        except TypeError as exc:
            raise ValueError(f"bad setting: {exc}") from None
        if not isinstance(fields, dict):
            raise ValueError("counts: not a JSON object")
        contexts, nnz, tokens, values = (_decode_array(fields, name, dtype) for name, dtype in _COUNT_ARRAYS)
        size, width = model.vocab.size, model.max_len + 1
        if len(contexts) % width:
            raise ValueError(f"counts.contexts: {len(contexts)} ids do not fill rows of {width}")
        contexts = contexts.reshape(-1, width)
        n = len(contexts)
        if len(nnz) != n:
            raise ValueError(f"counts.nnz: {len(nnz)} entries for {n} contexts")
        if np.any(nnz < 0) or int(nnz.sum(dtype=np.int64)) != len(tokens):
            raise ValueError(f"counts.nnz: row sizes do not sum to the {len(tokens)} tokens")
        if len(values) != len(tokens):
            raise ValueError(f"counts.values: {len(values)} values for {len(tokens)} tokens")
        heads, ctx = contexts[:, 0], contexts[:, 1:]
        if np.any((heads < 0) | (heads >= size)):
            raise ValueError(f"counts.contexts: a head outside [0, {size})")
        lengths = np.count_nonzero(ctx >= 0, axis=1)
        padded = np.arange(width - 1) >= lengths[:, None]
        if np.any(np.where(padded, ctx != -1, ctx >= size)) or np.any(lengths > model.order):
            raise ValueError(
                f"counts.contexts: a context that is not <= {model.order} ids in [0, {size}), padded with -1"
            )
        if np.any((tokens < 0) | (tokens > size)):
            raise ValueError(f"counts.tokens: a token outside [0, {size}]")
        starts = np.cumsum(nnz, dtype=np.int64) - nnz
        rising = np.ones(len(tokens), dtype=bool)
        rising[1:] = tokens[1:] > tokens[:-1]
        rising[starts[nnz > 0]] = True  # each row's first entry
        if not rising.all():
            raise ValueError("counts.tokens: unsorted or duplicate tokens within a row")
        if not np.all(np.isfinite(values) & (values > 0)):
            raise ValueError("counts.values: a count that is not finite and positive")
        codes = np.empty(n, dtype=np.int64)
        for length in range(model.order + 1):
            rows = lengths == length
            codes[rows] = model._context_codes(ctx[rows, :length])
        order = np.lexsort((codes, heads))
        heads, codes, nnz = heads[order], codes[order], nnz[order].astype(np.int64)
        if np.any((heads[1:] == heads[:-1]) & (codes[1:] == codes[:-1])):
            raise ValueError("counts.contexts: a duplicate context")
        entries = _entries(starts[order], nnz)
        tokens, values = tokens[entries], values[entries]
        starts = np.append(0, np.cumsum(nnz))
        bounds = np.searchsorted(heads, np.arange(size + 1))
        for head in np.unique(heads).tolist():
            lo, hi = bounds[head], bounds[head + 1]
            rows = starts[lo : hi + 1]
            span = slice(rows[0], rows[-1])
            model._counts[head] = _Counts(codes[lo:hi], rows - rows[0], tokens[span], values[span])
        return model

    def save(self, path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "RuleGenerator":
        """The generator saved at ``path``; a malformed file raises ``ValueError`` naming it."""
        return read_json(path, cls.from_json)


def _math_logs(values: list[float]) -> np.ndarray:
    """``math.log`` of each value, as the float array that ``log_prob``'s sums need bit for bit."""
    return np.fromiter(map(math.log, values), dtype=float, count=len(values))


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The cumulative sums of ``probs`` along its last axis, each last bucket raised to at least 1 against rounding."""
    cdf = np.cumsum(probs, axis=-1)
    cdf[..., -1] = np.maximum(cdf[..., -1], 1.0)
    return cdf


# A draw-table entry: a conditional's ``_cdf`` and ``math.log`` of each of its
# probabilities.  ``array('d')`` keeps 8 bytes a value, a quarter of a list of
# Python floats, and ``bisect_right`` and indexing read it as a sequence,
# without numpy's per-element overhead.
_Entry = tuple[array.array, array.array]


def _steps(probs: np.ndarray) -> list[_Entry]:
    """The draw-table entry of each row of ``probs``."""
    width = probs.shape[1]
    logs = array.array("d", map(math.log, probs.ravel().tolist()))
    return [(array.array("d", cdf.tobytes()), logs[start : start + width])
            for cdf, start in zip(_cdf(probs), range(0, len(logs), width))]


def _positions(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The index of each query in the sorted array ``keys``, or -1 where it is absent."""
    pos = np.searchsorted(keys, queries)
    inside = pos < len(keys)
    hit = np.zeros(len(queries), dtype=bool)
    hit[inside] = keys[pos[inside]] == queries[inside]
    return np.where(hit, pos, -1)


def _entries(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices of the entries of CSR rows with the given starts and sizes, row after row."""
    return np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(int(sizes.sum()))


def _decode_array(fields: dict, name: str, dtype: str) -> np.ndarray:
    """The read-only array whose little-endian bytes ``fields[name]`` holds in base64."""
    if name not in fields:
        raise ValueError(f"missing key 'counts.{name}'")
    try:
        data = base64.b64decode(fields[name], validate=True)
    except (TypeError, ValueError):
        raise ValueError(f"counts.{name}: not a base64 string") from None
    if len(data) % np.dtype(dtype).itemsize:
        raise ValueError(f"counts.{name}: {len(data)} bytes is not a whole number of {dtype} values")
    return np.frombuffer(data, dtype=dtype)


class _Counts:
    """One head's count rows in CSR form, one row per stored context.

    Rows are in context-code order (see ``RuleGenerator._code_offsets``),
    which sorts contexts by (length, tokens), the order of
    ``generator.json``; ``codes`` holds each row's code.  Row r's entries
    are ``tokens[starts[r]:starts[r + 1]]`` (int32, ascending) and their
    counts ``values`` (float64, positive): only nonzero counts are stored,
    and a row may have none.  A block is never changed in place;
    ``fit_bodies`` builds a new one.
    """

    __slots__ = ("codes", "starts", "tokens", "values")

    def __init__(self, codes: np.ndarray, starts: np.ndarray, tokens: np.ndarray, values: np.ndarray):
        self.codes, self.starts, self.tokens, self.values = codes, starts, tokens, values

    def find(self, codes: np.ndarray) -> np.ndarray:
        """The row of each context code, or -1 where the context is not stored."""
        return _positions(self.codes, codes)

    def at(self, rows: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """The count of each (row, token) pair, 0.0 where the row stores no count for the token."""
        cells = np.repeat(np.arange(len(self.codes), dtype=np.int64), np.diff(self.starts)) << 32 | self.tokens
        entries = _positions(cells, rows.astype(np.int64) << 32 | tokens)
        return np.append(self.values, 0.0)[entries]  # entry -1 reads the appended 0.0

    def dense(self, rows: np.ndarray, width: int) -> np.ndarray:
        """The rows ``rows`` as one dense ``(len(rows), width)`` block, a zero row for each -1.

        Entries at tokens ``>= width`` are left out.
        """
        out = np.zeros((len(rows), width))
        present = np.flatnonzero(rows >= 0)
        lo = self.starts[rows[present]]
        sizes = self.starts[rows[present] + 1] - lo
        entries = _entries(lo, sizes)
        owners = np.repeat(present, sizes)
        tokens = self.tokens[entries]
        kept = tokens < width
        out[owners[kept], tokens[kept]] = self.values[entries[kept]]
        return out


# The block of a head without counts.
_NO_COUNTS = _Counts(np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int32), np.zeros(0))


class _RuleSpace:
    """The rule-id table: one body per id, the same ids for every head.

    ``ids`` checks each body it has not seen before and interns it with the
    next id, so ids follow first-seen order.  When the space is enumerable,
    the table starts with the whole enumeration, interned that way in
    lexicographic order, and so depends on neither the head nor the counts.
    ``order`` then maps ids to positions in the generation order: the bodies
    of each length in turn, each length extending every body of the previous
    one by each relation id.  Past ``ENUM_LIMIT`` the table starts empty.
    """

    __slots__ = ("size", "max_len", "order", "bodies", "index", "table")

    def __init__(self, size: int, max_len: int, enumerated: bool):
        self.size, self.max_len = size, max_len
        self.order: list[int] = []
        self.bodies: list[tuple[int, ...]] = []
        self.index: dict[tuple[int, ...], int] = {}
        self.table = np.zeros((0, max_len), dtype=np.intp)
        if enumerated:
            levels: list[list[tuple[int, ...]]] = [[()]]
            for _ in range(max_len):
                levels.append([prefix + (x,) for prefix in levels[-1] for x in range(size)])
            generated = list(itertools.chain.from_iterable(levels[1:]))
            self.order = sorted(range(len(generated)), key=generated.__getitem__)
            self.ids([generated[i] for i in self.order])

    def ids(self, bodies: list[tuple[int, ...]]) -> np.ndarray:
        index = self.index
        try:
            return np.fromiter(map(index.__getitem__, bodies), dtype=np.intp, count=len(bodies))
        except KeyError:
            pass
        new = [body for body in dict.fromkeys(bodies) if body not in index]
        lengths = np.fromiter(map(len, new), dtype=np.intp, count=len(new))
        owners = np.repeat(np.arange(len(new)), lengths)
        # Floats, so that an id too large for an int64 reads as out of range; NaN and non-integral ids fail too.
        tokens = np.fromiter(itertools.chain.from_iterable(new), dtype=float, count=len(owners))
        bad = (lengths < 1) | (lengths > self.max_len)
        bad[owners[~((tokens >= 0) & (tokens < self.size) & (tokens == np.trunc(tokens)))]] = True
        if bad.any():
            raise ValueError(f"bad rule body {new[int(np.argmax(bad))]!r}")
        table = np.full((len(new), self.max_len), -1, dtype=np.intp)
        table[owners, np.arange(len(owners)) - np.repeat(np.cumsum(lengths) - lengths, lengths)] = tokens
        # One tuple of Python ints per body, both its key and its ``bodies`` entry.
        new = [tuple(row[:n]) for row, n in zip(table.tolist(), lengths.tolist())]
        index.update(zip(new, range(len(self.bodies), len(self.bodies) + len(new))))
        self.bodies.extend(new)
        self.table = np.concatenate([self.table, table])
        return np.fromiter(map(index.__getitem__, bodies), dtype=np.intp, count=len(bodies))


class _HeadCache:
    """What one head's counts determine, dropped by ``fit_bodies`` when they change.

    ``enumeration`` is the head's ``_EnumeratedHead``, built on first use
    while the space is enumerable.  ``stored`` is the set of the head's
    context codes, ``steps`` its table of next-token entries and ``memo`` one
    dict per position below the last, from the last token to its entry, or
    None where the position reads a context of two or more tokens: all three
    ``_draw_bodies``'s, at most ``1 + (max_len - 1) * (V + 1)`` entries and
    ``1 + (max_len - 2) * V`` memo keys for V relation ids.  ``totals`` holds
    each count row's total, ``_row_totals``'.  ``top`` holds ``top_rules``'
    results by ``(n, beam)``.
    """

    __slots__ = ("enumeration", "stored", "steps", "memo", "totals", "top")

    def __init__(self):
        self.enumeration: _EnumeratedHead | None = None
        self.stored: set[int] | None = None
        self.steps: dict[tuple[int, tuple[int, ...]], _Entry] = {}
        self.memo: list[dict[int, _Entry] | None] = []
        self.totals: np.ndarray | None = None
        self.top: dict[tuple[int, int], RuleSet] = {}


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
        self.cdf = _cdf(np.exp(self.log_probs))
