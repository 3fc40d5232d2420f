"""Per-layer timing of rulex from outside the program.

Wrappers replace module attributes and class methods that rulex looks up by
name at call time, so nothing in the program changes.  Every timed wrapper
pushes a frame on one call stack, which gives exact self times: a call's wall
time minus the time of the timed calls it made.  Calls that run per instance
or per grounding lookup keep aggregate counters only (calls, total, self);
commands and calls at per-document granularity or coarser also record a span
``(name, start, end, parent span)``.  Count-only wrappers serve the
per-lookup grounding calls, whose time stays with their caller.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, list] = {}  # name -> [count]
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[list] = []  # per active timed call: [child_s, enclosing span index]
        self._patches: list[tuple] = []

    def timed(self, name: str, fn, *, span: bool = False, observe=None):
        """Wrap ``fn`` to add its calls, total and self time to ``name``.

        ``observe(result, *args, **kwargs)`` runs after each call, outside its
        own timing, to record a count derived from the arguments or result.
        """
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if span:
                record = [name, 0.0, 0.0, parent]
                spans.append(record)
                frame = [0.0, len(spans) - 1]
            else:
                frame = [0.0, parent]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if span:
                    record[1], record[2] = start, end
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` to count its calls; its time stays with the caller."""
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, name: str, amount: int) -> None:
        self.counts.setdefault(name, [0])[0] += amount

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until ``uninstall``.

        ``owner`` is a module or a class; classmethods stay classmethods.
        """
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def self_s(self, *names: str) -> float:
        return sum(self.stats.get(name, (0, 0.0, 0.0))[2] for name in names)

    def total_s(self, *names: str) -> float:
        return sum(self.stats.get(name, (0, 0.0, 0.0))[1] for name in names)

    def calls(self, *names: str) -> int:
        return sum(self.stats.get(name, (0, 0.0, 0.0))[0] for name in names)

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]


# Layer names of the wrapped calls, by the module that owns the code.
SAMPLERS = ("generator.sample_unique_indices", "generator.sample_unique_rules", "generator.sample_ruleset")
LOG_PROBS = ("generator.log_prob", "generator.rule_log_probs", "generator.log_probs_by_index")


def install(tracer: Tracer, rulex) -> None:
    """Wrap the public calls of every rulex module on the pipeline's path.

    Each patch sits where the caller looks the name up: ``cli`` calls
    ``core.load_corpus`` and ``em.run_em`` through their modules, ``em`` calls
    ``fit_design``, ``ground_body_value`` and ``ground_rule_all_pairs`` through
    its own globals, ``extractor.fit`` calls ``fit_design`` through the
    extractor's globals, and generator methods resolve through the class.
    """
    cli, core, em, extractor = rulex.cli, rulex.core, rulex.em, rulex.extractor
    generator = rulex.generator.RuleGenerator

    def timed(name, **options):
        return lambda fn: tracer.timed(name, fn, **options)

    def docs_loaded(corpus, *args, **kwargs):
        tracer.add("core.docs_loaded", len(corpus.docs))

    def design_nnz(result, design, *args, **kwargs):
        tracer.add("extractor.design_nnz", int(design.vals.size))

    tracer.patch(cli, "cmd_train", timed("cli.train", span=True))
    tracer.patch(cli, "cmd_infer", timed("cli.infer", span=True))
    tracer.patch(cli, "cmd_eval", timed("cli.eval", span=True))
    tracer.patch(cli, "ground_rule", timed("extractor.ground_rule"))
    tracer.patch(core, "load_corpus", timed("core.load_corpus", span=True, observe=docs_loaded))
    tracer.patch(em, "run_em", timed("em.run_em", span=True))
    tracer.patch(em, "e_step", timed("em.e_step"))
    tracer.patch(em, "m_step_generator", timed("em.m_step_generator", span=True))
    tracer.patch(em, "m_step_extractor", timed("em.m_step_extractor", span=True))
    tracer.patch(em, "inference_rulesets", timed("em.inference_rulesets", span=True))
    tracer.patch(em, "predict_document", timed("em.predict_document", span=True))
    tracer.patch(em, "ground_rule_all_pairs", timed("extractor.all_pairs"))
    tracer.patch(em, "ground_body_value", lambda fn: tracer.counted("extractor.ground_dp_evals", fn))
    tracer.patch(em.GroundingCache, "value_body", lambda fn: tracer.counted("em.grounding_lookups", fn))
    tracer.patch(em, "fit", timed("extractor.fit", span=True))
    descent = timed("extractor.fit_design", span=True, observe=design_nnz)
    tracer.patch(em, "fit_design", descent)
    tracer.patch(extractor, "fit_design", descent)
    for name in (*SAMPLERS, *LOG_PROBS, "generator.fit_weighted", "generator.top_rules"):
        tracer.patch(generator, name.split(".")[1], timed(name))
    tracer.patch(generator, "load", timed("generator.load", span=True))
    tracer.patch(generator, "save", timed("generator.save", span=True))
    tracer.patch(rulex.metrics, "write_predictions", timed("metrics.write_predictions", span=True))


def layer_metrics(tracer: Tracer, train_s: float, infer_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced pass, as ``name -> (value, unit)``.

    ``train_s`` and ``infer_s`` are the traced wall times of the two commands;
    the time no named layer covers is reported as ``*.other_s``, and the share
    the named layers cover as ``trace.*_coverage_frac``.
    """
    t = tracer
    lookups = t.count("em.grounding_lookups")
    dp_evals = t.count("extractor.ground_dp_evals")
    em_other = t.self_s("em.run_em")
    train_other = t.self_s("cli.train") + train_s - t.total_s("cli.train")
    return {
        "core.load_corpus_s": (t.self_s("core.load_corpus"), "s"),
        "core.docs_loaded": (t.count("core.docs_loaded"), "count"),
        "generator.sample_s": (t.self_s(*SAMPLERS), "s"),
        "generator.sample_calls": (t.calls(*SAMPLERS), "count"),
        "generator.sample_unique_indices_calls": (t.calls(SAMPLERS[0]), "count"),
        "generator.sample_unique_rules_calls": (t.calls(SAMPLERS[1]), "count"),
        "generator.sample_ruleset_calls": (t.calls(SAMPLERS[2]), "count"),
        "generator.log_prob_s": (t.self_s(*LOG_PROBS), "s"),
        "generator.log_prob_calls": (t.calls(*LOG_PROBS), "count"),
        "generator.fit_weighted_s": (t.self_s("generator.fit_weighted"), "s"),
        "generator.top_rules_s": (t.self_s("generator.top_rules"), "s"),
        "generator.load_s": (t.self_s("generator.load"), "s"),
        "generator.save_s": (t.self_s("generator.save"), "s"),
        "em.e_step_s": (t.self_s("em.e_step"), "s"),
        "em.e_step_calls": (t.calls("em.e_step"), "count"),
        "em.m_step_generator_s": (t.self_s("em.m_step_generator"), "s"),
        "em.design_build_s": (t.self_s("em.m_step_extractor", "extractor.fit"), "s"),
        "em.grounding_lookups": (lookups, "count"),
        "em.grounding_hit_ratio": (1.0 - dp_evals / lookups if lookups else 0.0, "ratio"),
        "em.predict_document_s": (t.self_s("em.predict_document"), "s"),
        "em.inference_rulesets_s": (t.self_s("em.inference_rulesets"), "s"),
        "extractor.descent_s": (t.self_s("extractor.fit_design"), "s"),
        "extractor.design_nnz": (t.count("extractor.design_nnz"), "count"),
        "extractor.ground_dp_evals": (dp_evals, "count"),
        "extractor.all_pairs_s": (t.self_s("extractor.all_pairs"), "s"),
        "extractor.all_pairs_calls": (t.calls("extractor.all_pairs"), "count"),
        "extractor.ground_rule_s": (t.self_s("extractor.ground_rule"), "s"),
        "extractor.ground_rule_calls": (t.calls("extractor.ground_rule"), "count"),
        "cli.explain_s": (t.self_s("cli.infer"), "s"),
        "em.other_s": (em_other, "s"),
        "cli.train_other_s": (train_other, "s"),
        "metrics.write_predictions_s": (t.self_s("metrics.write_predictions"), "s"),
        "metrics.eval_s": (t.total_s("cli.eval"), "s"),
        "trace.train_coverage_frac": (1.0 - (em_other + train_other) / train_s, "ratio"),
        "trace.infer_coverage_frac": (t.total_s("cli.infer") / infer_s, "ratio"),
    }
