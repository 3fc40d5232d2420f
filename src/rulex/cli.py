"""Command-line entry point: synth, train, infer, eval, oracle subcommands.

Every command echoes its fully resolved configuration (flags over config file
over defaults) as JSON before doing any work; feeding that echo back in as
the config file reproduces the outputs bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import core, datagen, em, metrics
from .extractor import (  # ``ground_rule`` is unused here; perfbench/tracing.py patches ``cli.ground_rule``
    ExtractorWeights,
    ground_rule,
)

LOCK_NAME = ".lock"


def _lock_is_stale(lock: Path) -> bool:
    """Whether a lock file names a process that no longer exists.

    An empty or unreadable lock counts as held: its owner may not have
    written its pid yet.
    """
    try:
        pid = int(lock.read_text(encoding="ascii").strip())
    except (OSError, ValueError):
        return False
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (PermissionError, OverflowError):
        pass  # a live process of another user, or no valid pid at all
    return False


@contextmanager
def _dir_lock(directory: Path):
    """Exclusive ownership of an output directory for the command's lifetime.

    The lock file holds the owner's pid.  A lock left behind by a command
    that died is reclaimed once; a live owner's lock makes the command fail.
    Reclaiming is not atomic: two commands that find the same dead lock at
    the same moment may both proceed.
    """
    lock = directory / LOCK_NAME
    for attempt in range(2):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if attempt or not _lock_is_stale(lock):
                raise ValueError(f"directory {directory} is locked by another command ({lock})") from None
            lock.unlink(missing_ok=True)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        yield
    finally:
        lock.unlink(missing_ok=True)


def _prepare_out_dir(path_text: str) -> Path:
    out = Path(path_text)
    if not out.parent.exists():
        raise ValueError(f"parent directory of {out} does not exist")
    out.mkdir(exist_ok=True)
    return out


def _load_config_section(path: str | Path | None, section: str) -> dict:
    """The ``section`` object of the JSON config file at ``path``, or the whole file if it has none."""
    if path is None:
        return {}

    def parse(obj) -> dict:
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        value = obj.get(section, obj)
        if not isinstance(value, dict):
            raise ValueError(f"config section {section!r} must be a JSON object")
        return value

    return core.read_json(path, parse)


def _echo(config: dict) -> None:
    print(json.dumps(config, sort_keys=True, indent=2))
    sys.stdout.flush()


def write_run_rules(run_dir: Path, rulesets: dict[int, core.RuleSet], weights: ExtractorWeights,
                    vocab: core.RelationVocab) -> None:
    """A run directory's ``vocab.txt`` and ``rules.txt``, the rules that ``infer`` scores with.

    ``rules.txt`` lists the rule sets head by head in id order, one line per
    occurrence in rule-set order, each with its rule's weight in ``weights``.
    """
    core.write_vocab_file(run_dir / "vocab.txt", vocab)
    core.write_rules_file(
        run_dir / "rules.txt",
        ((rule, weights.get_rule_weight(head, rule)) for head in sorted(rulesets) for rule in rulesets[head]),
        vocab,
    )


def read_run_rules(path: Path, weights: ExtractorWeights, vocab: core.RelationVocab,
                   max_len: int) -> dict[int, core.RuleSet]:
    """The rule set of every head relation, read from the ``rules.txt`` that ``write_run_rules`` wrote.

    Each line's weight must equal the rule's weight in ``weights`` exactly,
    and every head must have a rule; a bad line raises ``ValueError`` naming
    ``path:line``.
    """

    def check(rule: core.Rule, weight: float) -> None:
        core.validate_rule(rule, vocab, max_len)
        stored = weights.get_rule_weight(rule.head, rule)
        if weight != stored:
            raise ValueError(f"weight {weight!r} differs from the extractor's {stored!r}")

    by_head: dict[int, list[core.Rule]] = {}
    for rule, _ in core.read_rules_file(path, vocab, check):
        by_head.setdefault(rule.head, []).append(rule)
    for head in range(vocab.size):
        if head not in by_head:
            raise ValueError(f"{path}: no rules for head relation {vocab.name_of(head)!r}")
    return {head: core.RuleSet(by_head[head]) for head in range(vocab.size)}


def cmd_synth(args) -> int:
    section = _load_config_section(args.config, "synth")
    if args.seed is not None:
        section["seed"] = args.seed
    config = datagen.SynthConfig.from_json(section)
    out = _prepare_out_dir(args.out)
    resolved = {"synth": config.to_json()}
    _echo(resolved)
    with _dir_lock(out):
        result = datagen.gen_corpus(config)
        core.write_vocab_file(out / "vocab.txt", result.vocab)
        core.write_rules_file(out / "rules.txt", result.planted, result.vocab)
        for split, corpus in result.splits.items():
            core.write_corpus(out / f"{split}.jsonl", corpus, result.vocab)
        core.write_json(out / "config.json", resolved, indent=2)
    return 0


def cmd_train(args) -> int:
    section = _load_config_section(args.config, "em")
    if args.seed is not None:
        section["seed"] = args.seed
    if args.inference_mode is not None:
        section["inference_mode"] = args.inference_mode
    config = em.EMConfig.from_json(section)
    corpus_dir = Path(args.corpus)
    vocab = core.read_vocab_file(corpus_dir / "vocab.txt")
    corpus = core.load_corpus(corpus_dir / "train.jsonl", vocab)
    out = _prepare_out_dir(args.out)
    resolved = {"em": config.to_json(), "corpus": str(corpus_dir)}
    _echo(resolved)
    with _dir_lock(out):
        result = em.run_em(corpus, vocab, config)
        # The stored config carries only the model configuration, so the run
        # directory's bytes are independent of where the corpus lived.
        core.write_json(out / "config.json", {"em": config.to_json()}, indent=2)
        result.model.save(out / "generator.json")
        result.weights.save(out / "extractor.json", vocab)
        # Inference scores with these rule sets and never loads the generator.
        rulesets = em.inference_rulesets(result.model, vocab, config, np.random.default_rng(config.seed))
        write_run_rules(out, rulesets, result.weights, vocab)
        # CSV with CRLF line ends, as the csv module writes it; no field needs quoting.
        rows = [f"{stats.iteration},{stats.l_g!r},{stats.l_r!r},{stats.train_f1!r}" for stats in result.diagnostics]
        core.write_lines(out / "diagnostics.csv", (row + "\r" for row in ["iteration,l_g,l_r,train_f1", *rows]))
    return 0


def cmd_infer(args) -> int:
    run_dir = Path(args.run)
    config = em.EMConfig.from_json(_load_config_section(run_dir / "config.json", "em"))
    vocab = core.read_vocab_file(run_dir / "vocab.txt")
    weights = ExtractorWeights.load(run_dir / "extractor.json", vocab)
    # ``train`` computed the rule sets once, with ``em.inference_rulesets``,
    # and wrote them to rules.txt; the generator is not loaded here.
    rulesets = read_run_rules(run_dir / "rules.txt", weights, vocab, config.max_rule_len)
    resolved = {"em": config.to_json(), "run": str(run_dir), "documents": args.documents, "out": args.out}
    _echo(resolved)
    # The run directory is only read, so it is not locked: inferences from
    # one run may overlap.
    corpus = core.load_corpus(args.documents, vocab)
    terms = em.inference_terms(rulesets, weights, vocab)
    predictions = metrics.PredictionSet()
    explanations: dict[str, dict[tuple[int, int, int], list]] = {}
    text_of = dict(zip(terms.rules, terms.texts))
    for doc_id, doc in corpus.docs.items():
        results = em.explain_document(doc, terms, top=5)
        predictions.by_doc[doc_id] = {query: result.probability for query, result in results.items()}
        explanations[doc_id] = {
            query: [
                {"rule": text_of[c.rule], "weight": c.weight, "grounding": c.grounding,
                 "path": list(c.best_path)}
                for c in result.contributions
            ]
            for query, result in results.items()
        }
    metrics.write_predictions(args.out, predictions, vocab, explanations)
    return 0


def cmd_eval(args) -> int:
    vocab = core.read_vocab_file(args.vocab)
    resolved = {
        "predictions": args.predictions,
        "gold": args.gold,
        "vocab": args.vocab,
        "train_facts": args.train_facts,
        "eval_rules": args.eval_rules,
        "out": args.out,
    }
    _echo(resolved)
    predictions = metrics.read_predictions(args.predictions, vocab)
    gold_corpus = core.load_corpus(args.gold, vocab)
    for doc_id, triples in predictions.by_doc.items():
        doc = gold_corpus.docs.get(doc_id)
        if doc is None:
            raise ValueError(f"{args.predictions}: doc {doc_id!r} is not a document of the gold file {args.gold}")
        for h, r, t in triples:
            if max(h, t) >= doc.num_entities:
                raise ValueError(f"{args.predictions}: doc {doc_id!r}: entity id out of range in predicted triple "
                                 f"[{h}, {vocab.name_of(r)!r}, {t}]; the gold document has {doc.num_entities} entities")
    gold = metrics.gold_by_doc(gold_corpus.docs)
    report: dict = {"f1": metrics.f1(predictions, gold).to_json()}
    if args.train_facts:
        train_corpus = core.load_corpus(args.train_facts, vocab)
        train_facts = metrics.name_facts(train_corpus.docs, vocab)
        report["ign_f1"] = metrics.ign_f1(predictions, gold, train_facts, gold_corpus.docs, vocab).to_json()
    if args.eval_rules:
        rules = [rule for rule, _ in core.read_rules_file(args.eval_rules, vocab)]
        report["logic"] = metrics.logic_score(predictions, rules).to_json()
    print(json.dumps(report, sort_keys=True, indent=2))
    width = max(len(name) for name in report)
    for name in sorted(report):
        values = report[name]
        rendered = "  ".join(f"{key}={value:.4f}" if isinstance(value, float) else f"{key}={value}"
                             for key, value in values.items())
        print(f"{name.ljust(width)}  {rendered}")
    if args.out:
        core.write_json(args.out, report, indent=2)
    return 0


def cmd_oracle(args) -> int:
    from .oracles import run_oracles

    resolved = {"scope": args.scope, "seed": args.seed if args.seed is not None else 0}
    _echo(resolved)
    reports = run_oracles(args.scope, seed=resolved["seed"])
    all_passed = True
    for report in reports:
        print(report.line())
        for note in report.notes[:5]:
            print(f"    {note}")
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rulex", description="latent logic rule engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--config", help="JSON config file (synth section)")
    p_synth.add_argument("--out", required=True, help="output corpus directory")
    p_synth.add_argument("--seed", type=int)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train generator and extractor")
    p_train.add_argument("--corpus", required=True, help="corpus directory from synth or ingestion")
    p_train.add_argument("--out", required=True, help="run directory")
    p_train.add_argument("--config", help="JSON config file (em section)")
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--inference-mode", choices=["sample", "top"])
    p_train.set_defaults(func=cmd_train)

    p_infer = sub.add_parser("infer", help="predict relations for documents")
    p_infer.add_argument("--run", required=True, help="run directory from train")
    p_infer.add_argument("--documents", required=True, help="JSONL document file")
    p_infer.add_argument("--out", required=True, help="predictions output file")
    p_infer.set_defaults(func=cmd_infer)

    p_eval = sub.add_parser("eval", help="score predictions against gold")
    p_eval.add_argument("--predictions", required=True)
    p_eval.add_argument("--gold", required=True, help="gold JSONL document file")
    p_eval.add_argument("--vocab", required=True)
    p_eval.add_argument("--train-facts", help="train JSONL for ign F1 exclusion")
    p_eval.add_argument("--eval-rules", help="rules file for logic scoring")
    p_eval.add_argument("--out", help="write the JSON report here too")
    p_eval.set_defaults(func=cmd_eval)

    p_oracle = sub.add_parser("oracle", help="run brute-force equivalence suites")
    p_oracle.add_argument("--scope", default="all",
                          choices=["all", "grounding", "posterior", "normalization", "gradient"])
    p_oracle.add_argument("--seed", type=int)
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ``run_em`` reports any failed iteration, a MemoryError included, as a RuntimeError.
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
