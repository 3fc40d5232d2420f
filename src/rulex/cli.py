"""Command-line entry point: synth, train, infer, eval, oracle subcommands.

Every command echoes its fully resolved configuration (flags over config file
over defaults) as JSON before doing any work; feeding that echo back in as
the config file reproduces the outputs bit for bit.
"""

from __future__ import annotations

import argparse
import csv
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
from .generator import RuleGenerator

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


def _load_config_section(path: str | None, section: str) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    value = obj.get(section, obj)
    if not isinstance(value, dict):
        raise ValueError(f"config section {section!r} must be a JSON object")
    return value


def _echo(config: dict) -> None:
    print(json.dumps(config, sort_keys=True, indent=2))
    sys.stdout.flush()


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
        with open(out / "config.json", "w", encoding="utf-8") as fh:
            json.dump(resolved, fh, sort_keys=True, indent=2)
            fh.write("\n")
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
        with open(out / "config.json", "w", encoding="utf-8") as fh:
            json.dump({"em": config.to_json()}, fh, sort_keys=True, indent=2)
            fh.write("\n")
        result.model.save(out / "generator.json")
        result.weights.save(out / "extractor.json", vocab)
        with open(out / "diagnostics.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "l_g", "l_r", "train_f1"])
            for stats in result.diagnostics:
                writer.writerow([stats.iteration, repr(stats.l_g), repr(stats.l_r), repr(stats.train_f1)])
    return 0


def cmd_infer(args) -> int:
    run_dir = Path(args.run)
    with open(run_dir / "config.json", encoding="utf-8") as fh:
        run_config = json.load(fh)
    config = em.EMConfig.from_json(run_config.get("em", {}))
    model = RuleGenerator.load(run_dir / "generator.json")
    vocab = model.vocab
    weights = ExtractorWeights.load(run_dir / "extractor.json", vocab)
    resolved = {"em": config.to_json(), "run": str(run_dir), "documents": args.documents, "out": args.out}
    _echo(resolved)
    # The run directory is only read, so it is not locked: inferences from
    # one run may overlap.
    corpus = core.load_corpus(args.documents, vocab)
    rng = np.random.default_rng(config.seed)
    rulesets = em.inference_rulesets(model, vocab, config, rng)
    predictions = metrics.PredictionSet()
    explanations: dict[str, dict[tuple[int, int, int], list]] = {}
    cache = em.GroundingCache()
    for doc_id, doc in corpus.docs.items():
        preds = em.predict_document(doc, vocab, model, weights, config, rng, cache, rulesets)
        predictions.by_doc[doc_id] = preds
        explanations[doc_id] = {
            query: [
                {"rule": core.format_rule(c.rule, vocab), "weight": c.weight, "grounding": c.grounding,
                 "path": list(c.best_path)}
                for c in em.explain(doc, query, rulesets[query[1]], weights, vocab, cache, top=5).contributions
            ]
            for query in sorted(preds)
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
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
